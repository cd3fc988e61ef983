"""Modulation analysis around one soliton or an even soliton pair.

A state (u, v) near the reference family

    R(z) = sign * (Q(. - z) + sigma * Q(. + z)),    sigma in {0, 1}

is written as u = R(z) + eps, v = eta, with the center z fixed by the damped
orthogonality condition

    G(z) = integral (v + 2 alpha (u - R(z))) * Q'(. - z) = 0,

which makes the residual transverse to translation for the damped flow.  The
residual is then resolved into the eigenmode amplitudes of the linearized
problem,

    a_pm = integral (eta - nu_mp * eps) phi(. - z),   a_0 = integral eta Q'(. - z),

(a_plus grows like exp(nu_plus t), a_minus and a_0 decay), and into the
twisted quadratic forms script-E and script-G used as Lyapunov functionals.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import profiles
from .errors import NoConvergenceError, OutOfTubeError, ParameterError
from .field import GridSpec, PhysParams, gradient_sq, h1_sq, l2_sq, trapezoid

# the tube around the reference family that fit_center accepts, the weight of
# the decaying modes in script_G, and the twist mu = MU_FACTOR * alpha of
# script_E, which the proofs only need 'small enough' (0 < mu < 2 alpha)
TUBE_RADIUS = 0.3
L_WEIGHT = 100.0
MU_FACTOR = 0.1
# Newton tolerance on |G| and iteration budget of fit_center
FIT_TOL = 1e-10
FIT_MAX_ITER = 50


@dataclass
class ModulationFrame:
    """One state's center, amplitudes, twisted forms and reduced center ODE.

    z_dot_predicted = leading_term + trace_term, the two reported pieces of

        z' = [(-gamma (1+sigma) - 2 sigma) c_Q^2 e^{-2z}
              - gamma c_Q e^{-z} eps(0)] / (2 alpha ||Q'||^2);

    z_dot_measured needs the whole series (nan until the tracking driver
    sets it); relative_gap compares the two sides.
    """

    z: float
    a_plus: float
    a_minus: float
    a_zero: float
    script_E: float
    script_G: float
    eps_norm_H: float
    leading_term: float
    trace_term: float
    z_dot_predicted: float
    t: float = 0.0
    z_dot_measured: float = float("nan")

    @property
    def relative_gap(self) -> float:
        gap = abs(self.z_dot_measured - self.z_dot_predicted)
        return gap / max(abs(self.z_dot_predicted), 1e-12)


def fit_center(
    state,
    sigma: int,
    sign: int,
    z_guess: float,
    params: PhysParams,
    grid: GridSpec,
) -> ModulationFrame:
    """Newton-solve the orthogonality condition G(z) = 0 near z_guess and
    return the state's frame at the fitted center (see `decompose`).

    Raises NoConvergenceError after FIT_MAX_ITER iterations, OutOfTubeError when
    the converged center drifts more than TUBE_RADIUS from z_guess or the
    residual norm ||(eps, eta)||_H exceeds TUBE_RADIUS.
    """
    if sigma not in (0, 1) or sign not in (-1, 1):
        raise ParameterError(f"sigma must be 0/1 and sign +-1, got {sigma}, {sign}")
    if sigma == 1 and not z_guess > 2:
        raise ParameterError(f"pair decomposition needs z_guess > 2, got {z_guess}")
    p, alpha = params.p, params.alpha
    x = grid.x
    u, v = state.u, state.v

    z = float(z_guess)
    for _ in range(FIT_MAX_ITER):
        q_r = profiles.soliton_Q(x - z, p)
        qd_r = profiles.soliton_Q_deriv(x - z, p)
        ref = q_r.copy()
        if sigma:
            ref += profiles.soliton_Q(x + z, p)
        w = v + 2.0 * alpha * (u - sign * ref)
        g_val = trapezoid(w * qd_r, grid)
        if abs(g_val) <= FIT_TOL:
            break
        # d/dz of the quadrature: Q'(.-z) differentiates to -Q'' = -(Q - Q^p)
        qdd_r = q_r - q_r**p
        dg = -trapezoid(w * qdd_r, grid)
        corr = qd_r.copy()
        if sigma:
            corr -= profiles.soliton_Q_deriv(x + z, p)
        dg += 2.0 * alpha * sign * trapezoid(corr * qd_r, grid)
        if dg == 0.0 or not np.isfinite(dg):
            raise NoConvergenceError("singular Jacobian in center fit")
        z -= g_val / dg
        if not np.isfinite(z):
            raise NoConvergenceError("center fit diverged")
    else:
        raise NoConvergenceError(
            f"center fit: |G| > {FIT_TOL} after {FIT_MAX_ITER} iterations"
        )

    if abs(z - z_guess) > TUBE_RADIUS:
        raise OutOfTubeError(
            f"fitted center {z} drifted {abs(z - z_guess):.3g} from the guess"
        )
    frame = decompose(state, z, sigma, sign, params, grid)
    if frame.eps_norm_H > TUBE_RADIUS:
        raise OutOfTubeError(
            f"residual norm {frame.eps_norm_H:.3g} exceeds tube {TUBE_RADIUS}"
        )
    return frame


def decompose(
    state,
    z: float,
    sigma: int,
    sign: int,
    params: PhysParams,
    grid: GridSpec,
) -> ModulationFrame:
    """Split the state into (eps, eta) = (u - R(z), v) and read off its frame.

    script_E is the twisted quadratic form around the reference pair

    E = 1/2 int (d_x eps)^2 + (1 - rho mu) eps^2 + (eta + mu eps)^2
               - p (Q_+^{p-1} + sigma Q_-^{p-1}) eps^2   - gamma/2 u(0)^2,

    mu = MU_FACTOR * alpha, rho = 2 alpha - mu, u(0) the trace of the full
    field; script_G adds L_WEIGHT (a_minus^2 + a_zero^2).
    """
    alpha, p, gamma = params.alpha, params.p, params.gamma
    mu = MU_FACTOR * alpha
    con = profiles.spectral_constants(params)
    x = grid.x
    # each reference profile once: R(z) for eps, Q_pm^{p-1} for the potential
    q_r = profiles.soliton_Q(x - z, p)
    ref = q_r
    pot = p * q_r ** (p - 1.0)
    if sigma:
        q_l = profiles.soliton_Q(x + z, p)
        ref = q_r + q_l
        pot = pot + p * q_l ** (p - 1.0)
    eps = state.u - sign * ref
    eta = state.v
    phi_r = profiles.neutral_even_mode_phi(x - z, p)
    qd_r = profiles.soliton_Q_deriv(x - z, p)
    a_plus = trapezoid((eta - con.nu_minus * eps) * phi_r, grid)
    a_minus = trapezoid((eta - con.nu_plus * eps) * phi_r, grid)
    a_zero = trapezoid(eta * qd_r, grid)

    rho = 2.0 * alpha - mu
    quad = gradient_sq(eps, grid) + trapezoid(
        (1.0 - rho * mu) * eps**2 + (eta + mu * eps) ** 2 - pot * eps**2, grid
    )
    eps0 = float(eps[grid.center])
    u0 = sign * (1.0 + sigma) * profiles.soliton_Q(z, p) + eps0
    script_E = 0.5 * quad - 0.5 * gamma * u0 * u0

    denom = 2.0 * alpha * profiles.soliton_gradient_norm_sq(p)
    leading = ((-gamma * (1.0 + sigma) - 2.0 * sigma)
               * con.c_Q**2 * np.exp(-2.0 * z)) / denom
    trace = (-gamma * con.c_Q * np.exp(-z) * eps0) / denom
    return ModulationFrame(
        z=float(z),
        a_plus=a_plus,
        a_minus=a_minus,
        a_zero=a_zero,
        script_E=script_E,
        # products, not Python-float powers, which raise OverflowError
        script_G=script_E + L_WEIGHT * (a_minus * a_minus + a_zero * a_zero),
        eps_norm_H=float(np.sqrt(h1_sq(eps, grid) + l2_sq(eta, grid))),
        leading_term=leading,
        trace_term=trace,
        z_dot_predicted=leading + trace,
        t=float(state.t),
    )


@dataclass
class DriftReport:
    """Finite-difference check of the eigenmode ODEs da/dt = rate * a + err."""

    times: np.ndarray
    residual_plus: np.ndarray
    residual_minus: np.ndarray
    residual_zero: np.ndarray
    bound_scale: np.ndarray
    rate_plus: float
    rate_minus: float
    rate_zero: float


def _fit_rate(t: np.ndarray, a: np.ndarray) -> float:
    if np.all(a > 0) or np.all(a < 0):
        return float(np.polyfit(t, np.log(np.abs(a)), 1)[0])
    return float("nan")


def eigenmode_drift_check(frames, params: PhysParams) -> DriftReport:
    """Compare da/dt against the linear rates nu_plus, nu_minus, -2 alpha.

    Residuals are reported next to the error scale exp(-2z) + ||(eps,eta)||^2
    of the modulation system; the frame stride must resolve the fastest rate
    (|nu_plus| * stride <= 0.2) or the check is rejected.
    """
    if len(frames) < 3:
        raise ParameterError("drift check needs at least 3 consecutive frames")
    t = np.array([f.t for f in frames])
    strides = np.diff(t)
    if np.max(np.abs(strides - strides[0])) > 1e-9:
        raise ParameterError("drift check needs a uniform frame stride")
    con = profiles.spectral_constants(params)
    if abs(con.nu_plus) * strides[0] > 0.2:
        raise ParameterError(
            f"stride {strides[0]} too coarse for rate {con.nu_plus}"
        )
    a_p = np.array([f.a_plus for f in frames])
    a_m = np.array([f.a_minus for f in frames])
    a_0 = np.array([f.a_zero for f in frames])
    z = np.array([f.z for f in frames])
    eps_n = np.array([f.eps_norm_H for f in frames])
    return DriftReport(
        times=t,
        residual_plus=np.abs(np.gradient(a_p, t) - con.nu_plus * a_p),
        residual_minus=np.abs(np.gradient(a_m, t) - con.nu_minus * a_m),
        residual_zero=np.abs(np.gradient(a_0, t) + 2.0 * params.alpha * a_0),
        bound_scale=np.exp(-2.0 * z) + eps_n**2,
        rate_plus=_fit_rate(t, a_p),
        rate_minus=_fit_rate(t, a_m),
        rate_zero=_fit_rate(t, a_0),
    )

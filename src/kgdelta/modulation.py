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

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from . import profiles
from .errors import NoConvergenceError, OutOfTubeError, ParameterError
from .field import GridSpec, PhysParams, gradient_sq, h1_sq, l2_sq, trapezoid

DEFAULT_TUBE_RADIUS = 0.3
DEFAULT_L_WEIGHT = 100.0
# Newton tolerance on |G| and iteration budget of fit_center
FIT_TOL = 1e-10
FIT_MAX_ITER = 50


def default_mu(params: PhysParams) -> float:
    """mu enters the twisted form; 'small enough' is pinned at alpha/10."""
    return 0.1 * params.alpha


@dataclass
class ModulationFrame:
    sigma: int
    sign: int
    z: float
    eps: np.ndarray = dc_field(repr=False)
    eta: np.ndarray = dc_field(repr=False)
    a_plus: float
    a_minus: float
    a_zero: float
    script_E: float
    script_G: float
    eps_norm_H: float
    t: float = 0.0


@dataclass
class ReducedODEReport:
    """Per-frame comparison of the fitted center motion with the reduced ODE.

    z_dot_predicted = leading_term + trace_term, the two reported pieces of

        z' = [(-gamma (1+sigma) - 2 sigma) c_Q^2 e^{-2z}
              - gamma c_Q e^{-z} eps(0)] / (2 alpha ||Q'||^2).
    """

    z_dot_measured: float
    z_dot_predicted: float
    leading_term: float
    trace_term: float
    relative_gap: float


def fit_center(
    state,
    sigma: int,
    sign: int,
    z_guess: float,
    params: PhysParams,
    grid: GridSpec,
    *,
    tube_radius: float = DEFAULT_TUBE_RADIUS,
) -> float:
    """Newton-solve the orthogonality condition G(z) = 0 near z_guess.

    Raises NoConvergenceError after FIT_MAX_ITER iterations, OutOfTubeError when
    the converged center leaves the trust interval around z_guess or the
    residual norm exceeds the tube radius.
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

    if abs(z - z_guess) > tube_radius:
        raise OutOfTubeError(
            f"fitted center {z} drifted {abs(z - z_guess):.3g} from the guess"
        )
    eps = u - sign * profiles.soliton_pair(x, z, sigma, p)
    resid = float(np.sqrt(h1_sq(eps, grid) + l2_sq(v, grid)))
    if resid > tube_radius:
        raise OutOfTubeError(f"residual norm {resid:.3g} exceeds tube {tube_radius}")
    return z


def decompose(
    state,
    z: float,
    sigma: int,
    sign: int,
    params: PhysParams,
    grid: GridSpec,
    *,
    mu: float | None = None,
    L_weight: float = DEFAULT_L_WEIGHT,
) -> ModulationFrame:
    """Split the state into (eps, eta) and project onto the eigenmodes."""
    p = params.p
    if mu is None:
        mu = default_mu(params)
    con = profiles.spectral_constants(params)
    eps = state.u - sign * profiles.soliton_pair(grid.x, z, sigma, p)
    eta = state.v.copy()
    phi_r = profiles.neutral_even_mode_phi(grid.x - z, p)
    qd_r = profiles.soliton_Q_deriv(grid.x - z, p)
    a_plus = trapezoid((eta - con.nu_minus * eps) * phi_r, grid)
    a_minus = trapezoid((eta - con.nu_plus * eps) * phi_r, grid)
    a_zero = trapezoid(eta * qd_r, grid)
    frame = ModulationFrame(
        sigma=sigma,
        sign=sign,
        z=float(z),
        eps=eps,
        eta=eta,
        a_plus=a_plus,
        a_minus=a_minus,
        a_zero=a_zero,
        script_E=0.0,
        script_G=0.0,
        eps_norm_H=float(np.sqrt(h1_sq(eps, grid) + l2_sq(eta, grid))),
        t=float(state.t),
    )
    frame.script_E = script_E(frame, mu, params, grid)
    frame.script_G = frame.script_E + L_weight * (a_minus**2 + a_zero**2)
    return frame


def script_E(frame: ModulationFrame, mu: float, params: PhysParams, grid: GridSpec) -> float:
    """Twisted quadratic form around the reference pair.

    E = 1/2 int (d_x eps)^2 + (1 - rho mu) eps^2 + (eta + mu eps)^2
               - p (Q_+^{p-1} + sigma Q_-^{p-1}) eps^2   - gamma/2 u(0)^2,

    rho = 2 alpha - mu, and u(0) is the trace of the full field.
    """
    alpha, p, gamma = params.alpha, params.p, params.gamma
    if not 0.0 < mu < 2.0 * alpha:
        raise ParameterError(f"mu must lie in (0, 2*alpha), got {mu}")
    rho = 2.0 * alpha - mu
    eps, eta, z, sigma = frame.eps, frame.eta, frame.z, frame.sigma
    pot = p * profiles.soliton_Q(grid.x - z, p) ** (p - 1.0)
    if sigma:
        pot = pot + p * profiles.soliton_Q(grid.x + z, p) ** (p - 1.0)
    quad = gradient_sq(eps, grid) + trapezoid(
        (1.0 - rho * mu) * eps**2 + (eta + mu * eps) ** 2 - pot * eps**2, grid
    )
    q_at_z = profiles.soliton_Q(z, p)
    u0 = frame.sign * (1.0 + sigma) * q_at_z + float(eps[grid.center])
    return 0.5 * quad - 0.5 * gamma * u0 * u0


@lru_cache(maxsize=16)
def _qprime_sq(p: float) -> float:
    return profiles.soliton_gradient_norm_sq(p)


def predicted_zdot(frame: ModulationFrame, params: PhysParams) -> ReducedODEReport:
    """Prediction side of the reduced center ODE (measured side filled by
    the tracking driver)."""
    gamma, alpha = params.gamma, params.alpha
    con = profiles.spectral_constants(params)
    denom = 2.0 * alpha * _qprime_sq(params.p)
    center = (len(frame.eps) - 1) // 2
    eps0 = float(frame.eps[center])
    z = frame.z
    leading = ((-gamma * (1.0 + frame.sigma) - 2.0 * frame.sigma)
               * con.c_Q**2 * np.exp(-2.0 * z)) / denom
    trace = (-gamma * con.c_Q * np.exp(-z) * eps0) / denom
    return ReducedODEReport(
        z_dot_measured=float("nan"),
        z_dot_predicted=leading + trace,
        leading_term=leading,
        trace_term=trace,
        relative_gap=float("nan"),
    )


def relative_gap(measured: float, predicted: float) -> float:
    return abs(measured - predicted) / max(abs(predicted), 1e-12)


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

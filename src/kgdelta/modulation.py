"""Modulation analysis around one soliton or an even soliton pair.

A state (u, v) near the reference family

    R(z) = Q(. - z) + sigma * Q(. + z),    sigma in {0, 1}

(built, with Q and Q' of each soliton, by `profiles.soliton_pair`) is written
as u = R(z) + eps, v = eta, with the center z fixed by the damped
orthogonality condition

    G(z) = integral (v + 2 alpha (u - R(z))) * Q'(. - z) = 0,

which makes the residual transverse to translation for the damped flow.  The
residual is then resolved into the eigenmode amplitudes of the linearized
problem,

    a_pm = integral (eta - nu_mp * eps) phi(. - z),   a_0 = integral eta Q'(. - z),

(a_plus grows like exp(nu_plus t), a_minus and a_0 decay), and into the
twisted quadratic forms script-E and script-G used as Lyapunov functionals.
The flow is odd in (u, v), so a state near -R(z) is read as the negated
state near R(z); `experiments.track_center` does that negation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import profiles
from .errors import NoConvergenceError, OutOfTubeError, ParameterError
from .field import GridSpec, PhysParams, _dirichlet_form, _trapezoid, _trapezoids

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
    z_guess: float,
    params: PhysParams,
    grid: GridSpec,
    at_guess: list | None = None,
) -> ModulationFrame:
    """Newton-solve the orthogonality condition G(z) = 0 near z_guess for a
    state near +R(z) and return its frame at the fitted center (see
    `decompose`).

    at_guess, when given, is a caller-owned one-item list: on entry None or
    `profiles.soliton_pair` at z_guess, which the first iterate then takes
    as is; on a converged fit, the soliton_pair at its center.  So a series
    whose next guess is this frame's z evaluates no profile twice.

    Raises NoConvergenceError after FIT_MAX_ITER iterations, OutOfTubeError when
    the converged center drifts more than TUBE_RADIUS from z_guess or the
    residual norm ||(eps, eta)||_H exceeds TUBE_RADIUS.
    """
    if sigma == 1 and not z_guess > 2:
        raise ParameterError(f"pair decomposition needs z_guess > 2, got {z_guess}")
    p, alpha = params.p, params.alpha
    x, u, v, h = grid.x, state.u, state.v, grid.h

    z = float(z_guess)
    at_z = at_guess[0] if at_guess else None
    # the Newton products; _trapezoid needs no length check on these buffers
    w, prod = np.empty(grid.n), np.empty(grid.n)
    for _ in range(FIT_MAX_ITER):
        ref, (q_r, qd_r, _), left = at_z = at_z or profiles.soliton_pair(x, z, sigma, p)
        np.add(v, np.multiply(np.subtract(u, ref, w), 2.0 * alpha, w), w)
        g_val = _trapezoid(np.multiply(w, qd_r, prod), h)
        if abs(g_val) <= FIT_TOL:
            break
        # d/dz of the quadrature: Q'(.-z) differentiates to -Q'' = -(Q - Q^p)
        qdd_r = np.subtract(q_r, np.power(q_r, p, prod), prod)
        dg = -_trapezoid(np.multiply(w, qdd_r, prod), h)
        corr = np.subtract(qd_r, left[1], prod) if sigma else qd_r
        dg += 2.0 * alpha * _trapezoid(np.multiply(corr, qd_r, prod), h)
        if dg == 0.0 or not np.isfinite(dg):
            raise NoConvergenceError("singular Jacobian in center fit")
        z -= g_val / dg
        at_z = None
        if not np.isfinite(z):
            raise NoConvergenceError("center fit diverged")
    else:
        raise NoConvergenceError(
            f"center fit: |G| > {FIT_TOL} after {FIT_MAX_ITER} iterations"
        )
    if at_guess is not None:
        at_guess[0] = at_z

    if abs(z - z_guess) > TUBE_RADIUS:
        raise OutOfTubeError(
            f"fitted center {z} drifted {abs(z - z_guess):.3g} from the guess"
        )
    frame = decompose(state, z, sigma, params, grid, _profiles=at_z)
    if frame.eps_norm_H > TUBE_RADIUS:
        raise OutOfTubeError(
            f"residual norm {frame.eps_norm_H:.3g} exceeds tube {TUBE_RADIUS}"
        )
    return frame


def decompose(
    state,
    z: float,
    sigma: int,
    params: PhysParams,
    grid: GridSpec,
    *,
    _profiles=None,
) -> ModulationFrame:
    """Split a state near +R(z) into (eps, eta) = (u - R(z), v) and read off
    its frame.

    script_E is the twisted quadratic form around the reference pair

    E = 1/2 int (d_x eps)^2 + (1 - rho mu) eps^2 + (eta + mu eps)^2
               - p (Q_+^{p-1} + sigma Q_-^{p-1}) eps^2   - gamma/2 u(0)^2,

    mu = MU_FACTOR * alpha, rho = 2 alpha - mu, u(0) the trace of the full
    field; script_G adds L_WEIGHT (a_minus^2 + a_zero^2).  fit_center passes
    as `_profiles` the `profiles.soliton_pair` of its converged iterate, which
    is what decompose would evaluate at z.
    """
    alpha, p, gamma = params.alpha, params.p, params.gamma
    mu = MU_FACTOR * alpha
    con = profiles.spectral_constants(params)
    # each reference profile once: R(z) for eps, Q_pm^{p-1} for the potential
    ref, (q_r, qd_r, lc_r), left = _profiles or profiles.soliton_pair(grid.x, z, sigma, p)
    pot = p * q_r ** (p - 1.0)
    if sigma:
        pot = pot + p * left[0] ** (p - 1.0)
    eps = state.u - ref
    eta = state.v
    phi_r = profiles._phi_of_logcosh(lc_r, p)
    rho = 2.0 * alpha - mu
    # the six integrands, each in its own operation order, as the rows of
    # one array summed by one reduction; the last row is scratch
    rows = np.empty((7, grid.n))
    i_plus, i_minus, i_zero, i_quad, eps_sq, eta_sq, tmp = rows
    np.multiply(eps, eps, eps_sq)
    np.multiply(eta, eta, eta_sq)
    for row, nu in ((i_plus, con.nu_minus), (i_minus, con.nu_plus)):
        np.multiply(np.subtract(eta, np.multiply(eps, nu, row), row), phi_r, row)
    np.multiply(eta, qd_r, i_zero)
    # (1 - rho mu) eps^2 + (eta + mu eps)^2 - pot eps^2
    np.add(eta, np.multiply(eps, mu, i_quad), i_quad)
    np.add(np.multiply(eps_sq, 1.0 - rho * mu, tmp), np.square(i_quad, i_quad), i_quad)
    np.subtract(i_quad, np.multiply(pot, eps_sq, tmp), i_quad)
    a_plus, a_minus, a_zero, quad, l2_eps, l2_eta = _trapezoids(rows[:6], grid.h)
    grad_eps = _dirichlet_form(eps, grid.h, tmp[1:])
    quad = grad_eps + quad
    eps0 = float(eps[grid.center])
    u0 = float(ref[grid.center]) + eps0
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
        # h1_sq(eps) + l2_sq(eta), in its operation order
        eps_norm_H=float(np.sqrt(grad_eps + l2_eps + l2_eta)),
        leading_term=leading,
        trace_term=trace,
        z_dot_predicted=leading + trace,
        t=float(state.t),
    )

"""Test-side oracles: reference functionals and spectral checks that the
paper-fact tests assert on and that no `kg` command runs.

They sit beside the tests that import them (`from oracles import ...`), not
in `kgdelta`, so the package holds only what `kg` runs.  Each is built on
the package's own functions, so every value is bitwise what the package
computes: `sample_functionals` and `functional_K_gamma` are built on
`field.action_terms`, and `track_center` is an `experiments.CenterTracker`
fed recorded states.  pytest does not collect this file, as its name does
not match `test_*.py`.
"""
from __future__ import annotations

import numpy as np

from kgdelta import profiles
from kgdelta.errors import ParameterError
from kgdelta.evolution import EXIT_COMPLETED, evolve
from kgdelta.experiments import CenterTracker, TrackReport, _check_family
from kgdelta.field import (
    GridSpec,
    PhysParams,
    State,
    _trapezoid,
    action_terms,
    build_operator,
    gradient_sq,
    l2_sq,
    max_stable_dt,
)
from kgdelta.variational import _nehari_lambda


# --------------------------------------------------------- field functionals

def h1_sq(u: np.ndarray, grid: GridSpec) -> float:
    return gradient_sq(u, grid) + l2_sq(u, grid)


def norm_L2(u: np.ndarray, grid: GridSpec) -> float:
    return float(np.sqrt(l2_sq(u, grid)))


def norm_H1(u: np.ndarray, grid: GridSpec) -> float:
    return float(np.sqrt(h1_sq(u, grid)))


def norm_H(state: State, grid: GridSpec) -> float:
    """Norm of (u, v) in H = H^1 x L^2."""
    return float(np.sqrt(h1_sq(state.u, grid) + l2_sq(state.v, grid)))


def energy_E_gamma(state: State, params: PhysParams, grid: GridSpec) -> float:
    """E_gamma = (||u||_H1^2 + ||v||^2 - gamma*u(0)^2)/2 - ||u||_{p+1}^{p+1}/(p+1)."""
    return sample_functionals(state.u, state.v, params, grid)[0]


def sample_functionals(u: np.ndarray, v: np.ndarray, params: PhysParams,
                       grid: GridSpec):
    """(E_gamma, K_gamma, ||u||_H1^2, ||v||^2) of the pair (u, v) from u's
    action_terms and the trapezoid of v^2: the functionals evolve records at
    each sample, each bitwise what h1_sq, l2_sq and functional_K_gamma
    return, as a reduction's row sums are bitwise the 1-D sums."""
    quad, lq, _, h1 = action_terms(u, params, grid)
    l2_v = _trapezoid(np.asarray(v) * v, grid.h)
    u0 = float(u[grid.center])
    e = 0.5 * (h1 + l2_v - params.gamma * u0 * u0) - lq / (params.p + 1.0)
    return e, quad - lq, h1, l2_v


def functional_K_gamma(u: np.ndarray, params: PhysParams, grid: GridSpec) -> float:
    """Nehari functional K_gamma = ||u||_H1^2 - gamma*u(0)^2 - ||u||_{p+1}^{p+1}."""
    quad, nonlin, _, _ = action_terms(u, params, grid)
    return quad - nonlin


def functional_J_gamma(u: np.ndarray, params: PhysParams, grid: GridSpec) -> float:
    """Static action J_gamma (the K-free part of the energy)."""
    quad, nonlin, _, _ = action_terms(u, params, grid)
    return 0.5 * quad - nonlin / (params.p + 1.0)


# ------------------------------------------------------- linear flow and L

def fit_linear_decay_rate(
    params: PhysParams,
    grid: GridSpec,
    u0: np.ndarray,
    T: float,
) -> float:
    """Exponential decay rate of the linear (f disabled) damped flow.

    Evolves (u0, 0) at dt = max_stable_dt with the nonlinearity off, then
    least-squares fits the slope of log ||(u, v)||_H over the tail window
    [T/2, T] and returns its negative.  Degenerate input (zero field,
    underflowed norms) yields NaN rather than raising.
    """
    traj = evolve(
        State(u=np.asarray(u0, dtype=float).copy(), v=np.zeros(grid.n)),
        T,
        max_stable_dt(grid.h, params.gamma),
        params,
        grid,
        with_nonlinearity=False,
        contamination_tol=np.inf,  # linear runs are allowed to fill the box
    )
    norms = traj.norm_H
    mask = traj.sample_times >= 0.5 * T
    if traj.exit != EXIT_COMPLETED or np.count_nonzero(mask) < 2:
        return float("nan")
    tail = norms[mask]
    if not np.all(np.isfinite(tail)) or np.any(tail <= 0.0):
        return float("nan")
    slope = np.polyfit(traj.sample_times[mask], np.log(tail), 1)[0]
    return float(-slope)


def linearized_residuals(z: float, grid: GridSpec, params: PhysParams) -> dict:
    """Discrete residuals of the two known spectral facts about L.

    L = -d_xx + 1 - p Q^(p-1)(. - z) has eigenpair (-nu^2, phi(. - z)) and
    kernel direction Q'(. - z); both residuals are relative L^2 norms and
    shrink at second order in h.
    """
    if not abs(z) + 10.0 < grid.L:
        raise ParameterError(
            f"profile at z = {z} overlaps the boundary of [-{grid.L}, {grid.L}]"
        )
    p = params.p
    free = build_operator(grid, 0.0)
    xs = grid.x - z
    potential = p * profiles.soliton_Q(xs, p) ** (p - 1.0)
    nu_sq = 0.25 * (p - 1.0) * (p + 3.0)

    phi = profiles.neutral_even_mode_phi(xs, p)
    eig_res = free.apply(phi) - potential * phi + nu_sq * phi
    qd = profiles.soliton_Q_deriv(xs, p)
    ker_res = free.apply(qd) - potential * qd

    return {
        "eig_residual": norm_L2(eig_res, grid) / norm_L2(phi, grid),
        "kernel_residual": norm_L2(ker_res, grid) / norm_L2(qd, grid),
    }


# ------------------------------------------------- shooting family, tracking

def scaling_curve(
    lam: float, varsigma: int, z: float, params: PhysParams, grid: GridSpec
) -> dict:
    """x(lambda) = J_gamma(e^lambda Q_pair) and its first two lambda-derivatives.

    Everything reduces to three quadratures of the closed-form profile pair
    (norm-squared in H1, squared trace at 0, p+1 power integral), evaluated
    by Gauss panels on the real line rather than on the grid so that the
    derivative identities hold to quadrature precision.
    """
    _check_family(lam, z, grid)
    p, gamma = params.p, params.gamma
    half_width = z + 40.0

    def h1_density(x):
        r, right, left = profiles.soliton_pair(x, z, varsigma, p)
        r_x = right[1] + left[1] if varsigma else right[1]
        return r**2 + r_x**2

    h1 = profiles.gauss_panels(h1_density, -half_width, half_width)
    trace_sq = profiles.soliton_pair(0.0, z, varsigma, p)[0] ** 2
    power = profiles.gauss_panels(
        lambda x: np.abs(profiles.soliton_pair(x, z, varsigma, p)[0]) ** (p + 1.0),
        -half_width, half_width,
    )

    quad = h1 - gamma * trace_sq
    e2 = np.exp(2.0 * lam)
    ep1 = np.exp((p + 1.0) * lam)
    return {
        "x_value": 0.5 * e2 * quad - ep1 * power / (p + 1.0),
        "x_prime": e2 * quad - ep1 * power,
        "x_double_prime": 2.0 * e2 * quad - (p + 1.0) * ep1 * power,
    }


def track_center(
    states: list,
    sigma: int,
    params: PhysParams,
    grid: GridSpec,
) -> TrackReport:
    """The report of a `CenterTracker` fed recorded states, a run's samples in
    time order (e.g. the `sample.copy()` of each sample an observer saw)."""
    tracker = CenterTracker(sigma, params, grid)
    for st in states:
        tracker(st)
    return tracker.report()


# ------------------------------------------------------------- Nehari set

def nehari_project(u: np.ndarray, params: PhysParams, grid: GridSpec) -> np.ndarray:
    """Rescale u onto {K_gamma = 0}: returns exp(lambda*) u with

        lambda* = log[(||u||_H1^2 - gamma u(0)^2) / ||u||_{p+1}^{p+1}] / (p-1),

    or raises ParameterError where u's terms or those of exp(lambda*) u overflow.
    """
    quad, nonlin, _, _ = action_terms(u, params, grid)
    return np.exp(_nehari_lambda(quad, nonlin, params.p)) * u

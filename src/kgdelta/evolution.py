"""Time evolution: the damped leapfrog stepper on `field`'s operator A, and
the sample record of a run with its dissipation ledger.

Time discretization is the central-difference scheme with trapezoidal
damping,

    (u+ - 2u0 + u-)/dt^2 + alpha (u+ - u-)/dt = -A u0 + f(u0),

advanced here in an algebraically equivalent one-step form on (u, v) that
carries the scaled force G = dt^2/2 (f(u) - A u):

    u+ = u0 + dt (1 - alpha dt) v0 + G0
    v+ = ((u+ - u0) + G+) / (dt (1 + alpha dt))

with v the centered velocity (u+ - u-)/(2 dt).  Substituting v0 eliminates
u- and reproduces the two-level recurrence up to rounding; the first step is
then automatically the second-order Taylor bootstrap using u_tt(0) from the
PDE.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import profiles
from .errors import GridError, NoConvergenceError, ParameterError
from .field import (
    DiscreteOperator,
    GridSpec,
    PhysParams,
    State,
    _dirichlet_form,
    build_operator,
    dt_bound_text,
    dt_is_stable,
    is_even,
    max_stable_dt,
    norm_L2,
    sample_functionals,
)

EXIT_COMPLETED = "Completed"
EXIT_BLOWUP_CAP = "BlowupCap"
EXIT_CONTAMINATION = "BoundaryContamination"
EXIT_NONFINITE = "NonFinite"

DEFAULT_CAP = 1.0e3
# Newton tolerance and iteration budget of discrete_stationary_profile
PROFILE_TOL = 1e-12
PROFILE_MAX_ITER = 50


def nonlinearity(u: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """Focusing power nonlinearity f(u) = |u|^(p-1) u (odd in u).

    out, when given, receives the result and must not alias u.
    """
    if p == 3.0:
        out = np.multiply(u, u, out=out)
        return np.multiply(out, u, out=out)
    out = np.abs(u, out=out)
    if p == 4.0:
        np.multiply(out, u, out=out)
        np.multiply(out, u, out=out)
        return np.multiply(out, u, out=out)
    np.power(out, p - 1.0, out=out)
    return np.multiply(out, u, out=out)


class _Leapfrog:
    """The stepping kernel: one damped leapfrog step, in place, in the
    scaled-force form of the module docstring.

    A step is drift (the position update) then kick (the scaled force at the
    new position and the velocity update).  Both write into caller-owned
    buffers, which must not alias their inputs; `work` is private scratch.
    A force is one operator apply, one nonlinearity and two passes, and a
    step has no divide.  dt^2/2 scales f - A u, not the stencil: rounded
    products dt^2/2 * diag and dt^2/2 * off_diag would move the stencil's
    mass term (2/h^2 + 1) - 2/h^2 by up to an ulp of dt^2/h^2, relative to
    dt^2/2, which the unstable mode of near-threshold runs amplifies.
    """

    def __init__(self, operator: DiscreteOperator, params: PhysParams, dt: float,
                 with_nonlinearity: bool):
        a = params.alpha
        self.c_g = 0.5 * dt * dt
        self.apply = operator.apply
        self.p = params.p if with_nonlinearity else None
        self.c_v = dt * (1.0 - a * dt)
        self.k_v = 1.0 / (dt * (1.0 + a * dt))
        self.work = np.empty(len(operator.diag))

    def force(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """G = dt^2/2 (f(u) - A u) into out."""
        self.apply(u, out=out)
        if self.p is None:
            return np.multiply(out, -self.c_g, out=out)
        np.subtract(nonlinearity(u, self.p, out=self.work), out, out=out)
        return np.multiply(out, self.c_g, out=out)

    def drift(self, u: np.ndarray, v: np.ndarray, g: np.ndarray,
              out: np.ndarray) -> float:
        """u+ = u + dt (1 - alpha dt) v + G into out; returns sup |u+|."""
        np.multiply(v, self.c_v, out=out)
        np.add(out, u, out=out)
        np.add(out, g, out=out)
        out[0] = 0.0
        out[-1] = 0.0
        return float(np.maximum.reduce(np.abs(out, out=self.work)))

    def kick(self, u: np.ndarray, u1: np.ndarray, g1: np.ndarray,
             v1: np.ndarray) -> None:
        """G+ = force(u+) into g1, then v+ = ((u+ - u) + G+)/(dt (1 + alpha dt))
        into v1."""
        self.force(u1, g1)
        np.subtract(u1, u, out=v1)
        np.add(v1, g1, out=v1)
        np.multiply(v1, self.k_v, out=v1)
        v1[0] = 0.0
        v1[-1] = 0.0


def _dot_l2_sq(w: np.ndarray, h: float) -> float:
    """Trapezoid ||w||^2 from one np.dot: the ledger's per-step norm.  The
    endpoint terms are float products, which overflow to inf, never raise."""
    w0, w1 = float(w[0]), float(w[-1])
    return h * (float(np.dot(w, w)) - 0.5 * (w0 * w0 + w1 * w1))


def _half_l2_sq(w: np.ndarray, h: float) -> float:
    """_dot_l2_sq of an even array from its window w = [center - 1, n):
    h (2 sum_{j > center} w_j^2 + w_center^2 - w_{n-1}^2), one np.dot."""
    tail = w[2:]
    wc, w1 = float(w[1]), float(w[-1])
    return h * (2.0 * float(np.dot(tail, tail)) + wc * wc - w1 * w1)


@dataclass
class Sample(State):
    """A recorded state with the functionals evolve() computed for it."""

    E: float = float("nan")  # E_gamma
    K: float = float("nan")  # K_gamma
    norm_H: float = float("nan")  # ||(u, v)||_H


@dataclass
class Trajectory:
    """Sample record of one run, with its dissipation ledger.

    Every array has one entry per sample, in time order: the time, E_gamma,
    the damping integral, the accumulated integral of ||u||^2, K_gamma,
    ||(u, v)||_H, ||u||_H1, ||v||_L2 and u(0); evolve builds them from one
    row per sample.  The sample arrays are `field.sample_functionals` of
    each sample, so bitwise what the matching `field` functionals return
    on it, except that a linear run's E_gamma has no potential term.
    damping[k] accumulates 2*alpha*integral_0^{t_k} ||u_t||^2 dt (trapezoid
    in time over every step, not just the sampled ones), and mass_integrals
    the integral of ||u||^2 likewise; their per-step trapezoid norms come
    from one np.dot each (over the right half, on an even run), so they
    agree with `field.l2_sq` to rounding.
    energies[k] - energies[0] + damping[k] ~ 0 is the discrete version of
    the dissipation identity.  final is the last recorded sample; after a
    NonFinite exit that is the last sample recorded before the failed step.
    """

    sample_times: np.ndarray
    energies: np.ndarray
    damping: np.ndarray
    mass_integrals: np.ndarray  # accumulated integral of ||u||^2 (for M)
    K_gamma: np.ndarray
    norm_H: np.ndarray
    norm_H1: np.ndarray
    norm_L2_v: np.ndarray
    u_center: np.ndarray
    final: Sample
    exit: str

    @property
    def damping_integral(self) -> float:
        return float(self.damping[-1])

    @property
    def sup_norm_H(self) -> float:
        return float(max(self.norm_H))


def _outer_energy(u: np.ndarray, v: np.ndarray, grid: GridSpec) -> float:
    """H-type energy carried by the outer 10% of the domain (contamination)."""
    m = max(2, grid.n // 10)
    e = 0.0
    for sl in (slice(0, m), slice(grid.n - m, grid.n)):
        uu, vv = u[sl], v[sl]
        e += grid.h * (float(np.dot(uu, uu)) + float(np.dot(vv, vv)))
        e += _dirichlet_form(uu, grid.h)
    return e


def evolve(
    state0: State,
    T: float,
    dt: float,
    params: PhysParams,
    grid: GridSpec,
    observer: Callable[[Sample], str | None] | None = None,
    *,
    snapshot_stride: int = 10,
    blowup_cap: float = DEFAULT_CAP,
    with_nonlinearity: bool = True,
    contamination_tol: float = 1e-6,
) -> Trajectory:
    """Run the stepper to time T (or early exit) recording decimated samples.

    The run takes round(T/dt) steps, so it ends at t0 + round(T/dt)*dt,
    which differs from t0 + T when T is not a multiple of dt; the
    Trajectory's final.t is the time actually reached.
    Samples (the Trajectory's rows, observer calls, contamination checks)
    happen every snapshot_stride steps and at the initial and final states;
    each sample's functionals come from `field.sample_functionals`.
    The observer, when given, gets one `Sample` per sample, carrying t, u, v
    and its E_gamma, K_gamma and ||(u, v)||_H; its u and v are buffers reused
    at the next sample, so an observer that keeps states keeps
    `sample.copy()`.  An observer that returns an exit label ends the run at
    that sample with that label, ahead of any other exit there.  The damping
    integral 2*alpha*int ||u_t||^2 accumulates every
    step by the trapezoid rule in time.  A start whose E_gamma, K_gamma or
    ||(u, v)||_H is not finite raises ParameterError before any sample is
    recorded; step failures become exit codes, never raises.  Neither prints
    a floating-point warning.

    A start whose u and v each equal their reverse bit for bit stays so,
    since A's symmetric grouping is exact.  Such a run steps only the nodes
    [center - 1, n), where node center - 1 is a ghost that copies node
    center + 1 after every drift, and at each sample mirrors the right half
    into the left.  Its samples, observer calls and exit are bitwise the
    full grid's; only the damping and mass integrals, summed over the right
    half, move in their last bits.
    """
    if not dt_is_stable(dt, grid.h, params.gamma):
        raise ParameterError(f"dt = {dt} violates {dt_bound_text(grid.h, params.gamma)}")
    n = grid.n
    if len(state0.u) != n or len(state0.v) != n:
        raise GridError(
            f"sample counts {len(state0.u)}, {len(state0.v)} do not match grid n = {n}"
        )
    operator = build_operator(grid, params.gamma)
    h, center = grid.h, grid.center
    c_damp = 2.0 * params.alpha * dt * 0.5
    c_mass = dt * 0.5
    steps = T / dt
    if not math.isfinite(steps):
        raise ParameterError(f"T / dt = {steps} gives no finite step count")
    n_steps = max(0, int(round(steps)))
    t0 = state0.t

    # a state can overflow only where the start's finite check (in record(0))
    # or the NonFinite exit detects it, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.array(state0.u, dtype=float)
        v = np.array(state0.v, dtype=float)
        # an even run steps the window [center - 1, n) of every buffer
        even = is_even(u) and is_even(v)
        lo = center - 1 if even else 0
        kernel = _Leapfrog(DiscreteOperator(operator.diag[lo:], operator.off_diag),
                           params, dt, with_nonlinearity)
        l2_sq_step = _half_l2_sq if even else _dot_l2_sq
        # the state and its scaled force at the current step and the next,
        # swapped after every step
        u, v = u[lo:], v[lo:]
        g, u1, v1, g1 = (np.empty(n)[lo:] for _ in range(4))
        kernel.force(u, g)
        # the last recorded sample's state: the only state a run keeps
        last_u, last_v = np.empty(n), np.empty(n)
        final = None

        rows = []  # one row of the Trajectory's arrays per sample
        damping_acc = 0.0
        mass_acc = 0.0
        exit_code = EXIT_COMPLETED

        vsq = l2_sq_step(v, h)
        usq = l2_sq_step(u, h)

        def record(k: int) -> bool:
            nonlocal exit_code, final
            np.copyto(last_u[lo:], u)
            np.copyto(last_v[lo:], v)
            if even:  # the right half, mirrored
                last_u[:center] = u[:1:-1]
                last_v[:center] = v[:1:-1]
            e, kval, h1, l2_v = sample_functionals(last_u, last_v, params, grid)
            u0 = float(last_u[center])
            if not with_nonlinearity:  # the linear flow's energy: no |u|^(p+1) term
                e = 0.5 * (h1 + l2_v - params.gamma * u0 * u0)
            norm = math.sqrt(h1 + l2_v)
            if k == 0 and not (math.isfinite(e) and math.isfinite(kval)
                               and math.isfinite(norm)):
                # a start whose functionals overflow has no dissipation ledger
                raise ParameterError(
                    f"the initial state is not of finite energy: E = {e}, "
                    f"K = {kval}, ||(u, v)||_H = {norm}"
                )
            t = t0 + k * dt
            rows.append((t, e, damping_acc, mass_acc, kval, norm, math.sqrt(h1),
                         math.sqrt(l2_v), u0))
            final = Sample(u=last_u, v=last_v, t=t, E=e, K=kval, norm_H=norm)
            label = observer(final) if observer is not None else None
            if label:
                exit_code = label
                return False
            if _outer_energy(last_u, last_v, grid) > contamination_tol:
                exit_code = EXIT_CONTAMINATION
                return False
            return True

        ok = record(0)
        k = 0
        while ok and k < n_steps:
            sup = kernel.drift(u, v, g, u1)
            if not math.isfinite(sup):
                exit_code = EXIT_NONFINITE
                break
            if even:
                u1[0] = u1[2]  # the ghost
            kernel.kick(u, u1, g1, v1)
            v1sq = l2_sq_step(v1, h)
            u1sq = l2_sq_step(u1, h)
            damping_acc += c_damp * (vsq + v1sq)
            mass_acc += c_mass * (usq + u1sq)
            u, u1 = u1, u
            v, v1 = v1, v
            g, g1 = g1, g
            vsq, usq = v1sq, u1sq
            k += 1

            if sup > blowup_cap:
                exit_code = EXIT_BLOWUP_CAP
                record(k)  # the invariant wants the capped state on record
                break
            if k % snapshot_stride == 0 or k == n_steps:
                ok = record(k)

        return Trajectory(*map(np.asarray, zip(*rows)), final=final, exit=exit_code)


def discrete_stationary_profile(
    u_init: np.ndarray,
    params: PhysParams,
    grid: GridSpec,
) -> np.ndarray:
    """Newton-solve A u = f(u) starting from u_init (e.g. sampled Q_gamma).

    The continuum profile misses the discrete operator's equilibrium by O(h)
    at the delta node, and the equilibrium is dynamically unstable, so any
    stationarity study must start from the discrete root rather than raw
    samples.  The Jacobian A - p|u|^(p-1) is tridiagonal; endpoints stay
    pinned at the Dirichlet value 0.  From an even start every step mirrors
    the right half into the left (the solve eliminates one way), so the
    profile is exactly even and `evolve` steps it on the half-line.
    """
    operator = build_operator(grid, params.gamma)
    u = u_init.astype(float).copy()
    u[0] = u[-1] = 0.0
    even = is_even(u)
    for _ in range(PROFILE_MAX_ITER):
        res = operator.apply(u) - nonlinearity(u, params.p)
        # applying A costs ~2/h^2 * eps * ||u|| of rounding, so on fine
        # grids the absolute tol is unreachable; accept that floor
        floor = (8.0 * np.finfo(float).eps * (-2.0 * operator.off_diag)
                 * float(np.max(np.abs(u))))
        if float(np.max(np.abs(res[1:-1]))) < max(PROFILE_TOL, floor):
            return u
        u -= operator.solve(res, params.p * np.abs(u) ** (params.p - 1.0))
        if even:
            u[:grid.center] = u[:grid.center:-1]
    raise NoConvergenceError(
        f"stationary-profile Newton did not reach {PROFILE_TOL} in "
        f"{PROFILE_MAX_ITER} iterations"
    )


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

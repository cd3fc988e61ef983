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

`_Leapfrog`, the one stepping kernel, takes one whole step per call on two
buffer slots that it swaps itself, and tests the blowup cap on the mass
ledger's sum of squares of u+, with the exact sup |u+| only near the cap.
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
        out = np.multiply(u, u, out)
        return np.multiply(out, u, out)
    out = np.abs(u, out)
    if p == 4.0:
        np.multiply(out, u, out)
        np.multiply(out, u, out)
        return np.multiply(out, u, out)
    np.power(out, p - 1.0, out)
    return np.multiply(out, u, out)


class _Leapfrog:
    """The stepping kernel: a run's state (u, v, G = force(u)) in the slot
    `now`, advanced in place by one damped leapfrog step per `step` call
    (the scaled-force form of the module docstring), with its dissipation
    ledger.  `step` writes u+, v+ and G+ into the slot `next` and swaps the
    two, and `work` is scratch, so a step allocates no array and has no
    divide.  Its ufuncs take `out` positionally and its constants as 0-d
    arrays, which NumPy parses faster than keywords and floats.  dt^2/2
    scales f - A u, not the stencil: rounded products dt^2/2 * diag and
    dt^2/2 * off_diag would move the stencil's mass term (2/h^2 + 1) -
    2/h^2 by up to an ulp of dt^2/h^2, relative to dt^2/2, which the
    unstable mode of near-threshold runs amplifies.  An even run steps the
    window of `evolve`.

    The NonFinite and blowup_cap tests read the sum of squares of u+ that
    the mass ledger takes anyway, a bound on sup |u+|^2, and take the exact
    sup only when that sum is not finite or not below cap^2 (1 - 8 m eps),
    m the window's node count: the margin covers the rounding of the
    squares, their sum and cap^2.  A cap that is not positive, or whose
    square is below the smallest normal float (underflow could hide a node
    above it), always takes the exact sup; a cap^2 that overflows to inf is
    safe, as a finite sum bounds the sup below sqrt(DBL_MAX).  So every
    exit and its step are the exact sup's.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray, grid: GridSpec,
                 params: PhysParams, dt: float, with_nonlinearity: bool,
                 blowup_cap: float):
        a, n = params.alpha, grid.n
        self.c_g = np.array(0.5 * dt * dt * (1.0 if with_nonlinearity else -1.0))
        self.c_v = np.array(dt * (1.0 - a * dt))
        self.k_v = np.array(1.0 / (dt * (1.0 + a * dt)))
        self.c_damp = 2.0 * a * dt * 0.5
        self.c_mass = dt * 0.5
        self.p = params.p if with_nonlinearity else None
        self.h = grid.h
        self.even = is_even(u) and is_even(v)
        self.lo = lo = grid.center - 1 if self.even else 0
        operator = build_operator(grid, params.gamma)
        self.apply = DiscreteOperator(operator.diag[lo:], operator.off_diag).apply
        m = n - lo
        self.work = np.empty(m)
        fi = np.finfo(float)
        c = float(min(abs(blowup_cap), float(fi.max)))  # any int cap, as a float
        self.cap, cap_sq = blowup_cap, c * c
        self.safe_sq = (cap_sq * (1.0 - 8.0 * m * fi.eps)
                        if blowup_cap > 0.0 and cap_sq >= fi.tiny else 0.0)
        # a slot: u, v, G and the tails of u and v that the ledger dots
        tail = slice(2, None) if self.even else slice(None)
        u, v = u[lo:], v[lo:]
        g, u1, v1, g1 = (np.empty(n)[lo:] for _ in range(4))
        self.now = (u, v, g, u[tail], v[tail])
        self.next = (u1, v1, g1, u1[tail], v1[tail])
        self.force(u, g)
        # a stepped array's norm: h (c2 tail.tail + w[ic]^2), w[ic] its center or a 0 wall
        self.c2, self.ic = (2.0, 1) if self.even else (1.0, -1)
        self.usq, self.vsq = self._l2_sq(u, u[tail]), self._l2_sq(v, v[tail])
        # the ledger: 2 alpha int ||u_t||^2 dt and int ||u||^2 dt
        self.damping = self.mass = 0.0

    def _l2_sq(self, w: np.ndarray, tail: np.ndarray) -> float:
        """The trapezoid ||w||^2 of a start's array, walls included, from one
        np.dot over its tail.  The endpoint terms are float products, which
        overflow to inf, never raise."""
        s, w1 = float(tail.dot(tail)), float(w[-1])
        if self.even:
            wc = float(w[1])
            return self.h * (2.0 * s + wc * wc - w1 * w1)
        w0 = float(w[0])
        return self.h * (s - 0.5 * (w0 * w0 + w1 * w1))

    def force(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """G = dt^2/2 (f(u) - A u) into out."""
        self.apply(u, out, self.work)
        if self.p is not None:
            np.subtract(nonlinearity(u, self.p, self.work), out, out)
        return np.multiply(out, self.c_g, out)

    def step(self) -> str | None:
        """One step and the slot swap, with the ledger's trapezoid in time.
        Returns None, or the exit this step ends the run with: NonFinite
        before the force, leaving the slots as they were, or BlowupCap after
        the swap."""
        (u, v, g, _, _), (u1, v1, g1, ut1, vt1) = self.now, self.next
        stop = None
        np.multiply(v, self.c_v, u1)
        np.add(u1, u, u1)
        np.add(u1, g, u1)
        u1[-1] = 0.0
        u1[0] = u1[2] if self.even else 0.0  # the ghost, or the wall
        s, uc = float(ut1.dot(ut1)), float(u1[self.ic])
        if not s + uc * uc < self.safe_sq:
            sup = float(np.maximum.reduce(np.abs(u1, out=self.work)))
            if not math.isfinite(sup):
                return EXIT_NONFINITE
            if sup > self.cap:
                stop = EXIT_BLOWUP_CAP
        self.force(u1, g1)
        np.subtract(u1, u, v1)
        np.add(v1, g1, v1)
        np.multiply(v1, self.k_v, v1)
        v1[0] = v1[-1] = 0.0
        usq = self.h * (self.c2 * s + uc * uc)
        s, vc = float(vt1.dot(vt1)), float(v1[self.ic])
        vsq = self.h * (self.c2 * s + vc * vc)
        self.damping += self.c_damp * (self.vsq + vsq)
        self.mass += self.c_mass * (self.usq + usq)
        self.usq, self.vsq = usq, vsq
        self.now, self.next = self.next, self.now
        return stop


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


def _outer_energy(outer: list, h: float, scratch: np.ndarray) -> float:
    """H-type energy carried by the outer 10% of the domain (contamination):
    outer holds the (u, v) slices of its two ends, and scratch receives the
    differences of u."""
    e = 0.0
    for uu, vv in outer:
        e += h * (float(uu.dot(uu)) + float(vv.dot(vv)))
        e += _dirichlet_form(uu, h, scratch[1:len(uu)])
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
    steps = T / dt
    if not math.isfinite(steps):
        raise ParameterError(f"T / dt = {steps} gives no finite step count")
    n_steps = max(0, int(round(steps)))
    t0 = state0.t

    # a state can overflow only where the start's finite check (in record(0))
    # or the NonFinite exit detects it, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _Leapfrog(np.array(state0.u, dtype=float),
                           np.array(state0.v, dtype=float), grid, params, dt,
                           with_nonlinearity, blowup_cap)
        # the last recorded sample's state: the only state a run keeps, and
        # the buffers and contamination slices of its functionals
        last_u, last_v, scratch = np.empty(n), np.empty(n), np.empty((4, n))
        m = max(2, n // 10)
        outer = [(last_u[sl], last_v[sl]) for sl in (slice(0, m), slice(n - m, n))]
        final = None
        rows = []  # one row of the Trajectory's arrays per sample
        exit_code = EXIT_COMPLETED

        def record(k: int) -> bool:
            nonlocal exit_code, final
            u, v = kernel.now[:2]
            np.copyto(last_u[kernel.lo:], u)
            np.copyto(last_v[kernel.lo:], v)
            if kernel.even:  # the right half, mirrored
                last_u[:grid.center] = u[:1:-1]
                last_v[:grid.center] = v[:1:-1]
            e, kval, h1, l2_v = sample_functionals(last_u, last_v, params, grid,
                                                  scratch)
            u0 = float(last_u[grid.center])
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
            rows.append((t, e, kernel.damping, kernel.mass, kval, norm,
                         math.sqrt(h1), math.sqrt(l2_v), u0))
            final = Sample(u=last_u, v=last_v, t=t, E=e, K=kval, norm_H=norm)
            label = observer(final) if observer is not None else None
            if label:
                exit_code = label
                return False
            if _outer_energy(outer, grid.h, scratch[3]) > contamination_tol:
                exit_code = EXIT_CONTAMINATION
                return False
            return True

        ok = record(0)
        k = 0
        while ok and k < n_steps:
            stop = kernel.step()
            if stop == EXIT_NONFINITE:
                exit_code = stop
                break
            k += 1
            if stop:  # BlowupCap: the invariant wants the capped state on record
                exit_code = stop
                record(k)
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

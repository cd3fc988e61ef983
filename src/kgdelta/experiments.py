"""High-level drivers: certified decay/blowup classification, threshold
shooting over the scaled soliton family, and center tracking against the
half-log law.

Classification is by energy-level certificate: once the (dissipating) energy
E_gamma drops below the ground-state level of the start's sector minus a
safety margin, the sign of K_gamma decides the fate — K >= 0 decays to zero,
K < 0 blows up in finite time.  The margin CERT_MARGIN absorbs quadrature
error in both functionals; a BlowsUp certificate is additionally confirmed
by the run hitting the amplitude cap (or leaving floats) afterwards.

The shooting family is u = e^lambda (Q(. - z) + varsigma Q(. + z)), v = 0;
a search over lambda locates the threshold lambda* between the two fates.
Every probe is classified by its certificate; the next lambda is the zero of
a secant through the probes' recorded K_gamma at a common sample time, with
bisection as the fallback, so the bracket's ends stay certified.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from . import modulation, profiles, variational
from .errors import (
    BracketError,
    NoConvergenceError,
    OutOfTubeError,
    ParameterError,
)
from .evolution import (
    DEFAULT_CAP,
    EXIT_BLOWUP_CAP,
    EXIT_NONFINITE,
    Sample,
    Trajectory,
    evolve,
)
from .field import GridSpec, PhysParams, State, is_even, max_stable_dt

DECAYS = "Decays"
BLOWS_UP = "BlowsUp"
UNDETERMINED = "Undetermined"

# the certificate's safety margin below the ground-state level
CERT_MARGIN = 2e-3
# CenterTracker's frames with ||(eps, eta)||_H at most this are 'valid'
WINDOW_NORM = 0.05

# the exit label of a run the decay certificate stopped
EXIT_CERTIFIED_DECAY = "CertifiedDecay"

# bisect_threshold's steered step: the |K_gamma| up to which a sample is in
# the linear regime, the overshoot factor toward a stale end, and the margin
# (in units of tol) a steered point keeps from each end
K_WINDOW = 0.05
OVERSHOOT = 2.0
EDGE = 0.45


@dataclass
class ShotOutcome:
    classification: str
    certificate_time: float
    certificate: dict
    trajectory: Trajectory = dc_field(repr=False)


@dataclass
class ThresholdResult:
    lambda_star: float
    bracket_width: float
    probes: list
    bracket_lo: float
    bracket_hi: float
    decays_end: str  # "lo" or "hi": which end of the bracket decays
    converged: bool = True


def _check_family(lam: float, z: float, grid: GridSpec) -> None:
    if not -1.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must lie in [-1, 1], got {lam}")
    if not z + 10.0 < grid.L:
        raise ParameterError(
            f"soliton at z = {z} overlaps the boundary of [-{grid.L}, {grid.L}]"
        )


def initial_family(
    lam: float, varsigma: int, z: float, grid: GridSpec, params: PhysParams
) -> State:
    """Shooting initial data u = e^lambda (Q(.-z) + varsigma Q(.+z)), v = 0."""
    _check_family(lam, z, grid)
    u = profiles.soliton_pair(grid.x, z, varsigma, params.p)[0]
    return State(u=np.exp(lam) * u, v=np.zeros(grid.n))


def classify_trajectory(
    state0: State,
    params: PhysParams,
    grid: GridSpec,
    T_max: float,
    *,
    dt: float | None = None,
    blowup_cap: float = DEFAULT_CAP,
) -> ShotOutcome:
    """Evolve until an energy-level certificate decides the fate.

    The level is r_gamma when the start's u and v are even bit for bit
    (`field.is_even`: the run then stays even), else n_gamma; CERT_MARGIN is
    subtracted before comparison with the energy of every sample (every 10
    steps, `evolve`'s default).  Decays ends the run at the certificate
    sample with the exit "CertifiedDecay"; BlowsUp waits for the
    cap/NonFinite confirmation.  Contamination before any certificate, or
    no certificate by T_max, yields Undetermined.
    """
    symmetry = "even" if is_even(state0.u) and is_even(state0.v) else "none"
    level = variational.sector_level(params, symmetry)
    if dt is None:
        dt = max_stable_dt(grid.h, params.gamma)
    threshold = level - CERT_MARGIN

    certificate = {
        "E_gamma_at_cert": float("nan"),
        "K_gamma_at_cert": float("nan"),
        "level_used": level,
        "symmetry": symmetry,
    }
    certified, cert_time = False, float("nan")

    def watch(sample: Sample) -> str | None:
        nonlocal certified, cert_time
        if not certified and sample.E < threshold:
            certified, cert_time = True, sample.t
            certificate["E_gamma_at_cert"] = sample.E
            certificate["K_gamma_at_cert"] = sample.K
            if sample.K >= 0.0:
                return EXIT_CERTIFIED_DECAY
        return None

    traj = evolve(
        state0,
        T_max,
        dt,
        params,
        grid,
        observer=watch,
        blowup_cap=blowup_cap,
    )
    if certified and certificate["K_gamma_at_cert"] >= 0.0:
        classification = DECAYS
    elif certified and traj.exit in (EXIT_BLOWUP_CAP, EXIT_NONFINITE):
        classification = BLOWS_UP
    else:
        classification = UNDETERMINED
    return ShotOutcome(
        classification=classification,
        certificate_time=cert_time,
        certificate=certificate,
        trajectory=traj,
    )


def _secant_point(lo_pts: list, hi_pts: list) -> float | None:
    """The zero of K_gamma(T_s) in lambda, from the latest usable pair.

    lo_pts and hi_pts hold (lambda, Trajectory) of the certified probes on
    each side of the bracket, innermost last; the pairs are drawn from the
    two innermost of each side.  For each pair, T_s is the latest common
    sample at which the two K values differ and both lie within K_WINDOW of
    0 (else sample 0), and the estimate is the zero of the line through
    (lambda, K(T_s)).  Of the estimates strictly inside the bracket, the one
    with the latest T_s wins (the first pair in order on a tie).
    """
    lo, hi = lo_pts[-1][0], hi_pts[-1][0]
    pts = [lo_pts[-1], hi_pts[-1], *lo_pts[-2:-1], *hi_pts[-2:-1]]
    best, best_ts = None, -np.inf
    for (l1, t1), (l2, t2) in combinations(pts, 2):
        m = min(len(t1.K_gamma), len(t2.K_gamma))
        k1, k2 = t1.K_gamma[:m], t2.K_gamma[:m]
        usable = ((t1.sample_times[:m] == t2.sample_times[:m]) & (k1 != k2)
                  & (np.abs(k1) <= K_WINDOW) & (np.abs(k2) <= K_WINDOW))
        j = int(np.flatnonzero(usable)[-1]) if usable.any() else 0
        if k1[j] == k2[j]:
            continue
        est = l1 - float(k1[j]) * (l2 - l1) / float(k2[j] - k1[j])
        if t1.sample_times[j] > best_ts and lo < est < hi:
            best, best_ts = est, t1.sample_times[j]
    return best


def bisect_threshold(
    varsigma: int,
    z: float,
    params: PhysParams,
    grid: GridSpec,
    lambda_lo: float,
    lambda_hi: float,
    tol: float = 1e-10,
    T_max: float = 200.0,
    *,
    dt: float | None = None,
    blowup_cap: float = DEFAULT_CAP,
) -> ThresholdResult:
    """Steered search in lambda between a decaying and a blowing-up endpoint.

    Every probe is classified by its energy certificate, so both ends of the
    bracket stay certified; only the choice of the next lambda is steered.
    Its level follows from its data: an even pair (varsigma = 1) is bitwise
    even and certified against r_gamma, a single soliton against n_gamma.
    Near the threshold K_gamma(T_s; lambda) is smooth in lambda with a slope
    growing like e^{nu_+ T_s}, while K(T_s; lambda*) stays near the
    soliton's value 0, so the zero of the secant through two probes' K at a
    common sample time T_s (see `_secant_point`) lands close to lambda*.
    After two probes on the same side the point overshoots toward the stale
    end by OVERSHOOT times its distance from the last probe (at least
    EDGE*tol); every point is kept EDGE*tol inside each end.  With no
    estimate, or none strictly inside the bracket, the probe is the midpoint.

    Undetermined probes are re-run once with T_max doubled; a probe that
    stays Undetermined freezes the bracket (reported with converged=False)
    rather than guessing a side.  A bracket of two adjacent floats wider
    than tol cannot be split and also ends with converged=False.
    """
    if varsigma == 0:
        if not params.gamma < 0.0:
            raise ParameterError("single-soliton shooting requires gamma < 0")
    elif varsigma == 1:
        if not params.gamma <= -2.0:
            raise ParameterError("even-pair shooting requires gamma <= -2")
    else:
        raise ParameterError(f"varsigma must be 0 or 1, got {varsigma}")
    if not lambda_lo < lambda_hi:
        raise BracketError(f"empty bracket [{lambda_lo}, {lambda_hi}]")

    def probe(lam: float, horizon: float) -> ShotOutcome:
        return classify_trajectory(initial_family(lam, varsigma, z, grid, params),
                                   params, grid, horizon, dt=dt,
                                   blowup_cap=blowup_cap)

    probes: list = []

    def classified(lam: float) -> ShotOutcome:
        out = probe(lam, T_max)
        probes.append((lam, out))
        if out.classification == UNDETERMINED:
            out = probe(lam, 2.0 * T_max)
            probes.append((lam, out))
        return out

    out_lo = classified(lambda_lo)
    out_hi = classified(lambda_hi)

    kinds = {out_lo.classification, out_hi.classification}
    if kinds != {DECAYS, BLOWS_UP}:
        raise BracketError(
            f"bracket endpoints classify as {out_lo.classification} / "
            f"{out_hi.classification}; need one of each"
        )
    decays_end = "lo" if out_lo.classification == DECAYS else "hi"
    lo_kind = out_lo.classification

    # (lambda, trajectory) of the certified probes on each side, innermost last
    lo_pts = [(lambda_lo, out_lo.trajectory)]
    hi_pts = [(lambda_hi, out_hi.trajectory)]
    sides = [True, False]  # the side (lo: True) each certified probe fell on
    lo, hi = lambda_lo, lambda_hi
    converged = True
    while hi - lo > tol:
        lam = _secant_point(lo_pts, hi_pts)
        if lam is not None:
            if sides[-1] == sides[-2]:  # one end is stale: overshoot toward it
                last = lo if sides[-1] else hi
                push = OVERSHOOT * max(abs(lam - last), EDGE * tol)
                lam = lam + push if sides[-1] else lam - push
            lam = min(max(lam, lo + EDGE * tol), hi - EDGE * tol)
        if lam is None or not lo < lam < hi:
            lam = 0.5 * (lo + hi)
            if lam == lo or lam == hi:  # adjacent floats: tol is below their spacing
                converged = False
                break
        out = classified(lam)
        if out.classification == UNDETERMINED:
            converged = False
            break
        on_lo = out.classification == lo_kind
        (lo_pts if on_lo else hi_pts).append((lam, out.trajectory))
        sides.append(on_lo)
        if on_lo:
            lo = lam
        else:
            hi = lam
    return ThresholdResult(
        lambda_star=0.5 * (lo + hi),
        bracket_width=hi - lo,
        probes=probes,
        bracket_lo=lo,
        bracket_hi=hi,
        decays_end=decays_end,
        converged=converged,
    )


@dataclass
class TrackReport:
    times: np.ndarray
    z: np.ndarray
    frames: list
    valid_mask: np.ndarray
    sup_half_log: float
    empty: bool


class CenterTracker:
    """Fits z(t) along a run's samples as an `evolve` observer: each call
    fits one sample, which it does not keep, and returns None; `report()`
    compares the series with the reduced ODE.  The first guess of z is the
    peak of |u| on the first sample's right half; where u is negative there,
    each state (u, v, t) is fitted as (-u, -v, t), a state near +R(z), since
    the flow is odd in (u, v).  Fits are warm-started from the previous
    frame, whose converged `profiles.soliton_pair` is the next fit's first
    iterate; the series stops at the first frame that leaves the tube, where
    the fit fails, or where an even pair's guess is z <= 2.  Each fit runs
    under the floating-point error state in force where the tracker was
    made, so it warns inside `evolve` as it would after it."""

    def __init__(self, sigma: int, params: PhysParams, grid: GridSpec):
        self.sigma = sigma
        self.params = params
        self.grid = grid
        self.frames = []
        self.guess = None  # the next fit's guess of z, from the first sample on
        self.negate = False  # whether each state is fitted as (-u, -v, t)
        self.done = False
        self.at_guess = [None]  # the soliton_pair at guess, once a fit has converged there
        self.errstate = np.geterr()

    def __call__(self, st: State) -> None:
        grid = self.grid
        if self.guess is None:
            peak = grid.center + int(np.argmax(np.abs(st.u[grid.center:])))
            self.guess = float(grid.x[peak])
            self.negate = bool(st.u[peak] < 0)
        if self.sigma == 1 and not self.guess > 2:  # the pair fit needs z > 2
            self.done = True
        if self.done:
            return
        if self.negate:
            st = State(-st.u, -st.v, st.t)
        try:
            with np.errstate(**self.errstate):
                frame = modulation.fit_center(st, self.sigma, self.guess, self.params,
                                              grid, self.at_guess)
        except (OutOfTubeError, NoConvergenceError):
            self.done = True
            return
        self.frames.append(frame)
        self.guess = frame.z

    def report(self) -> TrackReport:
        """Each frame gets the measured z' of the series and its relative gap
        to the predicted one.  Frames are 'valid' for the z' comparison while
        ||(eps,eta)||_H <= WINDOW_NORM, and the half-log report
        sup_t [z(t) - log(max(t,1))/2] runs over those."""
        frames = self.frames
        t_arr = np.array([f.t for f in frames])
        z_arr = np.array([f.z for f in frames])
        if len(frames) >= 2:
            zdot = np.gradient(z_arr, t_arr)
        else:
            zdot = np.full(len(frames), np.nan)
        for f, zd in zip(frames, zdot):
            f.z_dot_measured = float(zd)

        valid = np.array([f.eps_norm_H <= WINDOW_NORM for f in frames], dtype=bool)
        empty = not np.any(valid)
        if empty:
            sup_half_log = float("nan")
        else:
            vals = z_arr[valid] - 0.5 * np.log(np.maximum(t_arr[valid], 1.0))
            sup_half_log = float(np.max(vals))
        return TrackReport(
            times=t_arr,
            z=z_arr,
            frames=frames,
            valid_mask=valid,
            sup_half_log=sup_half_log,
            empty=empty,
        )

"""Ground-state levels by Nehari-constrained descent.

Two minimization problems for J_gamma over the Nehari set {K_gamma = 0}:
the free infimum n_gamma and the even-sector infimum r_gamma.  Closed-form
reference values come from quadrature on the explicit profiles:

    n_gamma = J_gamma(Q_gamma)  for 0 <= gamma < 2,   J_0(Q)  for gamma < 0,
    r_gamma = J_gamma(Q_gamma)  for |gamma| < 2,      2 J_0(Q) for gamma <= -2.

The descent alternates an H1-preconditioned gradient step (backtracking line
search) with an exact rescaling back onto the Nehari set.  Where the infimum
is not attained the iterates escape -- a single bump sliding to infinity, or
an even pair separating -- and the escape is detected rather than proved:
center-of-mass drift beyond L/3, or less than 5% of the L2 mass remaining
within |x| <= 5.

Along an escape valley the gradient step crawls and can stall before a
detector fires: at gamma = -2.5 it carves a dip at the origin that weakens
the pair's outward drive ~13x, and |Delta J| drops below tol with the pair
still near z = 5.  So every iteration whose iterate fires no detector first
tries a translation move (a collective-coordinate step in the spirit of the
mountain-pass and local-minimax descents of Choi-McKenna 1993 and Li-Zhou
2001): the iterate is shifted by k = 1, 2, 4, ... grid nodes toward +x, then
toward -x (the even sector's halves outward, then inward), scored by the J
of its Nehari projection as a line-search trial is, and accepted only on a
strict decrease of J.  So J picks the side: an escaping bump or pair moves
outward, and an even pair above r_gamma at |gamma| < 2 may merge inward onto
Q_gamma.  A refused move costs no iteration: the gradient step is taken as
usual.  A shift that fires a detector is cut back, by bisection, to the
fewest nodes that fire, so the bump stops just past the detector rather
than at the Dirichlet wall.

A move that fires a detector is accepted but ends nothing: the translated
iterate has not relaxed (a translated Q_gamma fires at J = 1.45, above the
free level 4/3), so gradient steps relax it where it stands, and the escape
is declared at an iterate that fires a detector right after a gradient step
with |Delta J| < 100 tol.

Where |Delta J| < tol and no shift lowers J, the free sector at gamma < 0
may sit on the pinned saddle Q_gamma (an even start stays even).  Q_gamma is
unstable there in the odd sector (Le Coz-Fukuizumi-Fibich-Ksherim-Sivan,
Physica D 237 (2008), for NLS with a delta), so the free descent then tries
the Nehari-projected u + k SADDLE_STEP psi, psi = x u / ||x u||, doubling k
as the translation move does (at gamma >= 0, where Q_gamma is the free
minimizer, J refuses it).  Where no shift, and in the free sector no tilt,
lowers J, the descent stops: a pinned minimizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import profiles
from .errors import ParameterError
from .evolution import nonlinearity
from .field import (GridSpec, PhysParams, action_terms, build_operator, is_even,
                    l2_sq, trapezoid)

ESCAPE_MASS_FRACTION = 0.05
MASS_WINDOW = 5.0
# tol of the docstrings: the descent has stalled once |Delta J| < DESCENT_TOL
DESCENT_TOL = 1e-9
# a gradient step with |Delta J| < SLIDE_FACTOR * tol has relaxed the iterate:
# if it fires an escape detector, the escape is declared
SLIDE_FACTOR = 100.0
SADDLE_STEP = 1e-3
SYMMETRIES = ("none", "even")  # the sectors of n_gamma and of r_gamma
HISTORY_COLUMNS = ("iter", "J", "K_residual", "center_drift", "mass_near_origin")
# log of the largest double: _nehari_lambda refuses terms that reach it
LOG_MAX = math.log(np.finfo(float).max)


@dataclass
class MinimizationReport:
    level_estimate: float
    reference_level: float
    minimizer: np.ndarray | None
    escaped: bool
    stop: str  # "escaped", "stalled", "max_iters" or "unprojectable"
    escape_diagnostic: dict
    iterations: int
    history: dict


@lru_cache(maxsize=16)
def _qgamma_action(params: PhysParams) -> float:
    """J_gamma(Q_gamma) = (1/2 - 1/(p+1)) * ||Q_gamma||_{p+1}^{p+1}.

    Panels start at the origin so the |x| kink sits on a panel boundary.
    """
    p = params.p
    f = lambda x: profiles.soliton_Q_gamma(x, params) ** (p + 1.0)
    integral = 2.0 * profiles.gauss_panels(f, 0.0, 40.0)
    return (0.5 - 1.0 / (p + 1.0)) * integral


def reference_levels(params: PhysParams) -> dict:
    """Closed-form levels {n_gamma, r_gamma} for the two sectors."""
    gamma = params.gamma
    # gamma < 2 (PhysParams), so gamma >= 0 is the pinned case of both sectors
    if gamma >= 0.0:
        n_gamma = r_gamma = _qgamma_action(params)
    else:
        n_gamma = profiles.ground_state_action(params.p)
        r_gamma = _qgamma_action(params) if gamma > -2.0 else 2.0 * n_gamma
    return {"n_gamma": n_gamma, "r_gamma": r_gamma}


def sector_level(params: PhysParams, symmetry: str) -> float:
    """The reference level of a sector: n_gamma for symmetry "none", r_gamma
    for "even"; raises ParameterError for any other symmetry."""
    if symmetry not in SYMMETRIES:
        raise ParameterError(f"symmetry must be 'even' or 'none', got {symmetry!r}")
    return reference_levels(params)["r_gamma" if symmetry == "even" else "n_gamma"]


def _nehari_lambda(quad: float, nonlin: float, p: float) -> float:
    """lambda* = log(quad / nonlin) / (p-1) of a u whose action terms are
    (quad, nonlin); raises ParameterError where those terms, or those of
    exp(lambda*) u, overflow."""
    # an overflowed term would make lambda* -inf (the zero function) or nan
    if not (0.0 < nonlin < np.inf and 0.0 < quad < np.inf):
        raise ParameterError(
            "cannot project (near-)zero or overflowing input onto the Nehari set")
    lam = float(np.log(quad / nonlin)) / (p - 1.0)
    # P u's own terms are e^{2 lambda*} quad = e^{(p+1) lambda*} nonlin
    if max(2 * lam + math.log(quad), (p + 1) * lam + math.log(nonlin)) >= LOG_MAX:
        raise ParameterError("the Nehari projection's terms overflow")
    return lam


def _score(v: np.ndarray, params: PhysParams, grid: GridSpec):
    """(J_gamma(P v), lambda*) from v's own action terms, without forming P v;
    (inf, None) where v cannot be projected or J is not finite."""
    quad, nonlin, _, _ = action_terms(v, params, grid)
    p = params.p
    try:
        lam = _nehari_lambda(quad, nonlin, p)
        c = math.exp(lam)
        # P v's terms c^2 quad and c^{p+1} nonlin, multiplied in an order
        # whose partial products stay below P v's terms or v's
        J = 0.5 * (c * quad * c) - c ** (p - 1.0) * nonlin * c * c / (p + 1.0)
    except (ParameterError, OverflowError):
        return np.inf, None
    return (J, lam) if math.isfinite(J) else (np.inf, None)


def _projected(v: np.ndarray, lam: float | None, params: PhysParams, grid: GridSpec):
    """(P v, J_gamma, |K_gamma|, ||.||^2) of P v = exp(lambda*) v, given
    lambda* from v's score, each from P v's own `action_terms` and so bitwise
    J_gamma and K_gamma of P v; all None where v cannot be projected (lambda* is
    None) or P v's J is not finite."""
    if lam is not None:
        cand = np.exp(lam) * v
        quad, nonlin, l2, _ = action_terms(cand, params, grid)
        J = 0.5 * quad - nonlin / (params.p + 1.0)
        # J is finite exactly when quad and nonlin are (and so ||P v||^2);
        # rounding can still overflow them just below _nehari_lambda's guard
        if math.isfinite(J):
            return cand, J, abs(quad - nonlin), l2
    return None, None, None, None


def _detectors(u: np.ndarray, l2: float, grid: GridSpec) -> tuple[float, float]:
    """(center_drift, mass_near_origin) of u, given l2 = ||u||^2."""
    if l2 == 0.0:
        return 0.0, 0.0
    # the nodes with |x| <= MASS_WINDOW are the slice [n - hi, hi): the nodes
    # are sorted and exactly antisymmetric about the center
    hi = int(np.searchsorted(grid.x, MASS_WINDOW, side="right"))
    inside = u[grid.n - hi:hi]
    return (abs(trapezoid(grid.x * u * u, grid)) / l2,
            grid.h * float(np.dot(inside, inside)) / l2)


def _escape_fired(drift: float, mass: float, grid: GridSpec) -> bool:
    return drift > grid.L / 3.0 or mass < ESCAPE_MASS_FRACTION


def _push(v: np.ndarray, k: int, h: float) -> np.ndarray:
    """Shift v by k nodes toward its far end, or by -k nodes toward its near
    end for k < 0 (as _push of the reversed array).

    The k vacated nodes at the near end continue v[0] as an exponential tail,
    v[0] e^{-(k-j)h} at node j, rather than as a flat plateau at v[0]: a
    plateau adds ~v[0]^2 h to J per node and no shift would ever be accepted.
    """
    if k < 0:
        return _push(v[::-1], -k, h)[::-1]
    out = np.empty_like(v)
    out[k:] = v[:-k]
    out[:k] = v[0] * np.exp(-h * np.arange(k, 0, -1))
    return out


def _translate(u: np.ndarray, k: int, grid: GridSpec, even: bool) -> np.ndarray:
    """Shift u by k nodes toward +x (k < 0: toward -x); the wall nodes stay
    as they are.  even: only the right half moves, outward or inward, and the
    left half mirrors it, so the result is exactly even.
    """
    out = u.copy()
    lo = grid.center if even else 1
    out[lo:-1] = _push(u[lo:-1], k, grid.h)
    if even:
        out[:lo] = out[:lo:-1]
    return out


def _doubling_move(moves, J_cur: float, params: PhysParams, grid: GridSpec):
    """The move(k), over the moves in turn and k = 1, 2, 4, ... < grid.center,
    whose Nehari projection lowers J the most, each candidate scored as a
    line-search trial is: for each move k doubles while the score strictly
    decreases below the best so far.  The first candidate that fires an
    escape detector ends the search: a bisection between k/2 and k returns
    the smallest node count whose candidate both fires and lowers J (driven
    further, the iterate reaches the Dirichlet wall, where truncation lowers
    J artificially).  Both detectors are ratios that the Nehari rescaling
    leaves unchanged, so they read the candidate itself.  Returns the kept
    candidate as a line-search trial (J, lambda*, v), or None if none
    lowers J.
    """
    def candidate(move, k):
        v = move(k)
        return (*_score(v, params, grid), v)

    def fires(cand):
        v = cand[2]
        return _escape_fired(*_detectors(v, l2_sq(v, grid), grid), grid)

    best, J_best = None, J_cur
    for move in moves:
        k = 1
        while k < grid.center:
            cand = candidate(move, k)
            if not cand[0] < J_best:
                break
            if fires(cand):
                lo = k // 2
                while k - lo > 1:
                    mid = (lo + k) // 2
                    trial = candidate(move, mid)
                    if trial[0] < J_best and fires(trial):
                        k, cand = mid, trial
                    else:
                        lo = mid
                return cand
            best, J_best = cand, cand[0]
            k *= 2
    return best


def minimize_level(
    params: PhysParams,
    grid: GridSpec,
    symmetry: str,
    u_init: np.ndarray,
    max_iters: int = 20000,
) -> MinimizationReport:
    """Projected descent for J_gamma on the Nehari set.

    symmetry "even" restricts to the even sector (u_init even bit for bit,
    `field.is_even`, else ParameterError; trial steps symmetrized; reference
    level r_gamma); "none" minimizes freely against n_gamma.
    An accepted translation move (tried at every iterate that fires no escape
    detector) or saddle move (see the module docstring) is one iteration and
    one history row of its own.  The descent stops when no step lowers J
    (no move once |Delta J| < tol, no gradient step down to s = 1e-14), and
    the report's stop says how: "escaped" (a detector fires right after a
    gradient step with |Delta J| < SLIDE_FACTOR * tol, or no gradient step
    lowers J past one; no minimizer is returned), "stalled" (no step lowers
    J short of a detector), "unprojectable" (the kept candidate's projection
    fails, or the last trial cannot be scored) or "max_iters".
    """
    u = np.asarray(u_init, dtype=float).copy()
    if u.shape != grid.x.shape:
        raise ParameterError("u_init does not match the grid")
    if not np.any(u):
        raise ParameterError("u_init must be nonzero")
    even = symmetry == "even"
    if even and not is_even(u):
        raise ParameterError("even sector requires a u_init even bit for bit")

    reference = sector_level(params, symmetry)
    operator = build_operator(grid, params.gamma)
    # the H1 preconditioner (-d_xx + 1) is A at gamma = 0
    preconditioner = build_operator(grid, 0.0)

    # terms may overflow, u_init's or a trial's, and then the score refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        lam = _score(u, params, grid)[1]
        u, J_cur, K_cur, l2 = _projected(u, lam, params, grid)
        if u is None:
            raise ParameterError("cannot project u_init onto the Nehari set")

        drift, mass = _detectors(u, l2, grid)
        fired = _escape_fired(drift, mass, grid)
        rows = [(0, J_cur, K_cur, drift, mass)]  # the history, one row per iterate

        step = 1.0
        stop = "max_iters"
        dJ = np.inf  # |Delta J| of the last gradient step
        u_prev = g_prev = None

        for it in range(1, max_iters + 1):
            trial = None
            # past a detector, only gradient steps run until the iterate relaxes
            if not fired:
                # translate first; once the gradient step has stalled, try to
                # leave a saddle, and stop if nothing lowers J
                trial = _doubling_move((lambda k: _translate(u, k, grid, even),
                                        lambda k: _translate(u, -k, grid, even)),
                                       J_cur, params, grid)
                if trial is None and dJ < DESCENT_TOL and not even:
                    psi = grid.x * u
                    psi *= SADDLE_STEP / np.sqrt(l2_sq(psi, grid))
                    trial = _doubling_move((lambda k: u + k * psi,), J_cur,
                                           params, grid)
                if trial is None and dJ < DESCENT_TOL:
                    stop = "stalled"
                    break
            moved = trial is not None
            if not moved:
                g = preconditioner.solve(operator.apply(u) - nonlinearity(u, params.p))

                # Barzilai-Borwein trial step: escape valleys flatten like exp(-2z),
                # so the step must track the inverse of the flattest curvature the
                # iterates actually move along; a fixed trial step stalls the slide.
                if u_prev is not None:
                    du = u - u_prev
                    dg = g - g_prev
                    denom = float(np.dot(du, dg))
                    if denom > 0.0:
                        step = min(max(float(np.dot(du, du)) / denom, 1e-12), 1e10)
                u_prev, g_prev = u.copy(), g.copy()

                def try_step(s: float):
                    cand = u - s * g
                    if even:
                        cand = 0.5 * (cand + cand[::-1])
                    return (*_score(cand, params, grid), cand)

                # backtrack to the first trial whose score lowers J; the
                # translation moves, not the step, carry a bump down a flat
                # escape valley
                s = step
                while s > 1e-14 and not (trial := try_step(s))[0] < J_cur:
                    s *= 0.5
                if not s > 1e-14:  # no step lowers J
                    stop = ("unprojectable" if trial[1] is None
                            else "escaped" if fired else "stalled")
                    break
                step = s

            # the one projection of the iteration: the kept move or the accepted trial
            new = _projected(trial[2], trial[1], params, grid)
            if new[0] is None:
                stop = "unprojectable"
                break
            if moved:
                u_prev = g_prev = None  # the secant pair spans the jump otherwise
                dJ = np.inf
            else:
                dJ = abs(J_cur - new[1])
            u, J_cur, K_cur, l2 = new

            drift, mass = _detectors(u, l2, grid)
            fired = _escape_fired(drift, mass, grid)
            rows.append((it, J_cur, K_cur, drift, mass))

            # a fired move ends here once relaxed, or above when no step lowers J
            if fired and dJ < SLIDE_FACTOR * DESCENT_TOL:
                stop = "escaped"
                break

    diagnostic = {"center_drift": drift, "mass_near_origin": mass}
    return MinimizationReport(
        level_estimate=J_cur,
        reference_level=reference,
        minimizer=None if stop == "escaped" else u,
        escaped=stop == "escaped",
        stop=stop,
        escape_diagnostic=diagnostic,
        iterations=rows[-1][0],
        history=dict(zip(HISTORY_COLUMNS, map(np.array, zip(*rows)))),
    )

"""Nehari projection, reference levels, and the two minimization sectors."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from kgdelta import variational
from kgdelta.errors import ParameterError, SingularSystemError
from kgdelta.experiments import initial_family
from kgdelta.field import (
    PhysParams,
    build_operator,
    l2_sq,
    make_grid,
    solve_tridiagonal,
)
from kgdelta.profiles import soliton_Q, soliton_Q_gamma
from kgdelta.variational import (
    ESCAPE_MASS_FRACTION,
    _detectors,
    minimize_level,
    reference_levels,
)

from oracles import functional_J_gamma, functional_K_gamma, nehari_project

P3 = PhysParams(p=3.0, alpha=1.0, gamma=0.0)
REP = PhysParams(p=3.0, alpha=1.0, gamma=-1.0)
STRONG = PhysParams(p=3.0, alpha=1.0, gamma=-2.5)


def _grid():
    return make_grid(15.0, 601)


# ------------------------------------------------------------------ projection

def test_project_soliton_is_fixed_point():
    grid = _grid()
    q = soliton_Q(grid.x, 3.0)
    out = nehari_project(q, P3, grid)
    # K_0(Q) = 0 in the continuum; on the grid the projection shifts Q by the
    # discretization level only
    assert np.max(np.abs(out - q)) < 1e-4
    assert abs(functional_K_gamma(out, P3, grid)) < 1e-10


def test_project_scaling_closed_form():
    grid = _grid()
    q2 = 2.0 * soliton_Q(grid.x, 3.0)
    out = nehari_project(q2, P3, grid)
    # e^{lambda} 2Q must land back near Q: lambda* = log(1/2) + O(h^2)
    assert abs(np.max(out) - np.sqrt(2.0)) < 1e-3
    assert abs(functional_K_gamma(out, P3, grid)) < 1e-10


def test_project_idempotent_and_guards():
    grid = _grid()
    rng = np.random.default_rng(101)
    for gamma in (-2.5, -1.0, 0.0, 1.0):
        par = PhysParams(3.0, 1.0, gamma)
        for _ in range(5):
            # smooth perturbations: white noise at h = 0.05 carries O(1/h^2)
            # discrete gradient energy and swamps everything else
            bump = rng.uniform(0.1, 0.5) * np.exp(
                -((grid.x - rng.uniform(-2, 2)) ** 2) / rng.uniform(0.5, 4.0)
            )
            u = soliton_Q(grid.x, 3.0) + bump
            once = nehari_project(u, par, grid)
            twice = nehari_project(once, par, grid)
            scale = max(1.0, float(np.max(np.abs(once))))
            assert np.max(np.abs(twice - once)) < 1e-12 * scale
            assert abs(functional_K_gamma(once, par, grid)) < 1e-10
    with pytest.raises(ParameterError):
        nehari_project(np.zeros(grid.n), P3, grid)
    # ||u||_{p+1}^{p+1} overflows at 1e80 (its projection would be the zero
    # function, J = 0) and both terms overflow at 1e160 (lambda* would be nan)
    gauss = np.exp(-grid.x * grid.x)
    for scale in (1e80, 1e160, -1e200):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ParameterError, match="overflowing"):
            nehari_project(scale * gauss, P3, grid)


# --------------------------------------------------------------------- levels

def test_reference_levels_pinned():
    grid_levels = reference_levels(P3)
    assert grid_levels["n_gamma"] == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert grid_levels["r_gamma"] == pytest.approx(4.0 / 3.0, abs=1e-10)
    lv = reference_levels(REP)
    assert lv["n_gamma"] == pytest.approx(4.0 / 3.0, abs=1e-12)  # free infimum
    assert lv["r_gamma"] == pytest.approx(9.0 / 4.0, abs=1e-10)  # pinned profile
    lv = reference_levels(STRONG)
    assert lv["n_gamma"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert lv["r_gamma"] == pytest.approx(8.0 / 3.0, abs=1e-12)  # 2 J_0(Q)


def test_level_two_route_cross_check():
    # quadrature route vs the closed quartic-in-gamma formula
    # J_gamma(Q_gamma) = 2 (2/3 - gamma/2 + gamma^3/24) at p = 3
    for gamma in (-1.5, -1.0, 0.0, 0.5, 1.0, 1.5):
        lv = reference_levels(PhysParams(3.0, 1.0, gamma))["r_gamma"]
        closed = 2.0 * (2.0 / 3.0 - gamma / 2.0 + gamma ** 3 / 24.0)
        assert abs(lv - closed) < 1e-8, f"gamma={gamma}"


def test_level_monotone_decreasing_in_gamma():
    # an attractive delta lowers the pinned action, a repulsive one raises it
    gammas = (-1.5, -1.0, 0.0, 1.0, 1.5)
    vals = [reference_levels(PhysParams(3.0, 1.0, g))["r_gamma"] for g in gammas]
    assert all(a > b for a, b in zip(vals, vals[1:])), vals


def test_level_ordering_free_below_even():
    for gamma in (-0.5, -1.0, -2.5):
        lv = reference_levels(PhysParams(3.0, 1.0, gamma))
        assert lv["n_gamma"] <= lv["r_gamma"] + 2e-3


def test_sign_dichotomy_below_the_level():
    """Sub-level states split cleanly by the sign of K.

    For J(u) < n_gamma either K(u) > 0 or K(u) is negative by a definite
    margin proportional to the level gap -- there is no neutral ground.
    """
    grid = _grid()
    lv = reference_levels(REP)["n_gamma"]
    rng = np.random.default_rng(77)
    seen_pos = seen_neg = 0
    margins = []
    draws = 0
    while seen_pos + seen_neg < 50 and draws < 4000:
        draws += 1
        width = rng.uniform(0.5, 2.0)
        amp = np.exp(rng.uniform(np.log(0.05), np.log(4.0)))
        x0 = rng.uniform(-3.0, 3.0)
        u = amp * np.exp(-((grid.x - x0) ** 2) / (2.0 * width ** 2))
        u += rng.uniform(-0.3, 0.3) * amp * np.exp(
            -((grid.x + x0) ** 2) / (2.0 * rng.uniform(0.5, 2.0) ** 2)
        )
        j = functional_J_gamma(u, REP, grid)
        if not j < lv:
            continue
        k = functional_K_gamma(u, REP, grid)
        if k > 0.0:
            seen_pos += 1
        else:
            seen_neg += 1
            margins.append(-k / (lv - j))
        assert k != 0.0
    assert seen_pos >= 10 and seen_neg >= 10, (seen_pos, seen_neg)
    assert min(margins) > 0.1, f"weakest negative-side margin {min(margins)}"


# --------------------------------------------------------------- minimization

def test_minimize_guards():
    grid = _grid()
    q = soliton_Q(grid.x, 3.0)
    with pytest.raises(ParameterError):
        minimize_level(P3, grid, "odd", q)
    with pytest.raises(ParameterError):
        minimize_level(P3, grid, "none", np.zeros(grid.n))
    for u in (q[:-1], q.reshape(1, -1)):  # one node short; a 2-D row
        with pytest.raises(ParameterError, match="does not match the grid"):
            minimize_level(P3, grid, "none", u)
    with pytest.raises(ParameterError):
        minimize_level(P3, grid, "even", soliton_Q(grid.x - 3.0, 3.0))


def test_the_even_sector_refuses_a_start_one_ulp_from_even():
    """The even descent takes its start as it is: even bit for bit, or
    refused (a start within 1e-12 of even was once averaged)."""
    grid = _grid()
    u = soliton_Q_gamma(grid.x, REP)
    minimize_level(REP, grid, "even", u, max_iters=1)
    u[grid.center + 3] = np.nextafter(u[grid.center + 3], np.inf)
    with pytest.raises(ParameterError, match="even"):
        minimize_level(REP, grid, "even", u)


def test_even_sector_converges_to_pinned_level():
    grid = _grid()
    rng = np.random.default_rng(5)
    noise = 0.01 * rng.standard_normal(grid.n)
    u0 = soliton_Q_gamma(grid.x, REP) + 0.5 * (noise + noise[::-1])
    rep = minimize_level(REP, grid, "even", u0)
    assert not rep.escaped
    assert rep.minimizer is not None
    assert abs(rep.level_estimate - 9.0 / 4.0) / (9.0 / 4.0) < 0.01
    assert rep.level_estimate >= rep.reference_level - 2e-3
    # history is a consistent record
    h = rep.history
    assert h["J"].shape == h["iter"].shape
    assert np.all(np.diff(h["J"]) <= 1e-12)  # monotone descent
    assert np.all(h["K_residual"] < 1e-9)    # every iterate re-projected


def test_free_sector_escapes_sideways():
    grid = _grid()
    u0 = soliton_Q(grid.x - 3.0, 3.0)
    rep = minimize_level(REP, grid, "none", u0)
    assert rep.escaped and rep.stop == "escaped"
    assert rep.minimizer is None
    assert rep.escape_diagnostic["center_drift"] > grid.L / 3.0
    assert abs(rep.level_estimate - 4.0 / 3.0) / (4.0 / 3.0) < 0.01
    assert rep.level_estimate >= rep.reference_level - 2e-3


@pytest.mark.parametrize("z", [2.625, 2.875, 3.375, 3.5, 3.625])
def test_free_sector_escapes_past_a_stall(z):
    """From these starts the gradient step alone stalls at drift 4.6-5.0,
    short of the L/3 = 5 detector; the translation move carries the bump on."""
    grid = _grid()
    rep = minimize_level(REP, grid, "none", soliton_Q(grid.x - z, 3.0))
    assert rep.escaped
    assert rep.minimizer is None
    # the move stops at the first translate that fires the detector instead
    # of driving the bump on toward the wall
    assert grid.L / 3.0 < rep.escape_diagnostic["center_drift"] < grid.L / 3.0 + 1.0
    assert abs(rep.level_estimate - 4.0 / 3.0) / (4.0 / 3.0) < 0.01
    h = rep.history
    assert np.all(np.diff(h["J"]) <= 1e-12)
    assert np.all(h["K_residual"] < 1e-9)


def test_even_strong_repulsion_level_and_stall():
    """gamma = -2.5: r_gamma = 2 J_0(Q) is not attained, so the even pair
    separates and the escape is detected, with the level correct to ~1e-4.

    The gradient step alone stalls: it carves a trace-suppressing dip at the
    origin that weakens the pair's outward drive ~13x, so |dJ| < tol while the
    pair still sits near z = 5 with half the L2 mass inside |x| <= 5.  At that
    would-be stop the translation move shifts each half outward and empties
    the window.
    """
    grid = _grid()
    u0 = soliton_Q(grid.x - 5.0, 3.0) + soliton_Q(grid.x + 5.0, 3.0)
    rep = minimize_level(STRONG, grid, "even", u0)
    assert abs(rep.level_estimate - 8.0 / 3.0) / (8.0 / 3.0) < 0.02
    assert rep.level_estimate >= rep.reference_level - 2e-3
    assert rep.escaped
    assert rep.minimizer is None
    assert rep.escape_diagnostic["mass_near_origin"] < ESCAPE_MASS_FRACTION
    assert rep.escape_diagnostic["center_drift"] < 1e-10  # even sector: exact 0
    # the move's rows are Nehari-projected descents like the gradient's
    h = rep.history
    assert np.all(np.diff(h["J"]) <= 1e-12)
    assert np.all(h["K_residual"] < 1e-9)


@pytest.mark.parametrize("gamma", [-1.0, -0.5])
def test_free_sector_leaves_the_pinned_saddle(gamma):
    """From Q_gamma itself the gradient step stays even and stalls at the
    saddle J = r_gamma; the symmetry-breaking move tips the bump off it, and
    it slides away at the free level n_gamma = 4/3."""
    grid = _grid()
    par = PhysParams(3.0, 1.0, gamma)
    rep = minimize_level(par, grid, "none", soliton_Q_gamma(grid.x, par))
    assert rep.escaped
    assert rep.minimizer is None
    assert abs(rep.level_estimate - 4.0 / 3.0) / (4.0 / 3.0) < 0.01
    h = rep.history
    assert np.all(np.diff(h["J"]) <= 1e-12)
    assert np.all(h["K_residual"] < 1e-9)


def test_free_sector_keeps_the_attractive_minimizer():
    """gamma > 0: Q_gamma is the free minimizer, so no move leaves it."""
    grid = _grid()
    par = PhysParams(3.0, 1.0, 1.0)
    q = soliton_Q_gamma(grid.x, par)
    rep = minimize_level(par, grid, "none", q)
    assert not rep.escaped
    assert rep.minimizer is not None
    assert rep.escape_diagnostic["center_drift"] < 1e-10
    assert np.max(np.abs(rep.minimizer - nehari_project(q, par, grid))) < 1e-3
    assert abs(rep.level_estimate - rep.reference_level) / rep.reference_level < 1e-3


# the benchmark's descend shapes: z range, and whether the descent escapes
DESCEND_Z = {"free": (2.5, 4.0), "even": (3.0, 4.0), "strong": (4.0, 5.0)}
ESCAPES = {"free": True, "even": False, "strong": True}


def _descend(shape, z):
    """minimize_level from the start of a descend shape: a free gamma = -1
    bump Q(x - z), or an even pair R(z) at gamma = -1 or gamma = -2.5."""
    if shape == "free":
        grid = _grid()
        return minimize_level(REP, grid, "none", soliton_Q(grid.x - z, 3.0))
    par, grid = (REP, _grid()) if shape == "even" else (STRONG, make_grid(20.0, 801))
    return minimize_level(par, grid, "even", initial_family(0.0, 1, z, grid, par).u)


# z drawn from each shape of the benchmark's descend workload
@pytest.mark.parametrize("shape, z", [
    ("free", 2.55), ("free", 3.2), ("free", 3.95),
    ("even", 3.05), ("even", 3.5), ("even", 3.95),
    ("even", 3.7900183011491833),  # once stalled at J = 2.6633: no inward move
    ("strong", 4.05), ("strong", 4.5), ("strong", 4.95),
])
def test_descend_shapes_escape_or_converge(shape, z):
    """Free gamma = -1 and even gamma = -2.5 starts escape; even gamma = -1
    starts converge to the pinned level r_gamma = 9/4."""
    rep = _descend(shape, z)
    if shape == "even":
        assert not rep.escaped
        assert abs(rep.level_estimate - 9.0 / 4.0) < 1e-3
    else:
        assert rep.escaped
        tol = 0.01 if shape == "free" else 0.02
        assert abs(rep.level_estimate - rep.reference_level) < tol * rep.reference_level


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(DESCEND_Z)).flatmap(
    lambda shape: st.tuples(st.just(shape), st.floats(*DESCEND_Z[shape]))))
def test_descend_shapes_reach_their_level_in_few_iterations(shape_z):
    """The moves carry a bump or pair to its detector in one iteration, and
    the escape waits for the gradient steps to relax it there: every shape
    ends within 40 iterations (a bump crawling on gradient steps alone took
    up to 526), with its escape flag, at J within 5e-4 of the reference
    (an escape declared before the bump relaxed sat up to 1.7e-3 above
    4/3).  60 draws, about 0.4 s."""
    shape, z = shape_z
    rep = _descend(shape, z)
    assert rep.iterations <= 40
    assert rep.escaped == ESCAPES[shape]
    assert abs(rep.level_estimate / rep.reference_level - 1.0) <= 5e-4


@pytest.mark.parametrize("par, symmetry, z, max_iters", [
    (REP, "even", 3.5, 20000),   # converges
    (REP, "none", 3.0, 2),       # cut by max_iters before the escape
    (PhysParams(3.0, 1.0, 1.0), "none", 0.0, 20000),  # attractive minimizer
])
def test_history_row_matches_the_returned_iterate(par, symmetry, z, max_iters):
    """The fused per-candidate evaluation gives the last history row bitwise
    what the public functionals give on the returned iterate, and the report
    says why the descent stopped: the cut run ends past the drift detector,
    before the gradient steps have relaxed it, so it has not escaped."""
    grid = _grid()
    u0 = soliton_Q(grid.x - z, 3.0)
    if symmetry == "even":
        u0 = u0 + u0[::-1]
    rep = minimize_level(par, grid, symmetry, u0, max_iters=max_iters)
    u = rep.minimizer
    assert u is not None
    assert rep.iterations == max_iters or max_iters == 20000
    assert rep.stop == ("max_iters" if max_iters == 2 else "stalled")
    h = rep.history
    assert (h["center_drift"][-1] > grid.L / 3.0) == (max_iters == 2)
    assert h["J"][-1] == rep.level_estimate == functional_J_gamma(u, par, grid)
    assert h["K_residual"][-1] == abs(functional_K_gamma(u, par, grid))
    assert (h["center_drift"][-1], h["mass_near_origin"][-1]) == _detectors(
        u, l2_sq(u, grid), grid)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma, L, n, z, stop, iterations", [
    # the start's translation fires the drift detector; past it no gradient
    # step lowers J (once 20000 forced steps, drifting back to the origin)
    (-1e20, 15.0, 301, 0.5, "escaped", 1),
    # no step lowers J ~ 1e49 by a rounding unit (once 50 forced steps)
    (-1.0, 1e-50, 101, None, "stalled", 0),
], ids=["escaped", "stalled"])
def test_the_descent_stops_when_no_step_lowers_J(gamma, L, n, z, stop, iterations):
    """Once the line search halves its step past 1e-14 without lowering J, the
    descent stops: unprojectable if the last trial could not be scored, else
    escaped past a detector or stalled short of one (unprojectable is
    test_cli's variational-unprojectable case).  No floating-point warning
    prints (raised as errors here)."""
    par = PhysParams(3.0, 1.0, gamma)
    grid = make_grid(L, n)
    u0 = soliton_Q_gamma(grid.x, par) if z is None else soliton_Q(grid.x - z, 3.0)
    rep = minimize_level(par, grid, "none", u0)
    assert (rep.stop, rep.iterations) == (stop, iterations)
    assert (rep.minimizer is None) == (stop == "escaped")
    assert rep.history["J"][-1] == rep.level_estimate


@st.composite
def descents(draw):
    """(params, grid, symmetry, u_init, max_iters): one to three scaled Q
    bumps (mirrored for the even sector) on a small grid, at a gamma that may
    overflow every trial."""
    gamma = draw(st.one_of(st.floats(-3.0, 1.9),
                           st.floats(0.0, 150.0).map(lambda e: -10.0 ** e),
                           st.floats(150.0, 156.5).map(lambda e: -10.0 ** e)))
    par = PhysParams(draw(st.sampled_from([3.0, 4.0])), 1.0, gamma)
    grid = make_grid(draw(st.floats(8.0, 15.0)), draw(st.sampled_from([61, 101, 151])))
    u = np.zeros(grid.n)
    for _ in range(draw(st.integers(1, 3))):
        z = draw(st.floats(-0.6, 0.6)) * grid.L
        u += draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([-1.0, 1.0])) * \
            soliton_Q(grid.x - z, par.p)
    symmetry = draw(st.sampled_from(["none", "even"]))
    if symmetry == "even":
        u = u + u[::-1]
    return par, grid, symmetry, u, draw(st.integers(1, 40))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(descents())
def test_every_descent_ends_with_a_stated_stop(descent):
    """Over random starts, sectors, grids and gamma (|gamma| >= 1e150 among
    them): stop is one of the four labels, only an escape returns no
    minimizer, a cut run took max_iters iterations, and the last history row
    holds the level.  60 draws, about 0.3 s."""
    par, grid, symmetry, u0, max_iters = descent
    try:
        rep = minimize_level(par, grid, symmetry, u0, max_iters=max_iters)
    except ParameterError as exc:  # mirrored bumps that cancel, or an overflow
        assert "nonzero" in str(exc) or "cannot project u_init" in str(exc)
        return
    assert rep.stop in ("escaped", "stalled", "max_iters", "unprojectable")
    assert (rep.minimizer is None) == (rep.stop == "escaped") == rep.escaped
    assert rep.stop != "max_iters" or rep.iterations == max_iters
    assert rep.history["J"][-1] == rep.level_estimate


def test_descent_evaluates_only_accepted_trials(monkeypatch):
    """One action_terms pass per scored trial (the start's score among them),
    one per scored move candidate and one per history row: an iteration
    projects and evaluates only the candidate it keeps, a move or the
    accepted trial."""
    counts = dict.fromkeys(("terms", "trials", "candidates", "moves"), 0)
    scored = ["trials"]  # what a _score call scores: a move's or a trial
    action_terms, score = variational.action_terms, variational._score
    doubling_move = variational._doubling_move

    def counted_terms(*args):
        counts["terms"] += 1
        return action_terms(*args)

    def counted_score(*args):
        counts[scored[0]] += 1
        return score(*args)

    def counted_move(*args):
        scored[0] = "candidates"
        moved = doubling_move(*args)
        scored[0] = "trials"
        counts["moves"] += moved is not None
        return moved

    monkeypatch.setattr(variational, "action_terms", counted_terms)
    monkeypatch.setattr(variational, "_score", counted_score)
    monkeypatch.setattr(variational, "_doubling_move", counted_move)

    def descend(grid, symmetry, u_init, **kwargs):
        counts.update(dict.fromkeys(counts, 0))
        rep = minimize_level(REP, grid, symmetry, u_init, **kwargs)
        rows = len(rep.history["iter"])
        assert counts["terms"] == counts["trials"] + counts["candidates"] + rows
        return rep, rows

    # the golden variational-free descent: a slide that ends in an escape
    grid = make_grid(15.0, 301)
    rep, _ = descend(grid, "none", soliton_Q(grid.x - 3.0, 3.0), max_iters=400)
    assert rep.escaped and counts["moves"] >= 1
    # the golden variational-even-stall descent, whose line search backtracks:
    # more scored trials than gradient steps
    grid = make_grid(15.0, 601)
    rep, rows = descend(grid, "even",
                        initial_family(0.0, 1, 3.7900183011491833, grid, REP).u)
    assert counts["trials"] > rows - counts["moves"]


def test_tridiagonal_solve_is_solve_banded_bitwise():
    """solve_tridiagonal, and the operator's Dirichlet solve with s = 0 (the
    descent's preconditioner) and with a random s, are solve_banded bitwise;
    the operator's solve leaves zero walls."""
    grid = _grid()
    operator = build_operator(grid, 0.0)
    main = operator.diag[1:-1]
    sub = sup = np.full(main.size - 1, operator.off_diag)
    rng = np.random.default_rng(11)
    for k in range(20):
        s = rng.random(grid.n) if k % 2 else None
        jac = main if s is None else main - s[1:-1]
        ab = np.zeros((3, main.size))
        ab[0, 1:], ab[1], ab[2, :-1] = sup, jac, sub
        b = rng.standard_normal(main.size) * 10.0 ** rng.uniform(-6, 6)
        expected = solve_banded((1, 1), ab, b)
        assert np.array_equal(solve_tridiagonal(sub, jac, sup, b), expected)
        r = np.concatenate(([1.0], b, [-1.0]))
        x = operator.solve(r, s)
        assert x is r and x[0] == x[-1] == 0.0
        assert np.array_equal(x[1:-1], expected)
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(sub, np.zeros_like(main), sup, np.ones(main.size))
    # one unknown (n = 3): empty off-diagonals
    empty = np.empty(0)
    one = solve_tridiagonal(empty, np.array([2.0]), empty, np.array([3.0]))
    assert np.array_equal(one, solve_banded((1, 1), np.array([[0.0], [2.0], [0.0]]),
                                            np.array([3.0])))
    assert one[0] == 1.5
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(empty, np.array([0.0]), empty, np.array([3.0]))


def test_minimize_is_deterministic():
    grid = _grid()
    u0 = soliton_Q(grid.x - 3.0, 3.0)
    a = minimize_level(REP, grid, "none", u0, max_iters=200)
    b = minimize_level(REP, grid, "none", u0, max_iters=200)
    assert a.level_estimate == b.level_estimate
    assert a.iterations == b.iterations


# ------------------------------------------------------------------ detectors

def test_escape_detectors():
    grid = _grid()
    q_centered = soliton_Q(grid.x, 3.0)
    q_far = soliton_Q(grid.x - 9.0, 3.0)
    pair = soliton_Q(grid.x - 9.0, 3.0) + soliton_Q(grid.x + 9.0, 3.0)
    drift, mass = _detectors(q_centered, l2_sq(q_centered, grid), grid)
    assert drift < 1e-12
    assert mass > 0.99
    drift, mass = _detectors(q_far, l2_sq(q_far, grid), grid)
    assert abs(drift - 9.0) < 0.05
    assert mass < 0.05
    drift, mass = _detectors(pair, l2_sq(pair, grid), grid)
    assert drift < 1e-12  # even states never drift
    assert mass < 0.05  # but they do vacate the window

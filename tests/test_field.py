"""Grid, quadrature, norms and energies."""
import warnings

import numpy as np
import pytest

from kgdelta.errors import GridError
from kgdelta.field import (
    GridSpec,
    PhysParams,
    State,
    diagnostics_MW,
    gradient_sq,
    is_even,
    l2_sq,
    make_grid,
    trapezoid,
)
from kgdelta.profiles import soliton_Q

from oracles import (
    energy_E_gamma,
    functional_J_gamma,
    functional_K_gamma,
    h1_sq,
    norm_H,
    norm_H1,
    norm_L2,
)


def test_grid_layout():
    grid = make_grid(20.0, 401)
    assert grid.h == pytest.approx(0.1)
    assert grid.x[grid.center] == 0.0
    assert np.max(np.abs(grid.x + grid.x[::-1])) == 0.0  # exactly symmetric
    assert grid.x[0] == -20.0 and grid.x[-1] == 20.0


def test_grid_validation():
    with pytest.raises(GridError):
        make_grid(20.0, 400)  # even point count has no center node
    with pytest.raises(GridError):
        make_grid(-5.0, 401)
    with pytest.raises(GridError):
        make_grid(1e-300, 101)  # 1/h^2 overflows
    for L in (6e-153, 1e-140):
        with pytest.raises(GridError, match=r"\(1/h\^2\)\^2 overflows"):
            make_grid(L, 101)  # 1/h^2 is finite, its square is not
    make_grid(1e-50, 101)  # (1/h^2)^2 = 6e206 is finite
    # node arrays beyond the address space, refused before any memory is
    # touched: numpy raises MemoryError for 7 PiB and ValueError for 2^61
    # doubles, whose size in bytes overflows
    for L, n in ((5e14, 10**15 + 1), (2.0**60, 2**61 + 1)):
        with pytest.raises(GridError, match=f"cannot allocate {n} grid nodes"):
            make_grid(L, n)


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"n": 400}, id="change0"),  # even count: no center node
        pytest.param({"n": 401.0}, id="change1"),  # not an integer
        pytest.param({"L": -20.0}, id="change6"),
        pytest.param({"L": 1e-300}, id="change7"),  # 1/h^2 overflows
        pytest.param({"L": 1e-140}, id="change8"),  # (1/h^2)^2 overflows
        # n - 1 beyond the float range: once an OverflowError in spacing
        pytest.param({"n": 10**400 + 1}, id="change9"),
        # an even n whose repr exceeds the int-to-string digit limit: once a
        # ValueError from the odd-count message
        pytest.param({"n": 10**5000}, id="change10"),
    ],
)
def test_gridspec_rejects_inconsistent_fields(change):
    """GridSpec's only inputs are (L, n); h, center and x follow from them."""
    fields = {"L": 20.0, "n": 401}
    good = GridSpec(**fields)
    assert (good.h, good.center) == (0.1, 200) and good.x.shape == (401,)
    with pytest.raises(GridError):
        GridSpec(**{**fields, **change})


@pytest.mark.parametrize("L, n, message", [
    # once an IndexError: a float count passed make_grid's own checks
    (20.0, 401.0, r"node count must be an odd integer >= 3, got 401\.0"),
    # once "spacing h ... does not equal 2L/(n-1)"
    (20.0, 401.5, r"node count must be an odd integer >= 3, got 401\.5"),
    # once a RuntimeWarning from inf * 0 at the center node
    (1e308, 401, r"half-width L = 1e\+308 is too large for n = 401"),
    # once an OverflowError from spacing
    (20.0, 10**400 + 1, "node count n exceeds the largest float"),
    # once a ValueError from formatting n in the odd-count message
    (20.0, 10**5000, "node count n exceeds the largest float"),
], ids=["float-n", "fractional-n", "huge-L", "overflow-n", "huge-even-n"])
def test_make_grid_refuses_outside_inputs_without_warning(L, n, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match=message):
            make_grid(L, n)


def test_is_even_compares_the_float64_bits():
    assert is_even([1, 2, 1]) and is_even(np.array([0.5])) and is_even([])
    assert not is_even([1.0, 2.0, np.nextafter(1.0, 2.0)])
    assert not is_even([-0.0, 1.0, 0.0])  # equal by value, not by bits
    assert is_even([np.nan, 1.0, np.nan])  # the same nan bits
    u = np.arange(5.0)
    assert is_even(u + u[::-1]) and is_even((u + u[::-1])[::2])


def test_trapezoid_exact_on_linear():
    grid = make_grid(3.0, 61)
    f = 2.0 * grid.x + 1.0
    # integral of (2x + 1) over [-3, 3] = 6
    assert trapezoid(f, grid) == pytest.approx(6.0, abs=1e-13)
    with pytest.raises(GridError, match="sample count 60 does not match"):
        trapezoid(f[:-1], grid)


def test_norms_on_soliton():
    grid = make_grid(20.0, 801)  # h = 0.05
    q = soliton_Q(grid.x, 3.0)
    # trapezoid superconverges on smooth exponentially-decaying integrands
    assert abs(l2_sq(q, grid) - 4.0) < 1e-10
    # the staggered-difference gradient carries a -h^2/12 * ||Q''||^2 bias:
    # it must sit *below* the continuum value but within 1e-3
    dq = gradient_sq(q, grid)
    assert dq < 4.0 / 3.0
    assert abs(dq - 4.0 / 3.0) < 1e-3
    assert abs(h1_sq(q, grid) - (l2_sq(q, grid) + dq)) < 1e-14
    assert norm_L2(q, grid) == pytest.approx(np.sqrt(l2_sq(q, grid)))
    assert norm_H1(q, grid) == pytest.approx(np.sqrt(h1_sq(q, grid)))


def test_gradient_refinement_is_second_order():
    coarse = make_grid(20.0, 401)
    fine = make_grid(20.0, 801)
    e1 = abs(gradient_sq(soliton_Q(coarse.x, 3.0), coarse) - 4.0 / 3.0)
    e2 = abs(gradient_sq(soliton_Q(fine.x, 3.0), fine) - 4.0 / 3.0)
    assert 3.5 < e1 / e2 < 4.5


def test_state_norm():
    grid = make_grid(10.0, 201)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.n)
    v = rng.standard_normal(grid.n)
    st = State(u=u, v=v)
    assert norm_H(st, grid) == pytest.approx(np.sqrt(h1_sq(u, grid) + l2_sq(v, grid)))


# ---------------------------------------------------------------- energetics

P3 = PhysParams(p=3.0, alpha=1.0, gamma=0.0)


def test_energy_scaling_family_pinned_values():
    # E(c Q, 0) = (16/3)(c^2/2 - c^4/4) at gamma = 0; K(c Q) = (16/3)c^2(1 - c^2)
    grid = make_grid(20.0, 801)
    q = soliton_Q(grid.x, 3.0)
    e_half = energy_E_gamma(State(u=0.5 * q, v=np.zeros(grid.n)), P3, grid)
    k_half = functional_K_gamma(0.5 * q, P3, grid)
    assert abs(e_half - 16.0 / 3.0 * (0.125 - 0.25 ** 2 / 4.0 * 1.0)) < 1e-3
    assert abs(e_half - 0.58333) < 1e-3
    assert abs(k_half - 1.0) < 1e-3
    e_big = energy_E_gamma(State(u=1.5 * q, v=np.zeros(grid.n)), P3, grid)
    k_big = functional_K_gamma(1.5 * q, P3, grid)
    assert abs(e_big + 0.75) < 2e-3
    assert k_big < 0.0


def test_action_equals_energy_at_rest():
    grid = make_grid(20.0, 801)
    rng = np.random.default_rng(17)
    par = PhysParams(p=3.0, alpha=0.7, gamma=-1.2)
    for _ in range(10):
        u = np.exp(-0.3 * grid.x ** 2) * rng.standard_normal() + 0.1 * np.sin(grid.x)
        u *= np.exp(-np.abs(grid.x) / 4.0)
        st = State(u=u, v=np.zeros(grid.n))
        assert energy_E_gamma(st, par, grid) == pytest.approx(
            functional_J_gamma(u, par, grid), abs=1e-13
        )


def test_action_nehari_defect_identity():
    # J - K/2 = (1/2 - 1/(p+1)) ||u||_{p+1}^{p+1} >= 0 for every u, any gamma
    grid = make_grid(15.0, 301)
    rng = np.random.default_rng(29)
    for _ in range(25):
        p = rng.uniform(2.2, 4.5)
        par = PhysParams(p=p, alpha=1.0, gamma=rng.uniform(-1.9, 1.9))
        u = rng.standard_normal(grid.n) * np.exp(-np.abs(grid.x))
        j = functional_J_gamma(u, par, grid)
        k = functional_K_gamma(u, par, grid)
        defect = j - 0.5 * k
        power = trapezoid(np.abs(u) ** (p + 1.0), grid)
        assert defect >= -1e-14
        assert abs(defect - (0.5 - 1.0 / (p + 1.0)) * power) < 1e-10 * max(1.0, power)


def test_functionals_sign_and_reflection_invariance():
    grid = make_grid(12.0, 241)
    rng = np.random.default_rng(41)
    par = PhysParams(p=3.0, alpha=1.0, gamma=-0.8)
    u = rng.standard_normal(grid.n)
    v = rng.standard_normal(grid.n)
    st = State(u=u, v=v)
    flipped = State(u=-u, v=-v)
    mirrored = State(u=u[::-1], v=v[::-1])
    assert energy_E_gamma(st, par, grid) == energy_E_gamma(flipped, par, grid)
    assert functional_K_gamma(u, par, grid) == functional_K_gamma(-u, par, grid)
    assert functional_J_gamma(u, par, grid) == functional_J_gamma(-u, par, grid)
    # the grid is symmetric and the delta sits at the center node, so
    # reflection is exact as well
    assert energy_E_gamma(st, par, grid) == energy_E_gamma(mirrored, par, grid)


def test_delta_term_sign():
    grid = make_grid(15.0, 301)
    q = soliton_Q(grid.x, 3.0)
    e_free = energy_E_gamma(State(u=q, v=np.zeros(grid.n)), P3, grid)
    e_rep = energy_E_gamma(
        State(u=q, v=np.zeros(grid.n)), PhysParams(3.0, 1.0, -1.0), grid
    )
    e_att = energy_E_gamma(
        State(u=q, v=np.zeros(grid.n)), PhysParams(3.0, 1.0, 1.0), grid
    )
    # E_gamma = E_0 - (gamma/2) u(0)^2 and Q(0)^2 = 2
    assert e_rep - e_free == pytest.approx(1.0, abs=1e-12)
    assert e_att - e_free == pytest.approx(-1.0, abs=1e-12)


def test_diagnostics_MW():
    grid = make_grid(15.0, 301)
    par = PhysParams(3.0, 1.0, -1.0)
    q = soliton_Q(grid.x, 3.0)
    st = State(u=q, v=np.zeros(grid.n))
    out = diagnostics_MW(st, par, grid, history=2.5)
    assert out["M_value"] == pytest.approx(0.5 * l2_sq(q, grid) + 1.0 * 2.5)
    w_expected = 0.5 * h1_sq(q, grid) + 0.5 * q[grid.center] ** 2
    assert out["W_value"] == pytest.approx(w_expected)

"""Time stepping: scheme order, exits, equivariances, dissipation ledger."""
import numpy as np
import pytest

from kgdelta import evolution
from kgdelta.errors import GridError, ParameterError
from kgdelta.evolution import (
    EXIT_BLOWUP_CAP,
    EXIT_COMPLETED,
    EXIT_CONTAMINATION,
    discrete_stationary_profile,
    evolve,
    fit_linear_decay_rate,
    linearized_residuals,
    nonlinearity,
)
from kgdelta.field import (
    PhysParams,
    State,
    build_operator,
    diagnostics_MW,
    h1_sq,
    l2_sq,
    make_grid,
    max_stable_dt,
    norm_H,
    norm_H1,
)
from kgdelta.profiles import soliton_Q, soliton_Q_gamma

PAR_FREE = PhysParams(p=3.0, alpha=1.0, gamma=0.0)
PAR_REP = PhysParams(p=3.0, alpha=1.0, gamma=-1.0)


def _evolve_states(state0, *args, **kwargs):
    """evolve(), plus a copy of every sample its observer saw."""
    states = []
    traj = evolve(state0, *args, observer=lambda s: states.append(s.copy()),
                  **kwargs)
    return traj, states


def test_operator_is_symmetric_tridiagonal():
    grid = make_grid(5.0, 41)
    op = build_operator(grid, PAR_REP.gamma)
    n = grid.n
    dense = np.zeros((n, n))
    eye = np.eye(n)
    for j in range(n):
        dense[:, j] = op.apply(eye[:, j])
    assert np.max(np.abs(dense - dense.T)) == 0.0
    # tridiagonal away from the Dirichlet rows
    for i in range(1, n - 1):
        row = dense[i].copy()
        row[i - 1 : i + 2] = 0.0
        assert np.max(np.abs(row)) == 0.0
    # the delta lives only on the center diagonal entry
    free = build_operator(grid, PAR_FREE.gamma)
    diff = op.diag - free.diag
    expect = np.zeros(n)
    expect[grid.center] = -PAR_REP.gamma / grid.h
    assert np.array_equal(diff, expect)


def test_operator_commutes_with_reflection():
    grid = make_grid(8.0, 161)
    op = build_operator(grid, -1.7)
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = rng.standard_normal(grid.n)
        assert np.array_equal(op.apply(u[::-1]), op.apply(u)[::-1])


@pytest.mark.parametrize("n, even", [(3, False), (3, True), (161, False), (161, True)])
def test_apply_into_caller_buffers_is_bitwise_apply(n, even):
    """apply(u, out, scratch) overwrites a dirty scratch and is bitwise apply(u)
    and the stencil's own grouping, walls included, on the whole grid and on
    the window [center - 1, n) that an even run steps."""
    grid = make_grid(8.0, n)
    op = build_operator(grid, -1.7)
    if even:
        op = evolution.DiscreteOperator(op.diag[grid.center - 1:], op.off_diag)
    rng = np.random.default_rng(n)
    for _ in range(5):
        u = rng.standard_normal(len(op.diag))
        expect = op.diag * u
        expect[1:-1] += (u[:-2] + u[2:]) * op.off_diag
        expect[0] += op.off_diag * u[1]
        expect[-1] += op.off_diag * u[-2]
        out, scratch = np.full_like(u, np.nan), np.full_like(u, np.nan)
        assert op.apply(u, out, scratch) is out
        assert out.tobytes() == op.apply(u).tobytes() == expect.tobytes()


@pytest.mark.parametrize("even", [False, True])
@pytest.mark.parametrize("cap", [evolution.DEFAULT_CAP, 0.3])
def test_evolve_applies_the_operator_once_per_step_and_once_before(even, cap,
                                                                    monkeypatch):
    """One apply per step taken plus one before the first: the count a
    benchmark tracer reads steps from, to completion and to the blowup cap."""
    grid = make_grid(10.0, 201)
    u0 = 0.5 * soliton_Q(grid.x - (0.0 if even else 1.0), 3.0)
    calls, apply = [], evolution.DiscreteOperator.apply
    monkeypatch.setattr(evolution.DiscreteOperator, "apply",
                        lambda self, *a: calls.append(1) or apply(self, *a))
    traj = evolve(State(u=u0, v=np.zeros(grid.n)), 2.0, 0.05, PAR_REP, grid,
                  blowup_cap=cap, contamination_tol=np.inf)
    steps = round((traj.final.t - traj.sample_times[0]) / 0.05)
    assert traj.exit == (EXIT_COMPLETED if cap > 1.0 else EXIT_BLOWUP_CAP)
    assert steps == (40 if cap > 1.0 else 1) and len(calls) == steps + 1


def test_cfl_guard():
    grid = make_grid(10.0, 201)  # h = 0.1
    st = State(u=np.zeros(grid.n), v=np.zeros(grid.n))
    with pytest.raises(ParameterError):
        evolve(st, 0.06, 0.06, PAR_FREE, grid)  # dt > h/2
    assert evolve(st, 0.05, 0.05, PAR_FREE, grid).exit == EXIT_COMPLETED  # boundary
    # a u or v of another length than the grid's
    for u, v in ((st.u[:-1], st.v), (st.u, np.zeros(grid.n + 2))):
        with pytest.raises(GridError, match="do not match grid n = 201"):
            evolve(State(u=u, v=v), 0.05, 0.05, PAR_FREE, grid)


def test_step_second_order_in_time():
    """Richardson: the T-fixed error of the scheme shrinks ~4x under dt/2."""
    grid = make_grid(15.0, 601)
    u0 = 0.8 * soliton_Q(grid.x, 3.0)
    ref = None
    errs = []
    # reference: tiny dt
    for dt in (0.0125, 0.00625, 0.0015625):
        traj = evolve(State(u=u0.copy(), v=np.zeros(grid.n)), 1.0, dt, PAR_FREE, grid,
                      snapshot_stride=10 ** 9)
        final = traj.final
        assert final.t == pytest.approx(1.0)
        if dt == 0.0015625:
            ref = final
        else:
            errs.append(final)
    e1 = norm_H1(errs[0].u - ref.u, grid)
    e2 = norm_H1(errs[1].u - ref.u, grid)
    assert 3.4 < e1 / e2 < 4.6, f"observed ratio {e1 / e2}"


def test_sign_equivariance_exact():
    grid = make_grid(15.0, 301)
    rng = np.random.default_rng(7)
    u0 = np.exp(-grid.x ** 2) * (1.0 + 0.1 * rng.standard_normal(grid.n))
    _, a = _evolve_states(State(u=u0.copy(), v=np.zeros(grid.n)), 2.0, 0.02, PAR_REP,
                          grid)
    _, b = _evolve_states(State(u=-u0.copy(), v=np.zeros(grid.n)), 2.0, 0.02, PAR_REP,
                          grid)
    assert len(a) == len(b) == 11
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.u, -sb.u)
        assert np.array_equal(sa.v, -sb.v)


def test_reflection_equivariance_exact():
    grid = make_grid(15.0, 301)
    rng = np.random.default_rng(13)
    u0 = np.exp(-((grid.x - 1.5) ** 2)) + 0.05 * rng.standard_normal(grid.n)
    # the noise reaches the boundary layer, which would end the run at t = 0
    kw = dict(contamination_tol=np.inf)
    _, a = _evolve_states(State(u=u0.copy(), v=np.zeros(grid.n)), 2.0, 0.02, PAR_REP,
                          grid, **kw)
    _, b = _evolve_states(State(u=u0[::-1].copy(), v=np.zeros(grid.n)), 2.0, 0.02,
                          PAR_REP, grid, **kw)
    assert len(a) == len(b) == 11
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.u[::-1], sb.u)


def _bitwise_even(w):
    return w.tobytes() == w[::-1].tobytes()


@pytest.mark.parametrize("n", [3, 5])
def test_even_starts_on_the_smallest_grids_equal_the_full_path(n, monkeypatch):
    """At n = 3 the half-line window is the whole grid and its ghost is the
    left wall; at n = 5 the ghost is the first interior node.  Both runs are
    the full path's, state by state; the walls start nonzero."""
    grid = make_grid(2.0, n)
    rng = np.random.default_rng(n)
    u0, v0 = 0.1 * rng.standard_normal((2, n))
    start = State(u=u0 + u0[::-1], v=v0 + v0[::-1])
    assert _bitwise_even(start.u) and _bitwise_even(start.v)
    dt = max_stable_dt(grid.h, PAR_REP.gamma)
    kw = dict(snapshot_stride=1, contamination_tol=np.inf)
    half, half_s = _evolve_states(start, 30 * dt, dt, PAR_REP, grid, **kw)
    monkeypatch.setattr(evolution, "is_even", lambda w: False)
    full, full_s = _evolve_states(start, 30 * dt, dt, PAR_REP, grid, **kw)
    assert half.exit == full.exit == EXIT_COMPLETED and len(half_s) == len(full_s) == 31
    for a, b in zip(half_s, full_s):
        assert a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()
    for name in ("energies", "K_gamma", "norm_H"):
        assert getattr(half, name).tobytes() == getattr(full, name).tobytes()
    steps = np.arange(31)
    for name in ("damping", "mass_integrals"):
        a, b = getattr(half, name), getattr(full, name)
        assert np.all(np.abs(a - b) <= 8.0 * np.finfo(float).eps * steps * b)


def _kernel_windows(monkeypatch) -> list:
    """The node count of each stepping kernel evolve builds from now on: the
    whole grid, or center + 2 on the half-line path."""
    windows, leapfrog = [], evolution._Leapfrog

    def counted(*args):
        kernel = leapfrog(*args)
        windows.append(len(kernel.now[0]))
        return kernel

    monkeypatch.setattr(evolution, "_Leapfrog", counted)
    return windows


def test_a_signed_zero_mismatch_takes_the_full_path(monkeypatch):
    """A start even by value but with -0.0 facing 0.0 steps the full grid;
    with the mismatch gone it steps the half-line."""
    grid = make_grid(10.0, 201)
    u0 = 0.5 * soliton_Q_gamma(grid.x, PAR_REP)
    u0[0], u0[-1] = -0.0, 0.0
    assert np.array_equal(u0, u0[::-1]) and not _bitwise_even(u0)
    windows = _kernel_windows(monkeypatch)
    evolve(State(u=u0, v=np.zeros(grid.n)), 1.0, 0.05, PAR_REP, grid)
    assert windows == [grid.n]
    u0[0] = 0.0
    evolve(State(u=u0, v=np.zeros(grid.n)), 1.0, 0.05, PAR_REP, grid)
    assert windows == [grid.n, grid.center + 2]


def test_an_even_run_shows_its_observer_even_states():
    """Through to the blowup cap, every sample an observer sees, and the
    final one, is an exactly even array."""
    grid = make_grid(20.0, 401)
    u0 = 1.5 * soliton_Q_gamma(grid.x, PAR_FREE)
    seen = []
    traj = evolve(State(u=u0, v=np.zeros(grid.n)), 40.0, 0.05, PAR_FREE, grid,
                  observer=lambda s: seen.append(_bitwise_even(s.u)
                                                 and _bitwise_even(s.v)))
    assert traj.exit == EXIT_BLOWUP_CAP
    assert len(seen) == len(traj.sample_times) > 2 and all(seen)
    assert _bitwise_even(traj.final.u) and _bitwise_even(traj.final.v)


@pytest.mark.parametrize("p, gamma", [(3.5, -1.0), (3.0, -1.0), (3.0, 0.5)])
def test_the_stationary_profile_of_an_even_start_is_even(p, gamma, monkeypatch):
    """The Newton's one-way solves once broke an even start's evenness (by up
    to 5e-15 at these points); mirroring each step keeps the profile even bit
    for bit, and evolve steps it on the half-line."""
    grid = make_grid(20.0, 401)
    par = PhysParams(p=p, alpha=1.0, gamma=gamma)
    u_eq = discrete_stationary_profile(soliton_Q_gamma(grid.x, par), par, grid)
    assert _bitwise_even(u_eq)
    windows = _kernel_windows(monkeypatch)
    evolve(State(u=u_eq, v=np.zeros(grid.n)), 1.0, 0.05, par, grid)
    assert windows == [grid.center + 2]


def test_energy_decays_and_ledger_closes():
    # dissipation identity: E(T) - E(0) + 2 alpha int ||u_t||^2 = 0 up to
    # scheme error; the ledger accumulates the damping integral per step
    grid = make_grid(20.0, 401)
    u0 = 0.9 * soliton_Q_gamma(grid.x, PAR_REP)
    traj = evolve(State(u=u0, v=np.zeros(grid.n)), 5.0, 0.025, PAR_REP, grid)
    e = traj.energies
    assert np.all(np.diff(e) <= 1e-12)  # monotone down
    resid = abs(e[-1] - e[0] + traj.damping_integral)
    assert resid <= 1e-3 * max(1.0, abs(e[0]))
    assert traj.damping_integral > 0.0
    assert traj.exit == EXIT_COMPLETED
    # M's ingredient: the accumulated ||u||^2 history is increasing
    assert np.all(np.diff(traj.mass_integrals) >= 0.0)


def test_a_linear_run_records_its_own_energy_and_ledger():
    """With the nonlinearity off, E is the linear flow's energy
    (||u||_H1^2 + ||v||^2 - gamma u(0)^2)/2, whose ledger closes; the
    nonlinear E_gamma it once recorded left a residual of 0.218 here."""
    grid = make_grid(20.0, 401)
    par = PhysParams(p=3.0, alpha=1.0, gamma=1.5)
    start = State(u=np.exp(-grid.x * grid.x), v=np.zeros(grid.n))
    traj = evolve(start, 5.0, 0.025, par, grid, snapshot_stride=7,
                  with_nonlinearity=False)
    assert traj.exit == EXIT_COMPLETED
    for st, e in ((start, traj.energies[0]), (traj.final, traj.energies[-1])):
        u0 = st.u[grid.center]
        assert e == 0.5 * (h1_sq(st.u, grid) + l2_sq(st.v, grid) - par.gamma * u0 * u0)
    e = traj.energies
    assert np.all(np.diff(e) <= 1e-12)
    assert abs(e[-1] - e[0] + traj.damping_integral) <= 4e-3 * e[0]
    w = diagnostics_MW(traj.final, par, grid, traj.mass_integrals[-1])["W_value"]
    assert e[-1] == pytest.approx(w, rel=1e-14)


@pytest.mark.parametrize("with_nonlinearity", [True, False], ids=["f", "linear"])
def test_steps_solve_the_two_level_recurrence(with_nonlinearity):
    """Every interior state satisfies (u+ - 2u + u-)/dt^2 + alpha (u+ - u-)/dt
    = -A u + f(u) to rounding, and the damping ledger is the trapezoid in time
    of 2 alpha ||v||^2 over the same states."""
    grid = make_grid(20.0, 401)
    par = PhysParams(p=3.0, alpha=0.7, gamma=-1.0)
    dt = 0.025
    u0 = 0.9 * soliton_Q_gamma(grid.x, par)
    v0 = 0.3 * np.exp(-(grid.x - 1.0) ** 2)
    v0[[0, -1]] = 0.0
    traj, states = _evolve_states(State(u=u0, v=v0), 2.0, dt, par, grid,
                                  snapshot_stride=1, contamination_tol=np.inf,
                                  with_nonlinearity=with_nonlinearity)
    assert traj.exit == EXIT_COMPLETED and len(states) == 81
    op = build_operator(grid, par.gamma)
    worst = 0.0
    for um, u, up in zip(states, states[1:], states[2:]):
        au = op.apply(u.u)
        force = nonlinearity(u.u, par.p) - au if with_nonlinearity else -au
        res = ((up.u - 2.0 * u.u + um.u) / dt ** 2
               + par.alpha * (up.u - um.u) / dt - force)
        worst = max(worst, np.linalg.norm(res[1:-1]) / np.linalg.norm(au[1:-1]))
    assert worst < 1e-10
    vsq = np.array([l2_sq(s.v, grid) for s in states])
    expect = np.concatenate(([0.0], np.cumsum(par.alpha * dt * (vsq[:-1] + vsq[1:]))))
    assert np.all(np.abs(traj.damping - expect) <= 1e-12 * expect)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_start_with_a_huge_endpoint_is_refused():
    """u[0] = 1e200 overflows ||u||^2 to inf: the ledger's endpoint products
    give inf, never an OverflowError, and the start is refused as a
    ParameterError."""
    grid = make_grid(15.0, 301)
    u0 = np.exp(-grid.x ** 2)
    u0[0] = 1e200
    with pytest.raises(ParameterError, match="not of finite energy"):
        evolve(State(u=u0, v=np.zeros(grid.n)), 1.0, 0.025, PAR_REP, grid)


def test_prepared_equilibrium_is_discretely_stationary():
    grid = make_grid(20.0, 401)  # h = 0.1
    u_eq = discrete_stationary_profile(
        soliton_Q_gamma(grid.x, PAR_REP), PAR_REP, grid
    )
    op = build_operator(grid, PAR_REP.gamma)
    res = op.apply(u_eq) - nonlinearity(u_eq, 3.0)
    assert float(np.max(np.abs(res[1:-1]))) < 1e-12
    # O(h) distance to the continuum profile, concentrated at the kink
    dist = norm_H1(u_eq - soliton_Q_gamma(grid.x, PAR_REP), grid)
    assert 1e-5 < dist < 1e-2
    # and it actually stays put under the full nonlinear flow
    traj = evolve(State(u=u_eq.copy(), v=np.zeros(grid.n)), 10.0, 0.05, PAR_REP, grid)
    drift = norm_H1(traj.final.u - u_eq, grid)
    assert drift < 1e-6, f"equilibrium drifted {drift}"


def test_blowup_cap_exit():
    grid = make_grid(20.0, 401)
    u0 = 1.5 * soliton_Q(grid.x, 3.0)
    traj = evolve(State(u=u0, v=np.zeros(grid.n)), 60.0, 0.05, PAR_FREE, grid)
    assert traj.exit == EXIT_BLOWUP_CAP
    assert traj.sample_times[-1] < 60.0
    # the capped state is recorded
    assert float(np.max(np.abs(traj.final.u))) > 1.0e3


def test_contamination_exit():
    # an outgoing pulse reaches the outer 10% of a small box and trips the
    # monitor before T
    grid = make_grid(6.0, 121)
    u0 = np.exp(-4.0 * grid.x ** 2)
    traj = evolve(
        State(u=u0, v=np.zeros(grid.n)),
        20.0,
        0.025,
        PhysParams(p=3.0, alpha=0.01, gamma=0.0),
        grid,
        with_nonlinearity=False,
        contamination_tol=1e-6,
    )
    assert traj.exit == EXIT_CONTAMINATION
    assert traj.sample_times[-1] < 20.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("u_scale, v_value", [(1e80, 0.0), (1e200, 0.0),
                                              (1.0, np.nan), (1.0, np.inf)],
                         ids=["E=-inf", "norm=inf", "v=nan", "v=inf"])
def test_start_of_infinite_energy_is_refused(u_scale, v_value):
    """A start whose E, K or ||(u, v)||_H is not finite raises before any
    sample, so no run reports a ledger that starts at -inf or nan."""
    grid = make_grid(15.0, 301)
    v0 = np.zeros(grid.n)
    v0[grid.center] = v_value
    seen = []
    with pytest.raises(ParameterError, match="not of finite energy"):
        evolve(State(u=u_scale * np.exp(-grid.x ** 2), v=v0), 1.0, 0.025,
               PAR_REP, grid, observer=seen.append)
    assert seen == []


def test_observers_see_every_snapshot():
    grid = make_grid(10.0, 201)
    seen = []
    traj = evolve(
        State(u=np.exp(-grid.x ** 2), v=np.zeros(grid.n)),
        1.0,
        0.05,
        PAR_FREE,
        grid,
        observer=lambda st: seen.append(st.t),
        snapshot_stride=4,
    )
    assert seen == list(traj.sample_times)
    assert seen[0] == 0.0 and seen[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(seen), 0.2)  # stride 4 x dt 0.05


def _stop_at(t_stop, label="Stopped"):
    """An observer that keeps a copy of each sample and ends the run at t_stop."""
    seen = []

    def observer(sample):
        seen.append(sample.copy())
        return label if sample.t >= t_stop else None

    return observer, seen


def _assert_ends_at_label(traj, seen, t_stop, label="Stopped"):
    assert traj.exit == label
    assert list(traj.sample_times) == [s.t for s in seen]
    assert traj.sample_times[-1] == seen[-1].t >= t_stop
    assert traj.final.t == seen[-1].t
    assert np.array_equal(traj.final.u, seen[-1].u)
    assert np.array_equal(traj.final.v, seen[-1].v)


def test_observer_label_ends_the_run():
    grid = make_grid(10.0, 201)
    state0 = State(u=np.exp(-grid.x ** 2), v=np.zeros(grid.n))
    observer, seen = _stop_at(0.6)
    traj = evolve(state0, 2.0, 0.05, PAR_FREE, grid, observer=observer, snapshot_stride=4)
    _assert_ends_at_label(traj, seen, 0.6)
    assert len(seen) == 4  # t = 0, 0.2, 0.4, 0.6
    # the record up to the label is the uninterrupted run's record
    full = evolve(state0, 2.0, 0.05, PAR_FREE, grid, snapshot_stride=4)
    assert full.exit == EXIT_COMPLETED
    assert np.array_equal(traj.energies, full.energies[:4])
    assert np.array_equal(traj.damping, full.damping[:4])


def test_observer_label_wins_over_blowup_cap():
    grid = make_grid(20.0, 401)
    state0 = State(u=1.5 * soliton_Q(grid.x, 3.0), v=np.zeros(grid.n))
    capped = evolve(state0, 60.0, 0.05, PAR_FREE, grid)
    assert capped.exit == EXIT_BLOWUP_CAP
    t_cap = capped.sample_times[-1]
    observer, seen = _stop_at(t_cap)
    traj = evolve(state0, 60.0, 0.05, PAR_FREE, grid, observer=observer)
    _assert_ends_at_label(traj, seen, t_cap)
    assert np.array_equal(traj.final.u, capped.final.u)


def test_observer_label_wins_over_contamination():
    grid = make_grid(6.0, 121)
    state0 = State(u=np.exp(-4.0 * grid.x ** 2), v=np.zeros(grid.n))
    par = PhysParams(p=3.0, alpha=0.01, gamma=0.0)
    kwargs = dict(with_nonlinearity=False, contamination_tol=1e-6)
    dirty = evolve(state0, 20.0, 0.025, par, grid, **kwargs)
    assert dirty.exit == EXIT_CONTAMINATION
    t_dirty = dirty.sample_times[-1]
    observer, seen = _stop_at(t_dirty)
    traj = evolve(state0, 20.0, 0.025, par, grid, observer=observer, **kwargs)
    _assert_ends_at_label(traj, seen, t_dirty)
    assert np.array_equal(traj.sample_times, dirty.sample_times)


def test_linear_decay_rates():
    grid = make_grid(60.0, 1201)  # h = 0.05 would be 2401; half that is enough here
    u0 = np.exp(-grid.x ** 2)
    k0 = fit_linear_decay_rate(PAR_FREE, grid, u0, 20.0)
    k2 = fit_linear_decay_rate(PhysParams(3.0, 1.0, -2.0), grid, u0, 20.0)
    assert k0 > 0.2  # free rate is comfortably above the certified floor
    assert k2 > 0.1  # repulsive delta only helps decay, but keep the bound loose
    # degenerate input reports NaN instead of raising
    assert np.isnan(fit_linear_decay_rate(PAR_FREE, grid, np.zeros(grid.n), 5.0))


def test_time_step_bound_includes_the_delta_node():
    """dt <= CFL*h on ordinary grids; where the delta node's -gamma/h entry
    makes 2/sqrt(Gershgorin bound) smaller, that term bounds dt instead."""
    grid = make_grid(20.0, 801)  # h = 0.05: the CFL term binds up to gamma = -239.95
    assert max_stable_dt(grid.h, -239.9) == 0.5 * grid.h == max_stable_dt(grid.h, 1.9)
    assert max_stable_dt(grid.h, -240.0) < 0.5 * grid.h
    par = PhysParams(p=3.0, alpha=1.0, gamma=-280.0)
    u0 = 0.1 * soliton_Q(grid.x - 5.0, 3.0)
    with pytest.raises(ParameterError, match="stability bound"):
        evolve(State(u=u0, v=np.zeros(grid.n)), 1.0, 0.025, par, grid)
    # the default step of the linear fit follows the bound: at dt = CFL*h
    # this run gained energy without bound
    assert 0.9 < fit_linear_decay_rate(par, grid, u0, 10.0) < 1.1
    # a tiny spacing neither divides by zero nor overflows
    assert max_stable_dt(1e-200, -1.0) == 0.5e-200
    assert 0.0 < max_stable_dt(1e-200, -1e300) < 0.5e-200


def test_spectral_residuals_second_order():
    res = linearized_residuals(5.0, make_grid(20.0, 801), PAR_FREE)  # h = 0.05
    # pinned measurements at p = 3: both residuals sit near 2e-3
    assert res["eig_residual"] < 5e-3
    assert res["kernel_residual"] < 5e-3
    fine = linearized_residuals(5.0, make_grid(20.0, 1601), PAR_FREE)
    ratio = res["eig_residual"] / fine["eig_residual"]
    assert 3.5 < ratio < 4.5, f"refinement ratio {ratio}"


def test_spectral_residuals_grow_with_p():
    # at p = 4 the fourth derivative of the mode is ~3.5x larger and the
    # h = 0.05 residuals land just under 1e-2 -- document the true values
    par4 = PhysParams(p=4.0, alpha=1.0, gamma=0.0)
    res = linearized_residuals(5.0, make_grid(20.0, 801), par4)
    assert 6e-3 < res["eig_residual"] < 1e-2
    assert 7e-3 < res["kernel_residual"] < 1.2e-2

"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Each test prints `[criterion N] PASS/FAIL - detail` (bypassing capture so
the line shows up in any pytest run) and then asserts.  Tolerances are
pinned; where a check is known to miss its target the test still asserts
the target, so the red is visible rather than papered over.  Known red,
with the measured numbers recorded in the level notes:

  * criterion 4 - the p = 4 linearized residuals at h = 0.05 are ~8.0e-3
    and ~9.4e-3 against a 5e-3 target (p = 3 passes with room).

Criterion 9 note: in the third case (gamma = -2.5, even) the gradient step
alone stalls in a trace-suppressed channel before either escape detector
can fire; the descent's translation move at that would-be stop carries the
pair out of the mass window, with the level correct to ~1e-4.

Criterion 8 note: the small-residual window closes after ~0.2 time units
because the delta-dressing of the soliton itself counts toward the
residual; inside that window the bare repulsion coefficient 6 fits
(measured 5.81), while over the full in-tube window the dressed
coefficient 6*2/(2-gamma) = 4 takes over (measured 3.95).
"""
import time

import numpy as np
import pytest

from kgdelta.evolution import (
    EXIT_BLOWUP_CAP,
    discrete_stationary_profile,
    evolve,
)
from kgdelta.experiments import (
    bisect_threshold,
    classify_trajectory,
    initial_family,
)
from kgdelta.field import PhysParams, State, make_grid
from kgdelta.profiles import gauss_panels, soliton_Q, soliton_Q_gamma
from kgdelta.variational import minimize_level

from oracles import (
    fit_linear_decay_rate,
    linearized_residuals,
    nehari_project,
    norm_H,
    norm_H1,
    track_center,
)

PAR0 = PhysParams(p=3.0, alpha=1.0, gamma=0.0)
PAR_REP = PhysParams(p=3.0, alpha=1.0, gamma=-1.0)
PAR_STRONG = PhysParams(p=3.0, alpha=1.0, gamma=-2.5)


@pytest.fixture
def say(capsys):
    """Verdict printer that punches through pytest's fd-level capture."""

    def _say(n: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")

    return _say


def _stationarity_distance(n_points: int, dt: float) -> float:
    grid = make_grid(20.0, n_points)
    q = soliton_Q_gamma(grid.x, PAR_REP)
    u_eq = discrete_stationary_profile(q, PAR_REP, grid)
    traj = evolve(State(u=u_eq, v=np.zeros(grid.n)), 10.0, dt, PAR_REP, grid)
    return norm_H1(traj.final.u - q, grid), traj


def test_criterion_01_stationarity(say):
    t0 = time.perf_counter()
    d_coarse, _ = _stationarity_distance(801, 0.025)    # h = 0.05
    d_fine, _ = _stationarity_distance(1601, 0.0125)    # h = 0.025
    elapsed = time.perf_counter() - t0
    ratio = d_coarse / d_fine
    ok = d_coarse <= 5e-3 and ratio >= 3.5 and elapsed < 5.0
    say(1, ok, f"|u(10)-Q_g|_H1 = {d_coarse:.3e}, halving ratio {ratio:.2f}, "
                f"{elapsed:.1f}s")
    assert d_coarse <= 5e-3
    assert ratio >= 3.5
    assert elapsed < 5.0


def test_criterion_02_energy_identity(say):
    # the same run as criterion 1 (coarse leg): ledger residual of the
    # dissipation identity, plus a genuinely moving decay run for contrast
    _, traj = _stationarity_distance(801, 0.025)
    e = traj.energies
    resid = abs(e[-1] - e[0] + traj.damping_integral)
    bound = 1e-3 * max(1.0, abs(e[0]))

    grid = make_grid(20.0, 801)
    st = State(u=0.6 * soliton_Q_gamma(grid.x, PAR_REP), v=np.zeros(grid.n))
    moving = evolve(st, 10.0, 0.025, PAR_REP, grid)
    em = moving.energies
    resid_m = abs(em[-1] - em[0] + moving.damping_integral)
    bound_m = 1e-3 * max(1.0, abs(em[0]))

    ok = resid <= bound and resid_m <= bound_m
    say(2, ok, f"stationary run residual {resid:.3e} (bound {bound:.1e}); "
                f"decaying run residual {resid_m:.3e} (bound {bound_m:.1e})")
    assert resid <= bound
    assert resid_m <= bound_m


def test_criterion_03_linear_decay(say):
    grid = make_grid(60.0, 2401)  # h = 0.05
    u0 = np.exp(-grid.x ** 2)
    t0 = time.perf_counter()
    details = []
    ok = True
    for gamma in (0.0, -2.0):
        par = PhysParams(p=3.0, alpha=1.0, gamma=gamma)
        kappa = fit_linear_decay_rate(par, grid, u0, 40.0)
        traj = evolve(
            State(u=u0.copy(), v=np.zeros(grid.n)), 40.0, 0.025, par, grid,
            with_nonlinearity=False,
        )
        drop = norm_H(traj.final, grid) / norm_H(
            State(u=u0, v=np.zeros(grid.n)), grid
        )
        details.append(f"g={gamma:g}: kappa {kappa:.3f}, norm ratio {drop:.2e}")
        ok = ok and kappa > 0.1 and drop < 1e-4
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    say(3, ok, "; ".join(details) + f"; {elapsed:.1f}s")
    for piece in details:
        kappa = float(piece.split("kappa ")[1].split(",")[0])
        drop = float(piece.split("ratio ")[1])
        assert kappa > 0.1, piece
        assert drop < 1e-4, piece
    assert elapsed < 5.0


def test_criterion_04_spectral_residuals(say):
    grid = make_grid(20.0, 801)  # h = 0.05
    pieces, values = [], []
    for p in (3.0, 4.0):
        par = PhysParams(p=p, alpha=1.0, gamma=0.0)
        res = linearized_residuals(5.0, grid, par)
        pieces.append(
            f"p={p:g}: eig {res['eig_residual']:.2e}, "
            f"kernel {res['kernel_residual']:.2e}"
        )
        values += [res["eig_residual"], res["kernel_residual"]]
    ok = all(v <= 5e-3 for v in values)
    say(4, ok, "; ".join(pieces) + " (target 5e-3)")
    for v, where in zip(values, ("p3 eig", "p3 kernel", "p4 eig", "p4 kernel")):
        assert v <= 5e-3, f"{where}: {v:.3e}"


def test_criterion_05_interaction_identity(say):
    worst = 0.0
    for p in (2.5, 3.0, 4.0):
        c_q = (2.0 * p + 2.0) ** (1.0 / (p - 1.0))
        quad = gauss_panels(lambda x: np.exp(-x) * soliton_Q(x, p) ** p, -40.0, 40.0)
        worst = max(worst, abs(quad - 2.0 * c_q))
    ok = worst < 1e-8
    say(5, ok, f"max |int Q^p e^-x - 2 c_Q| over p in (2.5,3,4) = {worst:.1e}")
    assert worst < 1e-8


def test_criterion_06_dichotomy_certificates(say):
    grid = make_grid(40.0, 801)  # h = 0.1
    q = soliton_Q(grid.x, 3.0)
    t0 = time.perf_counter()
    low = classify_trajectory(State(u=0.5 * q, v=np.zeros(grid.n)), PAR0, grid, 30.0)
    t_low = time.perf_counter() - t0
    # numeric confirmation of the decay verdict
    traj = evolve(State(u=0.5 * q, v=np.zeros(grid.n)), 30.0, 0.05, PAR0, grid)
    drop = norm_H(traj.final, grid) / norm_H(
        State(u=0.5 * q, v=np.zeros(grid.n)), grid
    )
    t1 = time.perf_counter()
    high = classify_trajectory(State(u=1.5 * q, v=np.zeros(grid.n)), PAR0, grid, 60.0)
    t_high = time.perf_counter() - t1
    ok = (
        low.classification == "Decays"
        and np.isfinite(low.certificate_time)
        and drop < 1e-3
        and high.classification == "BlowsUp"
        and high.trajectory.exit == EXIT_BLOWUP_CAP
        and t_low < 10.0
        and t_high < 10.0
    )
    say(6, ok, f"0.5Q -> {low.classification} (cert t={low.certificate_time:g}, "
                f"norm ratio {drop:.1e} by T=30), 1.5Q -> {high.classification} "
                f"(exit {high.trajectory.exit}); "
                f"{t_low:.1f}s / {t_high:.1f}s")
    assert low.classification == "Decays" and drop < 1e-3
    assert high.classification == "BlowsUp"
    assert high.trajectory.exit == EXIT_BLOWUP_CAP
    assert t_low < 10.0 and t_high < 10.0


def _shoot(varsigma: int, params: PhysParams) -> tuple:
    grid = make_grid(20.0, 801)
    t0 = time.perf_counter()
    res = bisect_threshold(
        varsigma, 5.0, params, grid, -0.3, 0.3, tol=1e-10, T_max=200.0, dt=0.025
    )
    return res, time.perf_counter() - t0


def test_criterion_07_threshold_shooting(say):
    free, t_free = _shoot(0, PAR_REP)
    even, t_even = _shoot(1, PAR_STRONG)
    certified_free = all(out.classification != "Undetermined" for _, out in free.probes)
    certified_even = all(out.classification != "Undetermined" for _, out in even.probes)
    ok = (
        free.converged and free.bracket_width <= 1e-10
        and abs(free.lambda_star) <= 0.1 and certified_free and t_free < 180.0
        and even.converged and even.bracket_width <= 1e-10
        and abs(even.lambda_star) <= 0.1 and certified_even and t_even < 300.0
    )
    say(7, ok, f"free: l* = {free.lambda_star:.3e} (width {free.bracket_width:.1e}, "
                f"{len(free.probes)} probes, {t_free:.1f}s); "
                f"even: l* = {even.lambda_star:.3e} (width {even.bracket_width:.1e}, "
                f"{len(even.probes)} probes, {t_even:.1f}s)")
    for res, elapsed, budget in ((free, t_free, 180.0), (even, t_even, 300.0)):
        assert res.converged and res.bracket_width <= 1e-10
        assert abs(res.lambda_star) <= 0.1
        assert all(out.classification != "Undetermined" for _, out in res.probes)
        assert elapsed < budget


def test_criterion_08_center_dynamics(say):
    grid = make_grid(20.0, 801)
    t0 = time.perf_counter()
    res = bisect_threshold(
        0, 3.0, PAR_REP, grid, -0.3, 0.3, tol=1e-10, T_max=200.0, dt=0.025
    )
    st0 = initial_family(res.lambda_star, 0, 3.0, grid, PAR_REP)
    states = []
    evolve(st0, 30.0, 0.025, PAR_REP, grid, observer=lambda s: states.append(s.copy()), snapshot_stride=4)
    rep = track_center(states, 0, PAR_REP, grid)
    elapsed = time.perf_counter() - t0

    eps = np.array([f.eps_norm_H for f in rep.frames])
    gaps = np.array([f.relative_gap for f in rep.frames])
    valid = rep.valid_mask

    # (a) gap once the repulsion term dominates the residual energy
    gate = valid & (np.exp(-2.0 * rep.z) >= 10.0 * eps ** 2)
    gap_max = float(np.max(gaps[gate])) if np.any(gate) else float("nan")
    ok_a = bool(np.any(gate)) and gap_max <= 0.15

    # (b) slope of e^{2z} over the small-residual window, target 6 +/- 20%
    t_v, z_v = rep.times[valid], rep.z[valid]
    slope = float(np.polyfit(t_v, np.exp(2.0 * z_v), 1)[0]) if valid.sum() >= 2 else float("nan")
    ok_b = np.isfinite(slope) and abs(slope - 6.0) <= 0.2 * 6.0

    # (c) z - (1/2) log t never grows over the later half of the tracked window
    g = rep.z - 0.5 * np.log(np.maximum(rep.times, 1.0))
    mid = 0.5 * (rep.times[0] + rep.times[-1])
    sup_first = float(np.max(g[rep.times <= mid]))
    sup_last = float(np.max(g[rep.times > mid]))
    ok_c = sup_last <= sup_first + 1e-9

    ok = ok_a and ok_b and ok_c and elapsed < 120.0
    say(8, ok, f"(a) {'PASS' if ok_a else 'FAIL'} gap {gap_max:.4f} on "
                f"{int(gate.sum())} gated frame(s); "
                f"(b) {'PASS' if ok_b else 'FAIL'} slope {slope:.4f} vs 6 +/- 1.2; "
                f"(c) {'PASS' if ok_c else 'FAIL'} sup {sup_first:.4f} -> {sup_last:.4f}; "
                f"{int(valid.sum())}/{len(rep.frames)} frames valid, {elapsed:.0f}s")
    assert elapsed < 120.0
    assert np.any(gate) and gap_max <= 0.15, f"(a) gap {gap_max}"
    assert sup_last <= sup_first + 1e-9, f"(c) {sup_first} -> {sup_last}"
    assert abs(slope - 6.0) <= 0.2 * 6.0, f"(b) slope {slope}"


def test_criterion_09_variational_levels(say):
    grid = make_grid(15.0, 601)
    rng = np.random.default_rng(5)
    noise = 0.01 * rng.standard_normal(grid.n)

    t0 = time.perf_counter()
    even_rep = minimize_level(
        PAR_REP, grid, "even", soliton_Q_gamma(grid.x, PAR_REP) + 0.5 * (noise + noise[::-1])
    )
    t_even = time.perf_counter() - t0
    e1 = abs(even_rep.level_estimate - 9.0 / 4.0) / (9.0 / 4.0)

    t0 = time.perf_counter()
    free_rep = minimize_level(PAR_REP, grid, "none", soliton_Q(grid.x - 3.0, 3.0))
    t_free = time.perf_counter() - t0
    e2 = abs(free_rep.level_estimate - 4.0 / 3.0) / (4.0 / 3.0)

    t0 = time.perf_counter()
    strong_rep = minimize_level(
        PAR_STRONG, grid, "even",
        soliton_Q(grid.x - 5.0, 3.0) + soliton_Q(grid.x + 5.0, 3.0),
    )
    t_strong = time.perf_counter() - t0
    e3 = abs(strong_rep.level_estimate - 8.0 / 3.0) / (8.0 / 3.0)

    ok = (
        e1 < 0.01 and e2 < 0.01 and free_rep.escaped
        and e3 < 0.02 and strong_rep.escaped
        and max(t_even, t_free, t_strong) < 60.0
    )
    say(9, ok, f"even g=-1: 9/4 rel err {e1:.1e} ({t_even:.1f}s); "
                f"free: 4/3 rel err {e2:.1e}, escaped={free_rep.escaped} "
                f"({t_free:.1f}s); even g=-2.5: 8/3 rel err {e3:.1e}, "
                f"escaped={strong_rep.escaped} ({t_strong:.1f}s)")
    assert e1 < 0.01 and t_even < 60.0
    assert e2 < 0.01 and free_rep.escaped and t_free < 60.0
    assert e3 < 0.02 and t_strong < 60.0
    assert strong_rep.escaped, "gamma=-2.5 descent stalls before the detectors"


def test_criterion_10_symmetry_and_determinism(tmp_path, say):
    grid = make_grid(15.0, 301)
    rng = np.random.default_rng(11)
    bump = rng.uniform(0.5, 1.5) * np.exp(-((grid.x - 1.0) ** 2))
    st = State(u=bump, v=0.1 * np.exp(-grid.x ** 2))

    def last(state):
        return evolve(state, 3.0, 0.02, PAR0, grid).final

    a = last(State(u=st.u.copy(), v=st.v.copy()))
    b = last(State(u=-st.u, v=-st.v))
    sign_exact = np.array_equal(a.u, -b.u) and np.array_equal(a.v, -b.v)
    c = last(State(u=st.u[::-1].copy(), v=st.v[::-1].copy()))
    refl_exact = np.array_equal(a.u, c.u[::-1]) and np.array_equal(a.v, c.v[::-1])

    from kgdelta.cli import main
    cfg = tmp_path / "r.cfg"
    cfg.write_text("L = 15\nn = 301\ndt = 0.02\nT = 2\ninit = gaussian\nscale = 0.6\n")
    main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "one")])
    main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "two")])
    bytes_equal = all(
        (tmp_path / "one" / nm).read_bytes() == (tmp_path / "two" / nm).read_bytes()
        for nm in ("trajectory.csv", "final_state.csv", "simulate.json")
    )

    w = soliton_Q(make_grid(15.0, 601).x, 3.0) + 0.2 * np.exp(-make_grid(15.0, 601).x ** 2)
    g601 = make_grid(15.0, 601)
    once = nehari_project(w, PAR_REP, g601)
    twice = nehari_project(once, PAR_REP, g601)
    idem = float(np.max(np.abs(twice - once)))

    ok = sign_exact and refl_exact and bytes_equal and idem <= 1e-12
    say(10, ok, f"sign exact: {sign_exact}; reflection exact: {refl_exact}; "
                 f"CLI rerun bytes equal: {bytes_equal}; "
                 f"Nehari idempotence {idem:.1e}")
    assert sign_exact and refl_exact
    assert bytes_equal
    assert idem <= 1e-12

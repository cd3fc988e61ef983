"""Shooting family, fate certificates, bisection, and center tracking."""
import numpy as np
import pytest

from kgdelta.errors import BracketError, ParameterError
from kgdelta.evolution import EXIT_BLOWUP_CAP, discrete_stationary_profile, evolve
from kgdelta.experiments import (
    BLOWS_UP,
    DECAYS,
    UNDETERMINED,
    bisect_threshold,
    classify_trajectory,
    initial_family,
    scaling_curve,
    track_center,
)
from kgdelta.field import PhysParams, State, energy_E_gamma, make_grid
from kgdelta.profiles import soliton_Q, soliton_Q_gamma

PAR0 = PhysParams(p=3.0, alpha=1.0, gamma=0.0)
PAR_REP = PhysParams(p=3.0, alpha=1.0, gamma=-1.0)
PAR_EVEN = PhysParams(p=3.0, alpha=1.0, gamma=-2.5)


def test_initial_family_values_and_guards():
    grid = make_grid(20.0, 401)
    st = initial_family(0.1, 0, 5.0, grid, PAR_REP)
    ref = np.exp(0.1) * soliton_Q(grid.x - 5.0, 3.0)
    assert np.max(np.abs(st.u - ref)) < 1e-14
    assert np.all(st.v == 0.0)
    pair = initial_family(0.0, 1, 5.0, grid, PAR_EVEN)
    assert np.max(np.abs(pair.u - pair.u[::-1])) < 1e-14  # even by construction
    with pytest.raises(ParameterError):
        initial_family(0.0, 2, 5.0, grid, PAR_REP)
    with pytest.raises(ParameterError):
        initial_family(1.5, 0, 5.0, grid, PAR_REP)
    with pytest.raises(ParameterError):
        initial_family(0.0, 0, 11.0, grid, PAR_REP)  # z + 10 >= L


def test_scaling_curve_closed_forms():
    grid = make_grid(20.0, 401)
    # single soliton, gamma = 0: the family is critical at lambda = 0
    out = scaling_curve(0.0, 0, 5.0, PAR0, grid)
    assert abs(out["x_prime"]) < 1e-10           # K_0(Q) = 0
    assert abs(out["x_value"] - 4.0 / 3.0) < 1e-10
    assert abs(out["x_double_prime"] + 32.0 / 3.0) < 1e-8  # 2||Q||_H1^2 - 4||Q||_4^4
    # gamma != 0 shifts the derivative by -gamma Q(z)^2 (trace of the single bump)
    out = scaling_curve(0.0, 0, 5.0, PAR_REP, grid)
    q5_sq = soliton_Q(5.0, 3.0) ** 2
    assert out["x_prime"] == pytest.approx(-PAR_REP.gamma * q5_sq, rel=1e-6)


def test_scaling_curve_derivatives_by_finite_differences():
    grid = make_grid(20.0, 401)
    d = 1e-5
    for lam in (-0.5, 0.0, 0.5):
        for varsigma, par in ((0, PAR_REP), (1, PAR_EVEN)):
            mid = scaling_curve(lam, varsigma, 4.0, par, grid)
            hi = scaling_curve(lam + d, varsigma, 4.0, par, grid)
            lo = scaling_curve(lam - d, varsigma, 4.0, par, grid)
            fd1 = (hi["x_value"] - lo["x_value"]) / (2.0 * d)
            fd2 = (hi["x_prime"] - lo["x_prime"]) / (2.0 * d)
            assert abs(fd1 - mid["x_prime"]) < 1e-6 * max(1.0, abs(mid["x_prime"]))
            assert abs(fd2 - mid["x_double_prime"]) < 1e-6 * max(
                1.0, abs(mid["x_double_prime"])
            )


def test_small_data_certifies_decay_at_t0():
    grid = make_grid(20.0, 401)
    q = soliton_Q(grid.x, 3.0)
    out = classify_trajectory(State(u=0.5 * q, v=np.zeros(grid.n)), PAR0, grid, 30.0)
    assert out.classification == DECAYS
    # E(0.5 Q) = 7/12 < 4/3 - margin and K(0.5 Q) = 1 > 0: certificate at t = 0
    assert out.certificate_time == 0.0
    assert out.certificate["E_gamma_at_cert"] == pytest.approx(7.0 / 12.0, abs=1e-3)
    assert out.certificate["K_gamma_at_cert"] == pytest.approx(1.0, abs=1e-3)
    assert out.certificate["level_used"] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_large_data_certifies_blowup():
    grid = make_grid(20.0, 401)
    q = soliton_Q(grid.x, 3.0)
    out = classify_trajectory(State(u=1.5 * q, v=np.zeros(grid.n)), PAR0, grid, 60.0)
    assert out.classification == BLOWS_UP
    assert out.certificate_time == 0.0  # E(1.5Q) = -3/4 below level immediately
    assert out.certificate["K_gamma_at_cert"] < 0.0
    assert out.trajectory.exit == EXIT_BLOWUP_CAP
    # blowup confirmation arrives fast under the cap
    assert out.trajectory.sample_times[-1] < 10.0


def test_discrete_equilibrium_stays_undetermined():
    # the threshold state itself never certifies either way
    grid = make_grid(20.0, 401)
    u_eq = discrete_stationary_profile(soliton_Q_gamma(grid.x, PAR_REP), PAR_REP, grid)
    out = classify_trajectory(State(u=u_eq, v=np.zeros(grid.n)), PAR_REP, grid, 20.0)
    assert out.classification == UNDETERMINED
    assert np.isnan(out.certificate_time)


def test_confirmed_decay_norm_collapses():
    # follow the 0.5Q run past the certificate: by T = 30 the norm is tiny
    grid = make_grid(40.0, 801)
    q = soliton_Q(grid.x, 3.0)
    traj = evolve(State(u=0.5 * q, v=np.zeros(grid.n)), 30.0, 0.025, PAR0, grid)
    assert traj.final.t == pytest.approx(30.0)
    assert traj.norm_H[-1] < 1e-3 * traj.norm_H[0]


def test_bisection_brackets_and_determinism():
    grid = make_grid(20.0, 401)  # h = 0.1: coarse but plenty for the bracket
    res = bisect_threshold(0, 3.0, PAR_REP, grid, -0.3, 0.3, tol=1e-8, dt=0.05)
    assert res.converged
    assert res.bracket_width <= 1e-8
    assert abs(res.lambda_star) <= 0.1
    assert res.decays_end in ("lo", "hi")
    assert res.bracket_lo <= res.lambda_star <= res.bracket_hi
    # every recorded probe stayed inside the original bracket and certified
    for lam, out in res.probes:
        assert -0.3 <= lam <= 0.3
        assert out.classification in (DECAYS, BLOWS_UP)
    # and the whole procedure is a pure function of its inputs
    res2 = bisect_threshold(0, 3.0, PAR_REP, grid, -0.3, 0.3, tol=1e-8, dt=0.05)
    assert res2.lambda_star == res.lambda_star
    assert res2.bracket_width == res.bracket_width


def test_steered_search_beats_bisection():
    """The K_gamma(T_s) secant steps land next to lambda*: the certified
    bracket overlaps the one plain bisection found for this case (28 probes,
    232.4 time units simulated) and costs fewer probes and less time."""
    grid = make_grid(20.0, 401)
    res = bisect_threshold(0, 3.0, PAR_REP, grid, -0.3, 0.3, tol=1e-8, dt=0.05)
    bisect_lo, bisect_hi = -0.00011563003063201903, -0.00011562108993530272
    assert res.converged and res.bracket_width <= 1e-8
    assert res.bracket_lo < bisect_hi and bisect_lo < res.bracket_hi
    assert len(res.probes) < 28
    assert sum(out.trajectory.final.t for _, out in res.probes) < 232.0


def test_steered_search_is_sign_blind():
    # K_gamma is even in u and the flow odd, so u -> -u steers identically
    grid = make_grid(20.0, 401)
    plus = bisect_threshold(0, 3.0, PAR_REP, grid, -0.3, 0.3, tol=1e-8, dt=0.05)
    minus = bisect_threshold(0, 3.0, PAR_REP, grid, -0.3, 0.3, tol=1e-8, dt=0.05,
                             sign=-1)
    lams = [np.array([lam for lam, _ in r.probes]).tobytes() for r in (plus, minus)]
    assert lams[0] == lams[1]
    assert (minus.bracket_lo, minus.bracket_hi) == (plus.bracket_lo, plus.bracket_hi)


def test_bisection_stops_at_float_resolution():
    """A tol below the float spacing of the bracket cannot be met: the loop
    ends, unconverged, once lo and hi are adjacent floats, instead of
    probing their midpoint (one of them) forever."""
    grid = make_grid(20.0, 401)
    res = bisect_threshold(0, 3.0, PAR_REP, grid, -0.3, 0.3, tol=1e-300,
                           T_max=100.0, dt=0.05)
    assert not res.converged
    assert res.bracket_hi == np.nextafter(res.bracket_lo, np.inf)
    assert res.bracket_width > 1e-300
    lams = [lam for lam, _ in res.probes]
    assert len(lams) < 100 and len(set(lams)) == len(lams)  # no probe repeats


def test_bisection_sector_guards():
    grid = make_grid(20.0, 401)
    with pytest.raises(ParameterError):
        bisect_threshold(0, 3.0, PAR0, grid, -0.3, 0.3)  # free shot needs gamma < 0
    with pytest.raises(ParameterError):
        bisect_threshold(1, 3.0, PAR_REP, grid, -0.3, 0.3)  # pair needs gamma <= -2
    # a bracket whose endpoints agree is rejected up front
    with pytest.raises(BracketError):
        bisect_threshold(0, 3.0, PAR_REP, grid, -0.3, -0.2, dt=0.05)


def test_track_center_stationary_profile():
    # gamma = 0: the translated soliton is a true equilibrium, so the tracked
    # center must hold still and the prediction must vanish with it
    grid = make_grid(25.0, 501)
    u_eq = discrete_stationary_profile(soliton_Q(grid.x - 5.0, 3.0), PAR0, grid)
    states = []
    evolve(State(u=u_eq, v=np.zeros(grid.n)), 5.0, 0.05, PAR0, grid,
           observers=[lambda s: states.append(s.copy())], snapshot_stride=5)
    rep = track_center(states, 0, 1, PAR0, grid)
    assert not rep.empty
    assert np.max(np.abs(rep.z - rep.z[0])) < 1e-4
    assert abs(rep.z[0] - 5.0) < 1e-2
    assert np.all(rep.valid_mask)  # never leaves the small-residual window
    preds = np.array([f.z_dot_predicted for f in rep.frames])
    assert np.max(np.abs(preds)) < 1e-3  # leading term e^{-2z} ~ 5e-5, no trace


def test_track_center_reports_shapes():
    grid = make_grid(25.0, 501)
    st0 = State(u=soliton_Q(grid.x - 4.0, 3.0), v=np.zeros(grid.n))
    states = []
    evolve(st0, 6.0, 0.05, PAR_REP, grid, observers=[lambda s: states.append(s.copy())], snapshot_stride=5)
    rep = track_center(states, 0, 1, PAR_REP, grid)
    m = len(rep.times)
    assert m > 3
    assert rep.z.shape == (m,)
    assert len(rep.frames) == m
    assert rep.valid_mask.shape == (m,)
    assert np.isfinite(rep.sup_half_log)
    # measured z' enters each frame: the series' gradient, and with it the
    # gap to the frame's own prediction
    measured = np.array([f.z_dot_measured for f in rep.frames])
    assert np.all(np.isfinite(measured))
    assert np.array_equal(measured, np.gradient(rep.z, rep.times))
    assert all(np.isfinite(f.relative_gap) for f in rep.frames)

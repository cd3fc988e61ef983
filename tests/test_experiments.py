"""Shooting family, fate certificates, bisection, and center tracking."""
from dataclasses import astuple

import numpy as np
import pytest

from kgdelta import modulation, profiles
from kgdelta.errors import (BracketError, NoConvergenceError, OutOfTubeError,
                             ParameterError)
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
from kgdelta.field import PhysParams, State, energy_E_gamma, make_grid, trapezoid
from kgdelta.profiles import soliton_Q, soliton_Q_gamma
from kgdelta.variational import reference_levels

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


def test_the_certificate_reads_its_sector_from_the_start():
    """r_gamma certifies exactly the starts whose u and v are even bit for
    bit; the same u shifted by one node, or with a -0.0 facing a 0.0 at the
    walls, is certified against n_gamma."""
    grid = make_grid(20.0, 401)
    levels = reference_levels(PAR_REP)
    u = 0.5 * soliton_Q_gamma(grid.x, PAR_REP)
    shifted = np.concatenate(([0.0], u[:-1]))
    signed = u.copy()
    signed[0], signed[-1] = -0.0, 0.0
    for u0, sector in ((u, "even"), (shifted, "none"), (signed, "none")):
        out = classify_trajectory(State(u=u0, v=np.zeros(grid.n)), PAR_REP, grid, 5.0)
        level = levels["r_gamma" if sector == "even" else "n_gamma"]
        assert out.certificate["symmetry"] == sector
        assert out.certificate["level_used"] == level


def test_a_pushed_soliton_blows_up_in_the_free_sector():
    """A soliton pushed off the origin is not even, so its level is n_gamma:
    its energy is above n_gamma at t = 0 (though below r_gamma), and the run
    goes on to the cap.  No caller can name its sector: a symmetry flag of
    "even" once certified this start Decays at t = 0."""
    grid = make_grid(20.0, 401)
    u = 0.9 * soliton_Q(grid.x - 5.0, 3.0)
    start = State(u=u, v=0.6 * u)
    with pytest.raises(TypeError):
        classify_trajectory(start, PAR_REP, grid, 60.0, "even", dt=0.05)
    out = classify_trajectory(start, PAR_REP, grid, 60.0, dt=0.05)
    assert out.classification == BLOWS_UP
    assert out.certificate["level_used"] == reference_levels(PAR_REP)["n_gamma"]
    assert out.certificate_time > 0.0
    assert out.trajectory.exit == EXIT_BLOWUP_CAP


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
           observer=lambda s: states.append(s.copy()), snapshot_stride=5)
    rep = track_center(states, 0, PAR0, grid)
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
    evolve(st0, 6.0, 0.05, PAR_REP, grid, observer=lambda s: states.append(s.copy()), snapshot_stride=5)
    rep = track_center(states, 0, PAR_REP, grid)
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


def test_track_center_is_sign_blind():
    """The flow is odd in (u, v): the negated states are fitted as the states
    themselves, so every frame of the negated list is the positive one's."""
    grid = make_grid(25.0, 501)
    st0 = initial_family(0.0, 0, 4.0, grid, PAR_REP)
    states = []
    evolve(st0, 6.0, 0.05, PAR_REP, grid, observer=lambda s: states.append(s.copy()),
           snapshot_stride=5)
    rep = track_center(states, 0, PAR_REP, grid)
    neg = track_center([State(-s.u, -s.v, s.t) for s in states], 0, PAR_REP, grid)
    assert len(rep.frames) == len(neg.frames) > 3
    assert [repr(astuple(f)) for f in rep.frames] == [repr(astuple(f)) for f in neg.frames]
    assert np.array_equal(rep.valid_mask, neg.valid_mask)
    assert rep.sup_half_log == neg.sup_half_log


def _old_fit_center(st, sigma, z_guess, params, grid, evals):
    """fit_center as it was before profile reuse: a fresh soliton_pair at
    every Newton iterate (counted in evals[0]) and one more in decompose."""
    z = float(z_guess)
    for _ in range(modulation.FIT_MAX_ITER):
        ref, (q_r, qd_r, _), left = profiles.soliton_pair(grid.x, z, sigma, params.p)
        evals[0] += 1
        w = st.v + 2.0 * params.alpha * (st.u - ref)
        g_val = trapezoid(w * qd_r, grid)
        if abs(g_val) <= modulation.FIT_TOL:
            break
        dg = -trapezoid(w * (q_r - q_r**params.p), grid)
        corr = qd_r - left[1] if sigma else qd_r
        dg += 2.0 * params.alpha * trapezoid(corr * qd_r, grid)
        if dg == 0.0 or not np.isfinite(dg):
            raise NoConvergenceError("singular Jacobian")
        z -= g_val / dg
        if not np.isfinite(z):
            raise NoConvergenceError("diverged")
    else:
        raise NoConvergenceError("no convergence")
    if abs(z - z_guess) > modulation.TUBE_RADIUS:
        raise OutOfTubeError("drifted")
    frame = modulation.decompose(st, z, sigma, params, grid)
    if frame.eps_norm_H > modulation.TUBE_RADIUS:
        raise OutOfTubeError("residual")
    return frame


def _old_track_frames(states, sigma, params, grid):
    """track_center's frames by the old loop, with the number of Newton
    iterates and of fit attempts it made."""
    right = states[0].u[grid.center:]
    peak = grid.center + int(np.argmax(np.abs(right)))
    guess = float(grid.x[peak])
    if states[0].u[peak] < 0:
        states = [State(-s.u, -s.v, s.t) for s in states]
    frames, evals, attempts = [], [0], 0
    for st in states:
        if sigma == 1 and not guess > 2:
            break
        attempts += 1
        try:
            frame = _old_fit_center(st, sigma, guess, params, grid, evals)
        except (OutOfTubeError, NoConvergenceError):
            break
        frames.append(frame)
        guess = frame.z
    z = np.array([f.z for f in frames])
    zdot = np.gradient(z, [f.t for f in frames]) if len(frames) >= 2 else [np.nan]
    for f, zd in zip(frames, zdot):
        f.z_dot_measured = float(zd)
    return frames, evals[0], attempts


@pytest.mark.parametrize("gamma, sigma, z, lam, scale, T, stride", [
    (-1.0, 0, 3.0, 0.01, 1.0, 10.0, 4),  # the single wave, leaving the tube
    (-1.0, 0, 3.0, 0.01, -1.0, 10.0, 4),  # its mirror: the states are negated
    (-2.5, 1, 4.5, 0.0, 1.0, 6.0, 5),  # the even pair, leaving the tube
    (-0.5, 1, 2.2, -0.05, 1.0, 6.0, 4),  # a pair drifting inward to z <= 2
], ids=["single", "negated", "pair", "pair-inward"])
def test_track_center_reuses_profiles_bitwise(monkeypatch, gamma, sigma, z, lam,
                                              scale, T, stride):
    """Each fit starts from the previous fit's converged soliton_pair: the
    frames are the old loop's bit for bit, with one profile evaluation fewer
    per fit after the first."""
    params = PhysParams(p=3.0, alpha=1.0, gamma=gamma)
    grid = make_grid(20.0, 401)
    st0 = initial_family(lam, sigma, z, grid, params)
    states = []
    evolve(State(scale * st0.u, st0.v), T, 0.05, params, grid,
           observer=lambda s: states.append(s.copy()), snapshot_stride=stride)
    old, old_evals, attempts = _old_track_frames(states, sigma, params, grid)
    assert 3 < len(old) < len(states)  # the series ends before the run does

    calls = []
    pair = profiles.soliton_pair
    monkeypatch.setattr(profiles, "soliton_pair",
                        lambda *args: calls.append(args[1]) or pair(*args))
    rep = track_center(states, sigma, params, grid)
    assert [repr(astuple(f)) for f in rep.frames] == [repr(astuple(f)) for f in old]
    assert len(calls) == old_evals - (attempts - 1)
    # only the inward pair's series ends where the next guess is z <= 2
    assert (rep.z[-1] <= 2.0) == (z < 3.0)


def test_a_pair_series_ends_at_a_guess_of_at_most_2():
    """The pair fit refuses z_guess <= 2; track_center ends the series there,
    and an even pair whose peak node is x = 2 fits no frame."""
    grid = make_grid(20.0, 401)
    params = PhysParams(p=3.0, alpha=1.0, gamma=-0.5)
    st0 = initial_family(-0.05, 1, 2.05, grid, params)
    assert grid.x[grid.center + int(np.argmax(st0.u[grid.center:]))] == 2.0
    rep = track_center([st0], 1, params, grid)
    assert rep.empty and rep.frames == [] and np.isnan(rep.sup_half_log)
    with pytest.raises(ParameterError):
        modulation.fit_center(st0, 1, 2.0, params, grid)

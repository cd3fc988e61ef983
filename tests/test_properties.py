"""Properties of the stepping kernel and the sample record over random
(p, alpha, gamma, n, dt, stride) and random initial data (the half-line path
of even starts among them, and a reference copy of the drift/kick loop the
kernel replaced), of linear runs at the stable step over random
(gamma, h, dt), of action_terms' values, the Nehari projection, the
descent's trial score and its escape detectors over random (p, gamma, n, u),
and of the config schema over random valid configs."""
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kgdelta import evolution
from kgdelta.cli import RunConfig, echo_lines, parse_config
from kgdelta.errors import ConfigError, GridError, ParameterError
from kgdelta.evolution import EXIT_BLOWUP_CAP, EXIT_COMPLETED, EXIT_NONFINITE, evolve
from kgdelta.field import (
    CFL,
    PhysParams,
    State,
    action_terms,
    build_operator,
    gradient_sq,
    l2_sq,
    make_grid,
    max_stable_dt,
    spacing,
    trapezoid,
)
from kgdelta.variational import _detectors, _score

from oracles import (
    energy_E_gamma,
    functional_J_gamma,
    functional_K_gamma,
    h1_sq,
    nehari_project,
    norm_H,
    sample_functionals,
)

# small grids and short runs keep the whole module around a second; the
# draws are derandomized so a failure reproduces on every run
FAST = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def runs(draw):
    """(params, grid, dt, n_steps, stride, initial state)."""
    params = PhysParams(
        p=draw(st.sampled_from([3.0, 4.0, 3.5])),  # 3.5: the generic power branch
        alpha=draw(st.floats(0.05, 2.0)),
        gamma=draw(st.floats(-3.0, 1.9)),
    )
    grid = make_grid(draw(st.floats(6.0, 10.0)), draw(st.sampled_from([41, 61, 81])))
    dt = draw(st.floats(0.2, 1.0)) * 0.5 * grid.h
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a rough bump well inside the box, so most runs end by completing
    # rather than by tripping the boundary-contamination monitor
    bump = np.exp(-((grid.x - draw(st.floats(-1.0, 1.0))) ** 2))
    u0 = draw(st.floats(0.1, 0.8)) * bump * (1.0 + 0.1 * rng.standard_normal(grid.n))
    v0 = 0.05 * bump * rng.standard_normal(grid.n)
    state0 = State(u=u0, v=v0)
    return params, grid, dt, draw(st.integers(1, 40)), draw(st.integers(1, 7)), state0


def _evolve(run, state0=None, **kwargs):
    params, grid, dt, n_steps, stride, default = run
    return evolve(state0 or default, n_steps * dt, dt, params, grid,
                  snapshot_stride=stride, **kwargs)


def _evolve_samples(run, state0=None):
    """The run's Trajectory and (copy, E, K, norm_H) of each sample observed."""
    samples = []

    def keep(s):
        samples.append((s.copy(), s.E, s.K, s.norm_H))

    return _evolve(run, state0, observer=keep), samples


@FAST
@given(runs())
def test_evolve_is_exactly_sign_and_reflection_equivariant(run):
    u0, v0 = run[-1].u, run[-1].v
    base, base_s = _evolve_samples(run)
    flipped, flipped_s = _evolve_samples(run, State(u=-u0, v=-v0))
    mirrored, mirrored_s = _evolve_samples(run, State(u=u0[::-1].copy(),
                                                      v=v0[::-1].copy()))
    assert flipped.exit == mirrored.exit == base.exit
    # reflection reorders the quadrature sums, so only the states are exact
    assert np.array_equal(flipped.energies, base.energies)
    assert np.array_equal(flipped.K_gamma, base.K_gamma)
    assert np.array_equal(flipped.norm_H, base.norm_H)
    assert len(base_s) == len(flipped_s) == len(mirrored_s)
    for (a, *_), (b, *_), (c, *_) in zip(base_s, flipped_s, mirrored_s):
        assert np.array_equal(b.u, -a.u) and np.array_equal(b.v, -a.v)
        assert np.array_equal(c.u, a.u[::-1]) and np.array_equal(c.v, a.v[::-1])


def _bits(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@FAST
@given(runs())
def test_an_even_start_steps_on_the_half_line_bitwise(run):
    """A bitwise-even start takes the half-line path: every observed state,
    E, K, ||(u, v)||_H and the exit are bitwise the full-grid run's, and the
    damping and mass integrals, whose per-step norms the half-line path sums
    over the right half, agree to 8 eps per step taken."""
    dt, state0 = run[2], run[-1]
    u0, v0 = state0.u, state0.v
    even = State(u=0.5 * (u0 + u0[::-1]), v=0.5 * (v0 + v0[::-1]))
    assert evolution.is_even(even.u) and evolution.is_even(even.v)
    half, half_s = _evolve_samples(run, even)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "is_even", lambda w: False)
        full, full_s = _evolve_samples(run, even)
    assert half.exit == full.exit and len(half_s) == len(full_s) >= 1
    for (a, *fa), (b, *fb) in zip(half_s, full_s):
        assert _bits(a.t, *fa) == _bits(b.t, *fb)
        assert a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()
    for name in ("sample_times", "energies", "K_gamma", "norm_H", "norm_H1",
                 "norm_L2_v", "u_center"):
        assert getattr(half, name).tobytes() == getattr(full, name).tobytes()
    steps = np.rint((full.sample_times - full.sample_times[0]) / dt)
    eps = np.finfo(float).eps
    for name in ("damping", "mass_integrals"):
        a, b = getattr(half, name), getattr(full, name)
        assert np.all(np.abs(a - b) <= 8.0 * eps * steps * np.abs(b))


TRAJECTORY_ARRAYS = ("sample_times", "energies", "damping", "mass_integrals", "K_gamma",
                     "norm_H", "norm_H1", "norm_L2_v", "u_center")


def _reference_run(state0, n_steps, dt, params, grid, stride, cap, nonlinear):
    """evolve's stepping loop before one step became one kernel call: drift,
    the exact sup |u+| at every step, kick, on the window of an even start,
    with the stencil's grouping and the ledger's norms.  Returns the rows
    (t, E, damping, mass, K, ||(u, v)||_H, ||u||_H1, ||v||, u(0)), the last
    recorded (u, v), the exit and the sup of every step taken."""
    h, a, center = grid.h, params.alpha, grid.center
    u, v = np.array(state0.u, dtype=float), np.array(state0.v, dtype=float)
    even = evolution.is_even(u) and evolution.is_even(v)
    lo = center - 1 if even else 0
    op = build_operator(grid, params.gamma)
    diag, off = op.diag[lo:], op.off_diag
    c_g, c_v, k_v = 0.5 * dt * dt, dt * (1.0 - a * dt), 1.0 / (dt * (1.0 + a * dt))

    def force(u):
        g, nb = diag * u, (u[:-2] + u[2:]) * off
        g[1:-1] += nb
        g[0] += off * u[1]
        g[-1] += off * u[-2]
        return (evolution.nonlinearity(u, params.p) - g) * c_g if nonlinear else g * -c_g

    def sq(w):
        t, wc, w0, w1 = (w[2:] if even else w), float(w[1]), float(w[0]), float(w[-1])
        if even:
            return h * (2.0 * float(np.dot(t, t)) + wc * wc - w1 * w1)
        return h * (float(np.dot(t, t)) - 0.5 * (w0 * w0 + w1 * w1))

    def record(k):
        fu, fv = np.empty(grid.n), np.empty(grid.n)
        fu[lo:], fv[lo:] = u, v
        if even:
            fu[:center], fv[:center] = u[:1:-1], v[:1:-1]
        e, kval, h1, l2_v = sample_functionals(fu, fv, params, grid)
        u0 = float(fu[center])
        e = e if nonlinear else 0.5 * (h1 + l2_v - params.gamma * u0 * u0)
        rows.append((state0.t + k * dt, e, damping, mass, kval, np.sqrt(h1 + l2_v),
                     np.sqrt(h1), np.sqrt(l2_v), u0))
        return fu, fv

    u, v = u[lo:], v[lo:]
    g, usq, vsq, damping, mass, rows, sups = force(u), sq(u), sq(v), 0.0, 0.0, [], []
    last = record(0)
    for k in range(1, n_steps + 1):
        u1 = v * c_v + u + g
        u1[0] = u1[-1] = 0.0
        sups.append(float(np.max(np.abs(u1))))
        if not np.isfinite(sups[-1]):
            return rows, last, EXIT_NONFINITE, sups
        if even:
            u1[0] = u1[2]
        g = force(u1)
        v1 = (u1 - u + g) * k_v
        v1[0] = v1[-1] = 0.0
        damping += (2.0 * a * dt * 0.5) * (vsq + sq(v1))
        mass += (dt * 0.5) * (usq + sq(u1))
        u, v, usq, vsq = u1, v1, sq(u1), sq(v1)
        if sups[-1] > cap:
            return rows, record(k), EXIT_BLOWUP_CAP, sups
        if k % stride == 0 or k == n_steps:
            last = record(k)
    return rows, last, EXIT_COMPLETED, sups


@FAST
@given(runs(), st.booleans(), st.booleans(), st.booleans(),
       st.sampled_from([None, -2, 2]), st.floats(0.0, 1.0, exclude_max=True))
def test_evolve_equals_the_drift_kick_reference_bitwise(run, even, nonlinear, rough,
                                                        ulps, where):
    """Free and even starts, p in {3, 4, 3.5}, linear and nonlinear runs, a
    bump or noise up to the walls: every Trajectory array, the final state
    and the exit are the reference loop's bit for bit.  A cap 2 ulps either
    side of one step's sup, at snapshot_stride 1, has the sum-of-squares
    test fire BlowupCap on the step the exact sup fires it on."""
    params, grid, dt, n_steps, stride, state0 = run
    if rough:
        state0 = State(u=0.1 * np.cos(7.0 * grid.x) + state0.v, v=state0.u[::-1].copy())
    if even:
        u0, v0 = state0.u, state0.v
        state0 = State(u=0.5 * (u0 + u0[::-1]), v=0.5 * (v0 + v0[::-1]))
    cap = evolution.DEFAULT_CAP
    if ulps is not None:
        sups = _reference_run(state0, n_steps, dt, params, grid, 1, np.inf, nonlinear)[3]
        cap, stride = sups[int(where * len(sups))], 1
        for _ in range(abs(ulps)):
            cap = float(np.nextafter(cap, np.sign(ulps) * np.inf))
    rows, last, exit_, _ = _reference_run(state0, n_steps, dt, params, grid, stride,
                                          cap, nonlinear)
    traj = evolve(state0, n_steps * dt, dt, params, grid, snapshot_stride=stride,
                  blowup_cap=cap, with_nonlinearity=nonlinear,
                  contamination_tol=np.inf)
    assert traj.exit == exit_
    ref = np.array(rows).T
    for name, column in zip(TRAJECTORY_ARRAYS, ref):
        assert getattr(traj, name).tobytes() == column.tobytes(), name
    assert traj.final.u.tobytes() == last[0].tobytes()
    assert traj.final.v.tobytes() == last[1].tobytes()


@FAST
@given(runs(), st.booleans(), st.booleans(), st.sampled_from([None, -2, 2]),
       st.floats(0.0, 1.0, exclude_max=True), st.integers(2, 7), st.integers(20, 60))
def test_exits_inside_a_sample_interval_equal_the_reference_bitwise(
        run, even, nonlinear, ulps, where, stride, decades):
    """Exits that fall between two samples, inside one kernel call: a cap 2
    ulps either side of one step's sup, or (ulps None) a nonlinear start of
    sup 10^decades that overflows a few steps in, at a stride >= 2.  Every
    Trajectory array, the final state and the exit are the reference loop's
    bit for bit.  (About 0.2 s.)"""
    params, grid, dt, n_steps, _, state0 = run
    if even:
        u0, v0 = state0.u, state0.v
        state0 = State(u=0.5 * (u0 + u0[::-1]), v=0.5 * (v0 + v0[::-1]))
    cap, n_steps = np.inf, max(n_steps, 2 * stride)
    with np.errstate(all="ignore"):  # the reference loop warns of its overflows
        if ulps is None:
            nonlinear = True
            scale = 10.0 ** decades / float(np.max(np.abs(state0.u)))
            state0 = State(u=scale * state0.u, v=scale * state0.v)
        else:
            sups = _reference_run(state0, n_steps, dt, params, grid, 1, np.inf,
                                  nonlinear)[3]
            cap = sups[int(where * len(sups))]
            for _ in range(abs(ulps)):
                cap = float(np.nextafter(cap, np.sign(ulps) * np.inf))
        rows, last, exit_, _ = _reference_run(state0, n_steps, dt, params, grid,
                                              stride, cap, nonlinear)
    traj = evolve(state0, n_steps * dt, dt, params, grid, snapshot_stride=stride,
                  blowup_cap=cap, with_nonlinearity=nonlinear,
                  contamination_tol=np.inf)
    assert traj.exit == exit_
    for name, column in zip(TRAJECTORY_ARRAYS, np.array(rows).T):
        assert getattr(traj, name).tobytes() == column.tobytes(), name
    assert traj.final.u.tobytes() == last[0].tobytes()
    assert traj.final.v.tobytes() == last[1].tobytes()


@pytest.mark.parametrize("cap", [10**400, -10**400, 10**200, 1e300, np.inf, np.nan, -10.0,
                                 0.0, 5e-324, 1e-170, 0.4])
@pytest.mark.parametrize("even", [False, True])
def test_caps_off_the_sum_of_squares_test_take_the_exact_sup(cap, even):
    """Caps whose square overflows (an int beyond the float range among them),
    is NaN, underflows or belongs to a cap that is not positive: evolve's
    exits and records are the reference loop's bit for bit."""
    params, grid = PhysParams(p=3.0, alpha=0.5, gamma=-1.0), make_grid(8.0, 81)
    u0 = 0.5 * np.exp(-(grid.x - (0.0 if even else 1.0)) ** 2)
    state0 = State(u=u0, v=0.1 * u0)
    rows, last, exit_, _ = _reference_run(state0, 20, 0.05, params, grid, 1, cap, True)
    traj = evolve(state0, 1.0, 0.05, params, grid, snapshot_stride=1, blowup_cap=cap,
                  contamination_tol=np.inf)
    assert traj.exit == exit_ == (EXIT_BLOWUP_CAP if cap <= 0.4 else EXIT_COMPLETED)
    for name, column in zip(TRAJECTORY_ARRAYS, np.array(rows).T):
        assert getattr(traj, name).tobytes() == column.tobytes(), name
    assert traj.final.u.tobytes() == last[0].tobytes()


@FAST
@given(runs())
def test_ledger_closes_at_second_order(run):
    """E(T) - E(0) + damping(T) is the scheme's O(dt^2) error: halving dt
    shrinks it (by 4 asymptotically; rough data sits short of that)."""
    params, grid, dt, n_steps, stride, state0 = run
    resid = []
    for d in (dt, 0.5 * dt):
        traj = evolve(state0, max(n_steps, 10) * dt, d, params, grid,
                      snapshot_stride=stride, contamination_tol=np.inf)
        e, damping = traj.energies, traj.damping
        assert np.all(np.diff(damping) >= 0.0)
        assert np.all(np.diff(traj.mass_integrals) >= 0.0)
        resid.append(abs(e[-1] - e[0] + damping[-1]))
    assert resid[1] <= resid[0] / 1.5


@FAST
@given(gamma=st.floats(-1e3, 2.0, exclude_max=True), alpha=st.floats(1e-3, 3.0),
       L=st.floats(1.0, 10.0), n=st.sampled_from([5, 21, 41, 81]),
       fraction=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_linear_runs_at_the_stable_step_never_gain_energy(gamma, alpha, L, n,
                                                          fraction, seed):
    """At dt <= max_stable_dt, dt^2 lambda_max(A) <= 4, and the scheme's own
    energy of a linear run,

        F_{k+1/2} = h (||(u_{k+1} - u_k)/dt||^2 + <u_{k+1}, A u_k>) / 2,

    never increases and stays nonnegative, so the run cannot grow.  (E_gamma
    at the samples trades O(dt^2 lambda) with F and may rise above its
    start.)  Rough data excite every mode, the delta node's included."""
    params = PhysParams(p=3.0, alpha=alpha, gamma=gamma)
    grid = make_grid(L, n)
    dt = fraction * max_stable_dt(grid.h, gamma)
    op = build_operator(grid, gamma)
    interior = (np.diag(op.diag[1:-1]) + np.diag(np.full(n - 3, op.off_diag), 1)
                + np.diag(np.full(n - 3, op.off_diag), -1))
    assert dt * dt * np.linalg.eigvalsh(interior)[-1] <= 4.0
    rng = np.random.default_rng(seed)
    u0, v0 = rng.standard_normal(n), rng.standard_normal(n)
    u0[[0, -1]] = v0[[0, -1]] = 0.0
    us = []
    evolve(State(u=u0, v=v0), 200 * dt, dt, params, grid, snapshot_stride=1,
           observer=lambda s: us.append(s.u.copy()), with_nonlinearity=False,
           contamination_tol=np.inf)
    assert len(us) == 201
    F = np.array([0.5 * grid.h * (np.dot((b - a) / dt, (b - a) / dt)
                                  + np.dot(b, op.apply(a)))
                  for a, b in zip(us, us[1:])])
    assert np.all(np.diff(F) <= 1e-10 * F[0]) and np.all(F >= -1e-10 * F[0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(log_h=st.floats(-4.0, 1.5), k=st.integers(1, 400),
       gamma=st.floats(-3.0, 2.0, exclude_max=True)
       | st.floats(0.0, 6.0).map(lambda e: -(10.0 ** e)))
def test_dt_bound_reads_the_operator_bands(log_h, k, gamma):
    """max_stable_dt's second term is 2/sqrt of the Gershgorin bound on
    lambda_max(A), max|diag| + 2|off_diag|, read off the bands of the
    operator build_operator gives, so the bound follows any change of A."""
    n = 2 * k + 1
    grid = make_grid(0.5 * (n - 1) * 10.0 ** log_h, n)
    op = build_operator(grid, gamma)
    gershgorin = float(np.max(np.abs(op.diag))) + 2.0 * abs(op.off_diag)
    expect = min(CFL * grid.h, 2.0 / np.sqrt(gershgorin))
    assert abs(max_stable_dt(grid.h, gamma) - expect) <= 1e-15 * expect


# L = +-m 10^k over every decade of the doubles, subnormals and overflow to
# inf included; n an int, odd or even, or a float; about 1.5 s for both tests
_HALF_WIDTHS = st.builds(lambda s, m, k: s * m * 10.0 ** k,
                         st.sampled_from([1.0, 1.0, 1.0, -1.0]),
                         st.floats(1.0, 10.0, exclude_max=True), st.integers(-320, 308))
_ODD = st.integers(1, 1200).map(lambda k: 2 * k + 1)
_COUNTS = _ODD | _ODD | st.integers(3, 2401) | _ODD.map(float) | st.floats(3.0, 2401.0)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(L=_HALF_WIDTHS, n=_COUNTS)
def test_make_grid_returns_the_exact_grid_or_refuses(L, n):
    """make_grid raises GridError, or its grid has h = 2L/(n-1) and nodes
    bitwise h*(j - center), exactly antisymmetric with x = 0 at the center;
    it raises nothing else and prints no float warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = make_grid(L, n)
        except GridError:
            return
    assert grid.h == 2.0 * L / (n - 1)
    assert grid.x[grid.center] == 0.0
    assert np.array_equal(grid.x, -grid.x[::-1])
    expect = grid.h * (np.arange(n, dtype=float) - grid.center)
    assert grid.x.tobytes() == expect.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(L=st.builds(lambda m, k: m * 10.0 ** k, st.floats(1.0, 10.0, exclude_max=True),
                   st.integers(-3, 6)),
       k=st.integers(1, 200),
       gamma=st.floats(-3.0, 2.0, exclude_max=True)
       | st.floats(0.0, 300.0).map(lambda e: -(10.0 ** e)))
def test_config_accepts_a_dt_exactly_when_evolve_does(L, k, gamma):
    """At the stable step's edge max_stable_dt * (1 + 1e-12) and at the next
    float above it, parse_config and evolve take the same decision."""
    n = 2 * k + 1
    params, grid = PhysParams(p=3.0, alpha=1.0, gamma=gamma), make_grid(L, n)
    edge = max_stable_dt(spacing(L, n), gamma) * (1.0 + 1e-12)
    decisions = []
    for dt in (edge, np.nextafter(edge, np.inf)):
        try:
            parse_config(f"L = {L!r}\nn = {n}\ngamma = {gamma!r}\ndt = {dt!r}\n")
            config_accepts = True
        except ConfigError:
            config_accepts = False
        try:
            evolve(State(u=np.zeros(n), v=np.zeros(n)), 0.0, dt, params, grid)
            evolve_accepts = True
        except ParameterError:
            evolve_accepts = False
        assert config_accepts == evolve_accepts
        decisions.append(evolve_accepts)
    assert decisions == ([True, False] if edge > 0.0 else [False, False])


@FAST
@given(runs())
def test_sample_record_matches_field_functionals(run):
    params, grid = run[0], run[1]
    traj, samples = _evolve_samples(run)
    assert len(samples) == len(traj.sample_times)
    q = params.p + 1.0
    for i, (s, E, K, nH) in enumerate(samples):
        u0 = float(s.u[grid.center])
        assert traj.sample_times[i] == s.t
        assert traj.energies[i] == energy_E_gamma(s, params, grid) == E
        # E_gamma's formula, term by term in its operation order
        assert E == (0.5 * (h1_sq(s.u, grid) + l2_sq(s.v, grid)
                            - params.gamma * u0 * u0)
                     - trapezoid(np.abs(s.u) ** q, grid) / q)
        assert traj.K_gamma[i] == functional_K_gamma(s.u, params, grid) == K
        assert traj.norm_H[i] == norm_H(s, grid) == nH
        assert traj.norm_H1[i] == np.sqrt(h1_sq(s.u, grid))
        assert traj.norm_L2_v[i] == np.sqrt(l2_sq(s.v, grid))
        assert traj.u_center[i] == u0
    assert traj.sup_norm_H == np.max(traj.norm_H)
    # the run keeps its last sample, functionals included
    last, final = samples[-1], traj.final
    assert np.array_equal(final.u, last[0].u) and np.array_equal(final.v, last[0].v)
    assert (final.t, final.E, final.K, final.norm_H) == (last[0].t, *last[1:])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([3.0, 4.0]) | st.floats(2.1, 7.0), gamma=st.floats(-3.0, 1.9),
       L=st.floats(1.0, 15.0), n=st.integers(1, 200).map(lambda k: 2 * k + 1),
       scale=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e), seed=st.integers(0, 2**32 - 1))
def test_action_terms_are_the_field_functionals_term_by_term(p, gamma, L, n, scale, seed):
    """Each of action_terms' four values is bitwise what gradient_sq, l2_sq
    and the trapezoid of |u|^(p+1) combine to, walls included."""
    params = PhysParams(p=p, alpha=1.0, gamma=gamma)
    grid = make_grid(L, n)
    u = scale * np.random.default_rng(seed).standard_normal(n)
    assert u[0] != 0.0 and u[-1] != 0.0
    quad, lq, l2, h1 = action_terms(u, params, grid)
    u0 = float(u[grid.center])
    assert quad == gradient_sq(u, grid) + l2_sq(u, grid) - gamma * u0 * u0
    assert lq == trapezoid(np.abs(u) ** (p + 1.0), grid)
    assert l2 == l2_sq(u, grid)
    assert h1 == gradient_sq(u, grid) + l2_sq(u, grid)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(p=st.floats(2.1, 7.0), gamma=st.floats(-3.0, 1.9),
       n=st.sampled_from([41, 101, 301]), scale=st.floats(0.05, 5.0),
       center=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_nehari_projection_is_idempotent(p, gamma, n, scale, center, seed):
    """One projection lands on K_gamma = 0 and a second one leaves it there."""
    params = PhysParams(p=p, alpha=1.0, gamma=gamma)
    grid = make_grid(10.0, n)
    rng = np.random.default_rng(seed)
    bump = np.exp(-((grid.x - center) ** 2))
    u = scale * bump * (1.0 + 0.3 * rng.standard_normal(n))
    u[0] = u[-1] = 0.0
    once = nehari_project(u, params, grid)
    twice = nehari_project(once, params, grid)
    assert np.max(np.abs(twice - once)) <= 1e-12 * np.max(np.abs(once))
    assert abs(functional_K_gamma(once, params, grid)) <= 1e-12 * h1_sq(once, grid)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.floats(2.0, 10.0, exclude_min=True),
       gamma=st.floats(-3.0, 2.0, exclude_max=True),
       L=st.floats(5.0, 15.0), n=st.integers(1, 200).map(lambda k: 2 * k + 1),
       bumps=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-3.0, 3.0),
                                st.floats(0.3, 2.0)), min_size=1, max_size=3),
       # moderate scales, and the zero, underflowing and overflowing ones
       scale=st.one_of(st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e),
                       st.sampled_from([0.0, 1e-200, 1e80, 1e200])))
def test_trial_score_is_the_projected_action(p, gamma, L, n, bumps, scale):
    """The descent scores a trial v by J_gamma(P v) from v's own terms: it
    agrees with the action of the projected array to 1e-13, and it is inf
    exactly where v cannot be projected or P v's action is not finite."""
    params = PhysParams(p=p, alpha=1.0, gamma=gamma)
    grid = make_grid(L, n)
    v = scale * sum(a * np.exp(-(((grid.x - c) / w) ** 2)) for a, c, w in bumps)
    v[0] = v[-1] = 0.0
    # the overflowing scales overflow u's own terms, as at a huge start
    with np.errstate(over="ignore", invalid="ignore"):
        score, lam = _score(v, params, grid)
        try:
            J = functional_J_gamma(nehari_project(v, params, grid), params, grid)
        except ParameterError:
            J = np.inf
    if np.isfinite(J):
        assert abs(score - J) <= 1e-13 * abs(J)
        assert lam is not None
    else:
        assert score == np.inf and lam is None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.floats(2.0, 10.0, exclude_min=True),
       gamma=st.floats(-3.0, 2.0, exclude_max=True),
       L=st.floats(5.0, 15.0), n=st.integers(1, 200).map(lambda k: 2 * k + 1),
       bumps=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-8.0, 8.0),
                                st.floats(0.3, 2.0)), min_size=1, max_size=3),
       scale=st.floats(-20.0, 20.0).map(lambda e: 10.0 ** e))
def test_detectors_are_blind_to_the_nehari_rescaling(p, gamma, L, n, bumps, scale):
    """Both escape detectors are ratios to ||u||^2, so a candidate v and its
    projection P v = exp(lambda*) v agree on them to rounding: the descent
    tests a move candidate for an escape before projecting it."""
    params = PhysParams(p=p, alpha=1.0, gamma=gamma)
    grid = make_grid(L, n)
    v = scale * sum(a * np.exp(-(((grid.x - c) / w) ** 2)) for a, c, w in bumps)
    v[0] = v[-1] = 0.0
    try:
        projected = nehari_project(v, params, grid)
    except ParameterError:
        assume(False)  # v is zero or its terms underflow: nothing to project
    drift, mass = _detectors(v, l2_sq(v, grid), grid)
    drift_p, mass_p = _detectors(projected, l2_sq(projected, grid), grid)
    assert abs(drift - drift_p) <= 1e-13 * L
    assert abs(mass - mass_p) <= 1e-13


@st.composite
def config_texts(draw):
    """A valid config: the grid, alpha and the bracket always, any subset of
    the other keys, in random order, some with a trailing comment."""
    unit = st.floats(0.01, 1.0)
    L, n = draw(st.floats(1.0, 100.0)), 2 * draw(st.integers(1, 3000)) + 1
    alpha = draw(st.floats(0.01, 5.0))
    lo = draw(st.floats(-1.0, 0.99))
    always = {
        "L": L, "n": n, "alpha": alpha, "lambda_lo": lo,
        "lambda_hi": draw(st.floats(lo, 1.0, exclude_min=True)),
    }
    optional = {
        "p": draw(st.floats(2.01, 9.0)),
        "gamma": draw(st.floats(-5.0, 1.99)),
        "T": draw(st.floats(0.0, 100.0)),
        "snapshot_stride": draw(st.integers(1, 50)),
        "blowup_cap": draw(st.floats(1.0, 1e6)),
        "init": draw(st.sampled_from(["qgamma", "q", "equilibrium", "family",
                                      "gaussian"])),
        "lambda": draw(st.floats(-1.0, 1.0)),
        "varsigma": draw(st.sampled_from([0, 1])),
        "z": draw(st.floats(0.1, 20.0)),
        "scale": draw(st.floats(-5.0, 5.0)),
        "symmetry": draw(st.sampled_from(["none", "even"])),
        "tol": draw(unit),
        "T_max": draw(st.floats(1.0, 500.0)),
        "max_iters": draw(st.integers(1, 10**6)),
        "nonlinearity": draw(st.sampled_from([0, 1])),
    }
    chosen = draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    values = {**always, **{key: optional[key] for key in chosen}}
    # dt up to the stable step of the grid and of gamma, drawn or the default
    gamma = values.get("gamma", RunConfig().gamma)
    values["dt"] = draw(unit) * max_stable_dt(spacing(L, n), gamma)
    lines = []
    for key in draw(st.permutations(sorted(values))):
        comment = "  # note" if draw(st.booleans()) else ""
        lines.append(f"{key} = {values[key]}{comment}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config_texts())
def test_config_parse_echo_parse_round_trip(text):
    cfg = parse_config(text)
    assert parse_config("\n".join(echo_lines(cfg)) + "\n") == cfg

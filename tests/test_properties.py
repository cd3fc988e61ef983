"""Properties of the stepping kernel and the sample record over random
(p, alpha, gamma, n, dt, stride) and random initial data, of linear runs at
the stable step over random (gamma, h, dt), of the Nehari projection and
the descent's trial score over random (p, gamma, n, u), and of the config
schema over random valid configs."""
import numpy as np
from hypothesis import given, settings, strategies as st

from kgdelta.cli import RunConfig, echo_lines, parse_config
from kgdelta.errors import ParameterError
from kgdelta.evolution import evolve
from kgdelta.field import (
    CFL,
    PhysParams,
    State,
    build_operator,
    energy_E_gamma,
    functional_J_gamma,
    functional_K_gamma,
    h1_sq,
    l2_sq,
    make_grid,
    max_stable_dt,
    norm_H,
    trapezoid,
)
from kgdelta.variational import _score, nehari_project

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
        "sign": draw(st.sampled_from([-1, 1])),
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
    values["dt"] = draw(unit) * max_stable_dt(2.0 * L / (n - 1), gamma)
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

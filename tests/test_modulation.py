"""Center fit, eigenmode amplitudes, and the reduced ODE's prediction side."""
import dataclasses

import numpy as np
import pytest

from kgdelta.errors import NoConvergenceError, OutOfTubeError, ParameterError
from kgdelta.evolution import evolve
from kgdelta.field import PhysParams, State, make_grid, trapezoid
from kgdelta.modulation import decompose, eigenmode_drift_check, fit_center
from kgdelta.profiles import (
    neutral_even_mode_phi,
    soliton_Q,
    soliton_Q_deriv,
    spectral_constants,
)

PAR = PhysParams(p=3.0, alpha=1.0, gamma=-1.0)


def _grid():
    return make_grid(25.0, 1001)


def test_fit_center_recovers_exact_translate():
    grid = _grid()
    for z_true in (3.7, 5.0, 6.25):
        st = State(u=soliton_Q(grid.x - z_true, 3.0), v=np.zeros(grid.n))
        z = fit_center(st, 0, 1, z_true + 0.2, PAR, grid).z
        assert abs(z - z_true) < 1e-9


def test_fit_center_pair_and_sign():
    grid = _grid()
    z_true = 4.4
    pair = soliton_Q(grid.x - z_true, 3.0) + soliton_Q(grid.x + z_true, 3.0)
    z = fit_center(State(u=pair, v=np.zeros(grid.n)), 1, 1, 4.2, PAR, grid).z
    assert abs(z - z_true) < 1e-9
    z = fit_center(State(u=-pair, v=np.zeros(grid.n)), 1, -1, 4.2, PAR, grid).z
    assert abs(z - z_true) < 1e-9


@pytest.mark.parametrize("sigma, sign, z_true, guess", [(1, 1, 4.4, 4.2),
                                                      (0, -1, 5.0, 5.2)],
                         ids=["pair", "sign=-1"])
def test_fit_center_frame_is_decompose_at_the_fit(sigma, sign, z_true, guess):
    """fit_center's frame is decompose at the fitted center, bit for bit."""
    grid = _grid()
    s = grid.x - z_true
    bump = np.exp(-0.25 * s**2)  # a smooth, asymmetric residual off the manifold
    u = soliton_Q(s, 3.0) + 0.02 * (1.0 + s) * bump
    if sigma:
        u = u + soliton_Q(grid.x + z_true, 3.0)
    st = State(u=sign * u, v=0.01 * np.cos(s) * bump, t=1.5)
    frame = fit_center(st, sigma, sign, guess, PAR, grid)
    again = decompose(st, frame.z, sigma, sign, PAR, grid)
    for f in dataclasses.fields(frame):
        a, b = getattr(frame, f.name), getattr(again, f.name)
        assert np.array_equal(a, b, equal_nan=True), f.name
    assert abs(frame.z - z_true) < 0.05 and frame.t == 1.5


def test_fit_center_guard_rails():
    grid = _grid()
    st = State(u=soliton_Q(grid.x - 5.0, 3.0), v=np.zeros(grid.n))
    with pytest.raises(ParameterError):
        fit_center(st, 2, 1, 5.0, PAR, grid)
    with pytest.raises(ParameterError):
        fit_center(st, 1, 1, 1.5, PAR, grid)  # pair fit needs z_guess > 2
    # a guess an entire soliton-width off leaves the trust tube
    with pytest.raises((OutOfTubeError, NoConvergenceError)):
        fit_center(st, 0, 1, 8.5, PAR, grid)
    # a state nowhere near the manifold fails the residual gate
    junk = State(u=np.ones(grid.n), v=np.zeros(grid.n))
    with pytest.raises((OutOfTubeError, NoConvergenceError)):
        fit_center(junk, 0, 1, 5.0, PAR, grid)


def test_decompose_amplitudes_synthetic():
    # plant eps = c1 phi_+, eta = c2 phi_+ and read the projections back
    grid = _grid()
    con = spectral_constants(PAR)
    z = 5.0
    phi = neutral_even_mode_phi(grid.x - z, 3.0)
    w = trapezoid(phi * phi, grid)
    c1, c2 = 0.013, -0.008
    u = soliton_Q(grid.x - z, 3.0) + c1 * phi
    st = State(u=u, v=c2 * phi)
    fr = decompose(st, z, 0, 1, PAR, grid)
    assert fr.a_plus == pytest.approx((c2 - con.nu_minus * c1) * w, rel=1e-12)
    assert fr.a_minus == pytest.approx((c2 - con.nu_plus * c1) * w, rel=1e-12)
    # Q' is odd about z while phi is even: a_zero sees none of eta
    assert abs(fr.a_zero) < 1e-12
    assert fr.eps_norm_H > 0.0
    assert fr.script_G >= fr.script_E - 1e-15


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_decompose_overflowing_amplitudes_give_inf():
    """a_minus = 1e160 * ||phi||^2 is finite but its square is not: the frame
    carries script_G = inf instead of raising OverflowError, and fit_center
    refuses the state with a KgError that track_center stops on."""
    grid = _grid()
    z = 5.0
    phi = neutral_even_mode_phi(grid.x - z, 3.0)
    st = State(u=soliton_Q(grid.x - z, 3.0), v=1e160 * phi)
    fr = decompose(st, z, 0, 1, PAR, grid)
    assert np.isfinite(fr.a_minus) and abs(fr.a_minus) > 1e155
    assert fr.script_G == np.inf and fr.eps_norm_H == np.inf
    with pytest.raises((OutOfTubeError, NoConvergenceError)):
        fit_center(st, 0, 1, z, PAR, grid)


def test_amplitude_identities_random():
    # nu+ a+ - nu- a- = (nu+ - nu-) <eta, phi>   (cross terms cancel)
    #     a+ -     a- = (nu+ - nu-) <eps, phi>
    grid = _grid()
    con = spectral_constants(PAR)
    z = 4.0
    phi = neutral_even_mode_phi(grid.x - z, 3.0)
    rng = np.random.default_rng(31)
    for _ in range(10):
        eps = 0.02 * rng.standard_normal(grid.n) * np.exp(-0.25 * (grid.x - z) ** 2)
        eta = 0.02 * rng.standard_normal(grid.n) * np.exp(-0.25 * (grid.x - z) ** 2)
        st = State(u=soliton_Q(grid.x - z, 3.0) + eps, v=eta)
        fr = decompose(st, z, 0, 1, PAR, grid)
        lhs1 = con.nu_plus * fr.a_plus - con.nu_minus * fr.a_minus
        rhs1 = (con.nu_plus - con.nu_minus) * trapezoid(eta * phi, grid)
        assert abs(lhs1 - rhs1) < 1e-12 * max(1.0, abs(rhs1))
        lhs2 = fr.a_plus - fr.a_minus
        rhs2 = (con.nu_plus - con.nu_minus) * trapezoid(eps * phi, grid)
        assert abs(lhs2 - rhs2) < 1e-12 * max(1.0, abs(rhs2))


def test_script_E_domain_and_positivity():
    grid = _grid()
    st = State(u=soliton_Q(grid.x - 5.0, 3.0), v=np.zeros(grid.n))
    fr = decompose(st, 5.0, 0, 1, PAR, grid)
    # on the reference itself eps = 0 up to the trace: the form reduces to
    # -gamma/2 u(0)^2 which is positive for repulsive gamma
    assert fr.script_E > 0.0


def test_predicted_zdot_leading_term():
    # sigma = 0: z' = -gamma c_Q^2 e^{-2z} / (2 alpha ||Q'||^2) = 3 e^{-2z}
    # at p=3, gamma=-1, alpha=1 (c_Q^2 = 8, ||Q'||^2 = 4/3)
    grid = _grid()
    z = 5.0
    st = State(u=soliton_Q(grid.x - z, 3.0), v=np.zeros(grid.n))
    fr = decompose(st, z, 0, 1, PAR, grid)
    assert fr.leading_term == pytest.approx(3.0 * np.exp(-2.0 * z), rel=1e-12)
    # exact translate: eps(0) = -Q(z) (the missing mirror tail is absent here,
    # eps is zero), so the trace term vanishes with eps
    assert abs(fr.trace_term) < 1e-12
    assert fr.z_dot_predicted == pytest.approx(fr.leading_term + fr.trace_term)
    # the measured side needs the series: nan until track_center sets it
    assert np.isnan(fr.z_dot_measured) and np.isnan(fr.relative_gap)
    # pair sector gets the image charge: coefficient -gamma*2 - 2 = 0 at gamma=-1
    pair = soliton_Q(grid.x - z, 3.0) + soliton_Q(grid.x + z, 3.0)
    fr2 = decompose(State(u=pair, v=np.zeros(grid.n)), z, 1, 1, PAR, grid)
    assert abs(fr2.leading_term) < 1e-15


def test_relative_gap():
    grid = _grid()
    st = State(u=soliton_Q(grid.x - 5.0, 3.0), v=np.zeros(grid.n))
    fr = decompose(st, 5.0, 0, 1, PAR, grid)
    fr = dataclasses.replace(fr, z_dot_measured=1.1, z_dot_predicted=1.0)
    assert fr.relative_gap == pytest.approx(0.1)
    fr = dataclasses.replace(fr, z_dot_measured=0.0, z_dot_predicted=0.0)
    assert fr.relative_gap == 0.0


def test_drift_check_preconditions():
    grid = _grid()
    st = State(u=soliton_Q(grid.x - 5.0, 3.0), v=np.zeros(grid.n))
    fr = decompose(st, 5.0, 0, 1, PAR, grid)
    with pytest.raises(ParameterError):
        eigenmode_drift_check([fr, fr], PAR)
    f0 = dataclasses.replace(fr, t=0.0)
    f1 = dataclasses.replace(fr, t=0.1)
    f2 = dataclasses.replace(fr, t=0.35)  # non-uniform
    with pytest.raises(ParameterError):
        eigenmode_drift_check([f0, f1, f2], PAR)
    coarse = [dataclasses.replace(fr, t=0.5 * k) for k in range(4)]
    with pytest.raises(ParameterError):  # |nu+| * 0.5 > 0.2
        eigenmode_drift_check(coarse, PAR)


def test_drift_check_recovers_linear_rates():
    # synthetic frames straight from the mode ODEs a' = rate * a
    grid = _grid()
    st = State(u=soliton_Q(grid.x - 6.0, 3.0), v=np.zeros(grid.n))
    base = decompose(st, 6.0, 0, 1, PAR, grid)
    con = spectral_constants(PAR)
    ts = np.arange(0.0, 1.0, 0.05)
    frames = [
        dataclasses.replace(
            base,
            t=float(t),
            a_plus=1e-4 * np.exp(con.nu_plus * t),
            a_minus=2e-3 * np.exp(con.nu_minus * t),
            a_zero=5e-4 * np.exp(-2.0 * PAR.alpha * t),
        )
        for t in ts
    ]
    rep = eigenmode_drift_check(frames, PAR)
    assert rep.rate_plus == pytest.approx(con.nu_plus, abs=2e-3)
    assert rep.rate_minus == pytest.approx(con.nu_minus, abs=2e-2)
    assert rep.rate_zero == pytest.approx(-2.0, abs=1e-2)
    # interior residuals vanish up to the finite-difference truncation of
    # np.gradient (second order in the stride)
    assert np.max(rep.residual_plus[1:-1]) < 1e-6
    assert rep.bound_scale.shape == ts.shape


def test_tracked_soliton_dressing_physics():
    """Evolve a soliton at z0 = 4 and check the dressed reduced ODE.

    The repulsive delta dresses the soliton with a stationary eps of size
    ~(4/3) e^{-z}; with the trace term included the predicted z' matches the
    measured one to a few percent once the dressing has formed.
    """
    from kgdelta.experiments import track_center

    grid = _grid()
    z0 = 4.0
    st0 = State(u=soliton_Q(grid.x - z0, 3.0), v=np.zeros(grid.n))
    states = []
    evolve(st0, 12.0, 0.025, PAR, grid, observers=[lambda s: states.append(s.copy())], snapshot_stride=8)
    rep = track_center(states, 0, 1, PAR, grid)  # stops itself at tube escape
    times, zs = rep.times, rep.z
    assert times[-1] >= 5.0, f"tube escape too early at t = {times[-1]}"
    gaps = np.array([f.relative_gap for f in rep.frames])
    eps_norms = np.array([f.eps_norm_H for f in rep.frames])
    sel = times >= 2.0  # let the dressing transient settle
    assert np.median(gaps[sel]) < 0.15, f"median gap {np.median(gaps[sel])}"
    # dressing size: ||(eps,eta)|| ~ (4/3) e^{-z} while the dressing still
    # dominates the residual (later the unstable mode takes over and the
    # ratio grows without bound -- that part belongs to the tube escape)
    dress = (times >= 1.0) & (times <= 4.0)
    ratio = eps_norms[dress] / np.exp(-zs[dress])
    assert np.all(0.9 < ratio) and np.all(ratio < 2.0), (ratio.min(), ratio.max())
    # the dressed growth law: d(e^{2z})/dt = 4 (leading 6 cut by the trace
    # feedback factor 2/(2-gamma) = 2/3)
    slope = np.polyfit(times, np.exp(2.0 * zs), 1)[0]
    assert abs(slope - 4.0) < 0.8, f"measured slope {slope}"

"""Closed-form profile oracles.

Every number asserted here was frozen from an independent derivation
(Beta/sech integrals done by hand plus two quadrature routes) before the
implementation existed, so these tests are the ground truth the rest of the
suite leans on.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st
import pytest

from kgdelta.errors import ParameterError
from kgdelta.field import PhysParams, make_grid
from kgdelta.profiles import (
    _phi_of_logcosh,
    gauss_panels,
    ground_state_action,
    interaction_constant_cm,
    neutral_even_mode_phi,
    soliton_Q,
    soliton_Q_deriv,
    soliton_Q_gamma,
    soliton_gradient_norm_sq,
    soliton_pair,
    spectral_constants,
)

# frozen oracle values at p = 3
Q0_P3 = np.sqrt(2.0)          # Q(0) = ((p+1)/2)^{1/(p-1)}
L2_Q_P3 = 4.0                 # integral of Q^2
GRAD_Q_P3 = 4.0 / 3.0         # integral of Q'^2
L4_Q_P3 = 16.0 / 3.0          # integral of Q^4  (= H1 norm^2 on the manifold)
ACTION_P3 = 4.0 / 3.0         # J_0(Q)
CQ_P3 = 2.0 * np.sqrt(2.0)    # decay constant: Q(x) e^{|x|} -> c_Q


def test_peak_value_and_symmetry():
    x = np.linspace(-8.0, 8.0, 2001)
    for p in (2.5, 3.0, 4.0):
        q = soliton_Q(x, p)
        assert abs(soliton_Q(0.0, p) - ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))) < 1e-14
        assert np.max(np.abs(q - q[::-1])) < 1e-14  # even
        assert np.all(q > 0.0)
        assert np.all(np.diff(q[x >= 0.0]) <= 0.0)  # monotone tail
    assert abs(soliton_Q(0.0, 3.0) - Q0_P3) < 1e-15


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.uniform(2.1, 5.0)
        x = rng.uniform(-6.0, 6.0)
        d = 1e-6
        fd = (soliton_Q(x + d, p) - soliton_Q(x - d, p)) / (2.0 * d)
        assert abs(soliton_Q_deriv(x, p) - fd) < 1e-7


def test_decay_constant():
    # Q(x) ~ c_Q e^{-x}: at x = 30 the correction is e^{-2x} ~ 1e-26
    for p in (2.5, 3.0, 4.0):
        c_q = (2.0 * p + 2.0) ** (1.0 / (p - 1.0))
        assert abs(soliton_Q(30.0, p) * np.exp(30.0) - c_q) < 1e-12 * c_q
    assert abs((2.0 * 3.0 + 2.0) ** 0.5 - CQ_P3) < 1e-15


def test_quadrature_reproduces_closed_form_norms():
    q2 = gauss_panels(lambda x: soliton_Q(x, 3.0) ** 2, -40.0, 40.0)
    dq2 = gauss_panels(lambda x: soliton_Q_deriv(x, 3.0) ** 2, -40.0, 40.0)
    q4 = gauss_panels(lambda x: soliton_Q(x, 3.0) ** 4, -40.0, 40.0)
    assert abs(q2 - L2_Q_P3) < 1e-12
    assert abs(dq2 - GRAD_Q_P3) < 1e-12
    assert abs(q4 - L4_Q_P3) < 1e-12
    assert abs(q2 + dq2 - q4) < 1e-12  # K_0(Q) = 0


def test_gradient_norm_closed_form_against_quadrature():
    rng = np.random.default_rng(23)
    for _ in range(8):
        p = rng.uniform(2.2, 4.8)
        quad = gauss_panels(lambda x: soliton_Q_deriv(x, p) ** 2, -60.0, 60.0)
        assert abs(quad - soliton_gradient_norm_sq(p)) < 1e-10 * max(1.0, quad)


def test_ground_state_action():
    assert abs(ground_state_action(3.0) - ACTION_P3) < 1e-14
    # J_0(Q) = (1/2 - 1/(p+1)) ||Q||_{p+1}^{p+1} for every p
    for p in (2.5, 4.0):
        pw = gauss_panels(lambda x: soliton_Q(x, p) ** (p + 1.0), -40.0, 40.0)
        assert abs(ground_state_action(p) - (0.5 - 1.0 / (p + 1.0)) * pw) < 1e-11


def test_interaction_constants_closed_values():
    # c_m = c_Q * integral e^{-x} Q^m; at p = 3 the m = 2 and m = 4 values
    # coincide at 4*sqrt(2)*pi while m = 3 sits *below* them: the sequence is
    # not monotone in m because Q(0) = sqrt(2) > 1.
    c2 = interaction_constant_cm(2.0, 3.0)
    c3 = interaction_constant_cm(3.0, 3.0)
    c4 = interaction_constant_cm(4.0, 3.0)
    assert abs(c2 - 4.0 * np.sqrt(2.0) * np.pi) < 1e-10
    assert abs(c4 - 4.0 * np.sqrt(2.0) * np.pi) < 1e-10
    assert abs(c3 - 16.0) < 1e-10
    assert c2 > c3 < c4


def test_interaction_identity_m_equals_p():
    # integral of Q^p e^{-x} = 2 c_Q exactly, for every p (integration by
    # parts against Q'' - Q + Q^p = 0); this is the identity the interaction
    # coefficients in the center dynamics rest on.
    for p in (2.5, 3.0, 4.0):
        c_q = (2.0 * p + 2.0) ** (1.0 / (p - 1.0))
        quad = gauss_panels(lambda x: np.exp(-x) * soliton_Q(x, p) ** p, -40.0, 40.0)
        assert abs(quad - 2.0 * c_q) < 1e-8, f"p={p}: {quad} vs {2 * c_q}"


def test_pinned_profile_trace_jump():
    # Q_gamma(x) = Q(|x| + b) with 2 arctanh(gamma/2) = (p-1) b; the kink at
    # the origin must satisfy the delta matching Q_gamma'(0+)-Q_gamma'(0-)
    # = -gamma Q_gamma(0), i.e. 2 Q'(b) = -gamma Q(b).
    for gamma in (-1.9, -1.0, -0.3, 0.4, 1.0, 1.9):
        for p in (2.5, 3.0, 4.0):
            b = 2.0 * np.arctanh(gamma / 2.0) / (p - 1.0)
            assert abs(2.0 * soliton_Q_deriv(b, p) + gamma * soliton_Q(b, p)) < 1e-12


def test_pinned_profile_values():
    par = PhysParams(p=3.0, alpha=1.0, gamma=-1.0)
    assert abs(soliton_Q_gamma(0.0, par) - np.sqrt(1.5)) < 1e-14
    # gamma = 0 reduces to the free soliton
    par0 = PhysParams(p=3.0, alpha=1.0, gamma=0.0)
    x = np.linspace(-5.0, 5.0, 401)
    assert np.max(np.abs(soliton_Q_gamma(x, par0) - soliton_Q(x, 3.0))) < 1e-14
    # the trace depends on gamma only through gamma^2:
    # Q_gamma(0) = Q(b) = sqrt(2) sech(arctanh(gamma/2)) = sqrt(2 - gamma^2/2)
    for gamma in (-1.5, -0.7, 0.7, 1.5):
        par_g = PhysParams(3.0, 1.0, gamma)
        assert abs(soliton_Q_gamma(0.0, par_g) - np.sqrt(2.0 - gamma * gamma / 2.0)) < 1e-12
    # repulsive profile is double-humped (interior maxima at |x| = |b|, full
    # soliton height), attractive one decays monotonically from the kink
    xs = np.linspace(0.0, 6.0, 1201)
    rep = soliton_Q_gamma(xs, PhysParams(3.0, 1.0, -1.5))
    att = soliton_Q_gamma(xs, PhysParams(3.0, 1.0, 1.5))
    b = np.arctanh(0.75)  # hump position: full soliton height at |x| = |b|
    assert abs(soliton_Q_gamma(b, PhysParams(3.0, 1.0, -1.5)) - Q0_P3) < 1e-14
    assert np.argmax(rep) > 0
    assert np.argmax(att) == 0 and np.all(np.diff(att) < 0.0)


def test_pinned_profile_quartic_norm_closed_form():
    # ||Q_gamma||_4^4 = 8 (2/3 - gamma/2 + gamma^3/24) at p = 3; two routes
    # (quadrature vs polynomial in gamma) must agree to quadrature precision.
    for gamma in (-1.5, -1.0, 0.0, 0.5, 1.0):
        par = PhysParams(p=3.0, alpha=1.0, gamma=gamma)
        quad = 2.0 * gauss_panels(lambda x: soliton_Q_gamma(x, par) ** 4, 0.0, 40.0)
        closed = 8.0 * (2.0 / 3.0 - gamma / 2.0 + gamma ** 3 / 24.0)
        assert abs(quad - closed) < 1e-8


def test_even_mode_shape():
    x = np.linspace(-10.0, 10.0, 1001)
    for p in (3.0, 4.0):
        kappa = (p - 1.0) / 2.0
        expo = (p + 1.0) / (p - 1.0)
        phi = neutral_even_mode_phi(x, p)
        ref = (1.0 / np.cosh(kappa * x)) ** expo
        assert np.max(np.abs(phi - ref)) < 1e-12
        assert np.max(np.abs(phi - phi[::-1])) < 1e-14


def test_spectral_constants():
    con = spectral_constants(PhysParams(p=3.0, alpha=1.0, gamma=-1.0))
    assert abs(con.nu ** 2 - 3.0) < 1e-14     # nu^2 = (p-1)(p+3)/4 = 3 at p=3
    assert abs(con.nu_plus - 1.0) < 1e-14
    assert abs(con.nu_minus + 3.0) < 1e-14
    assert abs(con.c_Q - CQ_P3) < 1e-14
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = rng.uniform(2.1, 5.0)
        alpha = rng.uniform(0.05, 3.0)
        c = spectral_constants(PhysParams(p=p, alpha=alpha, gamma=0.0))
        assert abs(c.nu ** 2 - (p - 1.0) * (p + 3.0) / 4.0) < 1e-12
        # nu_pm are the roots of nu^2 + 2 alpha nu - nu^2|_{undamped} = 0
        assert abs(c.nu_plus + c.nu_minus + 2.0 * alpha) < 1e-12
        assert abs(c.nu_plus * c.nu_minus + c.nu ** 2) < 1e-10
        assert c.nu_plus > 0.0 > c.nu_minus


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_p2=st.floats(-12.0, 300.0), log_alpha=st.floats(-300.0, 300.0))
def test_spectral_rates_hold_at_every_damping(log_p2, log_alpha):
    """nu_pm stay finite and keep their product -nu^2 and sum -2 alpha to
    rounding for p - 2 log-uniform in [1e-12, 1e300] and alpha in [1e-300,
    1e300]: -alpha + sqrt(alpha^2 + nu^2) lost nu_plus to cancellation at
    large alpha, and alpha^2 and (p-1)(p+3) overflowed above about 1.3e154.
    nu^2 overflows there, so the product is checked as nu_plus*(nu_minus/nu)."""
    p = 2.0 + 10.0 ** log_p2
    alpha = 10.0 ** log_alpha
    c = spectral_constants(PhysParams(p=p, alpha=alpha, gamma=0.0))
    assert math.isfinite(c.nu) and math.isfinite(c.nu_plus) and math.isfinite(c.nu_minus)
    assert c.nu_plus > 0.0 > c.nu_minus
    assert abs(c.nu_plus * (c.nu_minus / c.nu) + c.nu) <= 1e-15 * c.nu
    assert abs(c.nu_plus + c.nu_minus + 2.0 * alpha) <= 1e-15 * max(alpha, c.nu)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=st.floats(2.0, 10.0, exclude_min=True), z=st.floats(0.5, 8.0),
       sigma=st.sampled_from((0, 1)), L=st.floats(1.0, 40.0),
       half_n=st.integers(1, 1000))
def test_soliton_pair_is_the_family(p, z, sigma, L, half_n):
    """soliton_pair's R and the pieces beside it are bitwise the closed forms
    of each soliton, on any odd grid: the one constructor of R(z)."""
    grid = make_grid(L, 2 * half_n + 1)
    x = grid.x
    r, right, left = soliton_pair(x, z, sigma, p)
    assert np.array_equal(r, soliton_Q(x - z, p) + sigma * soliton_Q(x + z, p))
    assert np.array_equal(right[1], soliton_Q_deriv(x - z, p))
    assert np.array_equal(_phi_of_logcosh(right[2], p), neutral_even_mode_phi(x - z, p))
    if sigma:
        assert np.array_equal(left[1], soliton_Q_deriv(x + z, p))
    else:
        assert left is None
    # the trace R(z)(0) that decompose reads at the center node
    assert r[grid.center] == (1.0 + sigma) * soliton_Q(z, p)
    with pytest.raises(ParameterError):
        soliton_pair(x, z, 2, p)


def test_gauss_panels_known_integrals():
    assert abs(gauss_panels(lambda x: np.exp(-x * x), -12.0, 12.0) - np.sqrt(np.pi)) < 1e-13
    # kink at a panel boundary is handled exactly by splitting at 0
    left = gauss_panels(lambda x: np.exp(-np.abs(x)), -10.0, 0.0)
    right = gauss_panels(lambda x: np.exp(-np.abs(x)), 0.0, 10.0)
    assert abs(left + right - 2.0 * (1.0 - np.exp(-10.0))) < 1e-12

"""Closed-form stationary profiles and the constants attached to them.

The model is the damped nonlinear Klein-Gordon equation on the line,

    u_tt - u_xx + 2*alpha*u_t + u - gamma*delta_0(x)*u = |u|^(p-1)*u,

with p > 2, alpha > 0 and gamma < 2.  For gamma = 0 the unique positive
stationary profile is

    Q(x) = ((p+1) / (2*cosh((p-1)*x/2)**2))**(1/(p-1)),

and for |gamma| < 2 the pinned analogue Q_gamma replaces (p-1)*x/2 by
(p-1)*|x|/2 + artanh(gamma/2), which trades smoothness at the origin for the
derivative jump Q_gamma'(0+) - Q_gamma'(0-) = -gamma*Q_gamma(0).

The one soliton (sigma = 0) and the even pair (sigma = 1) are the family
R(z) = Q(. - z) + sigma*Q(. + z), built only by `soliton_pair`.

Everything here is a pure function of its value arguments; quadratures are
composite Gauss-Legendre with certified truncation of the exponential tails.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import ParameterError

# Decay amplitude scale: Q(x) ~ c_Q * exp(-|x|), and also a hard pointwise
# bound Q(x) <= c_Q * exp(-|x|), used for the quadrature tail certificates.
def _c_Q(p: float) -> float:
    return (2.0 * p + 2.0) ** (1.0 / (p - 1.0))


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters (p, alpha, gamma); construction validates them."""

    p: float
    alpha: float
    gamma: float

    def __post_init__(self):
        if not self.p > 2:
            raise ParameterError(f"exponent p must exceed 2, got {self.p}")
        if not self.alpha > 0:
            raise ParameterError(f"damping alpha must be positive, got {self.alpha}")
        if not self.gamma < 2:
            raise ParameterError(f"potential strength gamma must be < 2, got {self.gamma}")


@dataclass(frozen=True)
class SpectralConstants:
    """Constants of the linearization around Q.

    nu is the oscillator frequency of the single negative direction
    (nu^2 = (p-1)(p+3)/4); nu_plus > 0 > nu_minus are the growth/decay rates
    of that direction under damping 2*alpha; c_Q is the tail amplitude of Q.
    """

    nu: float
    nu_plus: float
    nu_minus: float
    c_Q: float


def _check_p(p: float) -> None:
    if not p > 2:
        raise ParameterError(f"exponent p must exceed 2, got {p}")


def _logcosh(t):
    # log(cosh(t)) without overflow: |t| + log1p(exp(-2|t|)) - log(2)
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _q_of_logcosh(lc, p: float):
    """Q's formula in lc = log cosh of its argument (kappa*x for Q)."""
    return np.exp((math.log(0.5 * (p + 1.0)) - 2.0 * lc) / (p - 1.0))


def _phi_of_logcosh(lc, p: float):
    """phi's formula in lc = log cosh(kappa*x)."""
    return np.exp(-(p + 1.0) / (p - 1.0) * lc)


def soliton_Q(x, p: float):
    """Stationary profile Q of the gamma = 0 problem (even, positive)."""
    _check_p(p)
    x = np.asarray(x, dtype=float)
    kappa = 0.5 * (p - 1.0)
    out = _q_of_logcosh(_logcosh(kappa * x), p)
    return out if out.ndim else float(out)


def _soliton_at(x, z: float, p: float):
    """(Q, Q', log cosh(kappa s)) at s = x - z from one log-cosh evaluation;
    Q and Q' are bitwise what soliton_Q and soliton_Q_deriv return there."""
    ks = 0.5 * (p - 1.0) * (x - z)
    lc = _logcosh(ks)
    q = _q_of_logcosh(lc, p)
    return q, -np.tanh(ks) * q, lc


def soliton_pair(x, z: float, sigma: int, p: float):
    """(R, right, left): R(z) = Q(. - z) + sigma*Q(. + z) for sigma in {0, 1},
    right the `_soliton_at` of the soliton at z, left that at -z (else None)."""
    _check_p(p)
    if sigma not in (0, 1):
        raise ParameterError(f"sigma must be 0 or 1, got {sigma}")
    right = _soliton_at(x, z, p)
    left = _soliton_at(x, -z, p) if sigma else None
    return (right[0] + left[0] if sigma else right[0]), right, left


def soliton_Q_deriv(x, p: float):
    """Analytic derivative Q'(x) = -Q(x) * tanh((p-1)*x/2) (odd, Q'(0) = 0)."""
    _check_p(p)
    out = _soliton_at(np.asarray(x, dtype=float), 0.0, p)[1]
    return out if out.ndim else float(out)


def soliton_Q_gamma(x, params: PhysParams):
    """Pinned stationary profile for |gamma| < 2; reduces to Q at gamma = 0."""
    if not abs(params.gamma) < 2:
        raise ParameterError(
            f"pinned profile exists only for |gamma| < 2, got {params.gamma}"
        )
    x = np.asarray(x, dtype=float)
    p = params.p
    kappa = 0.5 * (p - 1.0)
    half = 0.5 * params.gamma
    # artanh via the log form, stable for |gamma/2| < 1
    shift = 0.5 * math.log((1.0 + half) / (1.0 - half))
    out = _q_of_logcosh(_logcosh(kappa * np.abs(x) + shift), p)
    return out if out.ndim else float(out)


def neutral_even_mode_phi(x, p: float):
    """Even eigenmode phi = sech((p-1)x/2)^((p+1)/(p-1)) of the linearization.

    Satisfies phi = (2/(p+1))^((p+1)/(2(p-1))) * Q^((p+1)/2) pointwise and
    L phi = -nu^2 phi for the operator L = -d_xx + 1 - p*Q^(p-1).
    """
    _check_p(p)
    x = np.asarray(x, dtype=float)
    kappa = 0.5 * (p - 1.0)
    out = _phi_of_logcosh(_logcosh(kappa * x), p)
    return out if out.ndim else float(out)


def spectral_constants(params: PhysParams) -> SpectralConstants:
    """nu, nu_plus, nu_minus and c_Q for the given (p, alpha).

    nu_pm = -alpha +- sqrt(alpha^2 + nu^2), with nu_plus in the form
    nu * (nu/(alpha + sqrt(.))), which does not cancel at large alpha, the
    root as a hypot and nu as a product of roots; none of them overflows.
    """
    p, alpha = params.p, params.alpha
    nu = 0.5 * math.sqrt(p - 1.0) * math.sqrt(p + 3.0)
    root = math.hypot(alpha, nu)
    return SpectralConstants(
        nu=nu, nu_plus=nu * (nu / (alpha + root)), nu_minus=-alpha - root, c_Q=_c_Q(p)
    )


PANEL = 0.5  # gauss_panels' panel width


@lru_cache(maxsize=1)
def _gl_nodes():
    """12-point Gauss-Legendre nodes and weights, built on first use."""
    return np.polynomial.legendre.leggauss(12)


def gauss_panels(f, a: float, b: float) -> float:
    """Composite Gauss-Legendre quadrature of f over [a, b].

    Panels of width PANEL (last one possibly shorter); order-12 GL per
    panel is far below rounding error for the smooth exponentially-decaying
    integrands used here.
    """
    nodes, weights = _gl_nodes()
    edges = np.arange(a, b, PANEL)
    lo = edges
    hi = np.minimum(edges + PANEL, b)
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    # all panel nodes in one flat array -> single vectorized call to f
    pts = (mid[:, None] + rad[:, None] * nodes[None, :]).ravel()
    vals = np.asarray(f(pts), dtype=float).reshape(len(mid), len(nodes))
    return float(np.sum(rad * (vals @ weights)))


def interaction_constant_cm(m: float, p: float) -> float:
    """c_m = c_Q * integral of exp(-x) * Q(x)^m over the line (m > 1).

    The integrand decays like exp(-(m+1)x) to the right and exp((m-1)x) to
    the left, so the truncated window is widened until the pointwise bound
    Q <= c_Q exp(-|x|) certifies a truncation error below 1e-10.
    """
    _check_p(p)
    if not m > 1:
        raise ParameterError(f"interaction constant requires m > 1, got {m}")
    cq = _c_Q(p)
    b = 40.0
    a = -40.0
    while cq**m * math.exp((m - 1.0) * a) / (m - 1.0) > 0.5e-10:
        a -= 10.0
    # right tail bound at b = 40 is c_Q^m exp(-(m+1)*40)/(m+1), < 1e-17*c_Q^m
    integral = gauss_panels(lambda x: np.exp(-x) * soliton_Q(x, p) ** m, a, b)
    return cq * integral


@lru_cache(maxsize=16)
def ground_state_action(p: float) -> float:
    """Action J_0(Q) = (1/2 - 1/(p+1)) * ||Q||_{p+1}^{p+1} (valid as K_0(Q) = 0)."""
    _check_p(p)
    pot = gauss_panels(lambda x: soliton_Q(x, p) ** (p + 1.0), -40.0, 40.0)
    return (0.5 - 1.0 / (p + 1.0)) * pot


@lru_cache(maxsize=16)
def soliton_gradient_norm_sq(p: float) -> float:
    """||Q'||_{L^2}^2 by quadrature (equals (p-1)/(2p+2) * ||Q||_{p+1}^{p+1})."""
    _check_p(p)
    return gauss_panels(lambda x: soliton_Q_deriv(x, p) ** 2, -40.0, 40.0)

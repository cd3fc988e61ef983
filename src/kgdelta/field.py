"""Grid, state pairs, discrete norms, and the scalar functionals of the model.

Discretization conventions, used consistently by every module downstream:

* uniform grid on [-L, L] with an odd node count, so x = 0 is a node (the
  delta potential is a nodal term and needs one);
* trapezoid quadrature for all integrals;
* the H^1 gradient term is the staggered sum h * sum(((u_{j+1}-u_j)/h)^2),
  i.e. the Dirichlet form of the 3-point Laplacian used by the evolution
  operator, so the discrete energy the stepper dissipates is the same
  quantity these functions report;
* the delta term is the exact nodal trace u(0), no smearing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridError
from .profiles import PhysParams


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid with an exact node at the origin."""

    L: float
    n: int
    h: float
    x: np.ndarray = field(repr=False)
    center: int

    def __post_init__(self):
        n = self.n
        if not isinstance(n, (int, np.integer)) or n < 3 or n % 2 == 0:
            raise GridError(f"node count must be an odd integer >= 3, got {n!r}")
        if not self.L > 0:
            raise GridError(f"half-width L must be positive, got {self.L}")
        if not abs(self.h - 2.0 * self.L / (n - 1)) <= 1e-12 * self.h:
            raise GridError(f"spacing h = {self.h} does not equal 2L/(n-1) for "
                            f"L = {self.L}, n = {n}")
        # the operator and the H1 preconditioner divide by h^2, and products
        # of two of their entries must stay finite as well
        inv_h2 = 1.0 / (self.h * self.h) if self.h * self.h > 0.0 else np.inf
        if not np.isfinite(inv_h2):
            raise GridError(f"spacing h = {self.h} is too small: 1/h^2 overflows")
        if not np.isfinite(inv_h2 * inv_h2):
            raise GridError(f"spacing h = {self.h} is too small: (1/h^2)^2 overflows")
        if self.center != (n - 1) // 2:
            raise GridError(f"center index {self.center} is not (n-1)/2 for n = {n}")
        x = self.x
        if np.shape(x) != (n,):
            raise GridError(f"node array has shape {np.shape(x)}, expected ({n},)")
        if not np.allclose(x, self.h * (np.arange(n) - self.center),
                           rtol=0.0, atol=1e-9 * self.L) or x[self.center] != 0.0:
            raise GridError("nodes are not the uniform grid h*(j - center) "
                            "with x = 0 at the center")


def make_grid(L: float, n: int) -> GridSpec:
    """Build the grid; n must be odd and >= 3 so the center node exists."""
    if not L > 0:
        raise GridError(f"half-width L must be positive, got {L}")
    if n < 3 or n % 2 == 0:
        raise GridError(f"node count must be odd and >= 3, got {n}")
    h = 2.0 * L / (n - 1)
    center = (n - 1) // 2
    # x = h*(j - center) keeps the grid exactly reflection-antisymmetric
    x = h * (np.arange(n, dtype=float) - center)
    return GridSpec(L=float(L), n=int(n), h=h, x=x, center=center)


@dataclass
class State:
    """A pair (u, v) = (u, u_t) sampled on the grid, tagged with its time."""

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def copy(self) -> "State":
        return State(self.u.copy(), self.v.copy(), self.t)


def _check_samples(u: np.ndarray, grid: GridSpec) -> None:
    if len(u) != grid.n:
        raise GridError(f"sample count {len(u)} does not match grid n = {grid.n}")


def _trapezoid(f: np.ndarray, h: float) -> float:
    # np.add.reduce is np.sum on 1-D float arrays, without its Python wrapper
    return h * (float(np.add.reduce(f)) - 0.5 * (float(f[0]) + float(f[-1])))


def trapezoid(f: np.ndarray, grid: GridSpec) -> float:
    """Trapezoid quadrature of nodal samples over [-L, L]."""
    _check_samples(f, grid)
    return _trapezoid(f, grid.h)


def l2_sq(u: np.ndarray, grid: GridSpec) -> float:
    return trapezoid(np.asarray(u) ** 2, grid)


def gradient_sq(u: np.ndarray, grid: GridSpec) -> float:
    """Staggered discrete Dirichlet form: h * sum(((u_{j+1}-u_j)/h)^2)."""
    _check_samples(u, grid)
    d = np.diff(np.asarray(u))
    return float(np.dot(d, d)) / grid.h


def h1_sq(u: np.ndarray, grid: GridSpec) -> float:
    return gradient_sq(u, grid) + l2_sq(u, grid)


def norm_L2(u: np.ndarray, grid: GridSpec) -> float:
    return float(np.sqrt(l2_sq(u, grid)))


def norm_H1(u: np.ndarray, grid: GridSpec) -> float:
    return float(np.sqrt(h1_sq(u, grid)))


def lq_integral(u: np.ndarray, q: float, grid: GridSpec) -> float:
    """Integral of |u|^q (the functionals consume this, not the norm)."""
    return trapezoid(np.abs(np.asarray(u)) ** q, grid)


def norm_H(state: State, grid: GridSpec) -> float:
    """Norm of (u, v) in H = H^1 x L^2."""
    return float(np.sqrt(h1_sq(state.u, grid) + l2_sq(state.v, grid)))


def energy_E_gamma(state: State, params: PhysParams, grid: GridSpec) -> float:
    """E_gamma = (||u||_H1^2 + ||v||^2 - gamma*u(0)^2)/2 - ||u||_{p+1}^{p+1}/(p+1)."""
    u0 = float(state.u[grid.center])
    quad = h1_sq(state.u, grid) + l2_sq(state.v, grid) - params.gamma * u0 * u0
    return 0.5 * quad - lq_integral(state.u, params.p + 1.0, grid) / (params.p + 1.0)


def action_terms(u: np.ndarray, params: PhysParams, grid: GridSpec):
    """(||u||_H1^2 - gamma*u(0)^2, ||u||_{p+1}^{p+1}, ||u||^2) in one pass,
    each bitwise what h1_sq, lq_integral and l2_sq combine to."""
    _check_samples(u, grid)
    u = np.asarray(u)
    d = u[1:] - u[:-1]  # np.diff, without its Python wrapper
    l2 = _trapezoid(u ** 2, grid.h)
    u0 = float(u[grid.center])
    quad = (float(np.dot(d, d)) / grid.h + l2) - params.gamma * u0 * u0
    return quad, _trapezoid(np.abs(u) ** (params.p + 1.0), grid.h), l2


def functional_K_gamma(u: np.ndarray, params: PhysParams, grid: GridSpec) -> float:
    """Nehari functional K_gamma = ||u||_H1^2 - gamma*u(0)^2 - ||u||_{p+1}^{p+1}."""
    quad, nonlin, _ = action_terms(u, params, grid)
    return quad - nonlin


def functional_J_gamma(u: np.ndarray, params: PhysParams, grid: GridSpec) -> float:
    """Static action J_gamma (the K-free part of the energy)."""
    quad, nonlin, _ = action_terms(u, params, grid)
    return 0.5 * quad - nonlin / (params.p + 1.0)


def diagnostics_MW(
    state: State, params: PhysParams, grid: GridSpec, history: float
) -> dict:
    """Boundedness monitors M and W.

    history must be the accumulated integral of ||u(s)||^2 over [0, t],
    maintained by the evolution loop.
    """
    u0 = float(state.u[grid.center])
    m_value = 0.5 * l2_sq(state.u, grid) + params.alpha * float(history)
    w_value = (
        0.5 * (h1_sq(state.u, grid) + l2_sq(state.v, grid))
        - 0.5 * params.gamma * u0 * u0
    )
    return {"M_value": m_value, "W_value": w_value}


# ---------------------------------------------------------------------------
# snapshot I/O (CSV with an embedded parameter header)

# the one float format of every artifact: %.17g round-trips a double
FLOAT_FORMAT = "%.17g"
_ROW3_FORMAT = ",".join([FLOAT_FORMAT] * 3)


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % x


def save_state(
    path,
    state: State,
    params: PhysParams,
    grid: GridSpec,
    extra_header: list[str] | None = None,
) -> None:
    """Write x, u, v columns; the header line carries t, p, alpha, gamma, L, n.

    extra_header entries are emitted as additional '# '-prefixed lines (the
    CLI uses this to echo the resolved config); load_state skips them.
    """
    lines = [
        "# t=%s p=%s alpha=%s gamma=%s L=%s n=%d"
        % (_fmt(state.t), _fmt(params.p), _fmt(params.alpha),
           _fmt(params.gamma), _fmt(grid.L), grid.n),
    ]
    for entry in extra_header or ():
        lines.append("# " + entry)
    lines.append("x,u,v")
    for row in zip(grid.x, state.u, state.v):
        lines.append(_ROW3_FORMAT % row)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_state(path) -> tuple[State, PhysParams, GridSpec]:
    """Inverse of save_state.

    A header that lacks a field or does not parse raises ConfigError; data
    rows whose count differs from the header's n raise GridError.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        line = fh.readline()
        while line.startswith("#"):  # optional echo lines
            line = fh.readline()
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: unreadable data rows: {exc}") from None
    try:
        meta = dict(tok.split("=") for tok in header.lstrip("# ").split())
        t, n = float(meta["t"]), int(meta["n"])
        p, alpha = float(meta["p"]), float(meta["alpha"])
        gamma, L = float(meta["gamma"]), float(meta["L"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed state header {header!r}: {exc!r}") from None
    params = PhysParams(p=p, alpha=alpha, gamma=gamma)
    grid = make_grid(L, n)
    if data.shape != (n, 3):
        raise GridError(
            f"{path}: expected {n} rows of x,u,v, got {data.shape[0]} rows of "
            f"{data.shape[1]} columns"
        )
    state = State(u=data[:, 1].copy(), v=data[:, 2].copy(), t=t)
    return state, params, grid

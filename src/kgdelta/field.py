"""Grid, state pairs, the discrete operator, discrete norms, and the scalar
functionals of the model.

Discretization conventions, used consistently by every module downstream:

* uniform grid on [-L, L] with an odd node count, so x = 0 is a node (the
  delta potential is a nodal term and needs one);
* trapezoid quadrature for all integrals;
* the spatial operator A is the 3-point stencil, tridiagonal and symmetric
  under index reflection,

      (A u)_j = (-u_{j+1} + 2 u_j - u_{j-1})/h^2 + u_j,          j != center
      (A u)_c = same - (gamma/h) u_c,

  the gamma/h nodal correction realizing the derivative jump
  u'(0+) - u'(0-) = -gamma u(0) forced by the delta potential.  The
  residual of sampled Q_gamma is O(h), at the kink node only, but the
  discrete equilibrium (`evolution.discrete_stationary_profile`) converges
  to Q_gamma at order 2, in H^1 and at u(0).  This module owns A:
  `build_operator` gives A, its `solve` takes the Dirichlet systems
  (A - diag(s)) x = r that other modules pose (the Newton step of the
  stationary profile, s = p|u|^(p-1); the descent's H^1 preconditioner, A
  at gamma = 0 with s = 0) to LAPACK, and `max_stable_dt` is the
  leapfrog's step bound from A's Gershgorin bound;
* the H^1 gradient term is the staggered sum h * sum(((u_{j+1}-u_j)/h)^2),
  i.e. the Dirichlet form of A's 3-point Laplacian, so the discrete energy
  the stepper dissipates is the same quantity these functions report;
* the delta term is the exact nodal trace u(0), no smearing;
* a state is even when it equals its reverse bit for bit (`is_even`).
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, SingularSystemError
from .profiles import PhysParams

CFL = 0.5  # dt <= CFL * h: the Laplacian's part of max_stable_dt
# the largest node count: spacing divides by n - 1, which must convert to a float
MAX_NODES = sys.float_info.max


def spacing(L: float, n: int) -> float:
    """The node spacing 2L/(n-1) of n nodes on [-L, L]."""
    return 2.0 * L / (n - 1)


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid of n nodes on [-L, L], with an exact node at the
    origin; h, center and the nodes x follow from (L, n)."""

    L: float
    n: int
    h: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False)
    center: int = field(init=False)

    def __post_init__(self):
        L, n = self.L, self.n
        is_int = isinstance(n, (int, np.integer))
        # before the message below: repr of an int of over 4300 digits raises
        if is_int and n > MAX_NODES:
            raise GridError("node count n exceeds the largest float")
        if not is_int or n < 3 or n % 2 == 0:
            raise GridError(f"node count must be an odd integer >= 3, got {n!r}")
        if not L > 0:
            raise GridError(f"half-width L must be positive, got {L}")
        h = spacing(L, n)
        if not math.isfinite(h):
            raise GridError(f"half-width L = {L} is too large for n = {n}: "
                            "the spacing h overflows")
        # build_operator's entries divide by h^2, and products of two of
        # them (in its solves) must stay finite as well
        inv_h2 = 1.0 / (h * h) if h * h > 0.0 else np.inf
        if not np.isfinite(inv_h2):
            raise GridError(f"spacing h = {h} is too small: 1/h^2 overflows")
        if not np.isfinite(inv_h2 * inv_h2):
            raise GridError(f"spacing h = {h} is too small: (1/h^2)^2 overflows")
        center = (n - 1) // 2
        try:
            # x = h*(j - center) keeps the grid exactly reflection-antisymmetric
            x = h * (np.arange(n, dtype=float) - center)
        # numpy raises MemoryError for a node array it cannot allocate and
        # ValueError for one whose size in bytes it cannot represent
        except (MemoryError, ValueError) as exc:
            raise GridError(f"cannot allocate {n} grid nodes: {exc}") from None
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "center", center)


def make_grid(L: float, n: int) -> GridSpec:
    """Build the grid; n must be odd and >= 3 so the center node exists."""
    return GridSpec(float(L), n)


def is_even(w) -> bool:
    """Whether w, as float64, equals its reverse bit for bit (a -0.0 facing a
    0.0 does not): only such a state provably stays even under the step."""
    bits = np.asarray(w, dtype=float).view(np.uint64)
    return bool(np.array_equal(bits, bits[::-1]))


@dataclass(frozen=True)
class DiscreteOperator:
    """Tridiagonal A = -D_xx + 1 - (gamma/h) delta at the center node."""

    diag: np.ndarray = field(repr=False)
    off_diag: float

    def __post_init__(self):  # off_diag as a 0-d array, a faster ufunc operand
        object.__setattr__(self, "_off", np.array(self.off_diag))

    def apply(self, u: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
        """A u; out, when given, receives the result.  scratch, when given, is
        a caller-owned buffer of u's length that the call overwrites, so a
        call with both allocates no array.  Neither may alias u or the other."""
        out = np.multiply(self.diag, u, out)
        scratch = np.empty(len(u)) if scratch is None else scratch
        # symmetric grouping keeps reflection equivariance exact in floats;
        # the wall rows take their one neighbour through the same buffer
        np.add(u[:-2], u[2:], scratch[1:-1])
        scratch[0] = u[1]
        scratch[-1] = u[-2]
        np.multiply(scratch, self._off, scratch)
        return np.add(out, scratch, out)

    @functools.cached_property
    def _bands(self):
        """(off-diagonal, main diagonal) of A on the interior nodes: the
        Dirichlet system, built on the first solve."""
        return np.full(len(self.diag) - 3, self.off_diag), self.diag[1:-1]

    def solve(self, r: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
        """x with (A - diag(s)) x = r on the interior nodes and x = 0 at both
        walls, written into r and returned; s = None is s = 0.  r and s hold
        one entry per node; their wall entries are not read.  A zero pivot
        raises SingularSystemError."""
        off, main = self._bands
        if s is not None:
            main = main - s[1:-1]
        r[0] = r[-1] = 0.0
        r[1:-1] = solve_tridiagonal(off, main, off, r[1:-1])
        return r


@functools.cache
def _gtsv():
    """LAPACK dgtsv, resolved once per process on the first solve.

    It is the routine scipy.linalg.get_lapack_funcs(("gtsv",), ...) returns
    for float64, loaded straight from SciPy's compiled `_flapack` extension:
    importing the scipy.linalg package would take longer and hold more memory
    than the rest of the program's startup, and only `kg variational` and the
    `equilibrium` init solve tridiagonal systems.  No SciPy Python code runs;
    the extension registers itself in sys.modules as scipy.linalg._flapack,
    which a later `import scipy.linalg` reuses.  A missing SciPy or extension
    raises ImportError.
    """
    import importlib.machinery
    import importlib.util
    import os

    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("SciPy is not installed: no LAPACK gtsv for tridiagonal solves")
    path = os.path.join(spec.submodule_search_locations[0], "linalg",
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"SciPy's LAPACK extension {path} is missing")
    loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
    flapack = loader.create_module(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(flapack)
    return flapack.dgtsv


def solve_tridiagonal(sub: np.ndarray, main: np.ndarray, sup: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """x with T x = rhs, T tridiagonal with these diagonals: LAPACK gtsv on
    copies of its inputs, bitwise what solve_banded((1, 1), ...) returns.  A
    zero pivot raises SingularSystemError."""
    if len(main) == 1:  # gtsv's wrapper refuses empty off-diagonals
        if main[0] == 0.0:
            raise SingularSystemError("singular tridiagonal system: zero pivot in row 1")
        return rhs / main
    _, _, _, x, info = _gtsv()(sub, main, sup, rhs)
    if info > 0:
        raise SingularSystemError(f"singular tridiagonal system: zero pivot in row {info}")
    return x


def build_operator(grid: GridSpec, gamma: float) -> DiscreteOperator:
    inv_h2 = 1.0 / (grid.h * grid.h)
    diag = np.full(grid.n, 2.0 * inv_h2 + 1.0)
    diag[grid.center] -= gamma / grid.h
    return DiscreteOperator(diag=diag, off_diag=-inv_h2)


def max_stable_dt(h: float, gamma: float) -> float:
    """The largest time step on spacing h at potential strength gamma:

        min(CFL * h, 2 / sqrt(4/h^2 + 1 + max(0, -gamma)/h)).

    The leapfrog step is stable for dt <= 2/sqrt(lambda_max(A)), and the
    square root is the Gershgorin bound on lambda_max(A): the largest
    diagonal entry plus twice |off-diagonal|.  A repulsive delta (gamma < 0)
    raises the center entry by -gamma/h; on ordinary grids CFL * h is the
    smaller term.  The second term is evaluated as 2h/sqrt(4 + h(h + g)),
    which cannot divide by zero or overflow on tiny spacings.
    """
    g = max(0.0, -gamma)
    return min(CFL * h, 2.0 * h / math.sqrt(4.0 + h * (h + g)))


def dt_is_stable(dt: float, h: float, gamma: float) -> bool:
    """Whether 0 < dt <= max_stable_dt(h, gamma), up to a relative 1e-12."""
    return 0 < dt <= max_stable_dt(h, gamma) * (1.0 + 1e-12)


def dt_bound_text(h: float, gamma: float) -> str:
    """max_stable_dt(h, gamma) as the config and evolve errors quote it."""
    bound = max_stable_dt(h, gamma)
    if bound == CFL * h:
        return f"the CFL bound {CFL}*h = {bound}"
    return (f"the stability bound 2/sqrt(4/h^2 + 1 - gamma/h) = {bound} "
            f"(h = {h}, gamma = {gamma})")


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


def _trapezoids(rows: np.ndarray, h: float) -> list:
    """The _trapezoid of each row of a C-contiguous array of at least two
    columns, from one reduction: its row sums are bitwise the 1-D sums, and
    the end columns are read as Python floats, as _trapezoid reads them."""
    ends = rows[:, ::rows.shape[1] - 1].tolist()
    return [h * (s - 0.5 * (f0 + f1))
            for s, (f0, f1) in zip(np.add.reduce(rows, axis=1).tolist(), ends)]


def _dirichlet_form(u: np.ndarray, h: float, out: np.ndarray | None = None) -> float:
    """The staggered Dirichlet form h * sum(((u_{j+1}-u_j)/h)^2) of A's
    3-point Laplacian; out, when given, receives the differences."""
    d = np.subtract(u[1:], u[:-1], out)  # np.diff, without its Python wrapper
    return float(d.dot(d)) / h


def l2_sq(u: np.ndarray, grid: GridSpec) -> float:
    return trapezoid(np.asarray(u) ** 2, grid)


def gradient_sq(u: np.ndarray, grid: GridSpec) -> float:
    """Staggered discrete Dirichlet form: h * sum(((u_{j+1}-u_j)/h)^2)."""
    _check_samples(u, grid)
    return _dirichlet_form(np.asarray(u), grid.h)


def h1_sq(u: np.ndarray, grid: GridSpec) -> float:
    return gradient_sq(u, grid) + l2_sq(u, grid)


def norm_L2(u: np.ndarray, grid: GridSpec) -> float:
    return float(np.sqrt(l2_sq(u, grid)))


def norm_H1(u: np.ndarray, grid: GridSpec) -> float:
    return float(np.sqrt(h1_sq(u, grid)))


def norm_H(state: State, grid: GridSpec) -> float:
    """Norm of (u, v) in H = H^1 x L^2."""
    return float(np.sqrt(h1_sq(state.u, grid) + l2_sq(state.v, grid)))


def energy_E_gamma(state: State, params: PhysParams, grid: GridSpec) -> float:
    """E_gamma = (||u||_H1^2 + ||v||^2 - gamma*u(0)^2)/2 - ||u||_{p+1}^{p+1}/(p+1)."""
    return sample_functionals(state.u, state.v, params, grid)[0]


def sample_functionals(u: np.ndarray, v: np.ndarray, params: PhysParams,
                       grid: GridSpec):
    """(E_gamma, K_gamma, ||u||_H1^2, ||v||^2) of the pair (u, v) from one
    action_terms pass: the functionals evolve records at each sample, each
    bitwise what h1_sq, l2_sq and functional_K_gamma return."""
    return _prepare_pass(u, params, grid, v)()


def action_terms(u: np.ndarray, params: PhysParams, grid: GridSpec):
    """(||u||_H1^2 - gamma*u(0)^2, ||u||_{p+1}^{p+1}, ||u||^2, ||u||_H1^2) in
    one pass, each bitwise what h1_sq, l2_sq and the trapezoid of |u|^(p+1)
    combine to."""
    return _prepare_pass(u, params, grid)()


def _prepare_pass(u: np.ndarray, params: PhysParams, grid: GridSpec,
                  v: np.ndarray | None = None, even: bool = False):
    """The pass of action_terms, or given v of sample_functionals, as a
    function of no argument that reads what u and v hold when it is called:
    its buffer and views are built here once, so a run whose samples share
    two buffers prepares one pass.  even says that u equals its reverse bit
    for bit: |u|^(p+1) is then taken on the right half and mirrored, bitwise,
    as each entry is the same ufunc on the same value (u^2 and v^2 on the
    whole grid cost less than the mirror)."""
    _check_samples(u, grid)
    u = np.asarray(u)
    k = 2 if v is None else 3
    buf = np.empty((k + 1, len(u)))
    # u^2, |u|^(p+1) and v^2 as the rows of one array, summed by one reduction
    c, terms = (grid.center if even else 0), buf[:k]
    q = terms[1, c:]  # an even u's |u|^(p+1): the right half's, then mirrored
    q_left = terms[1, :c]
    q_mirrored = q[:0:-1]
    u_right = u[c:]
    u_sq = terms[0]
    v_sq = buf[2]
    diff = buf[k, 1:]  # _dirichlet_form's differences

    def one_pass():
        np.multiply(u, u, u_sq)
        np.power(np.abs(u_right, q), params.p + 1.0, q)
        if even:
            q_left[...] = q_mirrored
        if v is not None:
            np.multiply(v, v, v_sq)
        l2, lq, *l2_v = _trapezoids(terms, grid.h)
        u0 = float(u[grid.center])
        h1 = _dirichlet_form(u, grid.h, diff) + l2
        quad = h1 - params.gamma * u0 * u0
        if v is None:
            return quad, lq, l2, h1
        e = 0.5 * (h1 + l2_v[0] - params.gamma * u0 * u0) - lq / (params.p + 1.0)
        return e, quad - lq, h1, l2_v[0]
    return one_pass


def functional_K_gamma(u: np.ndarray, params: PhysParams, grid: GridSpec) -> float:
    """Nehari functional K_gamma = ||u||_H1^2 - gamma*u(0)^2 - ||u||_{p+1}^{p+1}."""
    quad, nonlin, _, _ = action_terms(u, params, grid)
    return quad - nonlin


def functional_J_gamma(u: np.ndarray, params: PhysParams, grid: GridSpec) -> float:
    """Static action J_gamma (the K-free part of the energy)."""
    quad, nonlin, _, _ = action_terms(u, params, grid)
    return 0.5 * quad - nonlin / (params.p + 1.0)


def diagnostics_MW(
    state: State, params: PhysParams, grid: GridSpec, history: float
) -> dict:
    """Boundedness monitors M and W.

    history must be the accumulated integral of ||u(s)||^2 over [0, t],
    maintained by the evolution loop.
    """
    u0 = float(state.u[grid.center])
    l2_u = l2_sq(state.u, grid)
    m_value = 0.5 * l2_u + params.alpha * float(history)
    # h1_sq(u) + l2_sq(v), in its operation order
    w_value = (
        0.5 * (gradient_sq(state.u, grid) + l2_u + l2_sq(state.v, grid))
        - 0.5 * params.gamma * u0 * u0
    )
    return {"M_value": m_value, "W_value": w_value}

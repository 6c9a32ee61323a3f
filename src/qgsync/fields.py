"""Grids, trigonometric bases, transforms and norms on the unit square.

A scalar field on D = (0,1)^2 is its coefficients in one of four tensor
trigonometric bases (sine/cosine per axis); its nodal values on the closed
uniform lattice are derived from them.  The two primary families are

  * DIRICHLET_SINE  -- sin(k pi x) sin(l pi y), vanishing on the boundary,
  * NEUMANN_COSINE  -- cos(k pi x) cos(l pi y), zero normal derivative,

with the two mixed families arising from differentiation.  All basis
functions are L2(D)-orthonormal, so inner products and norms are plain
coefficient sums, and trapezoid quadrature on the lattice reproduces them
exactly for band-limited fields.

Mean-zero discipline: NEUMANN_COSINE fields always have coefficient (0,0)
equal to zero, which is the discrete membership test for the mean-free
state space.

The transforms between coefficients and nodal values are DCT-I/DST-I per
axis.  From DENSE_BELOW_N cells per side they are computed as real FFTs
of the even/odd extension with numpy.fft.  This is how pocketfft computes
them inside scipy.fft, and numpy ships the same pocketfft, so the results
are those of scipy.fft's dct/dst bit for bit; the package itself needs
numpy alone.  On smaller grids a 2D transform is two BLAS matmuls,
Mx @ a @ My.T, against per-axis matrices built once from that FFT line
transform; they differ from the FFT path by round-off only (at most a few
n * eps * max|a|).  DENSE_BELOW_N is also where `operators` switches its
difference operators from dense matrices to flat-lattice stencils, so
one rule holds: below it every linear operator is a dense matrix.

`cosine_from_cosine_sine` is the one transform that keeps the x axis: it
re-expands a COSINE_SINE array's y-axis sine series in cosines on the
lattice, the round trip through nodal values up to round-off, in two line
passes instead of four.  The step takes its beta term, the cosine
coefficients of psi_x, from it.

Lattice-sized work arrays are held per thread and per grid size in
`WorkArrays`, built on first use and kept for the life of the thread: the
FFT transforms' rfft buffers here, the Arakawa Jacobian's arrays in
`operators` and the step's arrays in `dynamics`.  Reusing them keeps the
allocator from handing freed pages back to the OS and faulting them in
again on the next call.  A transform, `derivative`, or
`operators.streamfunction_coeffs` or `advection_coeffs` writes into a
caller's `out` array when given one (only the step passes one, and `evolve`
passes the step a row of the next members stack); otherwise it returns a
fresh array that its caller owns.  No function returns a view of a work
array.  Every cached table (grid tables, masks, scales, the
`random_coeffs` envelope, line and difference matrices) is read-only, so a
misplaced `out=` raises instead of corrupting every later call.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import rfft


class DimensionMismatch(ValueError):
    """Fields on different grids or in different bases were combined."""


class NonFiniteField(ValueError):
    """A field array contains NaN or infinite entries."""


class Basis(enum.Enum):
    """Tensor basis family; the value encodes (x-axis kind, y-axis kind), also kept as `xkind`, `ykind`."""

    DIRICHLET_SINE = ("sin", "sin")
    NEUMANN_COSINE = ("cos", "cos")
    SINE_COSINE = ("sin", "cos")
    COSINE_SINE = ("cos", "sin")

    def __init__(self, xkind: str, ykind: str):
        self.xkind = xkind
        self.ykind = ykind


_FLIP = {"sin": "cos", "cos": "sin"}
_BY_KINDS = {b.value: b for b in Basis}

# Grids with fewer cells per side apply every linear operator as a dense
# matrix, one BLAS matmul per axis: the transforms here and the difference
# operators in `operators`.  From this size up the transforms are FFTs and
# the difference operators flat-lattice stencils, which win there (measured
# on the 2D transforms and the Arakawa Jacobian).
DENSE_BELOW_N = 128


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice of the unit square with n cells per axis.

    Nodes sit at (i*h, j*h), i,j = 0..n with h = 1/n; interior nodes are
    i,j = 1..n-1.  n must be even and at least 8 so that the transform
    mode sets are well formed.
    """

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got n={self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n + 1, self.n + 1)


@lru_cache(maxsize=None)
def _grid_tables(n: int):
    """Read-only mode-index meshes kx, ky and Laplacian eigenvalues on grid n."""
    k = np.arange(n + 1, dtype=float)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    lam = np.pi**2 * (kx**2 + ky**2)
    return _read_only(kx, ky, lam)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark cached tables read-only and return them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def laplacian_eigenvalues(grid: GridSpec) -> np.ndarray:
    """pi^2 (k^2 + l^2) on the (n+1)x(n+1) mode lattice."""
    return _grid_tables(grid.n)[2]


@lru_cache(maxsize=None)
def _retained_mask(n: int, kinds: tuple[str, str]) -> np.ndarray:
    """Structurally allowed coefficient slots for a basis on grid n.

    Sine axes keep modes 1..n-1, cosine axes keep 0..n-1; the Nyquist row
    is always dropped so that trapezoid quadrature is an exact Parseval
    pairing.  The (0,0) slot of the all-cosine family is excluded (mean
    zero).
    """
    masks = []
    for kind in kinds:
        m = np.zeros(n + 1, dtype=bool)
        if kind == "sin":
            m[1:n] = True
        else:
            m[0:n] = True
        masks.append(m)
    mask = np.outer(masks[0], masks[1])
    if kinds == ("cos", "cos"):
        mask[0, 0] = False
    mask.flags.writeable = False
    return mask


def retained_mask(grid: GridSpec, basis: Basis) -> np.ndarray:
    return _retained_mask(grid.n, basis.value)


@lru_cache(maxsize=None)
def _off_mask(n: int, kinds: tuple[str, str]) -> np.ndarray:
    """Read-only complement of `_retained_mask`: the slots that must stay zero."""
    off = ~_retained_mask(n, kinds)
    off.flags.writeable = False
    return off


# ---------------------------------------------------------------------------
# One-dimensional transforms (orthonormal-coefficient conventions)
#
# cosine axis: values_i = sum_k a_k c_k cos(k pi i h), c_0 = 1, c_k = sqrt(2)
# sine axis:   values_i = sum_k a_k sqrt(2) sin(k pi i h), k = 1..n-1
#
# Both are exact bijections on the closed (cos) / interior (sin) lattice.
# The DCT-I and DST-I behind them are real FFTs of length 2n:
#
#   DCT-I(x)_k =  Re rfft([x_0..x_n, x_{n-1}..x_1])_k,         k = 0..n
#   DST-I(x)_k = -Im rfft([0, x_1..x_{n-1}, 0, -x_{n-1}..-x_1])_k, k = 1..n-1
#
# which is how pocketfft computes them, so numpy.fft gives the same bits as
# the DCT-I/DST-I of scipy.fft, signed zeros included.  The DST's sign goes
# into the divisor, as x / (-d) == -(x / d) exactly; folding it into the
# extension instead would turn an exactly cancelling -0 result into +0.
#
# A 2D FFT transform is two passes over the rows of one rfft input buffer.
# The axis-0 pass reads its lines through a transposed view and writes its
# rows to the output array, which the axis-1 pass reads back transposed.
# Below DENSE_BELOW_N each axis transform is instead a matrix, the FFT line
# transform applied to the identity (`_line_matrix`).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cos_scales(n: int):
    """(analysis divisor, synthesis factor) of the cosine axis on grid n."""
    c = np.full(n + 1, np.sqrt(2.0))
    c[0] = 1.0
    d = np.ones(n + 1)
    d[0] = 2.0
    d[-1] = 2.0
    return _read_only(n * (d * c), n * c * d)


class WorkArrays(threading.local):
    """Per-thread work arrays, one tuple per grid size, built by `make(n)` on first use.

    The user of a tuple fully writes each array before reading it, and
    finishes with all of them before it returns; no function returns a
    view of one.
    """

    def __init__(self, make):
        self.make = make
        self.by_n = {}

    def get(self, n: int) -> tuple[np.ndarray, ...]:
        arrays = self.by_n.get(n)
        if arrays is None:
            arrays = self.by_n[n] = self.make(n)
        return arrays


# the rfft input lines and spectra of the FFT transforms
_WORK = WorkArrays(lambda n: (np.empty((n + 1, 2 * n)), np.empty((n + 1, n + 1), dtype=complex)))
_SQRT2 = np.sqrt(2.0)


def _transform_lines(ext, spec, kind: str, n: int, synthesis: bool, out: np.ndarray) -> None:
    """Transform the lines held in ext[:, :n+1] (cos) or ext[:, 1:n] (sin) into the rows of `out`.

    Analysis gives orthonormal coefficients; synthesis expects its lines
    already scaled by `_synthesis_scale` and gives lattice values.
    """
    if kind == "cos":
        ext[:, n + 1 :] = ext[:, n - 1 : 0 : -1]
        rfft(ext, out=spec, norm="forward" if synthesis else "backward")
        if synthesis:
            np.copyto(out, spec.real)
        else:
            np.divide(spec.real, _cos_scales(n)[0], out=out)
        return
    # pocketfft's DST-I input: [x_1*0, x, x_1*0, -x reversed]; columns 0 and n are ::n
    np.multiply(ext[:, 1:2], 0.0, out=ext[:, ::n])
    np.negative(ext[:, n - 1 : 0 : -1], out=ext[:, n + 1 :])
    rfft(ext, out=spec)
    out[:, ::n] = 0.0
    if synthesis:
        # halving is exact, so x * -0.5 == -x / 2 bit for bit; the product is the faster loop
        np.multiply(spec.imag[:, 1:n], -0.5, out=out[:, 1:n])
    else:
        np.divide(spec.imag[:, 1:n], -(_SQRT2 * n), out=out[:, 1:n])


def _synthesis_scale(coeffs: np.ndarray, kind: str, n: int, lines: np.ndarray) -> None:
    """Scale the rows of `coeffs` into the rfft lines."""
    if kind == "cos":
        np.multiply(coeffs, _cos_scales(n)[1], out=lines)
    else:
        np.multiply(coeffs[:, 1:n], _SQRT2, out=lines[:, 1:n])


@lru_cache(maxsize=None)
def _line_matrix(n: int, kind: str, synthesis: bool) -> np.ndarray:
    """Read-only matrix of one axis transform on grid n.

    Column j is `_transform_lines` of the unit line e_j, so the matrix is
    the FFT line transform itself, not a second definition of it.
    """
    ext, spec = _WORK.get(n)
    eye = np.eye(n + 1)
    if synthesis:
        _synthesis_scale(eye, kind, n, ext[:, : n + 1])
    else:
        ext[:, : n + 1] = eye
    rows = np.empty((n + 1, n + 1))
    _transform_lines(ext, spec, kind, n, synthesis, out=rows)
    m = np.ascontiguousarray(rows.T)
    m.flags.writeable = False
    return m


def _fft_coeffs_from_nodal(nodal: np.ndarray, basis: Basis, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """`coeffs_from_nodal` by numpy.fft: the bits of scipy.fft's DCT-I/DST-I."""
    ext, spec = _WORK.get(n)
    lines = ext[:, : n + 1]
    lines[...] = nodal.T
    a = np.empty((n + 1, n + 1)) if out is None else out
    _transform_lines(ext, spec, basis.xkind, n, synthesis=False, out=a)
    lines[...] = a.T
    _transform_lines(ext, spec, basis.ykind, n, synthesis=False, out=a)
    a[_off_mask(n, basis.value)] = 0.0
    return a


def _fft_nodal_from_coeffs(coeffs: np.ndarray, basis: Basis, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """`nodal_from_coeffs` by numpy.fft: the bits of scipy.fft's DCT-I/DST-I."""
    ext, spec = _WORK.get(n)
    lines = ext[:, : n + 1]
    _synthesis_scale(coeffs.T, basis.xkind, n, lines)
    v = np.empty((n + 1, n + 1)) if out is None else out
    _transform_lines(ext, spec, basis.xkind, n, synthesis=True, out=v)
    _synthesis_scale(v.T, basis.ykind, n, lines)
    _transform_lines(ext, spec, basis.ykind, n, synthesis=True, out=v)
    return v


def coeffs_from_nodal(nodal: np.ndarray, basis: Basis, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Project nodal values onto the retained modes of a basis, into `out` if given (not `nodal`)."""
    n = grid.n
    if n >= DENSE_BELOW_N:
        return _fft_coeffs_from_nodal(nodal, basis, n, out)
    a = np.matmul(_line_matrix(n, basis.xkind, False) @ nodal, _line_matrix(n, basis.ykind, False).T, out=out)
    a[_off_mask(n, basis.value)] = 0.0
    return a


def nodal_from_coeffs(coeffs: np.ndarray, basis: Basis, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Lattice values of a coefficient array, into `out` if given (not `coeffs`); +0.0 on the edges of a sine axis."""
    n = grid.n
    if n >= DENSE_BELOW_N:
        v = _fft_nodal_from_coeffs(coeffs, basis, n, out)
    else:
        v = np.matmul(_line_matrix(n, basis.xkind, True) @ coeffs, _line_matrix(n, basis.ykind, True).T, out=out)
    # whatever sign the dense path's 0 * x terms or the DST's scaling of a
    # zero line left there
    if basis.xkind == "sin":
        v[::n] = 0.0
    if basis.ykind == "sin":
        v[:, ::n] = 0.0
    return v


@lru_cache(maxsize=None)
def _sine_to_cosine_matrix(n: int) -> np.ndarray:
    """Read-only matrix of a sine-axis synthesis followed by a cosine-axis analysis on grid n."""
    m = _line_matrix(n, "cos", False) @ _line_matrix(n, "sin", True)
    m.flags.writeable = False
    return m


def cosine_from_cosine_sine(coeffs: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """NEUMANN_COSINE coefficients of a COSINE_SINE array's lattice values, into `out` if given (not `coeffs`).

    The round trip `coeffs_from_nodal(nodal_from_coeffs(coeffs, COSINE_SINE),
    NEUMANN_COSINE)` up to round-off: its x-axis cosine synthesis and
    analysis are the identity on the retained modes, so only the y axis is
    transformed, a sine synthesis and a cosine analysis along the rows.
    Below DENSE_BELOW_N that is one matmul against the product of the two
    line matrices; from it up, two FFT line passes, the first of which
    writes its lattice values back into the rfft lines.
    """
    n = grid.n
    if n >= DENSE_BELOW_N:
        ext, spec = _WORK.get(n)
        lines = ext[:, : n + 1]
        _synthesis_scale(coeffs, "sin", n, lines)
        _transform_lines(ext, spec, "sin", n, synthesis=True, out=lines)
        a = np.empty((n + 1, n + 1)) if out is None else out
        _transform_lines(ext, spec, "cos", n, synthesis=False, out=a)
    else:
        a = np.matmul(coeffs, _sine_to_cosine_matrix(n).T, out=out)
    a[_off_mask(n, Basis.NEUMANN_COSINE.value)] = 0.0
    return a


class Field:
    """Immutable scalar field: its coefficients in one basis.

    Coefficients have shape (n+1, n+1) and are indexed by literal mode
    numbers (k, l); they are copied, checked (shape, finite, zero off the
    retained modes) and frozen, so fields are safe to share.  A field holds
    nothing else: its lattice values, indexed (i, j), are
    `nodal_from_coeffs(f.coeffs, f.basis, f.grid)`, which the caller keeps.
    """

    __slots__ = ("grid", "basis", "_coeffs")

    def __init__(self, grid: GridSpec, basis: Basis, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape != grid.shape:
            raise DimensionMismatch(
                f"array shape {coeffs.shape} does not match grid {grid.shape}"
            )
        if not np.isfinite(coeffs).all():
            raise NonFiniteField("field contains non-finite entries")
        if coeffs[_off_mask(grid.n, basis.value)].any():
            raise ValueError("coefficients outside the retained mode set must be zero")
        coeffs.flags.writeable = False
        self.grid = grid
        self.basis = basis
        self._coeffs = coeffs

    @classmethod
    def zeros(cls, grid: GridSpec, basis: Basis) -> "Field":
        return cls(grid, basis, coeffs=np.zeros(grid.shape))

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    def __repr__(self) -> str:
        return f"Field({self.basis.name}, n={self.grid.n})"


@lru_cache(maxsize=64)
def _envelope(n: int, slope: float) -> np.ndarray:
    """Read-only (1 + k^2 + l^2)^(-slope/2) on the mode lattice."""
    kx, ky, _ = _grid_tables(n)
    return _read_only((1.0 + kx**2 + ky**2) ** (-slope / 2.0))[0]


def random_coeffs(
    grid: GridSpec, rng: np.random.Generator, scale: float = 1.0, slope: float = 0.0
) -> np.ndarray:
    """Cosine coefficients of a Gaussian mean-zero field: scale * N(0,1) * (1+k^2+l^2)^(-slope/2).

    One `rng.standard_normal(grid.shape)` draw, zeroed off the retained modes.
    """
    coeffs = scale * rng.standard_normal(grid.shape) * _envelope(grid.n, slope)
    return coeffs * retained_mask(grid, Basis.NEUMANN_COSINE)


def random_field(
    grid: GridSpec, rng: np.random.Generator, scale: float = 1.0, slope: float = 0.0
) -> Field:
    """`random_coeffs` as a NEUMANN_COSINE field."""
    return Field(grid, Basis.NEUMANN_COSINE, coeffs=random_coeffs(grid, rng, scale, slope))


def norm_l2(coeffs: np.ndarray) -> float:
    """L2 norm of a coefficient array in any basis; too large to square gives inf, not an overflow warning."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(coeffs**2)))


def norm_h1(coeffs: np.ndarray) -> float:
    """Gradient seminorm |grad f| of a coefficient array in any basis; the working norm on mean-zero fields.

    Like `norm_l2`, it gives inf without a warning when the squares overflow.
    """
    lam = _grid_tables(len(coeffs) - 1)[2]
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(lam * coeffs**2)))


def derivative(
    coeffs: np.ndarray, basis: Basis, axis: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, Basis]:
    """Spectral derivative along one axis (0 = x, 1 = y): its coefficients, into `out` if given (not `coeffs`), and basis.

    Differentiating an orthonormal sine mode gives k*pi times the matching
    cosine mode and vice versa with a sign, so the coefficient map is a
    diagonal scaling plus a flip of that axis' kind.
    """
    n = coeffs.shape[0] - 1
    kinds = list(basis.value)
    kind = kinds[axis]
    kinds[axis] = _FLIP[kind]
    flipped = _BY_KINDS[tuple(kinds)]
    sign = 1.0 if kind == "sin" else -1.0
    # (((sign * pi) * k) * coeffs) * mask, one product at a time
    d = np.multiply(sign * np.pi, _grid_tables(n)[axis], out=out)
    np.multiply(d, coeffs, out=d)
    np.multiply(d, _retained_mask(n, flipped.value), out=d)
    return d, flipped


def save_field(path, f: Field, time: float = 0.0) -> None:
    """Write a field snapshot: one header line, then flat coefficients."""
    # one %-format per row, the same text as format(v, ".17g") per value;
    # formatting all values at once holds megabytes of Python objects at n = 256
    line = "%.17g\n" * (f.grid.n + 1)
    with open(path, "w") as fh:
        fh.write(f"# n={f.grid.n} basis={f.basis.name} t={time!r}\n")
        for row in f.coeffs:
            fh.write(line % tuple(row.tolist()))

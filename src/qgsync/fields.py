"""Grids, trigonometric bases, transforms and norms on the unit square.

Scalar fields live on the closed uniform lattice of D = (0,1)^2 and carry a
dual representation: nodal values and coefficients in one of four tensor
trigonometric bases (sine/cosine per axis).  The two primary families are

  * DIRICHLET_SINE  -- sin(k pi x) sin(l pi y), vanishing on the boundary,
  * NEUMANN_COSINE  -- cos(k pi x) cos(l pi y), zero normal derivative,

with the two mixed families arising from differentiation.  All basis
functions are L2(D)-orthonormal, so inner products and norms are plain
coefficient sums, and trapezoid quadrature on the lattice reproduces them
exactly for band-limited fields.

Mean-zero discipline: NEUMANN_COSINE fields always have coefficient (0,0)
equal to zero, which is the discrete membership test for the mean-free
state space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as _fft


class DimensionMismatch(ValueError):
    """Fields on different grids or in different bases were combined."""


class MissingRepresentation(RuntimeError):
    """A field was asked for a representation it does not hold."""


class NonFiniteField(ValueError):
    """A field array contains NaN or infinite entries."""


class Basis(enum.Enum):
    """Tensor basis family; the value encodes (x-axis kind, y-axis kind)."""

    DIRICHLET_SINE = ("sin", "sin")
    NEUMANN_COSINE = ("cos", "cos")
    SINE_COSINE = ("sin", "cos")
    COSINE_SINE = ("cos", "sin")

    @property
    def xkind(self) -> str:
        return self.value[0]

    @property
    def ykind(self) -> str:
        return self.value[1]


_FLIP = {"sin": "cos", "cos": "sin"}
_BY_KINDS = {b.value: b for b in Basis}


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

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h


@lru_cache(maxsize=None)
def _grid_tables(n: int):
    """Mode-index meshes, Laplacian eigenvalues and trapezoid weights."""
    k = np.arange(n + 1, dtype=float)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    lam = np.pi**2 * (kx**2 + ky**2)
    w = np.ones(n + 1)
    w[0] = 0.5
    w[-1] = 0.5
    return kx, ky, lam, w


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
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cos_scales(n: int):
    c = np.full(n + 1, np.sqrt(2.0))
    c[0] = 1.0
    d = np.ones(n + 1)
    d[0] = 2.0
    d[-1] = 2.0
    return c, d


def _axis_analysis(values: np.ndarray, kind: str, n: int, axis: int) -> np.ndarray:
    if kind == "cos":
        c, d = _cos_scales(n)
        shape = [1, 1]
        shape[axis] = n + 1
        raw = _fft.dct(values, type=1, axis=axis)
        return raw / (n * (d * c).reshape(shape))
    # sine: transform the interior slice, pad zeros at indices 0 and n
    sl = [slice(None)] * 2
    sl[axis] = slice(1, n)
    raw = _fft.dst(values[tuple(sl)], type=1, axis=axis) / (np.sqrt(2.0) * n)
    out = np.zeros_like(values)
    out[tuple(sl)] = raw
    return out


def _axis_synthesis(coeffs: np.ndarray, kind: str, n: int, axis: int) -> np.ndarray:
    if kind == "cos":
        c, d = _cos_scales(n)
        shape = [1, 1]
        shape[axis] = n + 1
        y = coeffs * (n * c * d).reshape(shape)
        return _fft.idct(y, type=1, axis=axis)
    sl = [slice(None)] * 2
    sl[axis] = slice(1, n)
    interior = _fft.dst(np.sqrt(2.0) * coeffs[tuple(sl)], type=1, axis=axis) / 2.0
    out = np.zeros_like(coeffs)
    out[tuple(sl)] = interior
    return out


def coeffs_from_nodal(nodal: np.ndarray, basis: Basis, grid: GridSpec) -> np.ndarray:
    """Project nodal values onto the retained modes of a basis."""
    n = grid.n
    a = _axis_analysis(nodal, basis.xkind, n, axis=0)
    a = _axis_analysis(a, basis.ykind, n, axis=1)
    a[_off_mask(n, basis.value)] = 0.0
    return a


def nodal_from_coeffs(coeffs: np.ndarray, basis: Basis, grid: GridSpec) -> np.ndarray:
    n = grid.n
    v = _axis_synthesis(coeffs, basis.xkind, n, axis=0)
    return _axis_synthesis(v, basis.ykind, n, axis=1)


class Field:
    """Immutable scalar field with spectral and/or nodal representation.

    Arrays have shape (n+1, n+1): coefficients are indexed by literal mode
    numbers (k, l), nodal values by lattice indices (i, j).  At least one
    representation must be supplied; the other is computed lazily and
    cached.  Arrays are copied and frozen, so fields are safe to share.
    """

    __slots__ = ("grid", "basis", "_coeffs", "_nodal")

    def __init__(self, grid: GridSpec, basis: Basis, coeffs=None, nodal=None):
        if coeffs is None and nodal is None:
            raise MissingRepresentation("field needs coefficients or nodal values")
        self.grid = grid
        self.basis = basis
        self._coeffs = self._prepare(coeffs, validate_modes=True)
        self._nodal = self._prepare(nodal, validate_modes=False)

    def _prepare(self, arr, validate_modes: bool):
        if arr is None:
            return None
        arr = np.array(arr, dtype=float)
        if arr.shape != self.grid.shape:
            raise DimensionMismatch(
                f"array shape {arr.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteField("field contains non-finite entries")
        if validate_modes and arr[_off_mask(self.grid.n, self.basis.value)].any():
            raise ValueError("coefficients outside the retained mode set must be zero")
        arr.flags.writeable = False
        return arr

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, grid: GridSpec, basis: Basis) -> "Field":
        return cls(grid, basis, coeffs=np.zeros(grid.shape))

    @classmethod
    def from_modes(cls, grid: GridSpec, basis: Basis, modes: dict) -> "Field":
        """Field from a {(k, l): amplitude} dictionary of retained modes."""
        coeffs = np.zeros(grid.shape)
        mask = retained_mask(grid, basis)
        for (k, l), amp in modes.items():
            if not mask[k, l]:
                raise ValueError(f"mode {(k, l)} is not retained for {basis.name}")
            coeffs[k, l] = amp
        return cls(grid, basis, coeffs=coeffs)

    @classmethod
    def from_nodal(cls, grid: GridSpec, basis: Basis, nodal) -> "Field":
        return cls(grid, basis, nodal=nodal)

    # -- representations ----------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            c = coeffs_from_nodal(self._nodal, self.basis, self.grid)
            c.flags.writeable = False
            self._coeffs = c
        return self._coeffs

    @property
    def nodal(self) -> np.ndarray:
        if self._nodal is None:
            v = nodal_from_coeffs(self._coeffs, self.basis, self.grid)
            v.flags.writeable = False
            self._nodal = v
        return self._nodal

    # -- arithmetic (coefficient space) -------------------------------------

    def _check_compatible(self, other: "Field"):
        if self.grid != other.grid or self.basis is not other.basis:
            raise DimensionMismatch(
                f"incompatible fields: {self.basis.name} on n={self.grid.n} vs "
                f"{other.basis.name} on n={other.grid.n}"
            )

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.grid, self.basis, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.grid, self.basis, coeffs=self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.basis, coeffs=self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, self.basis, coeffs=-self.coeffs)

    def __repr__(self) -> str:
        return f"Field({self.basis.name}, n={self.grid.n})"


def random_field(
    grid: GridSpec, rng: np.random.Generator, scale: float = 1.0, slope: float = 0.0
) -> Field:
    """Gaussian mean-zero cosine field: scale * N(0,1) * (1+k^2+l^2)^(-slope/2).

    One `rng.standard_normal(grid.shape)` draw, zeroed off the retained modes.
    """
    kx, ky, _, _ = _grid_tables(grid.n)
    envelope = (1.0 + kx**2 + ky**2) ** (-slope / 2.0)
    coeffs = scale * rng.standard_normal(grid.shape) * envelope
    mask = retained_mask(grid, Basis.NEUMANN_COSINE)
    return Field(grid, Basis.NEUMANN_COSINE, coeffs=coeffs * mask)


def inner(f: Field, g: Field) -> float:
    """L2(D) inner product via the coefficient Parseval identity."""
    f._check_compatible(g)
    return float(np.sum(f.coeffs * g.coeffs))


def norm_l2(f: Field) -> float:
    return float(np.sqrt(np.sum(f.coeffs**2)))


def norm_h1(f: Field) -> float:
    """Gradient seminorm |grad f|; the working norm on mean-zero fields."""
    lam = laplacian_eigenvalues(f.grid)
    return float(np.sqrt(np.sum(lam * f.coeffs**2)))


def gradient(f: Field) -> tuple[Field, Field]:
    """Spectral gradient; each component lands in the axis-flipped basis.

    Differentiating an orthonormal sine mode gives k*pi times the matching
    cosine mode and vice versa with a sign, so the coefficient map is a
    diagonal scaling plus a basis flip per axis.
    """
    grid = f.grid
    kx, ky, _, _ = _grid_tables(grid.n)
    c = f.coeffs

    xkind, ykind = f.basis.xkind, f.basis.ykind
    sx = 1.0 if xkind == "sin" else -1.0
    dx_coeffs = sx * np.pi * kx * c
    dx_basis = _BY_KINDS[(_FLIP[xkind], ykind)]
    dx_coeffs = dx_coeffs * retained_mask(grid, dx_basis)

    sy = 1.0 if ykind == "sin" else -1.0
    dy_coeffs = sy * np.pi * ky * c
    dy_basis = _BY_KINDS[(xkind, _FLIP[ykind])]
    dy_coeffs = dy_coeffs * retained_mask(grid, dy_basis)

    return (
        Field(grid, dx_basis, coeffs=dx_coeffs),
        Field(grid, dy_basis, coeffs=dy_coeffs),
    )


def quadrature_inner(f: Field, g: Field) -> float:
    """Trapezoid quadrature of f*g on the lattice (independent of Parseval)."""
    if f.grid != g.grid:
        raise DimensionMismatch("fields on different grids")
    _, _, _, w = _grid_tables(f.grid.n)
    h = f.grid.h
    return float(h * h * np.sum(np.outer(w, w) * f.nodal * g.nodal))


class BoundaryField:
    """Mean-zero scalar on the left edge {0} x (0,1).

    Stored as coefficients g_k of the orthonormal edge modes
    sqrt(2) cos(k pi y), k = 1..K.  The absence of a k = 0 slot makes the
    zero-average (Neumann compatibility) condition structural.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: GridSpec, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 1 or not 1 <= coeffs.size <= grid.n - 1:
            raise DimensionMismatch(
                f"boundary coefficients must have length 1..{grid.n - 1}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("boundary field contains non-finite entries")
        coeffs.flags.writeable = False
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def from_values(cls, grid: GridSpec, values, tol: float = 1e-10) -> "BoundaryField":
        """Analyse edge nodal values; reject data with a nonzero average."""
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n + 1,):
            raise DimensionMismatch("edge values must live on the closed lattice")
        a = _axis_analysis(values.reshape(-1, 1), "cos", grid.n, axis=0).ravel()
        scale = np.linalg.norm(a)
        if abs(a[0]) > tol * max(scale, 1.0):
            raise ValueError("boundary datum must have zero average")
        return cls(grid, a[1 : grid.n])

    def values(self) -> np.ndarray:
        """Nodal values on the closed edge lattice y_j = j*h."""
        full = np.zeros((self.grid.n + 1, 1))
        full[1 : 1 + self.coeffs.size, 0] = self.coeffs
        return _axis_synthesis(full, "cos", self.grid.n, axis=0).ravel()

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __repr__(self) -> str:
        return f"BoundaryField(n={self.grid.n}, K={self.coeffs.size})"


def save_field(path, f: Field, time: float = 0.0) -> None:
    """Write a field snapshot: one header line, then flat coefficients."""
    with open(path, "w") as fh:
        fh.write(f"# n={f.grid.n} basis={f.basis.name} t={time!r}\n")
        for v in f.coeffs.ravel():
            fh.write(format(v, ".17g") + "\n")


def load_field(path) -> tuple[Field, float]:
    with open(path) as fh:
        header = fh.readline().strip().lstrip("# ").split()
        meta = dict(item.split("=", 1) for item in header)
        values = np.array([float(line) for line in fh])
    grid = GridSpec(int(meta["n"]))
    basis = Basis[meta["basis"]]
    coeffs = values.reshape(grid.shape)
    return Field(grid, basis, coeffs=coeffs), float(meta["t"])

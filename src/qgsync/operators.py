"""Elliptic solution operators, diffusion semigroup and the advection bilinear form.

The streamfunction solve, the Neumann boundary lift, the mean-zero Laplacian
with its heat semigroup, and an Arakawa-type discrete Jacobian are collected
here together with the constants of the contraction analysis: lambda1
and c_gx exactly (`LAMBDA1`, `C_GX_EXACT`), and the trilinear constant c_b
of B, a function of the grid alone that a deterministic higher-order
power method reaches from a fixed start (`estimate_constants`).  Every
operator takes and returns coefficient or lattice arrays, except
`dirichlet_poisson` and `bilinear_b`, the field forms of the
streamfunction solve and of B, which build a `Field`.  The lift is a
plain (n+1, K) coefficient array from `lifting_matrix`; `neumann_lift`
and the coefficient kernel `noise.OUKernel` are the only places that
build it.

The load-bearing discrete property is exact skew-symmetry of the advection
operator B(v1, v2) = J(G v1, v2):

    <B(v1, v2), v2> = 0      and      <B(v1, v2), v3> = -<B(v1, v3), v2>

hold to round-off for every retained field, not just asymptotically.  Every
energy estimate downstream relies on this.  No correction enforces it: the
Arakawa average of the three Jacobian forms is skew in its second slot
under the even/odd reflection closures whenever psi = G v1 is 0 on the
boundary, and the sine synthesis of psi writes exactly 0 there (see
`advection_coeffs`).

The Jacobian's difference operators are zero-diagonal tridiagonal, stored
as their two off-diagonals.  From n = `fields.DENSE_BELOW_N` cells per side
each is applied as a flat-lattice stencil: one subtract over the flattened
lattice, offset by one line or one entry, one multiply by the interior
factor n/2 and a rewrite of the first and last node along the axis (see
`_diff`).  On smaller grids one BLAS product with the dense matrix is
faster, as it is for the transforms in `fields`, which switch at the same
size.  At power-of-two n the factor n/2 is a power of two, so
(a[i+1] - a[i-1]) * n/2 rounds as n/2 * a[i+1] - n/2 * a[i-1] does
(barring overflow and underflow): both forms give the same values, and
the same bits but for the sign of some zeros.  On the first node along
the axis, De's stencil writes a[1] * 0.0 (-0.0 where a[1] < 0) and the
matrix product +0.0; Do agrees bit for bit.  At other n the two forms
differ by round-off, at most 4 eps * n/2 * (|a[i+1]| + |a[i-1]|) per
entry.

`advection_coeffs` fetches one per-thread, per-n plan (`_JacobianPlan`,
built on first use): its four differences, bound once to their matrices
or stencils, and six lattice work arrays (the four first differences, the
running sum of the three forms and one product), so a call allocates only
the coefficients it returns and writes the three Arakawa forms once for
both kinds of difference.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .fields import (
    DENSE_BELOW_N,
    Basis,
    DimensionMismatch,
    Field,
    GridSpec,
    WorkArrays,
    _line_matrix,
    coeffs_from_nodal,
    laplacian_eigenvalues,
    nodal_from_coeffs,
    norm_h1,
    norm_l2,
    retained_mask,
)

LAMBDA1 = np.pi**2  # first eigenvalue of the mean-zero Neumann Laplacian
C_GX_EXACT = 1.0 / (2.0 * np.pi)  # max_k,l k*pi / (pi^2 (k^2+l^2)), at (1,1)
SWEEPS = 20  # sweeps of the power method for c_b
_INNER_STEPS = 3  # (v3, v2) updates per sweep, for one v1


# ---------------------------------------------------------------------------
# Poisson solve and spectral Laplacian machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _poisson_divisors(n: int) -> np.ndarray:
    """Read-only -pi^2 (k^2 + l^2) on the sine modes and +inf off them.

    src / (-lam) is -src / lam bit for bit, and the zero that
    `coeffs_from_nodal` writes off the sine modes stays +0.0.
    """
    grid = GridSpec(n)
    d = np.where(retained_mask(grid, Basis.DIRICHLET_SINE), -laplacian_eigenvalues(grid), np.inf)
    d.flags.writeable = False
    return d


def streamfunction_coeffs(nodal: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Sine coefficients of psi with lap(psi) = u, psi = 0 on the boundary, from u's lattice values.

    Works for any basis of u: the source is read on the interior lattice
    and inverted mode-by-mode in the sine family, where the discrete
    Laplacian is diagonal with eigenvalue -pi^2 (k^2 + l^2).  Writes into
    `out` if given (not `nodal`).
    """
    src = coeffs_from_nodal(nodal, Basis.DIRICHLET_SINE, grid, out=out)
    return np.divide(src, _poisson_divisors(grid.n), out=src)


def dirichlet_poisson(u: Field) -> Field:
    """Solve lap(psi) = u with psi = 0 on the boundary: `streamfunction_coeffs` as a field."""
    nodal = nodal_from_coeffs(u.coeffs, u.basis, u.grid)
    return Field(u.grid, Basis.DIRICHLET_SINE, coeffs=streamfunction_coeffs(nodal, u.grid))


def semigroup(coeffs: np.ndarray, nu: float, t: float) -> np.ndarray:
    """Heat semigroup S(t) = exp(-t A) acting on a mean-zero cosine coefficient array."""
    if t < 0:
        raise ValueError(f"semigroup requires t >= 0, got {t}")
    decay = np.exp(-nu * t * laplacian_eigenvalues(GridSpec(len(coeffs) - 1)))
    return decay * coeffs


# ---------------------------------------------------------------------------
# Neumann lift of boundary data on the left edge
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _edge_scales(n: int) -> np.ndarray:
    c = np.full(n + 1, np.sqrt(2.0))
    c[0] = 1.0
    c[n] = 0.0  # Nyquist row is outside the retained set
    c.flags.writeable = False
    return c


def lifting_matrix(grid: GridSpec, nu: float, n_modes: int) -> np.ndarray:
    """Cosine coefficients of the harmonic lift of edge modes k = 1..n_modes.

    Returns an (n+1, n_modes) array whose column k-1 holds the x-mode
    coefficients of the field responding to the unit edge datum
    sqrt(2) cos(k pi y).  Its y-dependence is exactly the cosine mode k, so
    the full 2D coefficient of interior mode (m, k) is
    c_m / (nu pi^2 (k^2 + m^2)) with c_0 = 1 and c_m = sqrt(2).  This is the
    variational (Galerkin) solution on the retained modes and equals the
    projection of the classical profile
    cosh(k pi (1 - x)) cos(k pi y) / (nu k pi sinh(k pi)).

    The defining identity A(lift of g) = edge delta layer times g makes the
    flux readout and the interior-harmonicity residual exact: see
    `boundary_flux`.  Each column is computed on its own, so fewer modes
    give the same leading columns; 0 modes give an (n+1, 0) array.
    """
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    if not 0 <= n_modes <= grid.n - 1:
        raise ValueError(f"edge mode count must be in 0..{grid.n - 1}")
    c = _edge_scales(grid.n)
    m = np.arange(grid.n + 1, dtype=float)[:, np.newaxis]
    k = np.arange(1, n_modes + 1, dtype=float)[np.newaxis, :]
    return c[:, np.newaxis] / (nu * np.pi**2 * (k**2 + m**2))


def neumann_lift(g: np.ndarray, grid: GridSpec, nu: float) -> np.ndarray:
    """Lift edge data to the interior: -nu lap(u) = 0 with flux datum g, as cosine coefficients.

    g holds the coefficients g_k of the orthonormal edge modes
    sqrt(2) cos(k pi y), k = 1..K with K <= n - 1; there is no k = 0 slot,
    so the data have zero average (Neumann compatibility).  The flux
    convention is variational, nu * du/dn = g on {0} x (0,1) and zero on
    the other sides; `boundary_flux` reads the datum back from the result
    exactly.
    """
    lift = lifting_matrix(grid, nu, n_modes=g.size)
    coeffs = np.zeros(grid.shape)
    coeffs[:, 1 : 1 + g.size] = lift * g[np.newaxis, :]
    coeffs[~retained_mask(grid, Basis.NEUMANN_COSINE)] = 0.0
    return coeffs


def boundary_flux(u: np.ndarray, nu: float) -> np.ndarray:
    """Left-edge flux readout of cosine coefficients u: the edge-delta-layer content of A(u).

    A discretely harmonic field with edge datum g satisfies
    nu * lambda_(m,k) * u_(m,k) = c_m * g_k for every x-mode m, i.e. A(u)
    is exactly the truncated edge delta layer scaled by g.  The functional
    returns the least-squares layer coefficients g_k, k = 1..n-1;
    `harmonicity_residual` measures what A(u) leaves outside the layer.
    """
    grid = GridSpec(len(u) - 1)
    c = _edge_scales(grid.n)
    au = nu * laplacian_eigenvalues(grid) * u
    return (c @ au[:, 1 : grid.n]) / float(np.sum(c**2))


def harmonicity_residual(u: np.ndarray, nu: float) -> float:
    """Relative part of A(u) not explained by a left-edge flux layer, for cosine coefficients u."""
    grid = GridSpec(len(u) - 1)
    au = nu * laplacian_eigenvalues(grid) * u
    layer = np.zeros(grid.shape)
    layer[:, 1 : grid.n] = np.outer(_edge_scales(grid.n), boundary_flux(u, nu))
    denom = float(np.linalg.norm(au))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(au - layer)) / denom


# ---------------------------------------------------------------------------
# Arakawa Jacobian, the skew-symmetric bilinear form
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _difference_operators(n: int):
    """Centered differences with even and odd reflection closures, (De, Do).

    'even' mirrors the neighbour value across the boundary (natural for
    cosine-family data), 'odd' mirrors with a sign flip (sine family, and
    the flux-form outer differences).

    Each operator is zero-diagonal tridiagonal on the n+1 lattice nodes and
    is returned as (lower, upper, dense): lower[i] = D[i+1, i],
    upper[i] = D[i, i+1], and the dense matrix only below DENSE_BELOW_N.
    Inside, upper[i] = -lower[i-1] = 0.5 / h = n/2: the stencil of `_diff`
    scales a[i+1] - a[i-1] by upper[1], and the matmul sums the two
    products.  At power-of-two n every coefficient is a power of two, so
    both round once per entry and agree in value.  In bits they agree except on De's first
    node along the axis (row 0 on axis 0, column 0 on axis 1): its stencil
    entry is a[1] * 0.0, -0.0 where a[1] < 0, while the matrix row of zeros
    sums to +0.0.  Do agrees bit for bit.
    """
    h = 1.0 / n
    lower_e = np.full(n, -0.5 / h)
    upper_e = np.full(n, 0.5 / h)
    lower_e[n - 1] = 0.0
    upper_e[0] = 0.0
    lower_o = lower_e.copy()
    upper_o = upper_e.copy()
    lower_o[n - 1] = -1.0 / h
    upper_o[0] = 1.0 / h

    def op(lower, upper):
        dense = np.diag(lower, -1) + np.diag(upper, 1) if n < DENSE_BELOW_N else None
        for x in (lower, upper, dense):
            if x is not None:
                x.flags.writeable = False
        return lower, upper, dense

    return op(lower_e, upper_e), op(lower_o, upper_o)


def _diff(op, a: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Apply one difference operator along an axis of a nodal array as a stencil, into `out` (not `a`).

    The stencil writes through the flat view of `out`, so `out` must be
    C-contiguous; `a` is only read.  One subtract over the flattened
    lattice, offset by one line (axis 0) or one entry (axis 1), gives
    a[i+1] - a[i-1], and one multiply scales it by the interior factor
    upper[1] = n/2.  The first and last node along the axis are then
    written as the tridiagonal sum writes them, a[1] * upper[0] and
    0.0 + lower[n-1] * a[n-1]; along axis 1 they are the entries whose
    flat difference crossed a row break, zeroed before the scaling so that
    it cannot overflow on them.
    """
    lower, upper, _ = op
    if not out.flags.c_contiguous:
        raise ValueError("the difference stencil writes through a flat view: out must be C-contiguous")
    # the lines along `axis` as rows: on 2D arrays a transpose is np.moveaxis(x, 1, 0)
    src, dst = (a, out) if axis == 0 else (a.T, out.T)
    shift = a.shape[1] if axis == 0 else 1
    flat = a.reshape(-1)
    interior = out.reshape(-1)[shift:-shift]
    np.subtract(flat[2 * shift :], flat[: -2 * shift], out=interior)
    dst[0] = 0.0
    dst[-1] = 0.0
    np.multiply(interior, upper[1], out=interior)
    np.multiply(src[1], upper[0], out=dst[0])
    np.multiply(src[-2], lower[-1], out=dst[-1])
    np.add(dst[-1], 0.0, out=dst[-1])
    return out


class _JacobianPlan(NamedTuple):
    """The Jacobian's four differences on grid n and this thread's six lattice work arrays for it.

    Each difference is a `partial`, called as d(a, out=out).  Below
    DENSE_BELOW_N it is one BLAS product with the dense matrix D, D @ a
    along x and a @ D.T along y (`_dot_right`, against the transposed
    view: a contiguous copy of D.T rounds differently at n such as 18 and
    50); from it up, the stencil `_diff`.  The work arrays are px, py, ax,
    ay (then the differences of t2 and t3), the running sum of the three
    forms and the product being differenced.
    """

    do_x: partial
    do_y: partial
    de_x: partial
    de_y: partial
    work: tuple[np.ndarray, ...]


def _dot_right(dense_t: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ dense_t into `out`."""
    return np.dot(a, dense_t, out=out)


def _jacobian_plan(n: int) -> _JacobianPlan:
    De, Do = _difference_operators(n)
    if n < DENSE_BELOW_N:
        differences = (
            partial(np.dot, Do[2]),
            partial(_dot_right, Do[2].T),
            partial(np.dot, De[2]),
            partial(_dot_right, De[2].T),
        )
    else:
        differences = tuple(partial(_diff, op, axis=axis) for op in (Do, De) for axis in (0, 1))
    return _JacobianPlan(*differences, work=tuple(np.empty((n + 1, n + 1)) for _ in range(6)))


_JACOBIAN_PLANS = WorkArrays(_jacobian_plan)


def advection_coeffs(psi: np.ndarray, a: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Cosine coefficients of the Arakawa bracket J(psi, a) = psi_x a_y - psi_y a_x, from lattice values.

    psi must vanish on the boundary, as the sine synthesis of
    `streamfunction_coeffs` makes it (exactly +0.0 on every edge node).
    The bracket is the average of the three Arakawa forms, which is skew in
    its second slot in the trapezoid inner product: in the interior the
    three forms' adjoints permute them with a sign flip, and every boundary
    entry where an even or odd closure breaks that pattern multiplies
    psi or a tangential difference of psi on an edge where it is 0.  So
    <B(v1,v2),v2> = 0 and <B(v1,v2),v3> = -<B(v1,v3),v2> hold to round-off
    on the retained modes.

    The lattice arrays live in this thread's six Jacobian work arrays for
    n, which outlive the call, so the only array it may allocate is the
    returned coefficients, which go into `out` if given (not `psi` or `a`).
    Each form is evaluated in the order of the expression (t1 + t2 + t3) / 3
    with t1 = px ay - py ax, t2 = Do_x(psi ay) - Do_y(psi ax) and
    t3 = Do_y(px a) - Do_x(py a), so the bits are those of that expression.
    """
    do_x, do_y, de_x, de_y, (px, py, ax, ay, acc, prod) = _JACOBIAN_PLANS.get(grid.n)
    do_x(psi, out=px)
    do_y(psi, out=py)
    de_x(a, out=ax)
    de_y(a, out=ay)
    # t1 into acc
    np.multiply(px, ay, out=acc)
    np.multiply(py, ax, out=prod)
    np.subtract(acc, prod, out=acc)
    # t2: ay and then ax are free once their products with psi are taken,
    # and each product is free once it is differenced
    np.multiply(psi, ay, out=prod)
    do_x(prod, out=ay)
    np.multiply(psi, ax, out=prod)
    do_y(prod, out=ax)
    np.subtract(ay, ax, out=ay)
    np.add(acc, ay, out=acc)
    # t3
    np.multiply(px, a, out=prod)
    do_y(prod, out=ay)
    np.multiply(py, a, out=prod)
    do_x(prod, out=ax)
    np.subtract(ay, ax, out=ay)
    np.add(acc, ay, out=acc)
    np.divide(acc, 3.0, out=acc)
    return coeffs_from_nodal(acc, Basis.NEUMANN_COSINE, grid, out=out)


def bilinear_b(v1: Field, v2: Field) -> Field:
    """Advection operator B(v1, v2) = J(G v1, v2): `advection_coeffs` as a field."""
    if v1.grid != v2.grid:
        raise DimensionMismatch("bilinear form arguments live on different grids")
    grid = v1.grid
    psi = dirichlet_poisson(v1)
    psi_nodal = nodal_from_coeffs(psi.coeffs, psi.basis, grid)
    coeffs = advection_coeffs(psi_nodal, nodal_from_coeffs(v2.coeffs, v2.basis, grid), grid)
    return Field(grid, Basis.NEUMANN_COSINE, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Constant estimation
# ---------------------------------------------------------------------------


def _triple_ratio(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray, grid: GridSpec) -> float:
    """|<B(v1, v2), v3>| / (|v1| |grad v2| |grad v3|) of three cosine coefficient arrays.

    Makes the array calls of `bilinear_b(v1, v2)` in its order and sums the
    product of the result's coefficients with v3, so it has the bits of
    `np.sum(bilinear_b(v1, v2).coeffs * v3)`.
    """
    denom = norm_l2(v1) * norm_h1(v2) * norm_h1(v3)
    if denom == 0.0:
        return 0.0
    psi = streamfunction_coeffs(nodal_from_coeffs(v1, Basis.NEUMANN_COSINE, grid), grid)
    psi_nodal = nodal_from_coeffs(psi, Basis.DIRICHLET_SINE, grid)
    b = advection_coeffs(psi_nodal, nodal_from_coeffs(v2, Basis.NEUMANN_COSINE, grid), grid)
    return abs(float(np.sum(b * v3))) / denom


def estimate_constants(grid: GridSpec) -> float:
    """The trilinear constant c_b of B on a grid: a lower bound of its discrete norm.

    c_b is the largest |<B(v1, v2), v3>| / (|v1| |grad v2| |grad v3|) that
    the power method `_power_sweeps` reaches: a ratio that B attains, so a
    lower bound of the norm, not an upper one.  It is a property of the
    discrete operator, so every caller gets one value per n, computed once
    per process.
    """
    return _trilinear_search(grid.n)


@lru_cache(maxsize=None)
def _trilinear_search(n: int) -> float:
    """The largest `_triple_ratio` of the first `SWEEPS` sweeps of `_power_sweeps`.

    Each value is a ratio that B attains on a triple of retained fields, so
    the maximum is a lower bound of the discrete operator norm.  No random
    number enters, so it is reproducible bit for bit.
    """
    return max(itertools.islice(_power_sweeps(GridSpec(n)), SWEEPS))


def _power_sweeps(grid: GridSpec) -> Iterator[float]:
    """The `_triple_ratio` of each sweep of a higher-order power method for c_b, without end.

    An alternating maximisation of <B(v1, v2), v3> over |v1| = 1,
    |grad v2| = 1 and |grad v3| = 1 (De Lathauwer, De Moor & Vandewalle,
    SIAM J. Matrix Anal. Appl. 21, 2000).  Each update is the exact
    maximiser of the form in one argument with the other two fixed, so the
    ratios do not decrease, to round-off.  A sweep synthesises psi = G v1
    once and then alternates `_INNER_STEPS` times

        v3 <- Lambda^-1 B(v1, v2),    v2 <- -Lambda^-1 B(v1, v3),

    each normalised in |grad .|: the power method on the skew form
    (v2, v3) -> <B(v1, v2), v3>, whose maximiser over v2 is
    -Lambda^-1 B(v1, v3) by <B(v1, v2), v3> = -<B(v1, v3), v2>.  It yields
    the ratio of the triple and then sets v1 <- g / |g|, g the gradient of
    the form in v1 (`_form_gradient`).  The fixed start is v1 = 1 on
    k + l <= 2 and v2 = 1 / (1 + k + l) on k, l <= 2, on the retained modes.
    """
    mask = retained_mask(grid, Basis.NEUMANN_COSINE)
    k, l = np.ogrid[: grid.n + 1, : grid.n + 1]
    v1 = np.where(k + l <= 2, 1.0, 0.0) * mask
    v2 = np.where((k <= 2) & (l <= 2), 1.0 / (1 + k + l), 0.0) * mask
    inverse_lam = np.divide(1.0, laplacian_eigenvalues(grid), out=np.zeros(grid.shape), where=mask)

    def bracket_solve(psi_nodal: np.ndarray, v: np.ndarray, sign: float) -> np.ndarray:
        """sign Lambda^-1 B(v1, v), normalised in |grad .|, from psi = G v1 on the lattice."""
        b = advection_coeffs(psi_nodal, nodal_from_coeffs(v, Basis.NEUMANN_COSINE, grid), grid)
        b *= inverse_lam
        return b * (sign / norm_h1(b))

    while True:
        psi = streamfunction_coeffs(nodal_from_coeffs(v1, Basis.NEUMANN_COSINE, grid), grid)
        psi_nodal = nodal_from_coeffs(psi, Basis.DIRICHLET_SINE, grid)
        for _ in range(_INNER_STEPS):
            v3 = bracket_solve(psi_nodal, v2, 1.0)
            v2 = bracket_solve(psi_nodal, v3, -1.0)
        yield _triple_ratio(v1, v2, v3, grid)
        g = _form_gradient(v2, v3, grid)
        v1 = g / norm_l2(g)


def _form_gradient(v2: np.ndarray, v3: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Cosine coefficients of g with <g, v1> = <B(v1, v2), v3> for every retained v1.

    The form is linear in v1, so g is one pass back through the chain of
    `_triple_ratio`: the cosine analysis of the bracket, the three Arakawa
    forms in psi (v2's lattice values a held fixed), the zero edges and
    sine synthesis of psi, the Poisson divisors, the sine analysis and the
    cosine synthesis of v1.  Every map is applied as its transposed dense
    matrix, the difference operators built from their two off-diagonals and
    the transforms from `_line_matrix`, which is the FFT path's map to
    round-off, so one code serves every n.
    """
    n = grid.n
    De, Do = (np.diag(lower, -1) + np.diag(upper, 1) for lower, upper, _ in _difference_operators(n))

    def back(kind: str, synthesis: bool, x: np.ndarray) -> np.ndarray:
        m = _line_matrix(n, kind, synthesis)
        return m.T @ x @ m

    c = back("cos", False, v3)  # the form's gradient in the bracket's lattice values
    a = nodal_from_coeffs(v2, Basis.NEUMANN_COSINE, grid)
    ax, ay = De @ a, a @ De.T
    c_do, do_c = c @ Do, Do.T @ c
    g = Do.T @ (c * ay) - (c * ax) @ Do + ay * do_c - ax * c_do + Do.T @ (a * c_do) - (a * do_c) @ Do
    g /= 3.0
    g[::n] = 0.0
    g[:, ::n] = 0.0
    g = back("sin", True, g) / _poisson_divisors(n)
    g = back("cos", True, back("sin", False, g))
    return g * retained_mask(grid, Basis.NEUMANN_COSINE)

"""Elliptic solution operators, diffusion semigroup and the advection bilinear form.

The streamfunction solve, the Neumann boundary lift, the mean-zero Laplacian
with its heat semigroup, and an Arakawa-type discrete Jacobian are collected
here together with numerical estimates of the constants that enter the
contraction analysis.  The lift is a plain (n+1, K) coefficient array from
`lifting_matrix`; `neumann_lift` and the coefficient kernel
`noise.OUKernel` are the only places that build it.

The load-bearing discrete property is exact skew-symmetry of the advection
operator: `bilinear_b` antisymmetrizes the Jacobian trilinear form in its
last two arguments (via the exact weighted adjoint), so

    <B(v1, v2), v2> = 0      and      <B(v1, v2), v3> = -<B(v1, v3), v2>

hold to round-off for every retained field, not just asymptotically.  Every
energy estimate downstream relies on this.

The Jacobian's difference operators are zero-diagonal tridiagonal, stored
as their two off-diagonals.  From n = `fields.DENSE_BELOW_N` cells per side
they are applied as O(n)-per-line slice stencils; on smaller grids one BLAS
matmul against the dense matrix is faster, as it is for the transforms in
`fields`, which switch at the same size.  At power-of-two n both forms give
the same bits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .fields import (
    DENSE_BELOW_N,
    Basis,
    BoundaryField,
    DimensionMismatch,
    Field,
    GridSpec,
    coeffs_from_nodal,
    inner,
    laplacian_eigenvalues,
    norm_h1,
    norm_l2,
    random_field,
    retained_mask,
)

LAMBDA1 = np.pi**2  # first eigenvalue of the mean-zero Neumann Laplacian
C_GX_EXACT = 1.0 / (2.0 * np.pi)  # max_k,l k*pi / (pi^2 (k^2+l^2)), at (1,1)


@dataclass(frozen=True)
class OperatorConstants:
    """Constants of the discrete operators used by the condition evaluator.

    lambda1 is the first mean-zero Neumann eigenvalue and c_gx bounds
    |G(z)_x| / |z|, both exact on the mode lattice.  c_b is an empirical
    supremum over random triples refined by local ascent, hence a lower
    bound of the true discrete trilinear norm.
    """

    lambda1: float
    c_b: float
    c_gx: float

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Poisson solve and spectral Laplacian machinery
# ---------------------------------------------------------------------------


def streamfunction_coeffs(nodal: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Sine coefficients of psi with lap(psi) = u, psi = 0 on the boundary, from u's lattice values.

    Works for any basis of u: the source is read on the interior lattice
    and inverted mode-by-mode in the sine family, where the discrete
    Laplacian is diagonal with eigenvalue -pi^2 (k^2 + l^2).
    """
    src = coeffs_from_nodal(nodal, Basis.DIRICHLET_SINE, grid)
    lam = laplacian_eigenvalues(grid)
    psi = np.zeros(grid.shape)
    mask = retained_mask(grid, Basis.DIRICHLET_SINE)
    psi[mask] = -src[mask] / lam[mask]
    return psi


def dirichlet_poisson(u: Field) -> Field:
    """Solve lap(psi) = u with psi = 0 on the boundary: `streamfunction_coeffs` as a field."""
    return Field(u.grid, Basis.DIRICHLET_SINE, coeffs=streamfunction_coeffs(u.nodal, u.grid))


def semigroup(f: Field, nu: float, t: float) -> Field:
    """Heat semigroup S(t) = exp(-t A) acting on a mean-zero cosine field."""
    _require_neumann(f)
    if t < 0:
        raise ValueError(f"semigroup requires t >= 0, got {t}")
    decay = np.exp(-nu * t * laplacian_eigenvalues(f.grid))
    return Field(f.grid, Basis.NEUMANN_COSINE, coeffs=decay * f.coeffs)


def _require_neumann(f: Field):
    if f.basis is not Basis.NEUMANN_COSINE:
        raise DimensionMismatch(f"operator expects NEUMANN_COSINE, got {f.basis.name}")


# ---------------------------------------------------------------------------
# Neumann lift of boundary data on the left edge
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _edge_scales(n: int) -> np.ndarray:
    c = np.full(n + 1, np.sqrt(2.0))
    c[0] = 1.0
    c[n] = 0.0  # Nyquist row is outside the retained set
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
    give the same leading columns.
    """
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    if not 1 <= n_modes <= grid.n - 1:
        raise ValueError(f"edge mode count must be in 1..{grid.n - 1}")
    c = _edge_scales(grid.n)
    m = np.arange(grid.n + 1, dtype=float)[:, np.newaxis]
    k = np.arange(1, n_modes + 1, dtype=float)[np.newaxis, :]
    return c[:, np.newaxis] / (nu * np.pi**2 * (k**2 + m**2))


def neumann_lift(g: BoundaryField, nu: float) -> Field:
    """Lift edge data to the interior: -nu lap(u) = 0 with flux datum g.

    The flux convention is variational, nu * du/dn = g on {0} x (0,1) and
    zero on the other sides; `boundary_flux` reads the datum back from the
    result exactly.
    """
    lift = lifting_matrix(g.grid, nu, n_modes=g.coeffs.size)
    coeffs = np.zeros(g.grid.shape)
    coeffs[:, 1 : 1 + g.coeffs.size] = lift * g.coeffs[np.newaxis, :]
    coeffs[~retained_mask(g.grid, Basis.NEUMANN_COSINE)] = 0.0
    return Field(g.grid, Basis.NEUMANN_COSINE, coeffs=coeffs)


def boundary_flux(u: Field, nu: float) -> BoundaryField:
    """Left-edge flux readout: the edge-delta-layer content of A(u).

    A discretely harmonic field with edge datum g satisfies
    nu * lambda_(m,k) * u_(m,k) = c_m * g_k for every x-mode m, i.e. A(u)
    is exactly the truncated edge delta layer scaled by g.  The functional
    returns the least-squares layer coefficients; `harmonicity_residual`
    measures what A(u) leaves outside the layer.
    """
    grid = u.grid
    c = _edge_scales(grid.n)
    au = nu * laplacian_eigenvalues(grid) * u.coeffs
    flux = (c @ au[:, 1 : grid.n]) / float(np.sum(c**2))
    return BoundaryField(grid, flux)


def harmonicity_residual(u: Field, nu: float) -> float:
    """Relative part of A(u) not explained by a left-edge flux layer."""
    grid = u.grid
    au = nu * laplacian_eigenvalues(grid) * u.coeffs
    layer = np.zeros(grid.shape)
    layer[:, 1 : grid.n] = np.outer(_edge_scales(grid.n), boundary_flux(u, nu).coeffs)
    denom = float(np.linalg.norm(au))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(au - layer)) / denom


# ---------------------------------------------------------------------------
# Arakawa Jacobian and exactly skew-symmetric bilinear form
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _difference_operators(n: int):
    """Centered differences with reflection closures, and their weighted adjoints.

    'even' mirrors the neighbour value across the boundary (natural for
    cosine-family data), 'odd' mirrors with a sign flip (sine family, and
    the flux-form outer differences).  Adjoints are taken in the trapezoid
    inner product so the Jacobian's adjoint is exact, not approximate.

    Each operator is zero-diagonal tridiagonal on the n+1 lattice nodes and
    is returned as (lower, upper, dense): lower[i] = D[i+1, i],
    upper[i] = D[i, i+1], and the dense matrix only below DENSE_BELOW_N.
    At power-of-two n every coefficient is a power of two, so the stencil
    and the matmul round once per entry and agree bit for bit.
    Returns the operators (De, Do, DeA, DoA).
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
    w = np.ones(n + 1)
    w[0] = 0.5
    w[-1] = 0.5
    # (diag(1/w) D^T diag(w))[i, j] = D[j, i] * w[j] / w[i]
    ratio = w[1:] / w[:-1]

    def op(lower, upper):
        dense = None
        if n < DENSE_BELOW_N:
            dense = np.diag(lower, -1) + np.diag(upper, 1)
        return lower, upper, dense

    return (
        op(lower_e, upper_e),
        op(lower_o, upper_o),
        op(upper_e / ratio, lower_e * ratio),
        op(upper_o / ratio, lower_o * ratio),
    )


def _diff(op, a: np.ndarray, axis: int) -> np.ndarray:
    """Apply one difference operator along an axis of a nodal array."""
    lower, upper, dense = op
    if dense is not None:
        return dense @ a if axis == 0 else a @ dense.T
    out = np.empty_like(a)
    src, dst = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    np.multiply(src[1:], upper[:, np.newaxis], out=dst[:-1])
    dst[-1] = 0.0
    dst[1:] += lower[:, np.newaxis] * src[:-1]
    return out


def _jacobian_nodal(psi: np.ndarray, px: np.ndarray, py: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Bracket J(psi, q) = psi_x q_y - psi_y q_x: the Arakawa average of three forms.

    px, py are the odd differences of psi along each axis (`_grad_nodal`).
    """
    De, Do, _, _ = _difference_operators(psi.shape[0] - 1)
    qx, qy = _diff(De, q, 0), _diff(De, q, 1)
    t1 = px * qy - py * qx
    t2 = _diff(Do, psi * qy, 0) - _diff(Do, psi * qx, 1)
    t3 = _diff(Do, px * q, 1) - _diff(Do, py * q, 0)
    return (t1 + t2 + t3) / 3.0


def _jacobian_adjoint_nodal(psi: np.ndarray, px: np.ndarray, py: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adjoint of q -> J(psi, q) in the trapezoid inner product."""
    _, _, DeA, DoA = _difference_operators(psi.shape[0] - 1)
    bx, by = _diff(DoA, b, 0), _diff(DoA, b, 1)
    t1 = _diff(DeA, px * b, 1) - _diff(DeA, py * b, 0)
    t2 = _diff(DeA, psi * bx, 1) - _diff(DeA, psi * by, 0)
    t3 = px * by - py * bx
    return (t1 + t2 + t3) / 3.0


def _grad_nodal(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Odd-reflection differences of a streamfunction along both axes."""
    Do = _difference_operators(psi.shape[0] - 1)[1]
    return _diff(Do, psi, 0), _diff(Do, psi, 1)


def advection_coeffs(psi: np.ndarray, a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Cosine coefficients of J(psi, a), skew-symmetrized exactly, from lattice values.

    The raw Jacobian is averaged with minus its weighted adjoint in the
    second slot, which enforces <B(v1,v2),v2> = 0 and the antisymmetry
    <B(v1,v2),v3> = -<B(v1,v3),v2> to round-off on the retained modes.
    The Arakawa terms' lattice temporaries are freed when this call
    returns, so a caller does not hold them through the rest of its work.
    """
    px, py = _grad_nodal(psi)
    skew = 0.5 * (_jacobian_nodal(psi, px, py, a) - _jacobian_adjoint_nodal(psi, px, py, a))
    return coeffs_from_nodal(skew, Basis.NEUMANN_COSINE, grid)


def bilinear_b(v1: Field, v2: Field) -> Field:
    """Advection operator B(v1, v2) = J(G v1, v2): `advection_coeffs` as a field."""
    if v1.grid != v2.grid:
        raise DimensionMismatch("bilinear form arguments live on different grids")
    grid = v1.grid
    coeffs = advection_coeffs(dirichlet_poisson(v1).nodal, v2.nodal, grid)
    return Field(grid, Basis.NEUMANN_COSINE, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Constant estimation
# ---------------------------------------------------------------------------


def _triple_ratio(v1: Field, v2: Field, v3: Field) -> float:
    denom = norm_l2(v1) * norm_h1(v2) * norm_h1(v3)
    if denom == 0.0:
        return 0.0
    return abs(inner(bilinear_b(v1, v2), v3)) / denom


def estimate_constants(
    grid: GridSpec,
    trials: int = 200,
    seed: int = 0,
    ascent_steps: int = 120,
) -> OperatorConstants:
    """Estimate the operator constants on a given grid.

    lambda1 and c_gx are computed exactly from the mode lattice.  c_b is
    the running supremum of the trilinear ratio over `trials` random
    triples, refined by a perturbation ascent anchored at the best triple
    among the first 100 samples; anchoring makes the estimate monotone
    nondecreasing in `trials` for a fixed seed.  It is a lower bound of
    the discrete operator norm.
    """
    if trials < 100:
        raise ValueError("constant estimation needs at least 100 trials")

    # exact mode-wise constants
    ks = np.arange(1, grid.n)
    kk, ll = np.meshgrid(ks, ks, indexing="ij")
    c_gx = float(np.max(kk * np.pi / (np.pi**2 * (kk**2 + ll**2))))

    rng = np.random.default_rng(seed)
    slopes = (0.0, 0.6, 1.2)
    best_val = -1.0
    best_anchor = None
    sup = 0.0
    for t in range(trials):
        slope = slopes[t % len(slopes)]
        triple = tuple(random_field(grid, rng, slope=slope) for _ in range(3))
        r = _triple_ratio(*triple)
        sup = max(sup, r)
        if t < 100 and r > best_val:
            best_val = r
            best_anchor = triple

    # local perturbation ascent from the prefix-stable anchor
    ascent_rng = np.random.default_rng((seed, 0x5EED))
    cur = best_anchor
    cur_val = best_val
    step = 0.5
    stale = 0
    for _ in range(ascent_steps):
        cand = tuple(
            Field(
                grid,
                Basis.NEUMANN_COSINE,
                coeffs=(f.coeffs + step * ascent_rng.standard_normal(grid.shape))
                * retained_mask(grid, Basis.NEUMANN_COSINE),
            )
            for f in cur
        )
        val = _triple_ratio(*cand)
        if val > cur_val:
            cur, cur_val, stale = cand, val, 0
        else:
            stale += 1
            if stale >= 12:
                step *= 0.6
                stale = 0
    sup = max(sup, cur_val)

    return OperatorConstants(lambda1=LAMBDA1, c_b=sup, c_gx=c_gx)

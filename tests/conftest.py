import numpy as np
import pytest

from qgsync.dynamics import dealias, evolve, start_state
from qgsync.fields import (
    Basis,
    Field,
    GridSpec,
    coeffs_from_nodal,
    derivative,
    nodal_from_coeffs,
    retained_mask,
)
from qgsync.noise import OUKernel
from qgsync.operators import advection_coeffs, streamfunction_coeffs


@pytest.fixture
def grid32():
    return GridSpec(32)


@pytest.fixture
def grid64():
    return GridSpec(64)


@pytest.fixture
def field_inits(monkeypatch):
    """One-element list counting `Field.__init__` calls from now on."""
    count = [0]
    init = Field.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", counted)
    return count


def evolve_fields(t, stream, fields, params, cov1, cov2, check_cfl=True):
    """`evolve` from start fields, under a kernel of (params, cov1, cov2) on the first field's grid at the stream's dt."""
    kernel = OUKernel(fields[0].grid, params, cov1, cov2, stream.dt)
    return evolve(t, stream, start_state(kernel, stream, fields), check_cfl)


def random_field(grid, basis=Basis.NEUMANN_COSINE, seed=0, scale=1.0, slope=0.0):
    """Gaussian coefficients on the retained modes, optional spectral slope."""
    rng = np.random.default_rng(seed)
    k = np.arange(grid.n + 1, dtype=float)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    envelope = (1.0 + kx**2 + ky**2) ** (-slope / 2.0)
    coeffs = scale * rng.standard_normal(grid.shape) * envelope
    coeffs[~retained_mask(grid, basis)] = 0.0
    return Field(grid, basis, coeffs=coeffs)


def mode_field(grid, basis, modes):
    """Field from a {(k, l): amplitude} dict; `Field` rejects non-retained modes."""
    coeffs = np.zeros(grid.shape)
    for kl, amp in modes.items():
        coeffs[kl] = amp
    return Field(grid, basis, coeffs=coeffs)


def nodes(grid):
    """Lattice coordinates 0, h, ..., 1 along either axis."""
    return np.arange(grid.n + 1) * grid.h


def trapezoid_quadrature(grid, values_a, values_b):
    """Independent trapezoid quadrature of a product on the closed lattice."""
    w = np.ones(grid.n + 1)
    w[0] = w[-1] = 0.5
    return grid.h**2 * float(np.sum(np.outer(w, w) * values_a * values_b))


def dealiased(f: Field) -> Field:
    """A field with its modes above the 2/3 cutoff zeroed."""
    return Field(f.grid, f.basis, coeffs=dealias(f.coeffs))


def nodal(f: Field) -> np.ndarray:
    """A field's lattice values."""
    return nodal_from_coeffs(f.coeffs, f.basis, f.grid)


def inner(f: Field, g: Field) -> float:
    """L2(D) inner product of two fields in one basis, by the coefficient Parseval identity."""
    return float(np.sum(f.coeffs * g.coeffs))


def advection(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Cosine coefficients of B(v1, v2) for two cosine coefficient arrays, from the array functions the stepper calls."""
    grid = GridSpec(len(v1) - 1)
    u1 = nodal_from_coeffs(v1, Basis.NEUMANN_COSINE, grid)
    psi = nodal_from_coeffs(streamfunction_coeffs(u1, grid), Basis.DIRICHLET_SINE, grid)
    return advection_coeffs(psi, nodal_from_coeffs(v2, Basis.NEUMANN_COSINE, grid), grid)


def beta_coeffs(v: np.ndarray) -> np.ndarray:
    """Cosine coefficients of G(v)_x, the beta term, by the 2D round trip through psi_x's lattice values.

    `v` is a cosine coefficient array.  The reference form: the stepper
    transforms only the y axis (`fields.cosine_from_cosine_sine`), which
    agrees with this to round-off.
    """
    grid = GridSpec(len(v) - 1)
    psi = streamfunction_coeffs(nodal_from_coeffs(v, Basis.NEUMANN_COSINE, grid), grid)
    psi_x = derivative(psi, Basis.DIRICHLET_SINE, 0)
    return coeffs_from_nodal(nodal_from_coeffs(*psi_x, grid), Basis.NEUMANN_COSINE, grid)


def chain_entry(kernel, plane: int, k: int, l: int) -> int:
    """Position in a chain vector of `kernel` of mode (k, l) of plane `plane` (0 for zw1, 1 for zw2)."""
    flat = np.ravel_multi_index((plane, k, l), (2, *kernel.grid.shape))
    pos = int(np.searchsorted(kernel.index, flat))
    assert kernel.index[pos] == flat, f"mode {(k, l)} of plane {plane} is not on the chain's support"
    return pos

import numpy as np
import pytest

from qgsync.fields import (
    Basis,
    Field,
    GridSpec,
    coeffs_from_nodal,
    derivative,
    nodal_from_coeffs,
    retained_mask,
)
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


def advection(v1: Field, v2: Field) -> np.ndarray:
    """Cosine coefficients of B(v1, v2), from the array functions the stepper calls."""
    psi = nodal_from_coeffs(streamfunction_coeffs(v1.nodal, v1.grid), Basis.DIRICHLET_SINE, v1.grid)
    return advection_coeffs(psi, v2.nodal, v1.grid)


def beta_coeffs(v: Field) -> np.ndarray:
    """Cosine coefficients of G(v)_x, the beta term, from the array functions the stepper calls."""
    psi_x = derivative(streamfunction_coeffs(v.nodal, v.grid), Basis.DIRICHLET_SINE, 0)
    return coeffs_from_nodal(nodal_from_coeffs(*psi_x, v.grid), Basis.NEUMANN_COSINE, v.grid)

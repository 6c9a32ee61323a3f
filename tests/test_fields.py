"""Field core: transforms, inner products, norms, gradients."""

import numpy as np
import pytest

from qgsync.fields import (
    Basis,
    BoundaryField,
    DimensionMismatch,
    Field,
    GridSpec,
    MissingRepresentation,
    NonFiniteField,
    gradient,
    inner,
    load_field,
    norm_h1,
    norm_l2,
    quadrature_inner,
    retained_mask,
    save_field,
)

from conftest import random_field, trapezoid_quadrature


class TestGridSpec:
    def test_spacing_times_n_is_one(self):
        g = GridSpec(32)
        assert g.h * g.n == 1.0

    @pytest.mark.parametrize("n", [4, 7, 9, 31])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            GridSpec(n)

    def test_node_layout(self):
        g = GridSpec(8)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert g.shape == (9, 9)


class TestTransforms:
    @pytest.mark.parametrize("basis", list(Basis))
    def test_round_trip(self, grid32, basis):
        f = random_field(grid32, basis, seed=1)
        g = Field.from_nodal(grid32, basis, f.nodal)
        rel = np.max(np.abs(g.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
        assert rel < 1e-12

    def test_single_sine_mode_single_coefficient(self, grid32):
        x = grid32.nodes
        vals = np.outer(2.0 * np.sin(3 * np.pi * x), np.sin(5 * np.pi * x))
        f = Field.from_nodal(grid32, Basis.DIRICHLET_SINE, vals)
        coeffs = f.coeffs.copy()
        assert coeffs[3, 5] == pytest.approx(1.0, abs=1e-12)
        coeffs[3, 5] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-12

    def test_dirichlet_nodal_vanishes_on_boundary(self, grid32):
        f = random_field(grid32, Basis.DIRICHLET_SINE, seed=2)
        nod = f.nodal
        assert np.all(nod[0, :] == 0) and np.all(nod[-1, :] == 0)
        assert np.all(nod[:, 0] == 0) and np.all(nod[:, -1] == 0)

    @pytest.mark.parametrize("kind", ["sin", "cos"])
    def test_against_direct_matrix_transform(self, kind):
        # direct O(n^2) evaluation is the correctness oracle for the fast path
        g = GridSpec(12)
        x = g.nodes
        rng = np.random.default_rng(3)
        n = g.n
        if kind == "cos":
            c = np.full(n + 1, np.sqrt(2.0))
            c[0] = 1.0
            M = np.array([[c[k] * np.cos(k * np.pi * xi) for k in range(n + 1)] for xi in x])
            coef = rng.standard_normal(n + 1)
            coef[n] = 0.0
            basis = Basis.NEUMANN_COSINE
            coeffs2d = np.zeros(g.shape)
            coeffs2d[: n + 1, 0] = coef
            coeffs2d[~retained_mask(g, basis)] = 0.0
        else:
            M = np.array(
                [[np.sqrt(2.0) * np.sin(k * np.pi * xi) for k in range(1, n)] for xi in x]
            )
            coef = rng.standard_normal(n - 1)
            basis = Basis.DIRICHLET_SINE
            coeffs2d = np.zeros(g.shape)
            coeffs2d[1:n, 1] = coef
        f = Field(g, basis, coeffs=coeffs2d)
        # column 0 (cos) / column 1 (sin) of the nodal array matches the
        # direct matrix synthesis along x
        col = 0 if kind == "cos" else 1
        ycol = f.nodal[:, col]
        if kind == "cos":
            direct = M @ coeffs2d[:, 0]
        else:
            yfactor = np.sqrt(2.0) * np.sin(np.pi * x[col])
            direct = (M @ coef) * yfactor
        assert np.max(np.abs(ycol - direct)) < 1e-12 * max(1.0, np.max(np.abs(direct)))


class TestInnerAndNorms:
    def test_orthonormality(self, grid32):
        e1 = Field.from_modes(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1.0})
        e2 = Field.from_modes(grid32, Basis.NEUMANN_COSINE, {(2, 3): 1.0})
        assert inner(e1, e1) == pytest.approx(1.0, abs=1e-14)
        assert inner(e1, e2) == pytest.approx(0.0, abs=1e-14)

    def test_inner_matches_quadrature_oracle(self, grid64):
        # oracle: plain trapezoid quadrature of the nodal product
        f = random_field(grid64, seed=4, slope=1.0)
        g = random_field(grid64, seed=5, slope=1.0)
        quad = trapezoid_quadrature(grid64, f.nodal, g.nodal)
        assert abs(inner(f, g) - quad) < 1e-10
        assert abs(inner(f, f) - trapezoid_quadrature(grid64, f.nodal, f.nodal)) < 1e-10

    def test_package_quadrature_agrees(self, grid32):
        f = random_field(grid32, seed=6)
        g = random_field(grid32, seed=7)
        assert quadrature_inner(f, g) == pytest.approx(inner(f, g), abs=1e-10)

    def test_inner_symmetric_bilinear(self, grid32):
        f = random_field(grid32, seed=8)
        g = random_field(grid32, seed=9)
        h = random_field(grid32, seed=10)
        assert inner(f, g) == pytest.approx(inner(g, f), rel=1e-14)
        lhs = inner(f + 2.0 * h, g)
        assert lhs == pytest.approx(inner(f, g) + 2.0 * inner(h, g), rel=1e-12)

    def test_norm_of_zero(self, grid32):
        assert norm_l2(Field.zeros(grid32, Basis.NEUMANN_COSINE)) == 0.0

    def test_h1_norm_of_first_mode_is_pi(self, grid32):
        e1 = Field.from_modes(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1.0})
        assert norm_h1(e1) == pytest.approx(np.pi, rel=1e-14)
        # finite-difference oracle on the nodal values
        nod = e1.nodal
        gx = np.gradient(nod, grid32.h, axis=0)
        fd = np.sqrt(trapezoid_quadrature(grid32, gx, gx))
        assert fd == pytest.approx(np.pi, rel=5e-3)

    def test_poincare_inequality(self, grid32):
        # discrete eigenvalue bound: exhaustive check of the mode constants
        from qgsync.fields import laplacian_eigenvalues

        lam = laplacian_eigenvalues(grid32)
        mask = retained_mask(grid32, Basis.NEUMANN_COSINE)
        assert np.min(lam[mask]) == pytest.approx(np.pi**2, rel=1e-14)
        for seed in range(100):
            f = random_field(grid32, seed=seed)
            assert norm_h1(f) >= np.pi * norm_l2(f) * (1 - 1e-12)

    def test_mismatch_errors(self, grid32, grid64):
        f = random_field(grid32, seed=11)
        g = random_field(grid64, seed=12)
        with pytest.raises(DimensionMismatch):
            inner(f, g)
        h = random_field(grid32, Basis.DIRICHLET_SINE, seed=13)
        with pytest.raises(DimensionMismatch):
            inner(f, h)


class TestGradient:
    def test_zero_field(self, grid32):
        gx, gy = gradient(Field.zeros(grid32, Basis.NEUMANN_COSINE))
        assert norm_l2(gx) == 0.0 and norm_l2(gy) == 0.0

    def test_analytic_derivative_of_cosine_mode(self, grid32):
        # d/dx cos(pi x) = -pi sin(pi x)
        f = Field.from_nodal(grid32, Basis.NEUMANN_COSINE, np.outer(np.cos(np.pi * grid32.nodes), np.ones(grid32.n + 1)))
        gx, gy = gradient(f)
        x = grid32.nodes
        expected = np.outer(-np.pi * np.sin(np.pi * x), np.ones(grid32.n + 1))
        assert np.max(np.abs(gx.nodal - expected)) < 1e-12
        assert norm_l2(gy) < 1e-12

    def test_matches_centered_differences(self):
        # second-order oracle: same band-limited function on both grids,
        # centered-difference error should shrink ~4x from n=32 to n=64
        rng = np.random.default_rng(14)
        modes = {(k, l): rng.standard_normal() for k in range(6) for l in range(6) if (k, l) != (0, 0)}
        errs = {}
        for n in (32, 64):
            g = GridSpec(n)
            f = Field.from_modes(g, Basis.NEUMANN_COSINE, modes)
            gx, _ = gradient(f)
            nod = f.nodal
            fd = (nod[2:, :] - nod[:-2, :]) / (2 * g.h)
            errs[n] = np.max(np.abs(gx.nodal[1:-1, :] - fd))
        ratio = errs[32] / errs[64]
        assert 3.0 < ratio < 5.0

    def test_h1_equals_gradient_l2(self, grid32):
        f = random_field(grid32, seed=15)
        gx, gy = gradient(f)
        total = np.sqrt(norm_l2(gx) ** 2 + norm_l2(gy) ** 2)
        assert total == pytest.approx(norm_h1(f), rel=1e-12)


class TestFieldContracts:
    def test_mean_zero_enforced(self, grid32):
        coeffs = np.zeros(grid32.shape)
        coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            Field(grid32, Basis.NEUMANN_COSINE, coeffs=coeffs)

    def test_mean_projected_from_nodal(self, grid32):
        f = Field.from_nodal(grid32, Basis.NEUMANN_COSINE, np.ones(grid32.shape))
        assert f.coeffs[0, 0] == 0.0

    def test_nonfinite_rejected(self, grid32):
        bad = np.zeros(grid32.shape)
        bad[3, 3] = np.nan
        with pytest.raises(ValueError):
            Field(grid32, Basis.NEUMANN_COSINE, nodal=bad)

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rep", ["coeffs", "nodal"])
    def test_nonfinite_rejected_in_every_basis(self, grid32, basis, bad, rep):
        on = tuple(np.argwhere(retained_mask(grid32, basis))[0])
        off = tuple(np.argwhere(~retained_mask(grid32, basis))[0])
        for slot in (on, off):
            arr = np.zeros(grid32.shape)
            arr[slot] = bad
            with pytest.raises(NonFiniteField):
                Field(grid32, basis, **{rep: arr})

    @pytest.mark.parametrize("basis", list(Basis))
    def test_nonzero_off_mask_coefficient_rejected(self, grid32, basis):
        off = ~retained_mask(grid32, basis)
        for slot in map(tuple, np.argwhere(off)):
            arr = np.zeros(grid32.shape)
            arr[slot] = 1e-300
            with pytest.raises(ValueError, match="retained mode set"):
                Field(grid32, basis, coeffs=arr)
        # negative zero is zero, and nodal values carry no mode constraint
        arr = np.zeros(grid32.shape)
        arr[off] = -0.0
        Field(grid32, basis, coeffs=arr)
        Field(grid32, basis, nodal=np.ones(grid32.shape))

    def test_requires_some_representation(self, grid32):
        with pytest.raises(MissingRepresentation):
            Field(grid32, Basis.NEUMANN_COSINE)

    def test_immutable(self, grid32):
        f = random_field(grid32, seed=16)
        with pytest.raises(ValueError):
            f.coeffs[1, 1] = 7.0

    def test_save_load_round_trip(self, grid32, tmp_path):
        f = random_field(grid32, seed=17)
        path = tmp_path / "snap.field"
        save_field(path, f, time=1.25)
        g, t = load_field(path)
        assert t == 1.25
        assert np.array_equal(g.coeffs, f.coeffs)


class TestBoundaryField:
    def test_values_round_trip(self, grid32):
        g = BoundaryField(grid32, [0.3, -0.2, 0.1])
        h = BoundaryField.from_values(grid32, g.values())
        assert np.max(np.abs(h.coeffs[:3] - g.coeffs)) < 1e-12
        assert np.max(np.abs(h.coeffs[3:])) < 1e-12

    def test_rejects_nonzero_average(self, grid32):
        with pytest.raises(ValueError):
            BoundaryField.from_values(grid32, np.ones(grid32.n + 1))

    def test_mean_zero_by_construction(self, grid32):
        g = BoundaryField(grid32, [1.0])
        w = np.ones(grid32.n + 1)
        w[0] = w[-1] = 0.5
        mean = grid32.h * float(np.sum(w * g.values()))
        assert abs(mean) < 1e-14

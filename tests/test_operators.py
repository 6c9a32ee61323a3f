"""Elliptic operators, semigroup, Jacobian and the bilinear form identities."""

import numpy as np
import pytest

from qgsync.fields import (
    Basis,
    BoundaryField,
    DimensionMismatch,
    Field,
    GridSpec,
    inner,
    laplacian_eigenvalues,
    norm_h1,
    norm_l2,
    retained_mask,
)
from qgsync.fields import DENSE_BELOW_N, coeffs_from_nodal
from qgsync.operators import (
    C_GX_EXACT,
    LAMBDA1,
    bilinear_b,
    boundary_flux,
    dirichlet_poisson,
    estimate_constants,
    harmonicity_residual,
    lifting_matrix,
    neumann_lift,
    semigroup,
)
from qgsync.operators import _diff, _difference_operators, _grad_nodal, _jacobian_nodal

from qgsync.noise import NoiseStream, OUKernel, ou_init

from conftest import beta_coeffs, mode_field, nodes, random_field
from test_dynamics import COV1, COV2, PARAMS, masked_field


def raw_jacobian(psi: Field, q: np.ndarray) -> Field:
    """The raw Arakawa bracket J(psi, q) of nodal values q, projected onto the mean-zero cosine family."""
    p = psi.nodal
    out = _jacobian_nodal(p, *_grad_nodal(p), q)
    return Field(psi.grid, Basis.NEUMANN_COSINE, coeffs=coeffs_from_nodal(out, Basis.NEUMANN_COSINE, psi.grid))


class TestDirichletPoisson:
    def test_pure_sine_mode(self, grid32):
        # lap(psi) = u with u = sin(pi x) sin(pi y) gives psi = -u / (2 pi^2)
        u = mode_field(grid32, Basis.DIRICHLET_SINE, {(1, 1): 1.0})
        psi = dirichlet_poisson(u)
        assert psi.coeffs[1, 1] == pytest.approx(-1.0 / (2 * np.pi**2), rel=1e-14)

    def test_zero_maps_to_zero(self, grid32):
        assert norm_l2(dirichlet_poisson(Field.zeros(grid32, Basis.NEUMANN_COSINE))) == 0.0

    def test_residual_oracle(self, grid32):
        # independent check: apply the diagonal sine-space Laplacian to the
        # output and compare nodal values against the source in the interior
        u = random_field(grid32, seed=1, slope=1.0)
        psi = dirichlet_poisson(u)
        lam = laplacian_eigenvalues(grid32)
        lap_psi = Field(grid32, Basis.DIRICHLET_SINE, coeffs=-lam * psi.coeffs)
        diff = lap_psi.nodal[1:-1, 1:-1] - u.nodal[1:-1, 1:-1]
        assert np.max(np.abs(diff)) < 1e-10 * max(norm_l2(u), 1.0)

    def test_residual_in_norm(self, grid32):
        u = random_field(grid32, seed=2)
        psi = dirichlet_poisson(u)
        lam = laplacian_eigenvalues(grid32)
        lap_psi = Field(grid32, Basis.DIRICHLET_SINE, coeffs=-lam * psi.coeffs)
        # compare in the sine basis where the solve is defined
        u_sine = coeffs_from_nodal(u.nodal, Basis.DIRICHLET_SINE, grid32)
        rel = np.linalg.norm(lap_psi.coeffs - u_sine) / np.linalg.norm(u_sine)
        assert rel < 1e-12


class TestNeumannLift:
    def test_matches_classical_profile(self):
        # unit datum cos(pi y): expect cosh(pi(1-x)) cos(pi y) / (pi sinh(pi));
        # away from the forced edge the truncation error is second order
        errs = {}
        for n in (32, 64):
            g = GridSpec(n)
            coeffs = np.zeros(g.n - 1)
            coeffs[0] = 1.0 / np.sqrt(2.0)  # cos(pi y) in the orthonormal edge basis
            bf = BoundaryField(g, coeffs)
            u = neumann_lift(bf, 1.0)
            x = nodes(g)
            expected = np.outer(
                np.cosh(np.pi * (1 - x)), np.cos(np.pi * x)
            ) / (np.pi * np.sinh(np.pi))
            slab = x >= 0.25
            errs[n] = np.max(np.abs(u.nodal[slab, :] - expected[slab, :])) / np.max(
                np.abs(expected)
            )
        assert errs[64] < 2e-4
        assert 3.0 < errs[32] / errs[64] < 6.0

    def test_interior_harmonicity_residual(self, grid32):
        # A(lift) must be exactly an edge flux layer: nothing left outside it
        bf = BoundaryField(grid32, [1.0, -0.4, 0.2])
        u = neumann_lift(bf, 0.7)
        assert harmonicity_residual(u, 0.7) < 1e-12

    def test_harmonicity_residual_detects_bulk(self, grid32):
        # negative control: a generic field is far from edge-harmonic
        f = random_field(grid32, seed=21)
        assert harmonicity_residual(f, 1.0) > 0.1

    def test_fd_laplacian_small_away_from_edge(self, grid32):
        # independent strong-form check on the slab x >= 0.25
        bf = BoundaryField(grid32, [1.0])
        u = neumann_lift(bf, 1.0)
        h = grid32.h
        nod = u.nodal
        lap = (
            nod[:-2, 1:-1] + nod[2:, 1:-1] + nod[1:-1, :-2] + nod[1:-1, 2:]
            - 4 * nod[1:-1, 1:-1]
        ) / h**2
        slab = nodes(grid32)[1:-1] >= 0.25
        assert np.max(np.abs(lap[slab, :])) < 0.05 * np.max(np.abs(nod)) / h

    def test_flux_recovers_datum(self, grid32):
        bf = BoundaryField(grid32, [0.9, 0.0, -0.3, 0.05])
        for nu in (1.0, 0.25):
            u = neumann_lift(bf, nu)
            flux = boundary_flux(u, nu)
            assert np.max(np.abs(flux.coeffs[:4] - bf.coeffs)) < 1e-8
            assert np.max(np.abs(flux.coeffs[4:])) < 1e-8

    def test_zero_datum(self, grid32):
        bf = BoundaryField(grid32, np.zeros(5))
        assert norm_l2(neumann_lift(bf, 1.0)) == 0.0

    def test_linearity(self, grid32):
        g1 = BoundaryField(grid32, [1.0, 0.2])
        g2 = BoundaryField(grid32, [-0.5, 0.8])
        both = BoundaryField(grid32, g1.coeffs + g2.coeffs)
        lhs = neumann_lift(both, 1.0)
        rhs = neumann_lift(g1, 1.0).coeffs + neumann_lift(g2, 1.0).coeffs
        assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-12

    def test_mean_zero_output(self, grid32):
        u = neumann_lift(BoundaryField(grid32, [1.0, 1.0]), 1.0)
        assert u.coeffs[0, 0] == 0.0

    def test_h1_bound(self, grid32):
        # bounded lift: |grad u| <= C |g| with C of order 1/nu
        nu = 0.5
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            bf = BoundaryField(grid32, 0.5 * rng.standard_normal(8))
            u = neumann_lift(bf, nu)
            worst = max(worst, norm_h1(u) / np.linalg.norm(bf.coeffs))
        assert worst < 1.0 / nu

    def test_lifting_matrix_columns_decay(self, grid32):
        # quadratic decay in the x-mode index
        lift = lifting_matrix(grid32, 1.0, 8)
        mags = np.abs(lift[: grid32.n, 0])
        assert np.all(np.diff(mags[1:]) < 0)
        assert mags[20] < mags[2] * 0.02
        assert np.all(np.isfinite(lift))

    def test_lifting_matrix_is_analytic_projection(self, grid32):
        # coefficient of mode (m, k) is exactly c_m / (nu pi^2 (k^2+m^2))
        nu = 1.3
        lift = lifting_matrix(grid32, nu, 4)
        c = np.full(grid32.n + 1, np.sqrt(2.0))
        c[0] = 1.0
        for k in (1, 2):
            m = np.arange(grid32.n)
            analytic = c[: grid32.n] / (nu * np.pi**2 * (k**2 + m**2))
            got = lift[: grid32.n, k - 1]
            assert np.max(np.abs(got - analytic)) < 1e-15
        assert np.all(lift[grid32.n, :] == 0.0)


class TestSemigroup:
    def test_eigenfunction_decay(self, grid32):
        f = mode_field(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1.0})
        nu, t = 0.8, 0.37
        out = semigroup(f, nu, t)
        assert out.coeffs[1, 0] == pytest.approx(np.exp(-nu * np.pi**2 * t), rel=1e-14)

    def test_identity_at_zero(self, grid32):
        f = random_field(grid32, seed=5)
        assert np.array_equal(semigroup(f, 1.0, 0.0).coeffs, f.coeffs)

    def test_semigroup_law(self, grid32):
        f = random_field(grid32, seed=6)
        nu, s, t = 0.6, 0.2, 0.5
        a = semigroup(f, nu, s + t)
        b = semigroup(semigroup(f, nu, s), nu, t)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14 * np.max(np.abs(f.coeffs))

    def test_negative_time_rejected(self, grid32):
        with pytest.raises(ValueError):
            semigroup(random_field(grid32, seed=7), 1.0, -0.1)

    def test_contractivity(self, grid32):
        f = random_field(grid32, seed=8)
        nu, t = 1.0, 0.15
        assert norm_l2(semigroup(f, nu, t)) <= np.exp(-nu * np.pi**2 * t) * norm_l2(f) * (
            1 + 1e-12
        )

    def test_wrong_basis_rejected(self, grid32):
        f = random_field(grid32, Basis.DIRICHLET_SINE, seed=9)
        with pytest.raises(DimensionMismatch):
            semigroup(f, 1.0, 0.1)


class TestJacobian:
    def test_self_bracket_vanishes(self, grid32):
        f = random_field(grid32, Basis.DIRICHLET_SINE, seed=10)
        assert norm_l2(raw_jacobian(f, f.nodal)) < 1e-13 * norm_l2(f) ** 2 / grid32.h

    def test_constant_second_argument(self, grid32):
        psi = random_field(grid32, Basis.DIRICHLET_SINE, seed=11)
        out = raw_jacobian(psi, np.ones(grid32.shape))
        assert norm_l2(out) < 1e-11 * norm_l2(psi) / grid32.h

    def test_analytic_pair_second_order(self):
        # psi = sin(pi x) sin(pi y), q = cos(2 pi x):
        # J = 2 pi^2 sin(pi x) cos(pi y) sin(2 pi x)
        errs = {}
        for n in (32, 64, 128):
            g = GridSpec(n)
            x = nodes(g)
            psi = mode_field(g, Basis.DIRICHLET_SINE, {(1, 1): 0.5})
            q = np.outer(np.cos(2 * np.pi * x), np.ones(g.n + 1))
            out = raw_jacobian(psi, q)
            analytic = (
                2
                * np.pi**2
                * np.outer(np.sin(np.pi * x) * np.sin(2 * np.pi * x), np.cos(np.pi * x))
            )
            errs[n] = np.max(np.abs(out.nodal[1:-1, 1:-1] - analytic[1:-1, 1:-1]))
        assert 3.0 < errs[32] / errs[64] < 5.0
        assert 3.0 < errs[64] / errs[128] < 5.0


def reference_difference_matrices(n):
    """Dense difference matrices as first written: the reference for the stencils."""
    h = 1.0 / n
    eye = np.arange(1, n)
    De = np.zeros((n + 1, n + 1))
    De[eye, eye - 1] = -0.5 / h
    De[eye, eye + 1] = 0.5 / h
    Do = De.copy()
    Do[0, 1] = 1.0 / h
    Do[n, n - 1] = -1.0 / h
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    DeA = np.diag(1.0 / w) @ De.T @ np.diag(w)
    DoA = np.diag(1.0 / w) @ Do.T @ np.diag(w)
    return De, Do, DeA, DoA


class TestDifferenceOperators:
    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_stencil_and_matrix_forms_agree_bitwise(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n + 1, n + 1))
        for op, ref in zip(_difference_operators(n), reference_difference_matrices(n)):
            lower, upper, dense = op
            assert np.array_equal(np.diag(lower, -1) + np.diag(upper, 1), ref)
            assert dense is None or np.array_equal(dense, ref)
            stencil = (lower, upper, None)
            assert np.array_equal(_diff(stencil, a, 0), ref @ a)
            assert np.array_equal(_diff(stencil, a, 1), a @ ref.T)

    @pytest.mark.parametrize("n", [32, 128])
    def test_exact_on_linear_data(self, n):
        # x_i = i h with power-of-two h: every product and difference is
        # exact, so both centred differences return exactly 1 inside
        x = np.arange(n + 1) / n
        a = np.outer(x, np.ones(n + 1))
        for op in _difference_operators(n)[:2]:
            assert np.all(_diff(op, a, 0)[1:-1] == 1.0)
            assert np.all(_diff(op, a.T, 1)[:, 1:-1] == 1.0)

    def test_matrices_only_below_the_stencil_switch(self):
        assert all(op[2] is not None for op in _difference_operators(DENSE_BELOW_N - 2))
        assert all(op[2] is None for op in _difference_operators(DENSE_BELOW_N))


class TestBilinearForm:
    # n = 32 runs the difference operators as matrices, n = 128 as stencils
    def test_self_orthogonality(self):
        for grid in (GridSpec(32), GridSpec(128)):
            for seed in range(25):
                v1 = random_field(grid, seed=3 * seed)
                v2 = random_field(grid, seed=3 * seed + 1)
                val = inner(bilinear_b(v1, v2), v2)
                assert abs(val) <= 1e-12 * norm_l2(v1) * norm_h1(v2) ** 2

    def test_antisymmetry(self):
        for grid in (GridSpec(32), GridSpec(128)):
            for seed in range(25):
                v1 = random_field(grid, seed=100 + 3 * seed)
                v2 = random_field(grid, seed=101 + 3 * seed)
                v3 = random_field(grid, seed=102 + 3 * seed)
                resid = inner(bilinear_b(v1, v2), v3) + inner(bilinear_b(v1, v3), v2)
                scale = norm_l2(v1) * norm_h1(v2) * norm_h1(v3)
                assert abs(resid) <= 1e-12 * scale

    def test_cross_term_inner_product_identity(self, grid32):
        # <(-B(z,w) - B(w,z)), z> == <-B(z,w), z> because <B(w,z), z> = 0
        z = masked_field(grid32, 3, scale=0.5)
        coeff = ou_init(OUKernel(grid32, PARAMS.nu, COV1, COV2, 0.01), NoiseStream(seed=3, dt=0.01))
        w = Field(grid32, Basis.NEUMANN_COSINE, coeffs=coeff.combined())
        b_zw = bilinear_b(z, w).coeffs
        cross = Field(grid32, Basis.NEUMANN_COSINE, coeffs=-(b_zw + bilinear_b(w, z).coeffs))
        lhs = inner(cross, z)
        rhs = inner(Field(grid32, Basis.NEUMANN_COSINE, coeffs=-b_zw), z)
        scale = max(abs(rhs), norm_l2(z) ** 2)
        assert abs(lhs - rhs) < 1e-12 * scale

    def test_consistent_with_raw_jacobian(self, grid32):
        # the skew-symmetrization is a correction of the same order as the
        # discretization error, so B should stay close to J(G v1, v2)
        v1 = random_field(grid32, seed=200, slope=3.0)
        v2 = random_field(grid32, seed=201, slope=3.0)
        raw = raw_jacobian(dirichlet_poisson(v1), v2.nodal)
        skew = bilinear_b(v1, v2)
        assert norm_l2(skew - raw) < 0.15 * norm_l2(raw)

    def test_mean_zero_output(self, grid32):
        out = bilinear_b(random_field(grid32, seed=202), random_field(grid32, seed=203))
        assert out.coeffs[0, 0] == 0.0


class TestBetaTerm:
    def test_zero(self, grid32):
        assert not beta_coeffs(Field.zeros(grid32, Basis.NEUMANN_COSINE)).any()

    def test_single_mode_formula(self, grid32):
        # z = sin(2 pi x) sin(pi y), mean zero -> psi = -z/(5 pi^2),
        # so G(z)_x = -(2/(5 pi)) cos(2 pi x) sin(pi y)
        x = nodes(grid32)
        values = np.outer(np.sin(2 * np.pi * x), np.sin(np.pi * x))
        z = Field(grid32, Basis.NEUMANN_COSINE, coeffs=coeffs_from_nodal(values, Basis.NEUMANN_COSINE, grid32))
        out = Field(grid32, Basis.NEUMANN_COSINE, coeffs=beta_coeffs(z))
        expected = -(2.0 / (5 * np.pi)) * np.outer(np.cos(2 * np.pi * x), np.sin(np.pi * x))
        err = np.max(np.abs(out.nodal - expected))
        assert err < 1e-3  # Nyquist truncation of the sine factor
        # finite-difference oracle on the streamfunction
        psi = dirichlet_poisson(z)
        fd = (psi.nodal[2:, :] - psi.nodal[:-2, :]) / (2 * grid32.h)
        assert np.max(np.abs(fd - expected[1:-1, :])) < 5e-3

    def test_norm_bound(self, grid32):
        # mode-wise bound: |G(z)_x| <= |z| / (2 pi), checked on 1000 fields
        rng = np.random.default_rng(30)
        mask = retained_mask(grid32, Basis.NEUMANN_COSINE)
        for _ in range(1000):
            z = Field(grid32, Basis.NEUMANN_COSINE, coeffs=rng.standard_normal(grid32.shape) * mask)
            assert np.linalg.norm(beta_coeffs(z)) <= C_GX_EXACT * norm_l2(z) * (1 + 1e-12)


class TestConstants:
    def test_exact_constants(self, grid32):
        consts = estimate_constants(grid32, trials=100, seed=1)
        assert consts.lambda1 == pytest.approx(np.pi**2, abs=1e-12)
        assert consts.c_gx == pytest.approx(1.0 / (2 * np.pi), abs=1e-12)
        assert consts.c_gx <= 1.0 / (2 * np.pi) + 1e-12
        assert consts.c_b > 0

    def test_lambda1_is_minimum_eigenvalue(self, grid32):
        lam = laplacian_eigenvalues(grid32)
        mask = retained_mask(grid32, Basis.NEUMANN_COSINE)
        assert LAMBDA1 == pytest.approx(np.min(lam[mask]), rel=1e-15)

    def test_cgx_is_mode_maximum(self):
        ks = np.arange(1, 200)
        kk, ll = np.meshgrid(ks, ks, indexing="ij")
        assert C_GX_EXACT == pytest.approx(
            np.max(kk * np.pi / (np.pi**2 * (kk**2 + ll**2))), rel=1e-15
        )

    def test_monotone_in_trials_and_reproducible(self, grid32):
        vals = [
            estimate_constants(grid32, trials=t, seed=7, ascent_steps=40).c_b
            for t in (100, 140, 180)
        ]
        assert vals[0] <= vals[1] <= vals[2]
        again = estimate_constants(grid32, trials=140, seed=7, ascent_steps=40).c_b
        assert again == vals[1]

    def test_bound_holds_on_samples(self, grid32):
        consts = estimate_constants(grid32, trials=100, seed=3, ascent_steps=20)
        rng = np.random.default_rng(99)
        mask = retained_mask(grid32, Basis.NEUMANN_COSINE)
        for _ in range(50):
            v1, v2, v3 = (
                Field(grid32, Basis.NEUMANN_COSINE, coeffs=rng.standard_normal(grid32.shape) * mask)
                for _ in range(3)
            )
            val = abs(inner(bilinear_b(v1, v2), v3))
            bound = consts.c_b * norm_l2(v1) * norm_h1(v2) * norm_h1(v3)
            assert val <= bound * (1 + 1e-9)

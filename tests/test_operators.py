"""Elliptic operators, semigroup, Jacobian and the bilinear form identities."""

import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from qgsync import dynamics, fields, operators
from qgsync.fields import (
    Basis,
    Field,
    GridSpec,
    laplacian_eigenvalues,
    norm_h1,
    norm_l2,
    retained_mask,
)
from qgsync.fields import DENSE_BELOW_N, coeffs_from_nodal, derivative, nodal_from_coeffs
from qgsync.dynamics import step_imex
from qgsync.operators import (
    C_GX_EXACT,
    LAMBDA1,
    advection_coeffs,
    bilinear_b,
    boundary_flux,
    dirichlet_poisson,
    estimate_constants,
    harmonicity_residual,
    lifting_matrix,
    neumann_lift,
    semigroup,
    streamfunction_coeffs,
)
from qgsync.operators import _diff, _difference_operators, _form_gradient, _power_sweeps, _triple_ratio

from qgsync.noise import ModelParams, NoiseStream, OUKernel, ou_init

from conftest import beta_coeffs, inner, mode_field, model_kernel, nodal, nodes, random_field
from test_dynamics import COV1, COV2, PARAMS, masked_field
from test_fields import _same_bits


def raw_jacobian(psi: Field, q: np.ndarray) -> Field:
    """The Arakawa bracket J(psi, q) of nodal values q, projected onto the mean-zero cosine family."""
    return Field(psi.grid, Basis.NEUMANN_COSINE, coeffs=advection_coeffs(nodal(psi), q, psi.grid))


class TestDirichletPoisson:
    def test_pure_sine_mode(self, grid32):
        # lap(psi) = u with u = sin(pi x) sin(pi y) gives psi = -u / (2 pi^2)
        u = mode_field(grid32, Basis.DIRICHLET_SINE, {(1, 1): 1.0})
        psi = dirichlet_poisson(u)
        assert psi.coeffs[1, 1] == pytest.approx(-1.0 / (2 * np.pi**2), rel=1e-14)

    def test_zero_maps_to_zero(self, grid32):
        assert norm_l2(dirichlet_poisson(Field.zeros(grid32, Basis.NEUMANN_COSINE)).coeffs) == 0.0

    def test_residual_oracle(self, grid32):
        # independent check: apply the diagonal sine-space Laplacian to the
        # output and compare nodal values against the source in the interior
        u = random_field(grid32, seed=1, slope=1.0)
        psi = dirichlet_poisson(u)
        lam = laplacian_eigenvalues(grid32)
        lap_psi = Field(grid32, Basis.DIRICHLET_SINE, coeffs=-lam * psi.coeffs)
        diff = nodal(lap_psi)[1:-1, 1:-1] - nodal(u)[1:-1, 1:-1]
        assert np.max(np.abs(diff)) < 1e-10 * max(norm_l2(u.coeffs), 1.0)

    def test_residual_in_norm(self, grid32):
        u = random_field(grid32, seed=2)
        psi = dirichlet_poisson(u)
        lam = laplacian_eigenvalues(grid32)
        lap_psi = Field(grid32, Basis.DIRICHLET_SINE, coeffs=-lam * psi.coeffs)
        # compare in the sine basis where the solve is defined
        u_sine = coeffs_from_nodal(nodal(u), Basis.DIRICHLET_SINE, grid32)
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
            u = neumann_lift(coeffs, g, 1.0)
            x = nodes(g)
            expected = np.outer(
                np.cosh(np.pi * (1 - x)), np.cos(np.pi * x)
            ) / (np.pi * np.sinh(np.pi))
            slab = x >= 0.25
            u_nodal = nodal_from_coeffs(u, Basis.NEUMANN_COSINE, g)
            errs[n] = np.max(np.abs(u_nodal[slab, :] - expected[slab, :])) / np.max(
                np.abs(expected)
            )
        assert errs[64] < 2e-4
        assert 3.0 < errs[32] / errs[64] < 6.0

    def test_interior_harmonicity_residual(self, grid32):
        # A(lift) must be exactly an edge flux layer: nothing left outside it
        u = neumann_lift(np.array([1.0, -0.4, 0.2]), grid32, 0.7)
        assert harmonicity_residual(u, 0.7) < 1e-12

    def test_harmonicity_residual_detects_bulk(self, grid32):
        # negative control: a generic field is far from edge-harmonic
        f = random_field(grid32, seed=21)
        assert harmonicity_residual(f.coeffs, 1.0) > 0.1

    def test_fd_laplacian_small_away_from_edge(self, grid32):
        # independent strong-form check on the slab x >= 0.25
        u = neumann_lift(np.array([1.0]), grid32, 1.0)
        h = grid32.h
        nod = nodal_from_coeffs(u, Basis.NEUMANN_COSINE, grid32)
        lap = (
            nod[:-2, 1:-1] + nod[2:, 1:-1] + nod[1:-1, :-2] + nod[1:-1, 2:]
            - 4 * nod[1:-1, 1:-1]
        ) / h**2
        slab = nodes(grid32)[1:-1] >= 0.25
        assert np.max(np.abs(lap[slab, :])) < 0.05 * np.max(np.abs(nod)) / h

    def test_flux_recovers_datum(self, grid32):
        g = np.array([0.9, 0.0, -0.3, 0.05])
        for nu in (1.0, 0.25):
            u = neumann_lift(g, grid32, nu)
            flux = boundary_flux(u, nu)
            assert np.max(np.abs(flux[:4] - g)) < 1e-8
            assert np.max(np.abs(flux[4:])) < 1e-8

    def test_zero_datum(self, grid32):
        assert norm_l2(neumann_lift(np.zeros(5), grid32, 1.0)) == 0.0

    def test_linearity(self, grid32):
        g1 = np.array([1.0, 0.2])
        g2 = np.array([-0.5, 0.8])
        lhs = neumann_lift(g1 + g2, grid32, 1.0)
        rhs = neumann_lift(g1, grid32, 1.0) + neumann_lift(g2, grid32, 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_mean_zero_output(self, grid32):
        u = neumann_lift(np.array([1.0, 1.0]), grid32, 1.0)
        assert u[0, 0] == 0.0

    def test_h1_bound(self, grid32):
        # bounded lift: |grad u| <= C |g| with C of order 1/nu
        nu = 0.5
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            g = 0.5 * rng.standard_normal(8)
            u = neumann_lift(g, grid32, nu)
            worst = max(worst, norm_h1(u) / np.linalg.norm(g))
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

    def test_lifting_matrix_with_no_modes_is_empty(self, grid32):
        # a kernel with the boundary noise off builds its lift with 0 columns
        assert lifting_matrix(grid32, 1.0, 0).shape == (grid32.n + 1, 0)
        assert lifting_matrix(grid32, 1.0, grid32.n - 1).shape == (grid32.n + 1, grid32.n - 1)
        for bad in (-1, grid32.n):
            with pytest.raises(ValueError):
                lifting_matrix(grid32, 1.0, bad)


class TestSemigroup:
    def test_eigenfunction_decay(self, grid32):
        f = mode_field(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1.0})
        nu, t = 0.8, 0.37
        out = semigroup(f.coeffs, nu, t)
        assert out[1, 0] == pytest.approx(np.exp(-nu * np.pi**2 * t), rel=1e-14)

    def test_identity_at_zero(self, grid32):
        f = random_field(grid32, seed=5)
        assert np.array_equal(semigroup(f.coeffs, 1.0, 0.0), f.coeffs)

    def test_semigroup_law(self, grid32):
        f = random_field(grid32, seed=6)
        nu, s, t = 0.6, 0.2, 0.5
        a = semigroup(f.coeffs, nu, s + t)
        b = semigroup(semigroup(f.coeffs, nu, s), nu, t)
        assert np.max(np.abs(a - b)) < 1e-14 * np.max(np.abs(f.coeffs))

    def test_negative_time_rejected(self, grid32):
        with pytest.raises(ValueError):
            semigroup(random_field(grid32, seed=7).coeffs, 1.0, -0.1)

    def test_contractivity(self, grid32):
        f = random_field(grid32, seed=8)
        nu, t = 1.0, 0.15
        assert norm_l2(semigroup(f.coeffs, nu, t)) <= np.exp(-nu * np.pi**2 * t) * norm_l2(f.coeffs) * (
            1 + 1e-12
        )


class TestJacobian:
    def test_self_bracket_vanishes(self, grid32):
        f = random_field(grid32, Basis.DIRICHLET_SINE, seed=10)
        assert norm_l2(raw_jacobian(f, nodal(f)).coeffs) < 1e-13 * norm_l2(f.coeffs) ** 2 / grid32.h

    def test_constant_second_argument(self, grid32):
        psi = random_field(grid32, Basis.DIRICHLET_SINE, seed=11)
        out = raw_jacobian(psi, np.ones(grid32.shape))
        assert norm_l2(out.coeffs) < 1e-11 * norm_l2(psi.coeffs) / grid32.h

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
            errs[n] = np.max(np.abs(nodal(out)[1:-1, 1:-1] - analytic[1:-1, 1:-1]))
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


def bracket_and_adjoint_matrices(psi):
    """Matrices of q -> J(psi, q) and of its trapezoid-weighted adjoint on the (n+1)^2 lattice.

    Both are built column by column from the reference difference matrices:
    the bracket as the Arakawa average of its three forms, the adjoint as
    the same average with every operator replaced by its weighted adjoint.
    """
    De, Do, DeA, DoA = reference_difference_matrices(psi.shape[0] - 1)
    px, py = Do @ psi, psi @ Do.T

    def bracket(q):
        qx, qy = De @ q, q @ De.T
        t1 = px * qy - py * qx
        t2 = Do @ (psi * qy) - (psi * qx) @ Do.T
        t3 = (px * q) @ Do.T - Do @ (py * q)
        return (t1 + t2 + t3) / 3.0

    def adjoint(b):
        bx, by = DoA @ b, b @ DoA.T
        t1 = (px * b) @ DeA.T - DeA @ (py * b)
        t2 = (psi * bx) @ DeA.T - DeA @ (psi * by)
        t3 = px * by - py * bx
        return (t1 + t2 + t3) / 3.0

    units = np.eye(psi.size).reshape(psi.size, *psi.shape)
    jac = np.column_stack([bracket(e).ravel() for e in units])
    adj = np.column_stack([adjoint(e).ravel() for e in units])
    return jac, adj


def diff(op, a, axis):
    """One difference into a fresh array, as `advection_coeffs` applies it.

    An operator with a dense matrix goes through the Jacobian plan's
    product bound to that matrix and axis; one without, through `_diff`.
    """
    out = np.empty_like(a, order="C")
    if op[2] is None:
        return _diff(op, a, axis, out)
    De, Do = _difference_operators(a.shape[0] - 1)
    plan = operators._JACOBIAN_PLANS.get(a.shape[0] - 1)
    bound = {id(Do[2]): (plan.do_x, plan.do_y), id(De[2]): (plan.de_x, plan.de_y)}[id(op[2])]
    return bound[axis](a, out=out)


# ---------------------------------------------------------------------------
# The expression forms of the Jacobian, the Poisson solve and the step, each
# allocating its temporaries as it goes: the references for the bits of the
# package's versions, which write into reused work arrays instead.
# ---------------------------------------------------------------------------


def reference_diff(op, a, axis):
    lower, upper, dense = op
    if dense is not None:
        return dense @ a if axis == 0 else a @ dense.T
    out = np.empty_like(a)
    src, dst = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    np.multiply(src[1:], upper[:, np.newaxis], out=dst[:-1])
    dst[-1] = 0.0
    dst[1:] += lower[:, np.newaxis] * src[:-1]
    return out


def reference_advection_coeffs(psi, a, grid):
    De, Do = _difference_operators(grid.n)
    px, py = reference_diff(Do, psi, 0), reference_diff(Do, psi, 1)
    ax, ay = reference_diff(De, a, 0), reference_diff(De, a, 1)
    t1 = px * ay - py * ax
    t2 = reference_diff(Do, psi * ay, 0) - reference_diff(Do, psi * ax, 1)
    t3 = reference_diff(Do, px * a, 1) - reference_diff(Do, py * a, 0)
    return coeffs_from_nodal((t1 + t2 + t3) / 3.0, Basis.NEUMANN_COSINE, grid)


def reference_streamfunction_coeffs(nodal, grid):
    src = coeffs_from_nodal(nodal, Basis.DIRICHLET_SINE, grid)
    lam = laplacian_eigenvalues(grid)
    psi = np.zeros(grid.shape)
    mask = retained_mask(grid, Basis.DIRICHLET_SINE)
    psi[mask] = -src[mask] / lam[mask]
    return psi


def reference_step(z, w, params, dt):
    """`step_imex` without its checks: one semi-implicit step as one expression per term."""
    grid = GridSpec(len(z) - 1)
    s = z + w
    s_nodal = nodal_from_coeffs(s, Basis.NEUMANN_COSINE, grid)
    psi = reference_streamfunction_coeffs(s_nodal, grid)
    b = reference_advection_coeffs(nodal_from_coeffs(psi, Basis.DIRICHLET_SINE, grid), s_nodal, grid)
    keep = np.arange(grid.n + 1) <= (2 * grid.n) // 3
    explicit = -1.0 * (b * np.outer(keep, keep)) - params.r * w
    psi_x = derivative(psi, Basis.DIRICHLET_SINE, 0)[0]
    explicit = explicit - params.beta * fields.cosine_from_cosine_sine(psi_x, grid)
    lam = laplacian_eigenvalues(grid)
    new_coeffs = (z + dt * explicit) / (1.0 + dt * (params.nu * lam + params.r))
    return new_coeffs * retained_mask(grid, Basis.NEUMANN_COSINE)


def step_inputs(grid, seed):
    """A smooth mean-zero z and a rougher w on the retained cosine modes."""
    return masked_field(grid, seed, scale=0.5).coeffs, random_field(grid, seed=seed + 1, scale=0.01).coeffs


class TestReferenceBits:
    """The work-array forms give the bits of the expression forms they replace."""

    @pytest.mark.parametrize("n", [16, 32, 128, 256])
    def test_poisson_and_jacobian(self, n):
        grid = GridSpec(n)
        for seed in range(3):
            u = nodal(random_field(grid, seed=40 + seed, slope=1.0))
            psi = streamfunction_coeffs(u, grid)
            assert _same_bits(psi, reference_streamfunction_coeffs(u, grid))
            psi_nodal = nodal_from_coeffs(psi, Basis.DIRICHLET_SINE, grid)
            assert _same_bits(advection_coeffs(psi_nodal, u, grid), reference_advection_coeffs(psi_nodal, u, grid))

    @pytest.mark.parametrize("n", [32, 256])
    def test_step(self, n):
        grid = GridSpec(n)
        params = ModelParams(nu=0.7, r=1.3, beta=0.4)
        z, w = step_inputs(grid, 50)
        new = step_imex(z, w, model_kernel(grid, params, 1e-4), 0, check_cfl=True)
        assert _same_bits(new, reference_step(z, w, params, 1e-4))


class TestWorkArrays:
    @pytest.mark.parametrize("n", [32, 256])
    def test_outputs_survive_the_next_call(self, n):
        # a second call with other inputs reuses the work arrays, never the outputs
        grid = GridSpec(n)
        kernel = model_kernel(grid, ModelParams(nu=0.7, r=1.3, beta=0.4), 1e-4)
        first, kept = [], []
        for seed in (60, 70):
            z, w = step_inputs(grid, seed)
            u = nodal(random_field(grid, seed=seed + 2))
            psi = streamfunction_coeffs(u, grid)
            psi_nodal = nodal_from_coeffs(psi, Basis.DIRICHLET_SINE, grid)
            outputs = [psi, advection_coeffs(psi_nodal, u, grid), step_imex(z, w, kernel, 0)]
            if not first:
                first, kept = outputs, [a.copy() for a in outputs]
        for a, copy, b in zip(first, kept, outputs):
            assert _same_bits(a, copy)
            assert not _same_bits(a, b)

    def test_threads_step_with_their_own_work_arrays(self):
        # more threads than cores and a short switch interval interleave the
        # steps; a work array shared between threads would mix their states
        grid = GridSpec(32)
        kernel = model_kernel(grid, ModelParams(nu=0.7, r=1.3, beta=0.4), 1e-3)
        inputs = [step_inputs(grid, 90 + 2 * k) for k in range(4)]

        def run(z, w):
            for step in range(20):
                z = step_imex(z, w, kernel, step)
            return z

        expected = [run(z, w) for z, w in inputs]
        results = [None] * len(inputs)

        def worker(k):
            results[k] = run(*inputs[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(_same_bits(r, e) for r, e in zip(results, expected))

    @pytest.mark.parametrize("n", [32, 256])
    def test_out_is_written_in_place(self, n):
        # `out` gets the bits of the fresh result and is what the call returns
        grid = GridSpec(n)
        x = nodal(random_field(grid, seed=80))
        o = np.full(grid.shape, np.nan)
        for basis in Basis:
            coeffs = x * retained_mask(grid, basis)
            for call in (
                lambda out: coeffs_from_nodal(x, basis, grid, out=out),
                lambda out: nodal_from_coeffs(coeffs, basis, grid, out=out),
                lambda out: derivative(coeffs, basis, 1, out=out)[0],
            ):
                o.fill(np.nan)
                assert call(o) is o and _same_bits(o, call(None))
        o.fill(np.nan)
        assert streamfunction_coeffs(x, grid, out=o) is o
        assert _same_bits(o, streamfunction_coeffs(x, grid))
        psi = x * retained_mask(grid, Basis.DIRICHLET_SINE)
        z, w = step_inputs(grid, 81)
        kernel = model_kernel(grid, ModelParams(nu=0.7, r=1.3, beta=0.4), 1e-4)
        for call in (
            lambda out: advection_coeffs(psi, x, grid, out=out),
            lambda out: fields.cosine_from_cosine_sine(x * retained_mask(grid, Basis.COSINE_SINE), grid, out=out),
            lambda out: step_imex(z, w, kernel, 0, out=out),
        ):
            o.fill(np.nan)
            assert call(o) is o and _same_bits(o, call(None))

    @pytest.mark.parametrize("n", [32, 256])
    def test_cached_tables_are_read_only(self, n):
        # a misplaced out= into a shared table raises instead of corrupting later steps
        tables = [
            *fields._grid_tables(n),
            *fields._cos_scales(n),
            fields._envelope(n, 0.6),
            operators._edge_scales(n),
            operators._poisson_divisors(n),
            model_kernel(GridSpec(n), ModelParams(nu=1.0, r=1.0), 0.01).implicit_divisor,
            fields._sine_to_cosine_matrix(n),
        ]
        tables += [fields._retained_mask(n, b.value) for b in Basis] + [fields._off_mask(n, b.value) for b in Basis]
        tables += [a for op in _difference_operators(n) for a in op if a is not None]
        # the per-grid plans the step reads: its folded tables (every array
        # but the work arrays), the dense transform matrices and the arrays
        # its differences are bound to
        tables += [a for a in dynamics._STEP_PLANS.get(n) if isinstance(a, np.ndarray)]
        tables += [a for d in operators._JACOBIAN_PLANS.get(n)[:4] for a in d.args if isinstance(a, np.ndarray)]
        if n < DENSE_BELOW_N:
            tables += [
                m for b in Basis for synthesis in (False, True) for m in fields._dense_matrices(n, *b.value, synthesis)
            ]
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                np.multiply(table, 1.0, out=table)


class TestDifferenceOperators:
    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_forms_agree_bitwise_but_for_signed_zeros(self, n):
        # both forms agree in value; in bits everywhere except De's first
        # node along the axis, where the stencil writes a[1] * 0.0 (-0.0
        # where a[1] < 0) and the matrix product +0.0.  Do agrees bit for bit
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n + 1, n + 1))
        De, Do = _difference_operators(n)
        ref_e, ref_o, _, _ = reference_difference_matrices(n)
        for (lower, upper, dense), ref in ((De, ref_e), (Do, ref_o)):
            assert np.array_equal(np.diag(lower, -1) + np.diag(upper, 1), ref)
            assert dense is None or np.array_equal(dense, ref)
            for axis in (0, 1):
                stencil = diff((lower, upper, None), a, axis)
                matrix = ref @ a if axis == 0 else a @ ref.T
                # the lines along `axis` as rows, so that row 0 is the first node
                s, m, lines = (stencil, matrix, a) if axis == 0 else (stencil.T, matrix.T, a.T)
                assert np.array_equal(s, m)
                if ref is ref_e:
                    assert not np.signbit(m[0]).any()
                    assert np.array_equal(np.signbit(s[0]), lines[1] < 0) and np.signbit(s[0]).any()
                    s, m = s[1:], m[1:]
                assert s.tobytes() == m.tobytes()

    @pytest.mark.parametrize("n", [18, 32, 128])
    def test_exact_on_linear_data(self, n):
        # x_i = i h with power-of-two h = 1/n or below: every product and
        # difference is exact, so both centred differences return exactly
        # n h inside (1 at power-of-two n)
        h = 2.0 ** -math.ceil(math.log2(n))
        a = np.outer(np.arange(n + 1) * h, np.ones(n + 1))
        for op in _difference_operators(n):
            assert np.all(diff(op, a, 0)[1:-1] == n * h)
            assert np.all(diff(op, a.T, 1)[:, 1:-1] == n * h)

    @pytest.mark.parametrize("n", [16, 18, 32, 50])
    def test_plan_products_have_the_matrix_product_bits(self, n):
        # the plan's differences are D @ a and a @ D.T against the
        # transposed view, bit for bit, at power-of-two n and at others,
        # where a contiguous copy of D.T rounds some entries differently
        a = np.random.default_rng(n).standard_normal((n + 1, n + 1))
        for op in _difference_operators(n):
            for axis in (0, 1):
                assert diff(op, a, axis).tobytes() == reference_diff(op, a, axis).tobytes()

    def test_matrices_only_below_the_stencil_switch(self):
        assert all(op[2] is not None for op in _difference_operators(DENSE_BELOW_N - 2))
        assert all(op[2] is None for op in _difference_operators(DENSE_BELOW_N))

    @pytest.mark.parametrize("n", [130, 192])
    def test_non_power_of_two_grids_move_by_round_off(self, n):
        # n/2 is not a power of two, so (a[i+1] - a[i-1]) n/2 and
        # n/2 a[i+1] - n/2 a[i-1] round differently; each is within
        # eps n/2 (|a[i+1]| + |a[i-1]|) of the exact value, so they differ by
        # at most twice that.  The bound is 4 eps n/2 (|a[i+1]| + |a[i-1]|),
        # and the first and last node, where nothing is subtracted, agree bit
        # for bit: with zeros next to the last node, Do writes
        # 0.0 + (-n)(+0.0) = +0.0 there, as the tridiagonal sum does
        a = np.random.default_rng(n).standard_normal((n + 1, n + 1))
        a[n - 1, ::2] = a[::2, n - 1] = 0.0
        for op in _difference_operators(n):
            half = op[1][1]
            for axis in (0, 1):
                got, want, lines = (
                    np.moveaxis(x, axis, 0) for x in (diff(op, a, axis), reference_diff(op, a, axis), a)
                )
                assert got[[0, -1]].tobytes() == want[[0, -1]].tobytes()
                bound = 4.0 * np.finfo(float).eps * half * (np.abs(lines[2:]) + np.abs(lines[:-2]))
                assert np.all(np.abs(got[1:-1] - want[1:-1]) <= bound)

    @pytest.mark.parametrize("n", [32, 256])
    def test_input_is_left_unchanged(self, n):
        a = np.random.default_rng(n).standard_normal((n + 1, n + 1))
        kept = a.copy()
        for lower, upper, _ in _difference_operators(n):
            for axis in (0, 1):
                diff((lower, upper, None), a, axis)
                assert a.tobytes() == kept.tobytes()

    def test_non_contiguous_out_is_refused(self):
        # the stencil writes through out.reshape(-1), which would be a copy
        n = 256
        a = np.random.default_rng(n).standard_normal((n + 1, n + 1))
        for op in _difference_operators(n):
            for out in (np.empty((n + 1, n + 1)).T, np.empty((n + 1, 2 * (n + 1)))[:, ::2]):
                with pytest.raises(ValueError, match="C-contiguous"):
                    _diff(op, a, 1, out)

    @staticmethod
    def warnings_of(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        return result, {str(w.message) for w in caught}

    @pytest.mark.parametrize("n", [128, 256])
    def test_row_breaks_raise_no_new_warnings(self, n):
        # the flat subtract pairs a[r, n] with a[r+1, 1] and a[r, n-1] with
        # a[r+1, 0] across each row break.  Huge values in columns 0 and n,
        # and values in columns 0, 1, n-1 and n whose scaled differences
        # across a break overflow while every product of the tridiagonal sum
        # stays finite, must warn only as that sum warns
        rng = np.random.default_rng(n)
        half = _difference_operators(n)[0][1][1]
        huge = rng.standard_normal((n + 1, n + 1))
        huge[:, 0], huge[:, n] = 1e308, -1e308
        tight = rng.standard_normal((n + 1, n + 1))
        big = 0.75 * np.finfo(float).max / half
        tight[:, [0, 1]], tight[:, [n - 1, n]] = big, -big
        quiet = self.warnings_of(lambda: reference_diff(_difference_operators(n)[0], tight, 1))[1]
        assert not quiet  # so a stencil that scaled across the breaks would warn on De
        for a in (huge, tight):
            for op in _difference_operators(n):
                for axis, lines in ((0, np.ascontiguousarray(a.T)), (1, a)):
                    got, new = self.warnings_of(lambda: diff(op, lines, axis))
                    want, old = self.warnings_of(lambda: reference_diff(op, lines, axis))
                    assert new <= old
                    assert got.tobytes() == want.tobytes()


class TestBilinearForm:
    # n = 30 and 32 run the difference operators as matrices, n = 128 and
    # 256 as stencils; n = 30 is not a power of two, so its matrices round
    GRIDS = (GridSpec(30), GridSpec(32), GridSpec(128), GridSpec(256))

    def test_self_orthogonality(self):
        for grid in self.GRIDS:
            for seed in range(25):
                v1 = random_field(grid, seed=3 * seed)
                v2 = random_field(grid, seed=3 * seed + 1)
                val = inner(bilinear_b(v1, v2), v2)
                assert abs(val) <= 1e-12 * norm_l2(v1.coeffs) * norm_h1(v2.coeffs) ** 2

    def test_antisymmetry(self):
        for grid in self.GRIDS:
            for seed in range(25):
                v1 = random_field(grid, seed=100 + 3 * seed)
                v2 = random_field(grid, seed=101 + 3 * seed)
                v3 = random_field(grid, seed=102 + 3 * seed)
                resid = inner(bilinear_b(v1, v2), v3) + inner(bilinear_b(v1, v3), v2)
                scale = norm_l2(v1.coeffs) * norm_h1(v2.coeffs) * norm_h1(v3.coeffs)
                assert abs(resid) <= 1e-12 * scale

    def test_cross_term_inner_product_identity(self, grid32):
        # <(-B(z,w) - B(w,z)), z> == <-B(z,w), z> because <B(w,z), z> = 0
        z = masked_field(grid32, 3, scale=0.5)
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        zw1, zw2 = kernel.planes(ou_init(kernel, NoiseStream(seed=3, dt=0.01)))
        w = Field(grid32, Basis.NEUMANN_COSINE, coeffs=zw1 + zw2)
        b_zw = bilinear_b(z, w).coeffs
        cross = Field(grid32, Basis.NEUMANN_COSINE, coeffs=-(b_zw + bilinear_b(w, z).coeffs))
        lhs = inner(cross, z)
        rhs = inner(Field(grid32, Basis.NEUMANN_COSINE, coeffs=-b_zw), z)
        scale = max(abs(rhs), norm_l2(z.coeffs) ** 2)
        assert abs(lhs - rhs) < 1e-12 * scale

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_bracket_is_skew_when_psi_vanishes_on_the_boundary(self, n):
        # the matrix of q -> J(psi, q) on the lattice, and its weighted
        # adjoint from the adjoint difference matrices: J* = -J exactly
        # when psi is a streamfunction, 0 on every edge
        grid = GridSpec(n)
        u = nodal(random_field(grid, seed=n))
        psi = nodal_from_coeffs(streamfunction_coeffs(u, grid), Basis.DIRICHLET_SINE, grid)
        assert not psi[[0, -1], :].any() and not psi[:, [0, -1]].any()
        jac, adj = bracket_and_adjoint_matrices(psi)
        assert np.max(np.abs(adj + jac)) <= 1e-12 * np.max(np.abs(jac))
        # and the adjoint is the weighted transpose diag(1/w) J^T diag(w)
        w = np.ones(n + 1)
        w[0] = w[-1] = 0.5
        weights = np.outer(w, w).ravel()
        transpose = jac.T * weights[np.newaxis, :] / weights[:, np.newaxis]
        assert np.max(np.abs(adj - transpose)) <= 1e-12 * np.max(np.abs(jac))
        # the package's bracket is the reference bracket, projected
        q = nodal(random_field(grid, seed=n + 1))
        ref = coeffs_from_nodal((jac @ q.ravel()).reshape(grid.shape), Basis.NEUMANN_COSINE, grid)
        assert np.max(np.abs(advection_coeffs(psi, q, grid) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_bracket_is_not_skew_when_psi_has_edge_values(self):
        # negative control: the same construction with psi != 0 on the edges
        grid = GridSpec(16)
        psi = nodal(random_field(grid, seed=16))
        assert psi[0, :].any()
        jac, adj = bracket_and_adjoint_matrices(psi)
        assert np.linalg.norm(adj + jac) > 0.1 * np.linalg.norm(jac)

    def test_mean_zero_output(self, grid32):
        out = bilinear_b(random_field(grid32, seed=202), random_field(grid32, seed=203))
        assert out.coeffs[0, 0] == 0.0


class TestBetaTerm:
    def test_zero(self, grid32):
        assert not beta_coeffs(np.zeros(grid32.shape)).any()

    @pytest.mark.parametrize("n", [16, 24, 32, 128, 256])
    def test_one_axis_pair_matches_the_round_trip(self, n):
        # the stepper's beta term, one y-axis sine synthesis and cosine
        # analysis of psi_x's coefficients, against the 2D round trip through
        # psi_x's lattice values; the bound, 1e-13 relative in the L2 norm,
        # was fixed before the first comparison
        grid = GridSpec(n)
        for seed, slope in ((31, 0.0), (32, 1.0), (33, 2.0)):
            z = random_field(grid, seed=seed, slope=slope)
            psi_x = derivative(streamfunction_coeffs(nodal(z), grid), Basis.DIRICHLET_SINE, 0)[0]
            expected = beta_coeffs(z.coeffs)
            got = fields.cosine_from_cosine_sine(psi_x, grid)
            assert norm_l2(got - expected) <= 1e-13 * norm_l2(expected)
            assert not got[~retained_mask(grid, Basis.NEUMANN_COSINE)].any()
            # and on any COSINE_SINE array, not just a streamfunction's derivative
            a = random_field(grid, Basis.COSINE_SINE, seed=seed, slope=slope).coeffs
            expected = coeffs_from_nodal(nodal_from_coeffs(a, Basis.COSINE_SINE, grid), Basis.NEUMANN_COSINE, grid)
            assert norm_l2(fields.cosine_from_cosine_sine(a, grid) - expected) <= 1e-13 * norm_l2(expected)

    def test_single_mode_formula(self, grid32):
        # z = sin(2 pi x) sin(pi y), mean zero -> psi = -z/(5 pi^2),
        # so G(z)_x = -(2/(5 pi)) cos(2 pi x) sin(pi y)
        x = nodes(grid32)
        values = np.outer(np.sin(2 * np.pi * x), np.sin(np.pi * x))
        z = Field(grid32, Basis.NEUMANN_COSINE, coeffs=coeffs_from_nodal(values, Basis.NEUMANN_COSINE, grid32))
        out = Field(grid32, Basis.NEUMANN_COSINE, coeffs=beta_coeffs(z.coeffs))
        expected = -(2.0 / (5 * np.pi)) * np.outer(np.cos(2 * np.pi * x), np.sin(np.pi * x))
        err = np.max(np.abs(nodal(out) - expected))
        assert err < 1e-3  # Nyquist truncation of the sine factor
        # finite-difference oracle on the streamfunction
        psi = dirichlet_poisson(z)
        fd = (nodal(psi)[2:, :] - nodal(psi)[:-2, :]) / (2 * grid32.h)
        assert np.max(np.abs(fd - expected[1:-1, :])) < 5e-3

    def test_norm_bound(self, grid32):
        # mode-wise bound: |G(z)_x| <= |z| / (2 pi), checked on 1000 fields
        rng = np.random.default_rng(30)
        mask = retained_mask(grid32, Basis.NEUMANN_COSINE)
        for _ in range(1000):
            z = Field(grid32, Basis.NEUMANN_COSINE, coeffs=rng.standard_normal(grid32.shape) * mask)
            assert np.linalg.norm(beta_coeffs(z.coeffs)) <= C_GX_EXACT * norm_l2(z.coeffs) * (1 + 1e-12)


class TestConstants:
    def test_exact_constants(self, grid32):
        assert LAMBDA1 == pytest.approx(np.pi**2, abs=1e-12)
        assert C_GX_EXACT == pytest.approx(1.0 / (2 * np.pi), abs=1e-12)
        assert C_GX_EXACT <= 1.0 / (2 * np.pi) + 1e-12
        assert estimate_constants(grid32) > 0

    def test_lambda1_is_minimum_eigenvalue(self, grid32):
        lam = laplacian_eigenvalues(grid32)
        mask = retained_mask(grid32, Basis.NEUMANN_COSINE)
        assert LAMBDA1 == pytest.approx(np.min(lam[mask]), rel=1e-15)

    def test_cgx_is_mode_maximum(self):
        # the lattice maximum max_k,l k pi / (pi^2 (k^2 + l^2)) is that float at every n
        for n in range(8, 257):
            ks = np.arange(1, n)
            kk, ll = np.meshgrid(ks, ks, indexing="ij")
            assert float(np.max(kk * np.pi / (np.pi**2 * (kk**2 + ll**2)))).hex() == C_GX_EXACT.hex()

    def test_search_builds_no_field(self, field_inits):
        # the sweeps update coefficient arrays and take their brackets on
        # lattice arrays; the uncached search runs, whatever the cache holds
        operators._trilinear_search.__wrapped__(16)
        assert field_inits[0] == 0

    @pytest.mark.parametrize("n", [16, 24, 32, 128])
    def test_triple_ratio_has_the_bits_of_the_field_form(self, n):
        # the search's array ratio against |<B(v1, v2), v3>| / denom through
        # fields; n = 24 is not a power of two and n = 128 runs the stencils
        grid = GridSpec(n)
        mask = retained_mask(grid, Basis.NEUMANN_COSINE)
        rng = np.random.default_rng(n)
        for seed in range(4):
            v1, v2, v3 = (random_field(grid, seed=10 * seed + i, slope=0.6 * i) for i in range(3))
            # a perturbed array, off every spectral envelope
            step = 0.5 * rng.standard_normal(grid.shape)
            v1 = Field(grid, Basis.NEUMANN_COSINE, coeffs=(v1.coeffs + step) * mask)
            denom = norm_l2(v1.coeffs) * norm_h1(v2.coeffs) * norm_h1(v3.coeffs)
            expected = abs(inner(bilinear_b(v1, v2), v3)) / denom
            got = _triple_ratio(v1.coeffs.copy(), v2.coeffs, v3.coeffs, grid)
            assert got.hex() == expected.hex()
        zero = np.zeros(grid.shape)
        assert _triple_ratio(zero, v2.coeffs, v3.coeffs, grid) == 0.0

    def test_reproducible_and_pinned(self, grid32):
        # c_b is a function of n alone: two uncached searches give the same
        # bits, and the value at n = 32 is the one every report at n = 32 writes
        first, again = (operators._trilinear_search.__wrapped__(32) for _ in range(2))
        assert first.hex() == again.hex() == estimate_constants(grid32).hex()
        assert first.hex() == (0.034085736837053196).hex()

    def test_bound_holds_on_samples(self, grid32):
        c_b = estimate_constants(grid32)
        rng = np.random.default_rng(99)
        mask = retained_mask(grid32, Basis.NEUMANN_COSINE)
        for _ in range(50):
            v1, v2, v3 = (
                Field(grid32, Basis.NEUMANN_COSINE, coeffs=rng.standard_normal(grid32.shape) * mask)
                for _ in range(3)
            )
            val = abs(inner(bilinear_b(v1, v2), v3))
            bound = c_b * norm_l2(v1.coeffs) * norm_h1(v2.coeffs) * norm_h1(v3.coeffs)
            assert val <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_sweeps_do_not_decrease(self, n):
        # each update maximises the form in one argument with the other two
        # fixed, so no sweep's ratio falls below the one before, to round-off
        ratios = list(itertools.islice(_power_sweeps(GridSpec(n)), 2 * operators.SWEEPS))
        assert all(later >= earlier * (1 - 1e-12) for earlier, later in zip(ratios, ratios[1:]))
        assert max(ratios[: operators.SWEEPS]) == operators._trilinear_search.__wrapped__(n)

    @pytest.mark.parametrize("n, measured", [(16, 0.03376), (32, 0.03409), (64, 0.03417), (128, 0.03419)])
    def test_reaches_the_measured_norm(self, n, measured):
        # the 20-sweep values of a reference run, recorded to five decimals
        # (ROADMAP item 1)
        assert estimate_constants(GridSpec(n)) >= measured - 0.5e-5

    @pytest.mark.parametrize("n", [16, 24, 32, 128])
    def test_form_gradient_is_the_forms_gradient(self, n):
        # <g, v> = <B(v, v2), v3> for every v, as the form is linear in v;
        # n = 24 is not a power of two and n = 128 runs the stencils and FFTs
        grid = GridSpec(n)
        v1, v2, v3, e = (random_field(grid, seed=n + i, slope=0.6 * (i % 3)) for i in range(4))
        g = _form_gradient(v2.coeffs, v3.coeffs, grid)
        for v in (v1, e):
            form = inner(bilinear_b(v, v2), v3)
            assert abs(float(np.sum(g * v.coeffs)) - form) <= 1e-12 * abs(form)

"""Field core: transforms, inner products, norms, derivatives."""

import numpy as np
import pytest
from scipy import fft as scipy_fft

from qgsync import dynamics, fields, operators
from qgsync.fields import (
    DENSE_BELOW_N,
    Basis,
    Field,
    GridSpec,
    NonFiniteField,
    coeffs_from_nodal,
    derivative,
    nodal_from_coeffs,
    norm_h1,
    norm_l2,
    retained_mask,
    save_field,
)

from conftest import inner, mode_field, nodal, nodes, random_field, trapezoid_quadrature


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
        assert nodes(g)[0] == 0.0 and nodes(g)[-1] == 1.0
        assert g.shape == (9, 9)


class TestTransforms:
    @pytest.mark.parametrize("basis", list(Basis))
    def test_round_trip(self, grid32, basis):
        f = random_field(grid32, basis, seed=1)
        coeffs = coeffs_from_nodal(nodal(f), basis, grid32)
        rel = np.max(np.abs(coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
        assert rel < 1e-12

    def test_single_sine_mode_single_coefficient(self, grid32):
        x = nodes(grid32)
        vals = np.outer(2.0 * np.sin(3 * np.pi * x), np.sin(5 * np.pi * x))
        coeffs = coeffs_from_nodal(vals, Basis.DIRICHLET_SINE, grid32)
        assert coeffs[3, 5] == pytest.approx(1.0, abs=1e-12)
        coeffs[3, 5] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-12

    def test_dirichlet_nodal_vanishes_on_boundary(self, grid32):
        f = random_field(grid32, Basis.DIRICHLET_SINE, seed=2)
        nod = nodal(f)
        assert np.all(nod[0, :] == 0) and np.all(nod[-1, :] == 0)
        assert np.all(nod[:, 0] == 0) and np.all(nod[:, -1] == 0)

    @pytest.mark.parametrize("kind", ["sin", "cos"])
    def test_against_direct_matrix_transform(self, kind):
        # direct O(n^2) evaluation is the correctness oracle for the fast path
        g = GridSpec(12)
        x = nodes(g)
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
        ycol = nodal(f)[:, col]
        if kind == "cos":
            direct = M @ coeffs2d[:, 0]
        else:
            yfactor = np.sqrt(2.0) * np.sin(np.pi * x[col])
            direct = (M @ coef) * yfactor
        assert np.max(np.abs(ycol - direct)) < 1e-12 * max(1.0, np.max(np.abs(direct)))


def _scipy_axis(values, kind, n, axis, synthesis):
    """The scipy.fft DCT-I/DST-I formulation of one axis transform: the bit-for-bit reference."""
    c = np.full(n + 1, np.sqrt(2.0))
    c[0] = 1.0
    d = np.ones(n + 1)
    d[0] = d[-1] = 2.0
    shape = [1, 1]
    shape[axis] = n + 1
    interior = [slice(None)] * 2
    interior[axis] = slice(1, n)
    interior = tuple(interior)
    if kind == "cos":
        if synthesis:
            return scipy_fft.idct(values * (n * c * d).reshape(shape), type=1, axis=axis)
        return scipy_fft.dct(values, type=1, axis=axis) / (n * (d * c).reshape(shape))
    out = np.zeros_like(values)
    if synthesis:
        out[interior] = scipy_fft.dst(np.sqrt(2.0) * values[interior], type=1, axis=axis) / 2.0
    else:
        out[interior] = scipy_fft.dst(values[interior], type=1, axis=axis) / (np.sqrt(2.0) * n)
    return out


def _scipy_2d(values, basis, grid, synthesis):
    n = grid.n
    out = _scipy_axis(values, basis.xkind, n, 0, synthesis)
    out = _scipy_axis(out, basis.ykind, n, 1, synthesis)
    if not synthesis:
        out[~retained_mask(grid, basis)] = 0.0
    return out


def _row_transform(values, kind, synthesis):
    """One axis transform along the rows, driven the way the 2D transforms drive it."""
    n = values.shape[0] - 1
    ext, spec = fields._WORK.get(n)
    if synthesis:
        fields._synthesis_scale(values, kind, n, ext[:, : n + 1])
    else:
        ext[:, : n + 1] = values
    out = np.empty_like(values)
    fields._transform_lines(ext, spec, kind, n, synthesis=synthesis, out=out)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _edge_inputs(grid, rng):
    """Random inputs from 1e-8 to 1e8, plus lines of signed zeros and exactly cancelling lines."""
    x = np.arange(grid.n + 1) * grid.h
    zeros = rng.standard_normal(grid.shape)
    zeros[::3] = -0.0
    zeros[:, ::4] = 0.0
    return [scale * rng.standard_normal(grid.shape) for scale in (1e-8, 1.0, 1e8)] + [
        zeros,
        -np.zeros(grid.shape),
        np.outer(np.sin(2 * np.pi * x), np.cos(3 * np.pi * x)),
    ]


REFERENCE_SIZES = [8, 10, 16, 24, 30, 32, 64, 100, 128, 200, 256]


class TestScipyReference:
    """numpy.fft transforms give the bits of the scipy.fft DCT-I/DST-I, signed zeros included."""

    @pytest.mark.parametrize("n", REFERENCE_SIZES)
    def test_axis_transforms(self, n):
        rng = np.random.default_rng(n)
        for values in _edge_inputs(GridSpec(n), rng):
            for kind in ("cos", "sin"):
                for synthesis in (False, True):
                    expected = _scipy_axis(values, kind, n, 1, synthesis)
                    assert _same_bits(_row_transform(values, kind, synthesis), expected), (kind, synthesis)

    @pytest.mark.parametrize("n", REFERENCE_SIZES)
    def test_2d_transforms(self, n):
        # the FFT path, which the public transforms take from DENSE_BELOW_N up
        grid = GridSpec(n)
        rng = np.random.default_rng(1000 + n)
        for values in _edge_inputs(grid, rng):
            for basis in Basis:
                expected = _scipy_2d(values, basis, grid, synthesis=False)
                assert _same_bits(fields._fft_coeffs_from_nodal(values, basis, n), expected), basis
                coeffs = np.where(retained_mask(grid, basis), values, 0.0)
                expected = _scipy_2d(coeffs, basis, grid, synthesis=True)
                assert _same_bits(fields._fft_nodal_from_coeffs(coeffs, basis, n), expected), basis

    def test_returned_arrays_own_their_memory(self, grid32):
        f = random_field(grid32, Basis.DIRICHLET_SINE, seed=20)
        first = nodal(f)
        kept = first.copy()
        second = nodal(random_field(grid32, Basis.DIRICHLET_SINE, seed=21))
        coeffs = coeffs_from_nodal(second, Basis.DIRICHLET_SINE, grid32)
        assert _same_bits(first, kept)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(coeffs, second) and not np.shares_memory(coeffs, first)


DENSE_SIZES = [n for n in REFERENCE_SIZES if n < DENSE_BELOW_N] + [DENSE_BELOW_N - 2]


def _sine_edges(grid, basis):
    """Lattice nodes on the edges of the sine axes, where synthesis gives zero."""
    edges = np.zeros(grid.shape, dtype=bool)
    if basis.xkind == "sin":
        edges[:: grid.n] = True
    if basis.ykind == "sin":
        edges[:, :: grid.n] = True
    return edges


class TestDensePath:
    """Below DENSE_BELOW_N the transforms are matmuls: round-off away from the FFT bits, same zeros."""

    @pytest.mark.parametrize("n", DENSE_SIZES)
    def test_within_round_off_of_scipy(self, n):
        # bound fixed in advance: 32 n eps max|x|, about 5x the largest error seen
        # on random inputs.  A smooth coefficient array synthesizes to values
        # ~n^2 times its size, where both paths miss the exact transform by more.
        grid = GridSpec(n)
        bound = 32 * n * np.finfo(float).eps
        rng = np.random.default_rng(2000 + n)
        for values in (scale * rng.standard_normal(grid.shape) for scale in (1e-8, 1.0, 1e8)):
            for basis in Basis:
                coeffs = np.where(retained_mask(grid, basis), values, 0.0)
                for x, transform, synthesis in (
                    (values, coeffs_from_nodal, False),
                    (coeffs, nodal_from_coeffs, True),
                ):
                    err = np.max(np.abs(transform(x, basis, grid) - _scipy_2d(x, basis, grid, synthesis)))
                    assert err <= bound * np.max(np.abs(x)), (basis, synthesis)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_structural_zeros_are_positive(self, grid32, basis):
        # all-negative input turns every 0 * x product into -0.0
        negative = -np.abs(np.random.default_rng(22).standard_normal(grid32.shape))
        off = ~retained_mask(grid32, basis)
        a = coeffs_from_nodal(negative, basis, grid32)
        assert _same_bits(a[off], np.zeros(off.sum()))
        edges = _sine_edges(grid32, basis)
        v = nodal_from_coeffs(np.where(off, 0.0, negative), basis, grid32)
        assert _same_bits(v[edges], np.zeros(edges.sum()))
        # an infinite coefficient makes the 0 * x terms NaN; the FFT path still writes 0 there
        infinite = np.zeros(grid32.shape)
        infinite[3, 5] = np.inf
        with np.errstate(invalid="ignore"):
            v = nodal_from_coeffs(infinite, basis, grid32)
        assert _same_bits(v[edges], np.zeros(edges.sum()))

    def test_outputs_own_their_memory(self, grid32):
        n = grid32.n
        x = np.random.default_rng(23).standard_normal(grid32.shape)
        matrices = [fields._line_matrix(n, kind, synthesis) for kind in ("cos", "sin") for synthesis in (False, True)]
        matrices.append(fields._sine_to_cosine_matrix(n))
        assert not any(m.flags.writeable for m in matrices)
        z = x * retained_mask(grid32, Basis.NEUMANN_COSINE) * 1e-3
        outputs = [
            operators.streamfunction_coeffs(x, grid32),
            operators.advection_coeffs(x * retained_mask(grid32, Basis.DIRICHLET_SINE), x, grid32),
            dynamics.step_imex(z, 0.1 * z, dynamics.ModelParams(1.0, 1.0, 0.1), 0.01, 0),
            fields.cosine_from_cosine_sine(x * retained_mask(grid32, Basis.COSINE_SINE), grid32),
        ]
        held = (
            matrices
            + list(fields._WORK.get(n))
            + list(operators._JACOBIAN_WORK.get(n))
            + list(dynamics._STEP_WORK.get(n))
        )
        for basis in Basis:
            outputs += [
                coeffs_from_nodal(x, basis, grid32),
                nodal_from_coeffs(x * retained_mask(grid32, basis), basis, grid32),
                derivative(x * retained_mask(grid32, basis), basis, 0)[0],
            ]
        for out in outputs:
            assert out.flags.owndata and out.flags.writeable
            assert not any(np.shares_memory(out, h) for h in held)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_fft_path_from_the_cutoff_up(self, basis):
        grid = GridSpec(DENSE_BELOW_N)
        n = grid.n
        for values in _edge_inputs(grid, np.random.default_rng(24)):
            coeffs = np.where(retained_mask(grid, basis), values, 0.0)
            assert _same_bits(coeffs_from_nodal(values, basis, grid), fields._fft_coeffs_from_nodal(values, basis, n))
            # the public synthesis also writes +0.0 on the sine edges, where the FFT's may be -0.0
            fft = fields._fft_nodal_from_coeffs(coeffs, basis, n)
            fft[_sine_edges(grid, basis)] = 0.0
            assert _same_bits(nodal_from_coeffs(coeffs, basis, grid), fft)

    @pytest.mark.parametrize("n", [32, 128, 256])
    @pytest.mark.parametrize("basis", [b for b in Basis if "sin" in b.value])
    def test_no_negative_zero_on_sine_edges(self, n, basis):
        # one sign rule on both sides of DENSE_BELOW_N: every sine-edge node is +0.0
        grid = GridSpec(n)
        coeffs = np.random.default_rng(25).standard_normal(grid.shape) * retained_mask(grid, basis)
        v = nodal_from_coeffs(coeffs, basis, grid)
        edges = _sine_edges(grid, basis)
        assert np.all(v[edges] == 0.0)
        assert not np.signbit(v[edges]).any()


class TestInnerAndNorms:
    def test_orthonormality(self, grid32):
        e1 = mode_field(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1.0})
        e2 = mode_field(grid32, Basis.NEUMANN_COSINE, {(2, 3): 1.0})
        assert inner(e1, e1) == pytest.approx(1.0, abs=1e-14)
        assert inner(e1, e2) == pytest.approx(0.0, abs=1e-14)

    def test_inner_matches_quadrature_oracle(self, grid64):
        # oracle: plain trapezoid quadrature of the nodal product
        f = random_field(grid64, seed=4, slope=1.0)
        g = random_field(grid64, seed=5, slope=1.0)
        quad = trapezoid_quadrature(grid64, nodal(f), nodal(g))
        assert abs(inner(f, g) - quad) < 1e-10
        assert abs(inner(f, f) - trapezoid_quadrature(grid64, nodal(f), nodal(f))) < 1e-10

    def test_inner_symmetric_bilinear(self, grid32):
        f = random_field(grid32, seed=8)
        g = random_field(grid32, seed=9)
        h = random_field(grid32, seed=10)
        assert inner(f, g) == pytest.approx(inner(g, f), rel=1e-14)
        lhs = inner(Field(grid32, Basis.NEUMANN_COSINE, coeffs=f.coeffs + 2.0 * h.coeffs), g)
        assert lhs == pytest.approx(inner(f, g) + 2.0 * inner(h, g), rel=1e-12)

    def test_norm_of_zero(self, grid32):
        assert norm_l2(Field.zeros(grid32, Basis.NEUMANN_COSINE).coeffs) == 0.0

    def test_h1_norm_of_first_mode_is_pi(self, grid32):
        e1 = mode_field(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1.0})
        assert norm_h1(e1.coeffs) == pytest.approx(np.pi, rel=1e-14)
        # finite-difference oracle on the nodal values
        nod = nodal(e1)
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
            assert norm_h1(f.coeffs) >= np.pi * norm_l2(f.coeffs) * (1 - 1e-12)


class TestGradient:
    def test_zero_field(self, grid32):
        zero = np.zeros(grid32.shape)
        (gx, bx), (gy, by) = (derivative(zero, Basis.NEUMANN_COSINE, axis) for axis in (0, 1))
        assert (bx, by) == (Basis.SINE_COSINE, Basis.COSINE_SINE)
        assert not gx.any() and not gy.any()

    def test_analytic_derivative_of_cosine_mode(self, grid32):
        # d/dx cos(pi x) = -pi sin(pi x)
        x = nodes(grid32)
        cos_x = np.outer(np.cos(np.pi * x), np.ones(grid32.n + 1))
        f = coeffs_from_nodal(cos_x, Basis.NEUMANN_COSINE, grid32)
        gx = nodal_from_coeffs(*derivative(f, Basis.NEUMANN_COSINE, 0), grid32)
        expected = np.outer(-np.pi * np.sin(np.pi * x), np.ones(grid32.n + 1))
        assert np.max(np.abs(gx - expected)) < 1e-12
        assert np.linalg.norm(derivative(f, Basis.NEUMANN_COSINE, 1)[0]) < 1e-12

    def test_matches_centered_differences(self):
        # second-order oracle: same band-limited function on both grids,
        # centered-difference error should shrink ~4x from n=32 to n=64
        rng = np.random.default_rng(14)
        modes = {(k, l): rng.standard_normal() for k in range(6) for l in range(6) if (k, l) != (0, 0)}
        errs = {}
        for n in (32, 64):
            g = GridSpec(n)
            f = mode_field(g, Basis.NEUMANN_COSINE, modes)
            gx = nodal_from_coeffs(*derivative(f.coeffs, f.basis, 0), g)
            nod = nodal(f)
            fd = (nod[2:, :] - nod[:-2, :]) / (2 * g.h)
            errs[n] = np.max(np.abs(gx[1:-1, :] - fd))
        ratio = errs[32] / errs[64]
        assert 3.0 < ratio < 5.0

    def test_h1_equals_gradient_l2(self, grid32):
        f = random_field(grid32, seed=15)
        # as fields, so the derivatives are also checked to vanish off their retained modes
        gx, gy = (Field(grid32, basis, coeffs) for coeffs, basis in (derivative(f.coeffs, f.basis, a) for a in (0, 1)))
        total = np.sqrt(norm_l2(gx.coeffs) ** 2 + norm_l2(gy.coeffs) ** 2)
        assert total == pytest.approx(norm_h1(f.coeffs), rel=1e-12)


class TestFieldContracts:
    def test_mean_zero_enforced(self, grid32):
        coeffs = np.zeros(grid32.shape)
        coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            Field(grid32, Basis.NEUMANN_COSINE, coeffs=coeffs)

    def test_mean_projected_from_nodal(self, grid32):
        assert coeffs_from_nodal(np.ones(grid32.shape), Basis.NEUMANN_COSINE, grid32)[0, 0] == 0.0

    def test_nonfinite_rejected(self, grid32):
        bad = np.zeros(grid32.shape)
        bad[3, 3] = np.nan
        with pytest.raises(ValueError):
            Field(grid32, Basis.NEUMANN_COSINE, coeffs=bad)

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rep", ["coeffs"])
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
        # negative zero is zero
        arr = np.zeros(grid32.shape)
        arr[off] = -0.0
        Field(grid32, basis, coeffs=arr)

    def test_immutable(self, grid32):
        f = random_field(grid32, seed=16)
        with pytest.raises(ValueError):
            f.coeffs[1, 1] = 7.0

    def test_save_load_round_trip(self, grid32, tmp_path):
        f = random_field(grid32, seed=17)
        path = tmp_path / "snap.field"
        save_field(path, f, time=1.25)
        header, *values = path.read_text().splitlines()
        meta = dict(item.split("=", 1) for item in header.lstrip("# ").split())
        assert meta == {"n": "32", "basis": "NEUMANN_COSINE", "t": "1.25"}
        coeffs = np.array([float(v) for v in values]).reshape(grid32.shape)
        assert np.array_equal(coeffs, f.coeffs)

    def test_snapshot_text_matches_per_value_format(self, tmp_path):
        # signed zeros, subnormals, extremes and random bit patterns on every retained slot
        grid = GridSpec(256)
        mask = retained_mask(grid, Basis.DIRICHLET_SINE)
        bits = np.random.default_rng(18).integers(0, 2**64, size=int(mask.sum()), dtype=np.uint64)
        values = bits.view(float)
        values[~np.isfinite(values)] = 0.0
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308, -1.0, 0.1, 1e16]
        values[: len(edges)] = edges
        coeffs = np.zeros(grid.shape)
        coeffs[mask] = values
        f = Field(grid, Basis.DIRICHLET_SINE, coeffs=coeffs)
        path = tmp_path / "edges.field"
        save_field(path, f, time=0.5)
        expected = "# n=256 basis=DIRICHLET_SINE t=0.5\n" + "".join(format(v, ".17g") + "\n" for v in f.coeffs.ravel())
        assert path.read_text() == expected

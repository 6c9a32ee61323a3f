"""Noise streams, covariance validation, stationary coefficient processes."""

import math

import numpy as np
import pytest

from qgsync.fields import Basis, GridSpec, laplacian_eigenvalues, norm_h1, retained_mask
from qgsync.noise import (
    ConfigError,
    CovarianceSpec,
    ModelParams,
    NoiseStream,
    OUKernel,
    _philox,
    ou_init,
    ou_step,
    temperedness_diagnostic,
    wiener_shift,
)
from qgsync.operators import lifting_matrix

from conftest import chain_entry


PARAMS = ModelParams(nu=1.0, r=1.0, beta=0.1)


class TestNoiseStream:
    def test_deterministic(self):
        a = NoiseStream(seed=3, dt=0.1).normals(5, 8)
        b = NoiseStream(seed=3, dt=0.1).normals(5, 8)
        assert np.array_equal(a, b)

    def test_seed_changes_values(self):
        a = NoiseStream(seed=3, dt=0.1).normals(5, 8)
        b = NoiseStream(seed=4, dt=0.1).normals(5, 8)
        assert not np.array_equal(a, b)

    def test_shift_identity(self):
        s1 = NoiseStream(seed=9, dt=0.1, origin=0)
        s2 = NoiseStream(seed=9, dt=0.1, origin=13)
        for j in (-4, 0, 7):
            assert np.array_equal(s2.normals(j, 6), s1.normals(j + 13, 6))

    def test_shift_group_law(self):
        s = NoiseStream(seed=1, dt=0.5)
        a = wiener_shift(wiener_shift(s, 4), -7)
        b = wiener_shift(s, -3)
        assert a == b

    def test_shift_zero_identity(self):
        s = NoiseStream(seed=1, dt=0.5)
        assert wiener_shift(s, 0) == s

    @pytest.mark.parametrize("t", [0.3, 2.0, np.float64(1.0)])
    def test_shift_by_a_time_is_a_type_error(self, t):
        # the shift is a step count; a time must go through steps_for
        with pytest.raises(TypeError):
            wiener_shift(NoiseStream(seed=1, dt=0.1), t)

    def test_misaligned_shift_rejected(self):
        stream = NoiseStream(seed=1, dt=0.1)
        assert stream.steps_for(0.3) == 3
        with pytest.raises(ConfigError):
            stream.steps_for(0.05)

    def test_negative_steps_valid(self):
        s = NoiseStream(seed=2, dt=0.1)
        vals = s.normals(-1000, 4)
        assert np.all(np.isfinite(vals))

    def test_prefix_stability(self):
        # a longer read must extend, not reshuffle, a shorter one
        s = NoiseStream(seed=5, dt=0.1)
        short = s.normals(3, 10)
        long = s.normals(3, 25)
        assert np.array_equal(short, long[:10])

    def test_standard_normal_marginals(self):
        s = NoiseStream(seed=6, dt=0.1)
        vals = np.concatenate([s.normals(j, 64) for j in range(400)])
        n = vals.size
        assert abs(np.mean(vals)) < 4.0 / math.sqrt(n)
        assert abs(np.var(vals) - 1.0) < 4.0 * math.sqrt(2.0 / n)
        # independence across steps: lag correlation at the same channel
        per_step = vals.reshape(400, 64)
        corr = np.corrcoef(per_step[:-1, 0], per_step[1:, 0])[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(399)


def fresh_normals(seed: int, step: int, count: int) -> np.ndarray:
    """The draw `normals` must reproduce: a newly built Philox and Generator."""
    bitgen = np.random.Philox(key=seed % 2**128, counter=(step % 2**64) << 64)
    return np.random.Generator(bitgen).standard_normal(count)


class TestReseatedGenerator:
    @pytest.mark.parametrize("seed", [0, 3, 2**64 + 5, -7])
    @pytest.mark.parametrize("step", [0, 1, -1, -1000, 2**63, 2**64 - 1])
    def test_matches_a_fresh_generator(self, seed, step):
        got = NoiseStream(seed=seed, dt=0.1).normals(step, 37)
        assert np.array_equal(got, fresh_normals(seed, step, 37))

    def test_nonzero_origin(self):
        stream = NoiseStream(seed=11, dt=0.1, origin=-5)
        for j in (0, 4, 5, 123):
            assert np.array_equal(stream.normals(j, 9), fresh_normals(11, j - 5, 9))

    def test_counter_wraps_past_two_to_the_64(self):
        # step + origin runs from below 2**64 to past it; the reseat state keeps
        # (step + origin) % 2**64, a plain int that fits its uint64 counter word
        stream = NoiseStream(seed=11, dt=0.1, origin=2**64 - 2)
        for j in (0, 1, 2, 3, 100):
            assert np.array_equal(stream.normals(j, 9), fresh_normals(11, j + 2**64 - 2, 9))
            state = _philox(11)[2]
            for word in (*state["state"]["counter"], *state["state"]["key"], *state["buffer"]):
                assert type(word) is int and 0 <= word < 2**64

    def test_interleaved_streams(self):
        # same seed at two origins, and a different seed, read in turn with
        # varying counts: every read starts from an empty buffer at its step
        streams = [
            (NoiseStream(seed=8, dt=0.1), 8, 0),
            (NoiseStream(seed=8, dt=0.1, origin=100), 8, 100),
            (NoiseStream(seed=9, dt=0.2), 9, 0),
        ]
        for j in range(-3, 6):
            for i, (stream, seed, origin) in enumerate(streams):
                count = 1 + 3 * (j + 3) + i
                got = stream.normals(j, count)
                assert np.array_equal(got, fresh_normals(seed, j + origin, count))


class TestCovarianceSpec:
    def test_boundary_trace(self, grid32):
        cov = CovarianceSpec(2.0, 3.0, 4)
        qs = cov.boundary_variances(grid32)
        assert qs.shape == (4,)
        assert float(np.sum(qs)) == pytest.approx(2.0 * sum(k ** -3.0 for k in (1, 2, 3, 4)))

    def test_interior_traces_finite(self, grid32):
        cov = CovarianceSpec(1.0, 2.5, 6)
        q = cov.interior_variances(grid32)
        trace_h, trace_v = float(np.sum(q)), float(np.sum(laplacian_eigenvalues(grid32) * q))
        assert 0 < trace_h < trace_v < np.inf

    def test_boundary_decay_validation(self, grid32):
        with pytest.raises(ConfigError):
            CovarianceSpec(1.0, 1.0, 4).boundary_variances(grid32)

    def test_interior_decay_validation(self, grid32):
        with pytest.raises(ConfigError):
            CovarianceSpec(1.0, 1.5, 4).interior_variances(grid32)

    def test_amplitude_zero_is_noise_off(self, grid32):
        cov = CovarianceSpec(0.0, 1.5, 4)
        assert np.all(cov.boundary_variances(grid32) == 0.0)
        assert cov.boundary_variances(grid32).size == 0  # no boundary channels
        assert np.all(cov.interior_variances(grid32) == 0.0)

    def test_cutoff_respected(self, grid32):
        cov = CovarianceSpec(1.0, 2.5, 5)
        q = cov.interior_variances(grid32)
        assert q[5, 0] > 0 and q[6, 0] == 0.0 and q[0, 6] == 0.0


class TestStationaryLaw:
    def test_zero_amplitude_gives_zero_fields(self, grid32):
        cov0 = CovarianceSpec(0.0, 3.0, 4)
        kernel = OUKernel(grid32, PARAMS, cov0, cov0, 0.1)
        zw = ou_init(kernel, NoiseStream(seed=1, dt=0.1))
        planes = kernel.planes(zw)
        assert not planes[0].any() and not planes[1].any()

    def test_single_channel_variance_oracle(self, grid32):
        # scalar OU oracle: variance = gain^2 * q / (2 * rate) per mode,
        # with gain nu*lambda through the lift and rate nu*lambda
        cov1 = CovarianceSpec(1.0, 3.0, 1)
        cov0 = CovarianceSpec(0.0, 3.0, 1)
        kernel = OUKernel(grid32, PARAMS, cov1, cov0, 0.1)
        lift = lifting_matrix(grid32, 1.0, n_modes=1)
        v1, _ = kernel.planes(kernel.stat_gain**2)
        lam = np.pi**2 * (np.arange(grid32.n + 1) ** 2 + 1.0)
        q1 = 1.0
        for m in (0, 1, 5):
            gain = 1.0 * lam[m] * lift[m, 0]
            expected = gain**2 * q1 / (2.0 * 1.0 * lam[m])
            assert v1[m, 1] == pytest.approx(expected, rel=1e-12)
        # equivalent form: (nu*lambda/2) * L^2 * q
        m = 3
        assert v1[m, 1] == pytest.approx(0.5 * lam[m] * lift[m, 0] ** 2, rel=1e-12)

    def test_empirical_variance_matches_analytic(self, grid32):
        cov1 = CovarianceSpec(1e-2, 3.0, 3)
        cov2 = CovarianceSpec(1e-2, 2.5, 3)
        kernel = OUKernel(grid32, PARAMS, cov1, cov2, 0.1)
        stream = NoiseStream(seed=42, dt=0.1)
        v1, v2 = kernel.planes(kernel.stat_gain**2)
        n_samples = 3000
        acc1 = np.zeros(grid32.shape)
        acc2 = np.zeros(grid32.shape)
        for i in range(n_samples):
            zw1, zw2 = kernel.planes(ou_init(kernel, wiener_shift(stream, -i)))
            acc1 += zw1**2
            acc2 += zw2**2
        acc1 /= n_samples
        acc2 /= n_samples
        tol = 6.0 * math.sqrt(2.0 / n_samples)
        assert np.max(np.abs(acc1[v1 > 0] / v1[v1 > 0] - 1.0)) < tol
        assert np.max(np.abs(acc2[v2 > 0] / v2[v2 > 0] - 1.0)) < tol

    def test_channel_independence(self, grid32):
        # boundary-driven and interior-driven processes must be uncorrelated
        cov1 = CovarianceSpec(1.0, 3.0, 2)
        cov2 = CovarianceSpec(1.0, 2.5, 2)
        kernel = OUKernel(grid32, PARAMS, cov1, cov2, 0.1)
        stream = NoiseStream(seed=7, dt=0.1)
        n_samples = 4000
        a = np.empty(n_samples)
        b = np.empty(n_samples)
        for i in range(n_samples):
            zw1, zw2 = kernel.planes(ou_init(kernel, wiener_shift(stream, -i)))
            a[i] = zw1[0, 1]
            b[i] = zw2[0, 1]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n_samples)


NOISE_CASES = {
    "both": (CovarianceSpec(1e-2, 3.0, 3), CovarianceSpec(1e-2, 2.5, 3)),
    "boundary_only": (CovarianceSpec(1e-2, 3.0, 3), CovarianceSpec(0.0, 2.5, 3)),
    "interior_only": (CovarianceSpec(0.0, 3.0, 3), CovarianceSpec(1e-2, 2.5, 3)),
    "off": (CovarianceSpec(0.0, 3.0, 3), CovarianceSpec(0.0, 2.5, 3)),
}


class TestArrayState:
    """The chain is a bare read-only float64 vector over the kernel's support: no `Field` is built and no wrapper."""

    def test_init_and_step_build_no_field(self, grid32, field_inits):
        kernel = OUKernel(grid32, PARAMS, CovarianceSpec(1e-2, 3.0, 3), CovarianceSpec(1e-2, 2.5, 3), 0.1)
        stream = NoiseStream(seed=4, dt=0.1)
        zw = ou_init(kernel, stream)
        assert field_inits[0] == 0
        ou_step(kernel, zw, stream, 0)
        assert field_inits[0] == 0

    @pytest.mark.parametrize("plane", [0, 1], ids=["zw1", "zw2"])
    def test_state_arrays_are_read_only(self, grid32, plane):
        kernel = OUKernel(grid32, PARAMS, CovarianceSpec(1e-2, 3.0, 3), CovarianceSpec(1e-2, 2.5, 3), 0.1)
        stream = NoiseStream(seed=5, dt=0.1)
        for zw in (ou_init(kernel, stream), ou_step(kernel, ou_init(kernel, stream), stream, 0)):
            with pytest.raises(ValueError):
                zw[chain_entry(kernel, plane, 1, 1)] = 1.0

    @pytest.mark.parametrize("case", sorted(NOISE_CASES))
    def test_init_and_step_return_read_only_ndarrays(self, grid32, case):
        kernel = OUKernel(grid32, PARAMS, *NOISE_CASES[case], 0.1)
        stream = NoiseStream(seed=6, dt=0.1)
        zw = ou_init(kernel, stream)
        for new in (zw, ou_step(kernel, zw, stream, 0)):
            assert type(new) is np.ndarray
            assert new.shape == (kernel.index.size,) and new.dtype == np.float64
            assert not new.flags.writeable
        assert kernel.combined(zw).shape == kernel.cells.shape and kernel.combined(zw).dtype == np.float64


def full_array_step(kernel, zw, stream, step):
    """Reference update on whole arrays, plane by plane: decay * z + gain * noise.

    The noise is laid out on the lattice without the kernel's channel list:
    one normal per lift column on every row of plane 0, one per interior
    mode of plane 1 in row-major order.  The decay is formed here on the
    lattice, exp(-nu lambda dt) on the retained modes, for nu = 1 and
    dt = 0.1.
    """
    grid = kernel.grid
    mask = retained_mask(grid, Basis.NEUMANN_COSINE)
    decay = np.where(mask, np.exp(-1.0 * laplacian_eigenvalues(grid) * 0.1), 0.0)
    nb, nc = kernel.n_boundary, kernel.n_channels
    vals = stream.normals(step, 2 * nc)
    gain = np.zeros(zw.shape)
    gain.reshape(-1)[kernel.index] = kernel.step_gain
    noise = np.zeros(zw.shape)
    noise[0, :, 1 : 1 + nb] = vals[:nb]
    noise[1][gain[1] > 0] = vals[nb:nc]
    return np.array([decay * zw[0], decay * zw[1]]) + gain * noise


class TestChainUpdate:
    """`ou_step` is the whole-array update on the support, and draws only its half of the channels."""

    @pytest.mark.parametrize(
        "case, n",
        [pytest.param(case, 32, id=case) for case in sorted(NOISE_CASES)]
        + [pytest.param(case, 256, id=f"{case}-256") for case in sorted(NOISE_CASES)],
    )
    def test_matches_full_array_update_bit_for_bit(self, case, n):
        kernel = OUKernel(GridSpec(n), PARAMS, *NOISE_CASES[case], 0.1)
        stream = NoiseStream(seed=31, dt=0.1, origin=-50)
        zw = ou_init(kernel, stream)
        ref = kernel.planes(zw)
        for j in range(200):
            ref = full_array_step(kernel, ref, stream, j)
            zw = ou_step(kernel, zw, stream, j)
            assert kernel.planes(zw).tobytes() == ref.tobytes()
        planes = kernel.planes(zw)
        assert np.any(planes[0]) == (case in ("both", "boundary_only"))
        assert np.any(planes[1]) == (case in ("both", "interior_only"))

    @pytest.mark.parametrize("case", sorted(NOISE_CASES))
    def test_each_state_owns_read_only_arrays(self, grid32, case):
        kernel = OUKernel(grid32, PARAMS, *NOISE_CASES[case], 0.1)
        stream = NoiseStream(seed=8, dt=0.1)
        zw = ou_init(kernel, stream)
        tables = (
            kernel.decay, kernel.index, kernel.channel, kernel.step_gain, kernel.stat_gain, kernel.cells, kernel.into
        )
        for j in range(5):
            new = ou_step(kernel, zw, stream, j)
            assert new.shape == (kernel.index.size,)
            assert not new.flags.writeable
            assert not np.shares_memory(new, zw)
            assert not any(np.shares_memory(new, t) for t in tables)
            zw = new
        assert not any(t.flags.writeable for t in tables)

    @pytest.mark.parametrize("case", sorted(NOISE_CASES))
    def test_cells_are_the_union_of_the_planes(self, grid32, case):
        # `cells` and `into` are np.unique of the entries' lattice cells with
        # its inverse, and `combined` is zw1 + zw2 of the planes there
        kernel = OUKernel(grid32, PARAMS, *NOISE_CASES[case], 0.1)
        cells, into = np.unique(kernel.index % grid32.shape[0] ** 2, return_inverse=True)
        assert np.array_equal(kernel.cells, cells) and np.array_equal(kernel.into, into)
        zw = ou_step(kernel, ou_init(kernel, NoiseStream(seed=9, dt=0.1)), NoiseStream(seed=9, dt=0.1), 0)
        planes = kernel.planes(zw)
        assert np.array_equal(kernel.combined(zw), (planes[0] + planes[1]).take(kernel.cells))
        assert not np.any(np.delete(planes.sum(axis=0), kernel.cells))

    @pytest.mark.parametrize("n", [16, 50, 256])
    def test_implicit_divisor(self, n):
        # the step's diffusion-plus-friction solve, kept next to the chain's
        # decay: 1 + dt (nu lambda + r) on the retained modes, +inf off them
        grid = GridSpec(n)
        params = ModelParams(nu=0.7, r=1.3)
        kernel = OUKernel(grid, params, *NOISE_CASES["off"], 0.01)
        lam = laplacian_eigenvalues(grid)
        retained = retained_mask(grid, Basis.NEUMANN_COSINE)
        want = np.where(retained, 1.0 + 0.01 * (params.nu * lam + params.r), np.inf)
        assert kernel.implicit_divisor.tobytes() == want.tobytes()
        assert not kernel.implicit_divisor.flags.writeable

    @pytest.mark.parametrize("case", sorted(NOISE_CASES.keys() - {"off"}))
    def test_draws_per_call(self, grid32, monkeypatch, case):
        kernel = OUKernel(grid32, PARAMS, *NOISE_CASES[case], 0.1)
        counts = []
        normals = NoiseStream.normals

        def counted(self, step, count):
            counts.append(count)
            return normals(self, step, count)

        monkeypatch.setattr(NoiseStream, "normals", counted)
        stream = NoiseStream(seed=2, dt=0.1)
        zw = ou_init(kernel, stream)
        ou_step(kernel, zw, stream, 0)
        assert kernel.n_channels > 0
        assert counts == [2 * kernel.n_channels, kernel.n_channels]


class TestOUStep:
    def test_pure_decay_without_noise(self, grid32):
        cov1 = CovarianceSpec(1e-3, 3.0, 2)
        cov0 = CovarianceSpec(0.0, 3.0, 2)
        kernel = OUKernel(grid32, PARAMS, cov1, cov0, 0.2)
        stream = NoiseStream(seed=3, dt=0.2)
        zw = ou_init(kernel, stream)

        class ZeroNormals:
            """A stream whose increments are all zero."""

            def normals(self, step, count):
                return np.zeros(count)

        stepped = kernel.planes(ou_step(kernel, zw, ZeroNormals(), 0))
        lam = np.pi**2 * (
            np.add.outer(np.arange(grid32.n + 1.0) ** 2, np.arange(grid32.n + 1.0) ** 2)
        )
        mask = retained_mask(grid32, Basis.NEUMANN_COSINE)
        expected = np.where(mask, np.exp(-1.0 * lam * 0.2), 0.0) * kernel.planes(zw)[0]
        assert np.max(np.abs(stepped[0] - expected)) < 1e-15

    def test_autocovariance_shape(self, grid32):
        # single interior mode chain: autocorrelation e^{-nu lambda j dt}
        cov0 = CovarianceSpec(0.0, 3.0, 1)
        cov2 = CovarianceSpec(1.0, 2.5, 1)
        dt = 0.1
        kernel = OUKernel(grid32, PARAMS, cov0, cov2, dt)
        stream = NoiseStream(seed=11, dt=dt)
        zw = ou_init(kernel, stream)
        probe = chain_entry(kernel, 1, 1, 0)
        n_steps = 20000
        series = np.empty(n_steps)
        for j in range(n_steps):
            series[j] = zw[probe]
            zw = ou_step(kernel, zw, stream, j)
        rate = 1.0 * np.pi**2  # mode (1, 0)
        var = np.var(series)
        for lag in (1, 2, 3):
            emp = np.mean(series[:-lag] * series[lag:]) / var
            assert emp == pytest.approx(math.exp(-rate * lag * dt), abs=0.03)

    def test_stationary_mean_and_variance_along_chain(self, grid32):
        cov1 = CovarianceSpec(1e-2, 3.0, 2)
        cov2 = CovarianceSpec(1e-2, 2.5, 2)
        dt = 0.4
        kernel = OUKernel(grid32, PARAMS, cov1, cov2, dt)
        stream = NoiseStream(seed=13, dt=dt)
        zw = ou_init(kernel, stream)
        _, v2 = kernel.planes(kernel.stat_gain**2)
        n_steps = 20000
        acc_mean = np.zeros(zw.shape)
        acc_sq = np.zeros(zw.shape)
        for j in range(n_steps):
            acc_mean += zw
            acc_sq += zw**2
            zw = ou_step(kernel, zw, stream, j)
        mean = kernel.planes(acc_mean)[1] / n_steps
        var = kernel.planes(acc_sq)[1] / n_steps
        sel = v2 > 0
        # mean within 4 standard errors of 0
        se = np.sqrt(v2[sel] / n_steps) * 2.0  # inflation for residual correlation
        assert np.all(np.abs(mean[sel]) < 4.0 * se)
        assert np.max(np.abs(var[sel] / v2[sel] - 1.0)) < 0.05

    def test_shift_equivariance_with_transport(self, grid32):
        # stepping at origin o for j steps == stepping at origin o+j for 0
        # steps, given the initial state is transported
        cov1 = CovarianceSpec(1e-2, 3.0, 2)
        cov2 = CovarianceSpec(1e-2, 2.5, 2)
        kernel = OUKernel(grid32, PARAMS, cov1, cov2, 0.1)
        s0 = NoiseStream(seed=21, dt=0.1)
        s3 = wiener_shift(s0, 3)
        zw = ou_init(kernel, s0)
        for j in range(3):
            zw = ou_step(kernel, zw, s0, j)
        # transported: the same state, stepping the shifted stream from step 0
        a = kernel.planes(ou_step(kernel, zw, s0, 3))
        b = kernel.planes(ou_step(kernel, zw, s3, 0))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_gradient_moments_stable_under_doubling(self, grid32):
        cov1 = CovarianceSpec(1e-2, 3.0, 3)
        cov2 = CovarianceSpec(1e-2, 2.5, 3)
        kernel = OUKernel(grid32, PARAMS, cov1, cov2, 0.1)
        stream = NoiseStream(seed=17, dt=0.1)

        def moments(m):
            g2 = np.empty(m)
            for i in range(m):
                zw1, zw2 = kernel.planes(ou_init(kernel, wiener_shift(stream, -i)))
                g2[i] = norm_h1(zw1 + zw2) ** 2
            return np.mean(g2), np.mean(g2**2)

        m2a, m4a = moments(2000)
        m2b, m4b = moments(4000)
        assert np.isfinite(m4b)
        assert abs(m2a / m2b - 1.0) < 0.05
        assert abs(m4a / m4b - 1.0) < 0.12


class TestTemperedness:
    def test_constant_series(self):
        assert temperedness_diagnostic(np.ones(500), 100.0) == 0.0

    def test_exponential_series(self):
        t = np.linspace(0.0, 200.0, 2001)
        assert temperedness_diagnostic(np.exp(0.5 * t), 200.0) == pytest.approx(0.5, rel=0.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            temperedness_diagnostic([], 10.0)

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            temperedness_diagnostic(np.ones(50), 10.0)

    def test_non_finite_series_rejected(self):
        for bad in (np.nan, np.inf):
            series = np.ones(500)
            series[400] = bad
            with pytest.raises(ValueError, match="series must be finite"):
                temperedness_diagnostic(series, 100.0)

    def test_horizon_must_be_finite_and_positive(self):
        for horizon in (0.0, -100.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="horizon must be finite and positive"):
                temperedness_diagnostic(np.ones(500), horizon)

    def test_stationary_orbit_is_tame(self, grid32):
        cov1 = CovarianceSpec(3e-4, 3.0, 4)
        cov2 = CovarianceSpec(3e-4, 2.5, 4)
        dt = 0.1
        kernel = OUKernel(grid32, PARAMS, cov1, cov2, dt)
        stream = NoiseStream(seed=29, dt=dt)
        zw = ou_init(kernel, stream)
        n_steps = 2001
        series = np.empty(n_steps)
        for j in range(n_steps):
            series[j] = np.sqrt(np.sum(kernel.planes(zw)[0] ** 2))
            zw = ou_step(kernel, zw, stream, j)
        assert temperedness_diagnostic(series, 200.0) < 0.05

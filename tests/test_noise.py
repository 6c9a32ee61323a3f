"""Noise streams, covariance validation, stationary coefficient processes."""

import math

import numpy as np
import pytest

from qgsync.dynamics import ModelParams
from qgsync.fields import Basis, norm_h1, norm_l2, retained_mask
from qgsync.noise import (
    ConfigError,
    CovarianceSpec,
    NoiseStream,
    OUKernel,
    ou_init,
    ou_step,
    temperedness_diagnostic,
    wiener_shift,
)
from qgsync.operators import lifting_matrix


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
        a = wiener_shift(wiener_shift(s, 2.0), -3.5)
        b = wiener_shift(s, -1.5)
        assert a == b

    def test_shift_zero_identity(self):
        s = NoiseStream(seed=1, dt=0.5)
        assert wiener_shift(s, 0.0) == s

    def test_misaligned_shift_rejected(self):
        with pytest.raises(ConfigError):
            wiener_shift(NoiseStream(seed=1, dt=0.1), 0.05)

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
    @pytest.mark.parametrize("step", [0, 1, -1, -1000, 2**63])
    def test_matches_a_fresh_generator(self, seed, step):
        got = NoiseStream(seed=seed, dt=0.1).normals(step, 37)
        assert np.array_equal(got, fresh_normals(seed, step, 37))

    def test_nonzero_origin(self):
        stream = NoiseStream(seed=11, dt=0.1, origin=-5)
        for j in (0, 4, 5, 123):
            assert np.array_equal(stream.normals(j, 9), fresh_normals(11, j - 5, 9))

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
        assert cov.boundary_trace(grid32) == pytest.approx(2.0 * sum(k ** -3.0 for k in (1, 2, 3, 4)))

    def test_interior_traces_finite(self, grid32):
        cov = CovarianceSpec(1.0, 2.5, 6)
        trace_h, trace_v = cov.interior_traces(grid32)
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
        assert np.all(cov.interior_variances(grid32) == 0.0)

    def test_cutoff_respected(self, grid32):
        cov = CovarianceSpec(1.0, 2.5, 5)
        q = cov.interior_variances(grid32)
        assert q[5, 0] > 0 and q[6, 0] == 0.0 and q[0, 6] == 0.0


class TestStationaryLaw:
    def test_zero_amplitude_gives_zero_fields(self, grid32):
        cov0 = CovarianceSpec(0.0, 3.0, 4)
        kernel = OUKernel(grid32, 1.0, cov0, cov0, 0.1)
        state = ou_init(kernel, NoiseStream(seed=1, dt=0.1))
        assert norm_l2(state.zw1) == 0.0 and norm_l2(state.zw2) == 0.0

    def test_single_channel_variance_oracle(self, grid32):
        # scalar OU oracle: variance = gain^2 * q / (2 * rate) per mode,
        # with gain nu*lambda through the lift and rate nu*lambda
        cov1 = CovarianceSpec(1.0, 3.0, 1)
        cov0 = CovarianceSpec(0.0, 3.0, 1)
        kernel = OUKernel(grid32, 1.0, cov1, cov0, 0.1)
        lift = lifting_matrix(grid32, 1.0, n_modes=1)
        v1, _ = kernel.stationary_variances()
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
        kernel = OUKernel(grid32, 1.0, cov1, cov2, 0.1)
        stream = NoiseStream(seed=42, dt=0.1)
        v1, v2 = kernel.stationary_variances()
        n_samples = 3000
        acc1 = np.zeros(grid32.shape)
        acc2 = np.zeros(grid32.shape)
        for i in range(n_samples):
            st = ou_init(kernel, wiener_shift(stream, -i * 0.1))
            acc1 += st.zw1.coeffs**2
            acc2 += st.zw2.coeffs**2
        acc1 /= n_samples
        acc2 /= n_samples
        tol = 6.0 * math.sqrt(2.0 / n_samples)
        assert np.max(np.abs(acc1[v1 > 0] / v1[v1 > 0] - 1.0)) < tol
        assert np.max(np.abs(acc2[v2 > 0] / v2[v2 > 0] - 1.0)) < tol

    def test_channel_independence(self, grid32):
        # boundary-driven and interior-driven processes must be uncorrelated
        cov1 = CovarianceSpec(1.0, 3.0, 2)
        cov2 = CovarianceSpec(1.0, 2.5, 2)
        kernel = OUKernel(grid32, 1.0, cov1, cov2, 0.1)
        stream = NoiseStream(seed=7, dt=0.1)
        n_samples = 4000
        a = np.empty(n_samples)
        b = np.empty(n_samples)
        for i in range(n_samples):
            st = ou_init(kernel, wiener_shift(stream, -i * 0.1))
            a[i] = st.zw1.coeffs[0, 1]
            b[i] = st.zw2.coeffs[0, 1]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n_samples)


class TestOUStep:
    def test_pure_decay_without_noise(self, grid32):
        cov1 = CovarianceSpec(1e-3, 3.0, 2)
        cov0 = CovarianceSpec(0.0, 3.0, 2)
        kernel = OUKernel(grid32, 1.0, cov1, cov0, 0.2)
        stream = NoiseStream(seed=3, dt=0.2)
        state = ou_init(kernel, stream)
        # zero the increments by stepping a zero-amplitude kernel clone
        kernel0 = OUKernel(grid32, 1.0, CovarianceSpec(0.0, 3.0, 2), cov0, 0.2)
        from qgsync.noise import CoefficientState

        frozen = CoefficientState(t=0.0, step=0, zw1=state.zw1, zw2=state.zw2, kernel=kernel0)
        stepped = ou_step(frozen, stream, 0)
        lam = np.pi**2 * (
            np.add.outer(np.arange(grid32.n + 1.0) ** 2, np.arange(grid32.n + 1.0) ** 2)
        )
        mask = retained_mask(grid32, Basis.NEUMANN_COSINE)
        expected = np.where(mask, np.exp(-1.0 * lam * 0.2), 0.0) * state.zw1.coeffs
        assert np.max(np.abs(stepped.zw1.coeffs - expected)) < 1e-15

    def test_autocovariance_shape(self, grid32):
        # single interior mode chain: autocorrelation e^{-nu lambda j dt}
        cov0 = CovarianceSpec(0.0, 3.0, 1)
        cov2 = CovarianceSpec(1.0, 2.5, 1)
        dt = 0.1
        kernel = OUKernel(grid32, 1.0, cov0, cov2, dt)
        stream = NoiseStream(seed=11, dt=dt)
        state = ou_init(kernel, stream)
        n_steps = 20000
        series = np.empty(n_steps)
        for j in range(n_steps):
            series[j] = state.zw2.coeffs[1, 0]
            state = ou_step(state, stream, j)
        rate = 1.0 * np.pi**2  # mode (1, 0)
        var = np.var(series)
        for lag in (1, 2, 3):
            emp = np.mean(series[:-lag] * series[lag:]) / var
            assert emp == pytest.approx(math.exp(-rate * lag * dt), abs=0.03)

    def test_stationary_mean_and_variance_along_chain(self, grid32):
        cov1 = CovarianceSpec(1e-2, 3.0, 2)
        cov2 = CovarianceSpec(1e-2, 2.5, 2)
        dt = 0.4
        kernel = OUKernel(grid32, 1.0, cov1, cov2, dt)
        stream = NoiseStream(seed=13, dt=dt)
        state = ou_init(kernel, stream)
        v1, v2 = kernel.stationary_variances()
        n_steps = 20000
        acc_mean = np.zeros(grid32.shape)
        acc_sq = np.zeros(grid32.shape)
        for j in range(n_steps):
            z = state.zw2.coeffs
            acc_mean += z
            acc_sq += z**2
            state = ou_step(state, stream, j)
        mean = acc_mean / n_steps
        var = acc_sq / n_steps
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
        kernel = OUKernel(grid32, 1.0, cov1, cov2, 0.1)
        s0 = NoiseStream(seed=21, dt=0.1)
        s3 = wiener_shift(s0, 0.3)
        state = ou_init(kernel, s0)
        for j in range(3):
            state = ou_step(state, s0, j)
        # transported: same arrays, clock rebased, stepping the shifted stream
        from qgsync.noise import CoefficientState

        transported = CoefficientState(t=0.0, step=0, zw1=state.zw1, zw2=state.zw2, kernel=kernel)
        a = ou_step(state, s0, 3)
        b = ou_step(transported, s3, 0)
        assert np.array_equal(a.zw1.coeffs, b.zw1.coeffs)
        assert np.array_equal(a.zw2.coeffs, b.zw2.coeffs)

    def test_gradient_moments_stable_under_doubling(self, grid32):
        cov1 = CovarianceSpec(1e-2, 3.0, 3)
        cov2 = CovarianceSpec(1e-2, 2.5, 3)
        kernel = OUKernel(grid32, 1.0, cov1, cov2, 0.1)
        stream = NoiseStream(seed=17, dt=0.1)

        def moments(m):
            g2 = np.empty(m)
            for i in range(m):
                st = ou_init(kernel, wiener_shift(stream, -i * 0.1))
                g2[i] = norm_h1(st.zw1 + st.zw2) ** 2
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

    def test_stationary_orbit_is_tame(self, grid32):
        cov1 = CovarianceSpec(3e-4, 3.0, 4)
        cov2 = CovarianceSpec(3e-4, 2.5, 4)
        dt = 0.1
        kernel = OUKernel(grid32, 1.0, cov1, cov2, dt)
        stream = NoiseStream(seed=29, dt=dt)
        state = ou_init(kernel, stream)
        n_steps = 2001
        series = np.empty(n_steps)
        for j in range(n_steps):
            series[j] = norm_l2(state.zw1)
            state = ou_step(state, stream, j)
        assert temperedness_diagnostic(series, 200.0) < 0.05

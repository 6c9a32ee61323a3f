"""Radius quadrature, contraction condition, synchronization diagnostics."""

import math

import numpy as np
import pytest

from qgsync.analysis import (
    CONDITION_GAP_TIME,
    _NORM_BLOCK,
    DecayConditionError,
    _coefficient_window,
    _norm_squares,
    _rates,
    _stationary_moments,
    _window_steps,
    check_condition,
    decay_margin,
    driver_from_norms,
    propagate_rho_squared,
    radius_invariance_experiment,
    stationary_statistics,
    synchronization_experiment,
)
from qgsync import analysis, dynamics, fields, operators
from qgsync.config import RunConfig
from qgsync.fields import Basis, Field, laplacian_eigenvalues, norm_h1, norm_l2
from qgsync.noise import CovarianceSpec, ModelParams, NoiseStream, OUKernel, ou_init, ou_step, wiener_shift
from qgsync.operators import C_GX_EXACT, LAMBDA1, estimate_constants

from conftest import dealiased, mode_field, random_field

PARAMS = ModelParams(nu=1.0, r=1.0, beta=0.1)
COV1 = CovarianceSpec(3e-4, 3.0, 4)
COV2 = CovarianceSpec(3e-4, 2.5, 4)
COV_OFF = CovarianceSpec(0.0, 3.0, 4)

# a fixed plug-in c_b keeps the oracle arithmetic transparent
CONSTS = 0.25
RATES = _rates(PARAMS, CONSTS)


def window_series(kernel, stream, steps):
    """(|grad w|^2, R, zw) of the radius window, R under PARAMS and CONSTS."""
    l2, h1, zw = _coefficient_window(kernel, stream, steps)
    return h1, driver_from_norms(l2, h1, RATES), zw


class TestDriver:
    def test_zero_coefficients(self, grid32):
        kernel = OUKernel(grid32, PARAMS, COV_OFF, COV_OFF, 0.01)
        zw = ou_init(kernel, NoiseStream(seed=1, dt=0.01))
        lam = laplacian_eigenvalues(grid32).take(kernel.cells)
        l2, h1 = _norm_squares(kernel.combined(zw)[np.newaxis], lam)
        assert h1[0] == 0.0 and driver_from_norms(l2, h1, RATES)[0] == 0.0

    def test_plugin_arithmetic(self):
        # beta = 0, r = 1, nu = 1, |w| = 1, |grad w| = 0 -> R = 3 / pi^2
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        val = driver_from_norms(1.0, 0.0, _rates(params, CONSTS))
        assert val == pytest.approx(3.0 / np.pi**2, rel=1e-14)
        # independent sum of the two pieces
        quad = 3.0 * (C_GX_EXACT * 0.0 + 1.0) ** 2 / (1.0 * np.pi**2) * 1.0
        mix = 3.0 * CONSTS**2 / 1.0 * 1.0 * 0.0
        assert val == pytest.approx(quad + mix, rel=1e-14)

    def test_quadratic_homogeneity(self):
        base = driver_from_norms(1.7, 0.0, RATES)
        for c in (0.5, 2.0, 7.0):
            assert driver_from_norms(c**2 * 1.7, 0.0, RATES) == pytest.approx(
                c**2 * base, rel=1e-12
            )

    def test_matches_field_norms(self, grid32):
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        zw = ou_init(kernel, NoiseStream(seed=2, dt=0.01))
        planes = kernel.planes(zw)
        w = planes[0] + planes[1]
        direct = driver_from_norms(norm_l2(w) ** 2, norm_h1(w) ** 2, RATES)
        l2, h1 = _norm_squares(kernel.combined(zw)[np.newaxis], laplacian_eigenvalues(grid32).take(kernel.cells))
        assert driver_from_norms(l2, h1, RATES)[0] == pytest.approx(direct, rel=1e-14)


class TestCoefficientWindow:
    """The block-norm window against lattice norms per step, and R of a series against R per step.

    The chain is compared bit for bit.  The window sums |w|^2 and |grad w|^2
    over the support's cells, the reference over whole lattices, so those
    and R are compared within a relative `RTOL` fixed in advance.
    """

    RTOL = 1e-14

    @staticmethod
    def reference(stream, cov1, cov2, grid, steps):
        past = wiener_shift(stream, -steps)
        kernel = OUKernel(grid, PARAMS, cov1, cov2, stream.dt)
        zw = ou_init(kernel, past)
        l2 = np.empty(steps + 1)
        h1 = np.empty(steps + 1)
        r = np.empty(steps + 1)
        for j in range(steps + 1):
            planes = kernel.planes(zw)
            w = planes[0] + planes[1]
            l2[j] = norm_l2(w) ** 2
            h1[j] = norm_h1(w) ** 2
            r[j] = driver_from_norms(norm_l2(w) ** 2, norm_h1(w) ** 2, RATES)
            if j < steps:
                zw = ou_step(kernel, zw, past, j)
        return l2, h1, r, zw

    # windows within one block, and the block edges B - 1, B, B + 1 and 2B + 1 wherever `_NORM_BLOCK` lands
    STEPS = sorted({15, 16, 17, 33, _NORM_BLOCK - 1, _NORM_BLOCK, _NORM_BLOCK + 1, 2 * _NORM_BLOCK + 1})

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize(
        "cov1, cov2",
        [(COV1, COV2), (COV_OFF, COV2), (COV1, COV_OFF), (COV_OFF, COV_OFF)],
        ids=["both", "no_boundary", "no_interior", "neither"],
    )
    def test_matches_per_step_loop(self, grid32, steps, cov1, cov2):
        stream = NoiseStream(seed=913, dt=0.01)
        kernel = OUKernel(grid32, PARAMS, cov1, cov2, stream.dt)
        l2, h1, zw = _coefficient_window(kernel, stream, steps)
        l2_ref, h1_ref, r_ref, zw_ref = self.reference(stream, cov1, cov2, grid32, steps)
        np.testing.assert_allclose(l2, l2_ref, rtol=self.RTOL, atol=0.0)
        np.testing.assert_allclose(h1, h1_ref, rtol=self.RTOL, atol=0.0)
        np.testing.assert_allclose(driver_from_norms(l2, h1, RATES), r_ref, rtol=self.RTOL, atol=0.0)
        assert np.array_equal(zw, zw_ref)

    def test_window_builds_no_field(self, grid32, field_inits):
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        _coefficient_window(kernel, NoiseStream(seed=3, dt=0.01), 100)
        assert field_inits[0] == 0


def trapezoid_rho_squared(g, r, dt):
    """Reference pullback trapezoid quadrature of the radius integrand.

    g and r sample |grad w|^2 and R on a uniform grid over [-T, 0], last
    entry at time 0; the inner integral of g is a cumulative trapezoid from
    the right.
    """
    m = g.size
    taus = -dt * np.arange(m - 1, -1, -1)
    a = LAMBDA1 * PARAMS.nu - 2.0 * PARAMS.beta * C_GX_EXACT + 2.0 * PARAMS.r
    c = 3.0 * CONSTS**2 / PARAMS.nu
    inner = np.zeros(m)
    inner[:-1] = np.cumsum((0.5 * dt * (g[:-1] + g[1:]))[::-1])[::-1]
    integrand = np.exp(a * taus + c * inner) * r
    return float(dt * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1])))


def pullback_rho_squared(g, r, dt):
    """rho^2 at the end of the window: the recursion started from 0."""
    return propagate_rho_squared(0.0, g, r, dt, RATES)[-1]


def rho_squared_at_origin(kernel, stream, window):
    """rho^2 at the stream's origin, over the window and with the moments `radius` forms."""
    grad2, _, _ = _stationary_moments(kernel, RATES)
    g, r, _ = window_series(kernel, stream, _window_steps(RATES, grad2, window, stream.dt))
    return pullback_rho_squared(g, r, stream.dt)


class TestRadiusQuadrature:
    def test_recursion_is_the_trapezoid_quadrature(self, grid32):
        dt = 0.01
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, dt)
        g, r, _ = window_series(kernel, NoiseStream(seed=7, dt=dt), 5000)
        want = trapezoid_rho_squared(g, r, dt)
        assert want > 0
        assert pullback_rho_squared(g, r, dt) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_noise_off_gives_zero(self, grid32):
        kernel = OUKernel(grid32, PARAMS, COV_OFF, COV_OFF, 0.01)
        assert rho_squared_at_origin(kernel, NoiseStream(seed=3, dt=0.01), 1.0) == 0.0

    def test_frozen_coefficients_closed_form(self):
        # constant driver, zero gradient: rho^2 = R / (lambda1 nu - 2 beta c_gx + 2r)
        dt = 0.005
        a = LAMBDA1 * PARAMS.nu - 2 * PARAMS.beta * C_GX_EXACT + 2 * PARAMS.r
        window = 40.0 / a
        m = int(round(window / dt)) + 1
        g = np.zeros(m)
        r_const = 2.31
        r = np.full(m, r_const)
        rho2 = pullback_rho_squared(g, r, dt)
        assert rho2 == pytest.approx(r_const / a, rel=1e-3)

    def test_quadrature_self_convergence(self):
        a = LAMBDA1 * PARAMS.nu - 2 * PARAMS.beta * C_GX_EXACT + 2 * PARAMS.r
        r_const = 1.0
        vals = []
        for dt in (0.02, 0.01):
            m = int(round((30.0 / a) / dt)) + 1
            taus = -dt * np.arange(m - 1, -1, -1)
            g = 0.3 * (1.0 + np.sin(taus))  # time-varying but analytic
            r = r_const * (1.0 + 0.5 * np.cos(taus))
            vals.append(pullback_rho_squared(g, r, dt))
        assert abs(vals[0] / vals[1] - 1.0) < 0.01

    def test_propagation_matches_requadrature(self, grid32):
        # one forward step of the affine recursion == a fresh pullback over
        # the window shifted by one step (up to the truncated tail)
        dt = 0.01
        stream = NoiseStream(seed=4, dt=dt)
        steps = 400
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, dt)
        g, r, _ = window_series(kernel, wiener_shift(stream, 1), steps + 1)
        rho2_old = pullback_rho_squared(g[:-1], r[:-1], dt)
        rho2_new = pullback_rho_squared(g[1:], r[1:], dt)
        prop = propagate_rho_squared(rho2_old, g[-2:], r[-2:], dt, RATES)[-1]
        assert prop == pytest.approx(rho2_new, rel=0.01)

    def test_path_is_the_scalar_recursion(self):
        # the whole path against the recursion written out one sample at a time, bit for bit
        rng = np.random.default_rng(27)
        dt = 0.01
        g = rng.uniform(0.0, 40.0, 50)
        r = rng.uniform(0.0, 3.0, 50)
        a = LAMBDA1 * PARAMS.nu - 2.0 * PARAMS.beta * C_GX_EXACT + 2.0 * PARAMS.r
        c = 3.0 * CONSTS**2 / PARAMS.nu
        expected = [0.37]
        for k in range(49):
            growth = math.exp(-a * dt + c * 0.5 * dt * (g[k] + g[k + 1]))
            expected.append(growth * expected[-1] + 0.5 * dt * (growth * r[k] + r[k + 1]))
        assert np.array_equal(propagate_rho_squared(0.37, g, r, dt, RATES), expected)

    @staticmethod
    def numpy_scalar_path(rho2, g, r, dt):
        """The recursion on numpy scalars, one sample at a time, writing each into the path."""
        a, c, _ = RATES
        path = np.empty(len(g))
        path[0] = rho2
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, len(g)):
                try:
                    growth = math.exp(-a * dt + c * 0.5 * dt * (g[k - 1] + g[k]))
                except OverflowError:
                    growth = math.inf
                path[k] = growth * path[k - 1] + 0.5 * dt * (growth * r[k - 1] + r[k])
        return path

    def test_path_has_the_bits_of_the_numpy_scalar_loop(self, grid32):
        # a window of several chunks, and windows whose growth factor or
        # products overflow: +inf from a positive path, nan from 0 * inf
        dt = 0.01
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, dt)
        g, r, _ = window_series(kernel, NoiseStream(seed=12, dt=dt), 3000)
        spike = np.full(2100, 1.0)
        spike[1500] = 1e300
        zeros = np.zeros(2100)
        huge = np.full(2100, 1e308)
        cases = [(0.0, g, r), (0.37, g, r), (0.5, spike, np.ones(2100)), (0.0, spike, zeros), (1.0, zeros, huge)]
        for rho2, gs, rs in cases:
            path = propagate_rho_squared(rho2, gs, rs, dt, RATES)
            assert path.tobytes() == self.numpy_scalar_path(rho2, gs, rs, dt).tobytes()
        assert np.isnan(propagate_rho_squared(0.0, spike, zeros, dt, RATES)[1500:]).all()
        assert np.isinf(propagate_rho_squared(1.0, zeros, huge, dt, RATES)[-1])

    def test_overflowing_growth_gives_inf_without_a_warning(self):
        # a spike of |grad w|^2 makes exp(-a dt + c dt g) pass the largest
        # float; pytest turns any RuntimeWarning into a failure
        g = np.full(6, 1.0)
        g[3] = 1e300
        r = np.full(6, 1.0)
        path = propagate_rho_squared(0.5, g, r, 0.01, RATES)
        assert np.isfinite(path[:3]).all()
        assert np.all(path[3:] == np.inf)

    def test_monotone_in_amplitude(self, grid32):
        rho2s = []
        for amp in (1e-4, 4e-4, 1.6e-3):
            c1 = CovarianceSpec(amp, 3.0, 4)
            c2 = CovarianceSpec(amp, 2.5, 4)
            kernel = OUKernel(grid32, PARAMS, c1, c2, 0.01)
            rho2s.append(rho_squared_at_origin(kernel, NoiseStream(seed=5, dt=0.01), None))
        assert rho2s[0] < rho2s[1] < rho2s[2]

    def test_default_window_guard(self):
        # a nonpositive margin is refused with the window left to default and with one given
        rates = _rates(ModelParams(nu=0.01, r=0.01, beta=0.0), CONSTS)
        for window in (None, 0.5):
            with pytest.raises(DecayConditionError):
                _window_steps(rates, 100.0, window, 0.01)

    def test_decay_margin_formula(self):
        m = decay_margin(RATES, grad2_mean=0.0)
        assert m == pytest.approx(np.pi**2 + 2.0 - 2 * PARAMS.beta * C_GX_EXACT, rel=1e-14)


class TestForwardInvariance:
    def test_noise_off_trivial(self, grid32):
        kernel = OUKernel(grid32, PARAMS, COV_OFF, COV_OFF, 0.01)
        report = radius_invariance_experiment([1, 2], kernel, t_end=0.2, c_b=CONSTS, window=0.5)
        assert report["total_violations"] == 0

    def test_small_noise_run(self, grid32):
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        report = radius_invariance_experiment([1, 2, 3], kernel, t_end=1.0, c_b=CONSTS)
        assert report["total_violations"] == 0
        assert report["max_excursion"] <= 0.02
        assert [rep["seed"] for rep in report["per_seed"]] == [1, 2, 3]


class TestStationaryMoments:
    DRAWS = 4000
    # a large c_b makes the cross moment E|w|^2 |grad w|^2 dominate E R
    CROSS_HEAVY = 100.0

    @pytest.mark.parametrize(
        "amplitudes",
        [{}, {"q1_amplitude": 0.0}, {"q2_amplitude": 0.0}],
        ids=["default", "no-boundary", "no-interior"],
    )
    def test_closed_form_matches_stationary_draws(self, amplitudes):
        # the independent `ou_init` draws the closed form replaces, at the
        # default config; each moment within 4 standard errors
        config = RunConfig(**amplitudes)
        kernel = OUKernel(config.grid(), config.params(), config.cov1(), config.cov2(), config.dt)
        stream = NoiseStream(seed=17, dt=config.dt)
        lam = laplacian_eigenvalues(config.grid()).take(kernel.cells)
        cross_rates = _rates(PARAMS, self.CROSS_HEAVY)
        g, r, cross = [], [], []
        for lo in range(0, self.DRAWS, 500):
            w = np.array([kernel.combined(ou_init(kernel, wiener_shift(stream, -i))) for i in range(lo, lo + 500)])
            l2_block, h1_block = _norm_squares(w, lam)
            g.append(h1_block)
            r.append(driver_from_norms(l2_block, h1_block, RATES))
            cross.append(driver_from_norms(l2_block, h1_block, cross_rates))
        g, r, cross = np.concatenate(g), np.concatenate(r), np.concatenate(cross)
        exact = (*_stationary_moments(kernel, RATES), _stationary_moments(kernel, cross_rates)[2])
        for sample, value in zip((g, g**2, r, cross), exact):
            se = np.std(sample, ddof=1) / math.sqrt(sample.size)
            assert abs(np.mean(sample) - value) < 4.0 * se

    def test_closed_form_is_isserlis_on_the_dense_covariance(self):
        # w = L xi, with column j of L the `ou_init` draw of the j-th unit
        # init normal; Isserlis' theorem on the dense covariance, to round-off
        config = RunConfig(grid_n=16, q2_amplitude=2.5e-4)
        kernel = OUKernel(config.grid(), config.params(), config.cov1(), config.cov2(), config.dt)
        channels = kernel.n_channels

        class UnitNormal:
            def __init__(self, j):
                self.j = j

            def normals(self, step, count):
                return np.eye(count)[channels + self.j]

        L = np.stack([kernel.planes(ou_init(kernel, UnitNormal(j))).sum(axis=0).ravel() for j in range(channels)], axis=1)
        A = L.T @ (laplacian_eigenvalues(config.grid()).reshape(-1, 1) * L)
        I = L.T @ L
        quad = 3.0 * (C_GX_EXACT * PARAMS.beta + PARAMS.r) ** 2 / (PARAMS.nu * LAMBDA1)
        mix = 3.0 * CONSTS**2 / PARAMS.nu
        expected = (
            np.trace(A),
            np.trace(A) ** 2 + 2.0 * np.trace(A @ A),
            quad * np.trace(I) + mix * (np.trace(I) * np.trace(A) + 2.0 * np.trace(I @ A)),
        )
        assert _stationary_moments(kernel, RATES) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_noise_off_moments_are_zero(self, grid32):
        kernel = OUKernel(grid32, PARAMS, COV_OFF, COV_OFF, 0.01)
        assert _stationary_moments(kernel, RATES) == (0.0, 0.0, 0.0)


class TestConditionEvaluator:
    def test_noise_off_exact_value(self, grid32):
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        report = check_condition(OUKernel(grid32, params, COV_OFF, COV_OFF, 0.01), 100, 6, c_b=CONSTS)
        assert report["satisfied"]
        assert report["lhs"] == pytest.approx(-np.pi**2 - 2.0, abs=1e-12)
        assert report["lhs"] == pytest.approx(sum(report["terms"].values()), abs=1e-12)
        assert report["nu_lambda1"] == pytest.approx(np.pi**2, rel=1e-14)

    def test_small_noise_satisfied_with_margin(self, grid32):
        report = check_condition(OUKernel(grid32, PARAMS, COV1, COV2, 0.01), 200, 7, c_b=CONSTS)
        assert report["satisfied"]
        assert report["margin_se"] is not None and report["margin_se"] > 3.0
        assert report["lhs"] < -10.0
        for key in ("E_grad2", "E_grad4", "E_rho2", "E_rho4", "E_R"):
            assert report["estimates"][key]["se"] >= 0.0

    def test_large_noise_not_satisfied(self, grid32):
        big1 = CovarianceSpec(3e-4 * 1e4, 3.0, 4)
        big2 = CovarianceSpec(3e-4 * 1e4, 2.5, 4)
        params = ModelParams(nu=0.01, r=1.0, beta=0.1)
        report = check_condition(OUKernel(grid32, params, big1, big2, 0.01), 100, 8, c_b=CONSTS)
        assert not report["satisfied"]
        assert report["reason"] is not None

    def test_monotone_in_viscosity(self, grid32):
        values = []
        for nu in (0.5, 1.0, 2.0):
            params = ModelParams(nu=nu, r=1.0, beta=0.1)
            rep = check_condition(OUKernel(grid32, params, COV1, COV2, 0.01), 100, 9, c_b=CONSTS)
            values.append(rep["lhs"])
        assert values[0] > values[1] > values[2]

    def test_standard_errors_shrink(self, grid32):
        rep_a = check_condition(OUKernel(grid32, PARAMS, COV1, COV2, 0.01), 150, 10, c_b=CONSTS)
        rep_b = check_condition(OUKernel(grid32, PARAMS, COV1, COV2, 0.01), 600, 10, c_b=CONSTS)
        # E_grad2, E_grad4 and E_R are exact; the radius moments are sampled
        ratio = rep_a["estimates"]["E_rho2"]["se"] / rep_b["estimates"]["E_rho2"]["se"]
        assert 1.4 < ratio < 2.9  # ~2 expected for 4x samples

    def test_one_chain_step_per_window_step(self, grid32, monkeypatch):
        # perfbench's traced check compares this count with the work it divides by:
        # one OU step per step of the burn and the decimated samples, in order
        steps = []

        def counted(kernel, zw, stream, step):
            steps.append(step)
            return ou_step(kernel, zw, stream, step)

        monkeypatch.setattr(analysis, "ou_step", counted)
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        check_condition(kernel, 100, 12, c_b=CONSTS)
        burn = _window_steps(RATES, _stationary_moments(kernel, RATES)[0], None, kernel.dt)
        gap = round(CONDITION_GAP_TIME / kernel.dt)
        assert steps == list(range(burn + 100 * gap))

    def test_report_dict_shape(self, grid32):
        report = check_condition(OUKernel(grid32, PARAMS, COV1, COV2, 0.01), 100, 11, c_b=CONSTS)
        assert set(report["estimates"]) == {"E_grad2", "E_grad4", "E_rho2", "E_rho4", "E_R"}
        assert report["lambda1"] == pytest.approx(np.pi**2)
        assert "norm_convention" in report
        # the key order is the order check-condition.json writes
        assert list(report) == [
            "terms", "lhs", "satisfied", "margin_se", "reason", "estimates",
            "constants", "nu_lambda1", "lambda1", "norm_convention",
        ]


class TestOneTrilinearConstant:
    # c_b is a property of the grid's operator, not of a noise realization:
    # no seed enters it, and radius and check-condition share one search

    def test_condition_reports_the_grids_constant(self, grid32):
        report = check_condition(OUKernel(grid32, PARAMS, COV1, COV2, 0.01), 100, 5)
        assert list(report["constants"]) == ["lambda1", "c_b", "c_gx"]
        assert report["constants"]["c_b"] == estimate_constants(grid32)
        assert report["constants"]["lambda1"] == LAMBDA1 and report["constants"]["c_gx"] == C_GX_EXACT

    def test_both_experiments_share_one_search(self, grid32):
        search = operators._trilinear_search
        search.cache_clear()
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        radius_invariance_experiment([3], kernel, t_end=0.05)
        check_condition(kernel, 100, 5)
        assert search.cache_info().misses == 1

    def test_no_witness_exceeds_the_constant(self):
        # ROADMAP item 16's witness on the golden `default` case's synchronize
        # pairs: rho_B = |<B(d, s), d>| / (|d| |grad s| |grad d|), with
        # d = z_a - z_b and s = z_a + w, is a ratio that B attains, so a
        # lower bound of its norm is at least rho_B
        config = RunConfig(seeds=(1, 2), t_end=1.0, burn=0.5)
        grid, kernel = config.grid(), config.kernel()
        witness = 0.0
        for seed in config.seeds:
            rng = np.random.default_rng((seed, 0x51AC))  # the start states of `qgsync synchronize`
            z0a, z0b = fields.random_field(grid, rng, 0.05), fields.random_field(grid, rng, 0.05)
            stream = NoiseStream(seed, kernel.dt)
            start = dynamics.start_state(kernel, stream, (z0a, z0b))
            for state in dynamics.evolve(config.t_end, stream, start, check_cfl=False):
                if state.step % 10 == 0:
                    za, zb = state.members
                    s = za + np.add(*kernel.planes(state.zw))
                    witness = max(witness, operators._triple_ratio(za - zb, s, za - zb, grid))
        assert 0.0 < witness <= estimate_constants(grid)


class TestSynchronization:
    def test_identical_states_stay_identical(self, grid32):
        z0 = dealiased(random_field(grid32, seed=12, scale=0.05))
        rep = synchronization_experiment(13, OUKernel(grid32, PARAMS, COV1, COV2, 0.01), z0, z0, t_end=0.3)
        assert np.all(rep["distances"] == 0.0)

    def test_noise_off_linear_rate(self, grid32):
        # difference decays in the weakest mode at ~ (nu pi^2 + r); the
        # reference envelope rate is -(nu pi^2 + 2 r) within 20%
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        z0a = Field.zeros(grid32, Basis.NEUMANN_COSINE)
        z0b = mode_field(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1e-3})
        kernel = OUKernel(grid32, params, COV_OFF, COV_OFF, 1e-3)
        rep = synchronization_experiment(14, kernel, z0a, z0b, t_end=2.0)
        ref = -(np.pi**2 + 2.0)
        assert rep["converged"]
        assert rep["fitted_rate"] < 0
        assert abs(rep["fitted_rate"] - ref) / abs(ref) < 0.2

    def test_one_chain_step_per_step(self, grid32, monkeypatch):
        # the pair shares one coefficient chain: one OU step per time step
        steps = []

        def counted(kernel, zw, stream, step):
            steps.append(step)
            return ou_step(kernel, zw, stream, step)

        monkeypatch.setattr(dynamics, "ou_step", counted)
        z0a = dealiased(random_field(grid32, seed=24, scale=0.05))
        z0b = dealiased(random_field(grid32, seed=25, scale=0.05))
        synchronization_experiment(26, OUKernel(grid32, PARAMS, COV1, COV2, 0.01), z0a, z0b, t_end=0.1)
        assert steps == list(range(10))

    def test_noisy_config_synchronizes(self, grid32):
        rng = np.random.default_rng(15)
        z0a = dealiased(random_field(grid32, seed=16, scale=0.05))
        z0b = dealiased(random_field(grid32, seed=17, scale=0.05))
        rep = synchronization_experiment(18, OUKernel(grid32, PARAMS, COV1, COV2, 0.01), z0a, z0b, t_end=3.0)
        assert rep["converged"]
        assert rep["fitted_rate"] < 0
        assert rep["distances"][-1] < 1e-6 * rep["distances"][0]

    def test_round_off_collapse_is_not_convergence(self, grid32):
        # noise so strong that both members round to one array after one step:
        # the distance drops to 0 without passing a positive value below 1e-6 of
        # the initial one, so it is not contraction
        huge1, huge2 = CovarianceSpec(1e156, 3.0, 4), CovarianceSpec(1e156, 2.5, 4)
        z0a = dealiased(random_field(grid32, seed=27, scale=0.05))
        z0b = dealiased(random_field(grid32, seed=28, scale=0.05))
        kernel = OUKernel(grid32, PARAMS, huge1, huge2, 0.01)
        rep = synchronization_experiment(29, kernel, z0a, z0b, t_end=0.02)
        assert rep["distances"][0] > 0 and np.all(rep["distances"][1:] == 0.0)
        assert not rep["converged"]


class TestStationaryStatistics:
    def test_noise_off_everything_zero(self, grid32):
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        kernel = OUKernel(grid32, params, COV_OFF, COV_OFF, 0.01)
        report = stationary_statistics([1], kernel, t_end=2.5, burn=1.5)
        assert report["per_seed"][0]["energy_mean"] < 1e-12
        assert report["per_seed"][0]["enstrophy_mean"] < 1e-9
        assert report["max_postburn_distance"] < 1e-6

    def test_synchronized_and_random(self, grid32):
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        report = stationary_statistics([1, 2, 3], kernel, t_end=3.0, burn=1.5)
        assert report["max_postburn_distance"] < 1e-6
        assert report["energy_cross_seed_std"] > 0.0
        energies = [rep["energy_mean"] for rep in report["per_seed"]]
        assert all(e > 0 for e in energies)

"""Radius quadrature, contraction condition, synchronization diagnostics."""

import math

import numpy as np
import pytest

from qgsync.analysis import (
    DecayConditionError,
    _block_driver,
    _coefficient_window,
    check_condition,
    compute_r,
    compute_rho,
    decay_margin,
    default_rho_window,
    driver_from_norms,
    propagate_rho_squared,
    radius_invariance_experiment,
    rho_squared_from_series,
    stationary_statistics,
    synchronization_experiment,
)
from qgsync.dynamics import ModelParams, dealias, prepare_state
from qgsync.fields import Basis, Field, GridSpec, laplacian_eigenvalues, norm_h1, norm_l2
from qgsync.noise import CovarianceSpec, NoiseStream, OUKernel, ou_init, ou_step, wiener_shift
from qgsync.operators import OperatorConstants, estimate_constants

from conftest import random_field

PARAMS = ModelParams(nu=1.0, r=1.0, beta=0.1)
COV1 = CovarianceSpec(3e-4, 3.0, 4)
COV2 = CovarianceSpec(3e-4, 2.5, 4)
COV_OFF = CovarianceSpec(0.0, 3.0, 4)

# fixed plug-in constants keep the oracle arithmetic transparent
CONSTS = OperatorConstants(lambda1=np.pi**2, c_b=0.25, c_gx=1.0 / (2 * np.pi))


class TestDriver:
    def test_zero_coefficients(self, grid32):
        state = prepare_state(
            Field.zeros(grid32, Basis.NEUMANN_COSINE),
            NoiseStream(seed=1, dt=0.01),
            PARAMS,
            COV_OFF,
            COV_OFF,
        )
        assert compute_r(state.coeff, PARAMS, CONSTS) == 0.0

    def test_plugin_arithmetic(self):
        # beta = 0, r = 1, nu = 1, |w| = 1, |grad w| = 0 -> R = 3 / pi^2
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        val = driver_from_norms(1.0, 0.0, params, CONSTS)
        assert val == pytest.approx(3.0 / np.pi**2, rel=1e-14)
        # independent sum of the two pieces
        quad = 3.0 * (CONSTS.c_gx * 0.0 + 1.0) ** 2 / (1.0 * np.pi**2) * 1.0
        mix = 3.0 * CONSTS.c_b**2 / 1.0 * 1.0 * 0.0
        assert val == pytest.approx(quad + mix, rel=1e-14)

    def test_quadratic_homogeneity(self):
        base = driver_from_norms(1.7, 0.0, PARAMS, CONSTS)
        for c in (0.5, 2.0, 7.0):
            assert driver_from_norms(c**2 * 1.7, 0.0, PARAMS, CONSTS) == pytest.approx(
                c**2 * base, rel=1e-12
            )

    def test_matches_field_norms(self, grid32):
        state = prepare_state(
            Field.zeros(grid32, Basis.NEUMANN_COSINE),
            NoiseStream(seed=2, dt=0.01),
            PARAMS,
            COV1,
            COV2,
        )
        from qgsync.fields import norm_h1

        w = state.coeff.combined()
        direct = driver_from_norms(norm_l2(w) ** 2, norm_h1(w) ** 2, PARAMS, CONSTS)
        assert compute_r(state.coeff, PARAMS, CONSTS) == pytest.approx(direct, rel=1e-14)


class TestCoefficientWindow:
    """The block-norm window against the plain per-step loop, bit for bit."""

    @staticmethod
    def reference(stream, cov1, cov2, grid, steps):
        past = wiener_shift(stream, -steps * stream.dt)
        state = ou_init(OUKernel(grid, PARAMS.nu, cov1, cov2, stream.dt), past)
        g = np.empty(steps + 1)
        r = np.empty(steps + 1)
        for j in range(steps + 1):
            g[j] = norm_h1(state.combined()) ** 2
            r[j] = compute_r(state, PARAMS, CONSTS)
            if j < steps:
                state = ou_step(state, past, j)
        return g, r, state

    @pytest.mark.parametrize("steps", [15, 16, 17, 33])
    @pytest.mark.parametrize(
        "cov1, cov2", [(COV1, COV2), (COV_OFF, COV2), (COV1, COV_OFF)], ids=["both", "no_boundary", "no_interior"]
    )
    def test_matches_per_step_loop(self, grid32, steps, cov1, cov2):
        stream = NoiseStream(seed=913, dt=0.01)
        g, r, state = _coefficient_window(stream, PARAMS, cov1, cov2, grid32, steps, CONSTS)
        g_ref, r_ref, state_ref = self.reference(stream, cov1, cov2, grid32, steps)
        assert np.array_equal(g, g_ref)
        assert np.array_equal(r, r_ref)
        assert (state.t, state.step) == (state_ref.t, state_ref.step)
        assert np.array_equal(state.zw1.coeffs, state_ref.zw1.coeffs)
        assert np.array_equal(state.zw2.coeffs, state_ref.zw2.coeffs)

    def test_block_squares_like_python_floats(self):
        # float ** 2 (libm pow) and x * x differ in the last bit for about
        # 0.1% of inputs; 4000 norms hold several such cases
        grid = GridSpec(8)
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4000, *grid.shape)) * rng.uniform(0.1, 10.0, (4000, 1, 1))
        g, r = _block_driver(w, laplacian_eigenvalues(grid), PARAMS, CONSTS)
        l2 = [float(np.sqrt(np.sum(a**2))) for a in w]
        h1 = [float(np.sqrt(np.sum(laplacian_eigenvalues(grid) * a**2))) for a in w]
        assert any(x**2 != x * x for x in h1 + l2)  # the test can tell the two apart
        assert np.array_equal(g, [x**2 for x in h1])
        assert np.array_equal(
            r, [driver_from_norms(a**2, b**2, PARAMS, CONSTS) for a, b in zip(l2, h1)]
        )


class TestRadiusQuadrature:
    def test_noise_off_gives_zero(self, grid32):
        rho = compute_rho(
            NoiseStream(seed=3, dt=0.01), PARAMS, CONSTS, COV_OFF, COV_OFF, grid32, window=1.0
        )
        assert rho == 0.0

    def test_frozen_coefficients_closed_form(self):
        # constant driver, zero gradient: rho^2 = R / (lambda1 nu - 2 beta c_gx + 2r)
        dt = 0.005
        a = CONSTS.lambda1 * PARAMS.nu - 2 * PARAMS.beta * CONSTS.c_gx + 2 * PARAMS.r
        window = 40.0 / a
        m = int(round(window / dt)) + 1
        g = np.zeros(m)
        r_const = 2.31
        r = np.full(m, r_const)
        rho2 = rho_squared_from_series(g, r, dt, PARAMS, CONSTS)
        assert rho2 == pytest.approx(r_const / a, rel=1e-3)

    def test_quadrature_self_convergence(self):
        a = CONSTS.lambda1 * PARAMS.nu - 2 * PARAMS.beta * CONSTS.c_gx + 2 * PARAMS.r
        r_const = 1.0
        vals = []
        for dt in (0.02, 0.01):
            m = int(round((30.0 / a) / dt)) + 1
            taus = -dt * np.arange(m - 1, -1, -1)
            g = 0.3 * (1.0 + np.sin(taus))  # time-varying but analytic
            r = r_const * (1.0 + 0.5 * np.cos(taus))
            vals.append(rho_squared_from_series(g, r, dt, PARAMS, CONSTS))
        assert abs(vals[0] / vals[1] - 1.0) < 0.01

    def test_propagation_matches_requadrature(self, grid32):
        # one forward step of the affine recursion == quadrature on the
        # shifted stream (up to the truncated tail)
        from qgsync.analysis import _coefficient_window

        dt = 0.01
        stream = NoiseStream(seed=4, dt=dt)
        steps = 400
        g, r, _ = _coefficient_window(
            wiener_shift_local(stream, dt), PARAMS, COV1, COV2, grid32, steps + 1, CONSTS
        )
        rho2_old = rho_squared_from_series(g[:-1], r[:-1], dt, PARAMS, CONSTS)
        rho2_new = rho_squared_from_series(g[1:], r[1:], dt, PARAMS, CONSTS)
        prop = propagate_rho_squared(
            rho2_old, g[-2], g[-1], r[-2], r[-1], dt, PARAMS, CONSTS
        )
        assert prop == pytest.approx(rho2_new, rel=0.01)

    def test_monotone_in_amplitude(self, grid32):
        rhos = []
        for amp in (1e-4, 4e-4, 1.6e-3):
            c1 = CovarianceSpec(amp, 3.0, 4)
            c2 = CovarianceSpec(amp, 2.5, 4)
            rhos.append(
                compute_rho(NoiseStream(seed=5, dt=0.01), PARAMS, CONSTS, c1, c2, grid32)
            )
        assert rhos[0] < rhos[1] < rhos[2]

    def test_default_window_guard(self):
        with pytest.raises(DecayConditionError):
            default_rho_window(ModelParams(nu=0.01, r=0.01, beta=0.0), CONSTS, grad2_mean=100.0)

    def test_decay_margin_formula(self):
        m = decay_margin(PARAMS, CONSTS, grad2_mean=0.0)
        assert m == pytest.approx(np.pi**2 + 2.0 - 2 * PARAMS.beta * CONSTS.c_gx, rel=1e-14)


def wiener_shift_local(stream, t):
    from qgsync.noise import wiener_shift

    return wiener_shift(stream, t)


class TestForwardInvariance:
    def test_noise_off_trivial(self, grid32):
        report = radius_invariance_experiment(
            [1, 2],
            PARAMS,
            COV_OFF,
            COV_OFF,
            grid32,
            t_end=0.2,
            dt=0.01,
            constants=CONSTS,
            window=0.5,
        )
        assert report["total_violations"] == 0

    def test_small_noise_run(self, grid32):
        report = radius_invariance_experiment(
            [1, 2, 3],
            PARAMS,
            COV1,
            COV2,
            grid32,
            t_end=1.0,
            dt=0.01,
            constants=CONSTS,
        )
        assert report["total_violations"] == 0
        assert report["max_excursion"] <= 0.02
        assert [rep["seed"] for rep in report["per_seed"]] == [1, 2, 3]

    def test_initial_norm_above_radius_rejected(self, grid32):
        # with the noise off the radius is zero, so any nonzero start fails
        with pytest.raises(ValueError):
            radius_invariance_experiment(
                [1],
                PARAMS,
                COV_OFF,
                COV_OFF,
                grid32,
                t_end=0.1,
                dt=0.01,
                constants=CONSTS,
                window=0.5,
                z0_norm=0.1,
            )


class TestConditionEvaluator:
    def test_noise_off_exact_value(self, grid32):
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        report = check_condition(
            params, COV_OFF, COV_OFF, 100, NoiseStream(seed=6, dt=0.01), grid32, constants=CONSTS
        )
        assert report.satisfied
        assert report.lhs == pytest.approx(-np.pi**2 - 2.0, abs=1e-12)
        assert report.lhs == pytest.approx(sum(report.terms.values()), abs=1e-12)
        assert report.nu_lambda1 == pytest.approx(np.pi**2, rel=1e-14)

    def test_small_noise_satisfied_with_margin(self, grid32):
        report = check_condition(
            PARAMS, COV1, COV2, 200, NoiseStream(seed=7, dt=0.01), grid32, constants=CONSTS
        )
        assert report.satisfied
        assert report.margin_se is not None and report.margin_se > 3.0
        assert report.lhs < -10.0
        for key in ("E_grad2", "E_grad4", "E_rho2", "E_rho4", "E_R"):
            assert report.estimates[key]["se"] >= 0.0

    def test_large_noise_not_satisfied(self, grid32):
        big1 = CovarianceSpec(3e-4 * 1e4, 3.0, 4)
        big2 = CovarianceSpec(3e-4 * 1e4, 2.5, 4)
        params = ModelParams(nu=0.01, r=1.0, beta=0.1)
        report = check_condition(
            params, big1, big2, 100, NoiseStream(seed=8, dt=0.01), grid32, constants=CONSTS
        )
        assert not report.satisfied
        assert report.reason is not None

    def test_monotone_in_viscosity(self, grid32):
        values = []
        for nu in (0.5, 1.0, 2.0):
            params = ModelParams(nu=nu, r=1.0, beta=0.1)
            rep = check_condition(
                params, COV1, COV2, 100, NoiseStream(seed=9, dt=0.01), grid32, constants=CONSTS
            )
            values.append(rep.lhs)
        assert values[0] > values[1] > values[2]

    def test_standard_errors_shrink(self, grid32):
        rep_a = check_condition(
            PARAMS, COV1, COV2, 150, NoiseStream(seed=10, dt=0.01), grid32, constants=CONSTS
        )
        rep_b = check_condition(
            PARAMS, COV1, COV2, 600, NoiseStream(seed=10, dt=0.01), grid32, constants=CONSTS
        )
        ratio = rep_a.estimates["E_grad2"]["se"] / rep_b.estimates["E_grad2"]["se"]
        assert 1.4 < ratio < 2.9  # ~2 expected for 4x samples

    def test_report_dict_shape(self, grid32):
        report = check_condition(
            PARAMS, COV1, COV2, 100, NoiseStream(seed=11, dt=0.01), grid32, constants=CONSTS
        )
        payload = report.to_dict()
        assert set(payload["estimates"]) == {"E_grad2", "E_grad4", "E_rho2", "E_rho4", "E_R"}
        assert payload["lambda1"] == pytest.approx(np.pi**2)
        assert "norm_convention" in payload


class TestSynchronization:
    def test_identical_states_stay_identical(self, grid32):
        z0 = dealias(random_field(grid32, seed=12, scale=0.05))
        rep = synchronization_experiment(
            13, PARAMS, COV1, COV2, grid32, z0, z0, t_end=0.3, dt=0.01
        )
        assert np.all(rep.distances == 0.0)

    def test_noise_off_linear_rate(self, grid32):
        # difference decays in the weakest mode at ~ (nu pi^2 + r); the
        # reference envelope rate is -(nu pi^2 + 2 r) within 20%
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        z0a = Field.zeros(grid32, Basis.NEUMANN_COSINE)
        z0b = Field.from_modes(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1e-3})
        rep = synchronization_experiment(
            14, params, COV_OFF, COV_OFF, grid32, z0a, z0b, t_end=2.0, dt=1e-3
        )
        ref = -(np.pi**2 + 2.0)
        assert rep.converged
        assert rep.fitted_rate < 0
        assert abs(rep.fitted_rate - ref) / abs(ref) < 0.2

    def test_noisy_config_synchronizes(self, grid32):
        rng = np.random.default_rng(15)
        z0a = dealias(random_field(grid32, seed=16, scale=0.05))
        z0b = dealias(random_field(grid32, seed=17, scale=0.05))
        rep = synchronization_experiment(
            18, PARAMS, COV1, COV2, grid32, z0a, z0b, t_end=3.0, dt=0.01
        )
        assert rep.converged
        assert rep.fitted_rate < 0
        assert rep.distances[-1] < 1e-6 * rep.distances[0]


class TestStationaryStatistics:
    def test_noise_off_everything_zero(self, grid32):
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        report = stationary_statistics(
            [1], params, COV_OFF, COV_OFF, grid32, t_end=2.5, burn=1.5, dt=0.01
        )
        assert report["per_seed"][0]["energy_mean"] < 1e-12
        assert report["per_seed"][0]["enstrophy_mean"] < 1e-9
        assert report["max_postburn_distance"] < 1e-6

    def test_synchronized_and_random(self, grid32):
        report = stationary_statistics(
            [1, 2, 3], PARAMS, COV1, COV2, grid32, t_end=3.0, burn=1.5, dt=0.01
        )
        assert report["max_postburn_distance"] < 1e-6
        assert report["energy_cross_seed_std"] > 0.0
        energies = [rep["energy_mean"] for rep in report["per_seed"]]
        assert all(e > 0 for e in energies)

"""Time stepping, cocycle property, transform to the physical variable."""

import math
import warnings

import numpy as np
import pytest

from qgsync.analysis import cocycle_check
from qgsync.dynamics import (
    CFLWarning,
    CocycleState,
    DivergenceError,
    ModelParams,
    dealias,
    evolve,
    prepare_state,
    step_imex,
    transform,
    untransform,
)
from qgsync.fields import Basis, Field, GridSpec, laplacian_eigenvalues, norm_l2, retained_mask
from qgsync.noise import ConfigError, CovarianceSpec, NoiseStream
from qgsync.operators import beta_term, bilinear_b, dirichlet_poisson

from conftest import random_field

PARAMS = ModelParams(nu=1.0, r=1.0, beta=0.1)
COV1 = CovarianceSpec(3e-4, 3.0, 4)
COV2 = CovarianceSpec(3e-4, 2.5, 4)
COV_OFF = CovarianceSpec(0.0, 3.0, 4)


def masked_field(grid, seed, scale=0.05, within_dealias=True):
    f = random_field(grid, seed=seed, scale=scale, slope=2.0)
    return dealias(f) if within_dealias else f


def implicit_solve(rhs: Field, dt: float, params: ModelParams = PARAMS) -> Field:
    """The stepper's diffusion-plus-friction solve: rhs / (1 + dt (nu lambda + r))."""
    grid = rhs.grid
    denom = 1.0 + dt * (params.nu * laplacian_eigenvalues(grid) + params.r)
    mask = retained_mask(grid, Basis.NEUMANN_COSINE)
    return Field(grid, Basis.NEUMANN_COSINE, coeffs=rhs.coeffs / denom * mask)


class TestModelParams:
    @pytest.mark.parametrize("kwargs", [
        {"nu": 0.0, "r": 1.0},
        {"nu": 1.0, "r": 0.0},
        {"nu": 1.0, "r": 1.0, "beta": -0.1},
    ])
    def test_positivity(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestStepImex:
    def test_step_without_noise(self, grid32):
        # both covariances off: one step is the IMEX update of the z-only terms
        dt = 0.01
        z = masked_field(grid32, 1)
        stream = NoiseStream(seed=1, dt=dt)
        state = step_imex(prepare_state(z, stream, PARAMS, COV_OFF, COV_OFF), PARAMS, stream, dt)
        tendency = -1.0 * dealias(bilinear_b(z, z)) - PARAMS.beta * beta_term(z)
        expected = implicit_solve(z + dt * tendency, dt)
        assert norm_l2(state.z - expected) <= 1e-14 * norm_l2(expected)

    def test_step_from_rest_is_the_forcing(self, grid32):
        # z = 0 with noise on: one step is the coefficient-process forcing
        # -dealias B(w,w) - beta G(w)_x - r w, solved implicitly
        dt = 0.01
        stream = NoiseStream(seed=2, dt=dt)
        start = prepare_state(Field.zeros(grid32, Basis.NEUMANN_COSINE), stream, PARAMS, COV1, COV2)
        w = start.coeff.combined()
        state = step_imex(start, PARAMS, stream, dt)
        tendency = -1.0 * dealias(bilinear_b(w, w)) - PARAMS.beta * beta_term(w) - PARAMS.r * w
        expected = implicit_solve(dt * tendency, dt)
        assert norm_l2(state.z - expected) <= 1e-14 * norm_l2(expected)

    def test_linear_decay_factor(self, grid32):
        # small single-mode state, no noise, no beta: each step divides the
        # mode by (1 + dt (nu pi^2 + r)); scalar recursion is the oracle
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        mu = np.pi**2 + 1.0
        t_end = 0.2

        def terminal_norm(dt):
            z0 = Field.from_modes(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1e-3})
            stream = NoiseStream(seed=4, dt=dt)
            state = prepare_state(z0, stream, params, COV_OFF, COV_OFF)
            for _ in range(round(t_end / dt)):
                state = step_imex(state, params, stream, dt, check_cfl=False)
            return norm_l2(state.z)

        dt = 1e-3
        got = terminal_norm(dt)
        oracle = 1e-3 * (1.0 + dt * mu) ** (-round(t_end / dt))
        assert got == pytest.approx(oracle, rel=1e-6)
        # first-order convergence of the decay factor to exp(-mu t)
        exact = 1e-3 * math.exp(-mu * t_end)
        gap = abs(terminal_norm(1e-3) - exact)
        gap_half = abs(terminal_norm(5e-4) - exact)
        assert 1.7 < gap / gap_half < 2.4

    def test_energy_monotone_without_forcing(self, grid32):
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        dt = 1e-3
        stream = NoiseStream(seed=5, dt=dt)
        state = prepare_state(masked_field(grid32, 5, scale=1.0), stream, params, COV_OFF, COV_OFF)
        norms = [norm_l2(state.z)]
        dissipated = 0.0
        from qgsync.fields import norm_h1

        for _ in range(300):
            state = step_imex(state, params, stream, dt, check_cfl=False)
            norms.append(norm_l2(state.z))
            dissipated += 2.0 * params.nu * dt * norm_h1(state.z) ** 2
        norms = np.array(norms)
        assert np.all(np.diff(norms) <= 1e-14)
        assert dissipated <= norms[0] ** 2

    def test_first_order_self_convergence(self, grid32):
        # deterministic smooth run: Richardson halving gives order ~ 1
        params = ModelParams(nu=1.0, r=1.0, beta=0.3)
        z0 = masked_field(grid32, 6, scale=1.0)
        t_end = 0.2

        def solve(dt):
            stream = NoiseStream(seed=6, dt=dt)
            return evolve(t_end, stream, z0, params, COV_OFF, COV_OFF, check_cfl=False).z

        z_a = solve(4e-3)
        z_b = solve(2e-3)
        z_c = solve(1e-3)
        err_ab = norm_l2(z_a - z_c)
        err_bc = norm_l2(z_b - z_c)
        order = math.log2(err_ab / err_bc) - 0.0
        assert 0.7 < order < 1.6

    def test_mean_mode_stays_zero(self, grid32):
        stream = NoiseStream(seed=7, dt=0.01)
        state = prepare_state(masked_field(grid32, 7), stream, PARAMS, COV1, COV2)
        for j in range(50):
            state = step_imex(state, PARAMS, stream, 0.01, check_cfl=False)
            assert state.z.coeffs[0, 0] == 0.0

    def test_divergence_raises(self, grid32):
        params = ModelParams(nu=1e-6, r=1e-6, beta=0.0)
        z0 = random_field(grid32, seed=8, scale=1e6)
        stream = NoiseStream(seed=8, dt=10.0)
        state = prepare_state(z0, stream, params, COV_OFF, COV_OFF)
        with pytest.raises(DivergenceError):
            for _ in range(50):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", CFLWarning)
                    state = step_imex(state, params, stream, 10.0)

    def test_overflowing_synthesis_is_a_divergence(self, grid32):
        # finite coefficients whose nodal values overflow: the CFL speed
        # must not let the non-finite field escape as NonFiniteField
        coeffs = np.zeros(grid32.shape)
        coeffs[1:20, 1:20] = 1e306
        z0 = Field(grid32, Basis.NEUMANN_COSINE, coeffs=coeffs)
        stream = NoiseStream(seed=8, dt=0.01)
        state = prepare_state(z0, stream, PARAMS, COV_OFF, COV_OFF)
        for check_cfl in (True, False):
            with pytest.raises(DivergenceError):
                step_imex(state, PARAMS, stream, 0.01, check_cfl=check_cfl)

    def test_cfl_check_leaves_the_step_unchanged(self, grid32):
        stream = NoiseStream(seed=11, dt=0.01)
        start = prepare_state(masked_field(grid32, 11), stream, PARAMS, COV1, COV2)
        states = {}
        for check_cfl in (True, False):
            state = start
            for _ in range(5):
                state = step_imex(state, PARAMS, stream, 0.01, check_cfl=check_cfl)
            states[check_cfl] = state
        assert np.array_equal(states[True].z.coeffs, states[False].z.coeffs)
        assert np.array_equal(states[True].coeff.zw1.coeffs, states[False].coeff.zw1.coeffs)
        assert np.array_equal(states[True].coeff.zw2.coeffs, states[False].coeff.zw2.coeffs)

    def test_cfl_warning(self, grid32):
        z0 = random_field(grid32, seed=9, scale=100.0)
        stream = NoiseStream(seed=9, dt=0.1)
        state = prepare_state(z0, stream, PARAMS, COV_OFF, COV_OFF)
        with pytest.warns(CFLWarning):
            step_imex(state, PARAMS, stream, 0.1)

    def test_dt_must_match_stream(self, grid32):
        stream = NoiseStream(seed=10, dt=0.01)
        state = prepare_state(masked_field(grid32, 10), stream, PARAMS, COV1, COV2)
        with pytest.raises(ValueError):
            step_imex(state, PARAMS, stream, 0.02)


class TestEvolve:
    def test_zero_time_is_identity(self, grid32):
        z0 = masked_field(grid32, 11)
        out = evolve(0.0, NoiseStream(seed=11, dt=0.01), z0, PARAMS, COV1, COV2)
        assert np.array_equal(out.z.coeffs, z0.coeffs)

    def test_determinism(self, grid32):
        z0 = masked_field(grid32, 12)
        a = evolve(0.3, NoiseStream(seed=12, dt=0.01), z0, PARAMS, COV1, COV2, check_cfl=False)
        b = evolve(0.3, NoiseStream(seed=12, dt=0.01), z0, PARAMS, COV1, COV2, check_cfl=False)
        assert np.array_equal(a.z.coeffs, b.z.coeffs)

    def test_time_must_be_step_multiple(self, grid32):
        with pytest.raises(ConfigError):
            evolve(0.015, NoiseStream(seed=13, dt=0.01), masked_field(grid32, 13), PARAMS, COV1, COV2)

    def test_observer_sees_every_state(self, grid32):
        seen = []
        evolve(
            0.05,
            NoiseStream(seed=14, dt=0.01),
            masked_field(grid32, 14),
            PARAMS,
            COV1,
            COV2,
            observer=lambda s: seen.append(s.step),
            check_cfl=False,
        )
        assert seen == list(range(6))

    def test_continuity_in_initial_state(self, grid32):
        # the flow map is continuous in z0: the response to a perturbation
        # eps * e1 shrinks linearly with eps (finite slope)
        z0 = masked_field(grid32, 21, scale=0.2)
        e1 = Field.from_modes(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1.0})
        base = evolve(0.5, NoiseStream(seed=21, dt=0.01), z0, PARAMS, COV1, COV2, check_cfl=False)
        gaps = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            pert = evolve(
                0.5,
                NoiseStream(seed=21, dt=0.01),
                z0 + eps * e1,
                PARAMS,
                COV1,
                COV2,
                check_cfl=False,
            )
            gaps.append(norm_l2(pert.z - base.z))
        slopes = [g / eps for g, eps in zip(gaps, (1e-3, 5e-4, 2.5e-4))]
        assert gaps[0] > gaps[1] > gaps[2]
        assert slopes[0] == pytest.approx(slopes[2], rel=0.05)  # finite, stable slope


class TestCocycle:
    def test_flow_property_bitwise(self, grid32):
        z0 = masked_field(grid32, 15)
        stream = NoiseStream(seed=15, dt=0.01)
        assert cocycle_check(stream, PARAMS, COV1, COV2, 0.05, 0.07, z0)

    def test_zero_legs(self, grid32):
        z0 = masked_field(grid32, 16)
        stream = NoiseStream(seed=16, dt=0.01)
        assert cocycle_check(stream, PARAMS, COV1, COV2, 0.0, 0.05, z0)
        assert cocycle_check(stream, PARAMS, COV1, COV2, 0.05, 0.0, z0)

    def test_negative_control(self, grid32):
        z0 = masked_field(grid32, 17)
        stream = NoiseStream(seed=17, dt=0.01)
        assert not cocycle_check(
            stream, PARAMS, COV1, COV2, 0.05, 0.07, z0, shift_override=0.08
        )


class TestUntransform:
    def test_zero_coefficients_identity(self, grid32):
        z = masked_field(grid32, 18)
        state = prepare_state(z, NoiseStream(seed=18, dt=0.01), PARAMS, COV_OFF, COV_OFF)
        u = untransform(state)
        assert np.array_equal(u.coeffs, state.z.coeffs)
        assert dirichlet_poisson(u).basis is Basis.DIRICHLET_SINE

    def test_transform_untransform_round_trip(self, grid32):
        state = prepare_state(masked_field(grid32, 19), NoiseStream(seed=19, dt=0.01), PARAMS, COV1, COV2)
        u = untransform(state)
        back = transform(u, state.coeff)
        assert norm_l2(back - state.z) < 1e-14 * max(norm_l2(u), 1.0)

    def test_streamfunction_vanishes_on_boundary(self, grid32):
        state = prepare_state(masked_field(grid32, 20), NoiseStream(seed=20, dt=0.01), PARAMS, COV1, COV2)
        state = step_imex(state, PARAMS, NoiseStream(seed=20, dt=0.01), 0.01, check_cfl=False)
        nod = dirichlet_poisson(untransform(state)).nodal
        edge = max(
            np.max(np.abs(nod[0, :])),
            np.max(np.abs(nod[-1, :])),
            np.max(np.abs(nod[:, 0])),
            np.max(np.abs(nod[:, -1])),
        )
        assert edge < 1e-12

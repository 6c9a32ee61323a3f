"""Time stepping, cocycle property, transform to the physical variable."""

import math
import warnings
from collections import deque

import numpy as np
import pytest

from qgsync.analysis import cocycle_check
from qgsync.dynamics import (
    CFLWarning,
    DivergenceError,
    ModelParams,
    dealias,
    evolve,
    step_imex,
    untransform,
)
from qgsync.fields import Basis, Field, GridSpec, laplacian_eigenvalues, norm_l2, retained_mask
from qgsync.noise import ConfigError, CovarianceSpec, NoiseStream, OUKernel, ou_init
from qgsync.operators import dirichlet_poisson

from conftest import advection, beta_coeffs, mode_field, random_field

PARAMS = ModelParams(nu=1.0, r=1.0, beta=0.1)
COV1 = CovarianceSpec(3e-4, 3.0, 4)
COV2 = CovarianceSpec(3e-4, 2.5, 4)
COV_OFF = CovarianceSpec(0.0, 3.0, 4)


def masked_field(grid, seed, scale=0.05, within_dealias=True):
    f = random_field(grid, seed=seed, scale=scale, slope=2.0)
    return dealias(f) if within_dealias else f


def last(states):
    """The final state of an `evolve` run."""
    return deque(states, maxlen=1)[0]


def implicit_solve(grid: GridSpec, rhs: np.ndarray, dt: float, params: ModelParams = PARAMS) -> Field:
    """The stepper's diffusion-plus-friction solve of cosine coefficients: rhs / (1 + dt (nu lambda + r))."""
    denom = 1.0 + dt * (params.nu * laplacian_eigenvalues(grid) + params.r)
    mask = retained_mask(grid, Basis.NEUMANN_COSINE)
    return Field(grid, Basis.NEUMANN_COSINE, coeffs=rhs / denom * mask)


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
        _, state = evolve(dt, stream, (z,), PARAMS, COV_OFF, COV_OFF)
        b = dealias(Field(grid32, Basis.NEUMANN_COSINE, coeffs=advection(z, z))).coeffs
        tendency = -b - PARAMS.beta * beta_coeffs(z)
        expected = implicit_solve(grid32, z.coeffs + dt * tendency, dt)
        assert norm_l2(state.members[0] - expected) <= 1e-14 * norm_l2(expected)

    def test_step_from_rest_is_the_forcing(self, grid32):
        # z = 0 with noise on: one step is the coefficient-process forcing
        # -dealias B(w,w) - beta G(w)_x - r w, solved implicitly
        dt = 0.01
        stream = NoiseStream(seed=2, dt=dt)
        start, state = evolve(dt, stream, (Field.zeros(grid32, Basis.NEUMANN_COSINE),), PARAMS, COV1, COV2)
        w = Field(grid32, Basis.NEUMANN_COSINE, coeffs=start.coeff.combined())
        b = dealias(Field(grid32, Basis.NEUMANN_COSINE, coeffs=advection(w, w))).coeffs
        tendency = -b - PARAMS.beta * beta_coeffs(w) - PARAMS.r * w.coeffs
        expected = implicit_solve(grid32, dt * tendency, dt)
        assert norm_l2(state.members[0] - expected) <= 1e-14 * norm_l2(expected)

    def test_linear_decay_factor(self, grid32):
        # small single-mode state, no noise, no beta: each step divides the
        # mode by (1 + dt (nu pi^2 + r)); scalar recursion is the oracle
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        mu = np.pi**2 + 1.0
        t_end = 0.2

        def terminal_norm(dt):
            z0 = mode_field(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1e-3})
            stream = NoiseStream(seed=4, dt=dt)
            state = last(evolve(t_end, stream, (z0,), params, COV_OFF, COV_OFF, check_cfl=False))
            assert state.step == round(t_end / dt)
            return norm_l2(state.members[0])

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
        states = evolve(0.3, stream, (masked_field(grid32, 5, scale=1.0),), params, COV_OFF, COV_OFF, check_cfl=False)
        norms = [norm_l2(next(states).members[0])]
        dissipated = 0.0
        from qgsync.fields import norm_h1

        for state in states:
            norms.append(norm_l2(state.members[0]))
            dissipated += 2.0 * params.nu * dt * norm_h1(state.members[0]) ** 2
        norms = np.array(norms)
        assert norms.size == 301
        assert np.all(np.diff(norms) <= 1e-14)
        assert dissipated <= norms[0] ** 2

    def test_first_order_self_convergence(self, grid32):
        # deterministic smooth run: Richardson halving gives order ~ 1
        params = ModelParams(nu=1.0, r=1.0, beta=0.3)
        z0 = masked_field(grid32, 6, scale=1.0)
        t_end = 0.2

        def solve(dt):
            stream = NoiseStream(seed=6, dt=dt)
            return last(evolve(t_end, stream, (z0,), params, COV_OFF, COV_OFF, check_cfl=False)).members[0]

        z_a = solve(4e-3)
        z_b = solve(2e-3)
        z_c = solve(1e-3)
        err_ab = norm_l2(z_a - z_c)
        err_bc = norm_l2(z_b - z_c)
        order = math.log2(err_ab / err_bc) - 0.0
        assert 0.7 < order < 1.6

    def test_mean_mode_stays_zero(self, grid32):
        stream = NoiseStream(seed=7, dt=0.01)
        for state in evolve(0.5, stream, (masked_field(grid32, 7),), PARAMS, COV1, COV2, check_cfl=False):
            assert state.members[0].coeffs[0, 0] == 0.0
        assert state.step == 50

    def test_divergence_raises(self, grid32):
        params = ModelParams(nu=1e-6, r=1e-6, beta=0.0)
        z0 = random_field(grid32, seed=8, scale=1e6)
        stream = NoiseStream(seed=8, dt=10.0)
        with pytest.raises(DivergenceError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CFLWarning)
                for _ in evolve(500.0, stream, (z0,), params, COV_OFF, COV_OFF):
                    pass

    def test_overflowing_synthesis_is_a_divergence(self, grid32):
        # finite coefficients whose nodal values overflow (1e306), or whose
        # streamfunction is finite but B(s, s) overflows (1e160): a
        # divergence, never a NonFiniteField, and with the CFL check on it
        # is raised before the check can warn (pytest errors on CFLWarning)
        for amplitude in (1e306, 1e160):
            coeffs = np.zeros(grid32.shape)
            coeffs[1:20, 1:20] = amplitude
            z0 = Field(grid32, Basis.NEUMANN_COSINE, coeffs=coeffs)
            for check_cfl in (True, False):
                with pytest.raises(DivergenceError):
                    step_imex(z0, np.zeros(grid32.shape), PARAMS, 0.01, 0, check_cfl=check_cfl)

    def test_cfl_check_leaves_the_step_unchanged(self, grid32):
        stream = NoiseStream(seed=11, dt=0.01)
        start = (masked_field(grid32, 11),)
        states = {
            check_cfl: last(evolve(0.05, stream, start, PARAMS, COV1, COV2, check_cfl=check_cfl))
            for check_cfl in (True, False)
        }
        assert states[True].step == 5
        assert np.array_equal(states[True].members[0].coeffs, states[False].members[0].coeffs)
        assert np.array_equal(states[True].coeff.zw1, states[False].coeff.zw1)
        assert np.array_equal(states[True].coeff.zw2, states[False].coeff.zw2)

    @pytest.mark.parametrize("check_cfl", [True, False])
    def test_step_builds_few_fields(self, grid32, field_inits, check_cfl):
        # the explicit terms, the CFL speed and the solve are arrays; the
        # new z is the one field a step builds
        stream = NoiseStream(seed=12, dt=0.01)
        z = masked_field(grid32, 12)
        w = ou_init(OUKernel(grid32, PARAMS.nu, COV1, COV2, 0.01), stream).combined()
        field_inits[0] = 0
        step_imex(z, w, PARAMS, 0.01, 0, check_cfl=check_cfl)
        assert field_inits[0] == 1

    def test_cfl_warning(self, grid32):
        z0 = dealias(random_field(grid32, seed=9, scale=100.0))
        with pytest.warns(CFLWarning):
            step_imex(z0, np.zeros(grid32.shape), PARAMS, 0.1, 0)


class TestEvolve:
    def test_zero_time_is_identity(self, grid32):
        z0 = masked_field(grid32, 11)
        (out,) = evolve(0.0, NoiseStream(seed=11, dt=0.01), (z0,), PARAMS, COV1, COV2)
        assert np.array_equal(out.members[0].coeffs, z0.coeffs)

    def test_determinism(self, grid32):
        z0 = masked_field(grid32, 12)
        a = last(evolve(0.3, NoiseStream(seed=12, dt=0.01), (z0,), PARAMS, COV1, COV2, check_cfl=False))
        b = last(evolve(0.3, NoiseStream(seed=12, dt=0.01), (z0,), PARAMS, COV1, COV2, check_cfl=False))
        assert np.array_equal(a.members[0].coeffs, b.members[0].coeffs)

    def test_time_must_be_step_multiple(self, grid32):
        with pytest.raises(ConfigError):
            next(evolve(0.015, NoiseStream(seed=13, dt=0.01), (masked_field(grid32, 13),), PARAMS, COV1, COV2))

    def test_yields_every_state(self, grid32):
        states = evolve(
            0.05,
            NoiseStream(seed=14, dt=0.01),
            (masked_field(grid32, 14),),
            PARAMS,
            COV1,
            COV2,
            check_cfl=False,
        )
        seen = [s.step for s in states]
        assert seen == list(range(6))

    def test_sharing_the_chain_changes_no_members_path(self, grid32):
        # member a's z and the chain are the same bits alone and in a pair
        a, b = masked_field(grid32, 22), masked_field(grid32, 23)
        stream = NoiseStream(seed=22, dt=0.01)
        pair = list(evolve(0.2, stream, (a, b), PARAMS, COV1, COV2, check_cfl=False))
        alone = list(evolve(0.2, stream, (a,), PARAMS, COV1, COV2, check_cfl=False))
        assert len(pair) == len(alone) == 21
        for shared, single in zip(pair, alone):
            assert shared.step == single.step
            assert np.array_equal(shared.members[0].coeffs, single.members[0].coeffs)
            assert np.array_equal(shared.coeff.zw1, single.coeff.zw1)
            assert np.array_equal(shared.coeff.zw2, single.coeff.zw2)
        assert not np.array_equal(pair[-1].members[1].coeffs, pair[-1].members[0].coeffs)

    def test_continuity_in_initial_state(self, grid32):
        # the flow map is continuous in z0: the response to a perturbation
        # eps * e1 shrinks linearly with eps (finite slope)
        z0 = masked_field(grid32, 21, scale=0.2)
        e1 = mode_field(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1.0})
        base = last(evolve(0.5, NoiseStream(seed=21, dt=0.01), (z0,), PARAMS, COV1, COV2, check_cfl=False))
        gaps = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            pert = last(
                evolve(
                    0.5,
                    NoiseStream(seed=21, dt=0.01),
                    (Field(grid32, Basis.NEUMANN_COSINE, coeffs=z0.coeffs + eps * e1.coeffs),),
                    PARAMS,
                    COV1,
                    COV2,
                    check_cfl=False,
                )
            )
            gaps.append(norm_l2(pert.members[0] - base.members[0]))
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
        coeff = ou_init(OUKernel(grid32, PARAMS.nu, COV_OFF, COV_OFF, 0.01), NoiseStream(seed=18, dt=0.01))
        u = untransform(z, coeff)
        assert np.array_equal(u.coeffs, z.coeffs)
        assert dirichlet_poisson(u).basis is Basis.DIRICHLET_SINE

    def test_transform_untransform_round_trip(self, grid32):
        z = masked_field(grid32, 19)
        coeff = ou_init(OUKernel(grid32, PARAMS.nu, COV1, COV2, 0.01), NoiseStream(seed=19, dt=0.01))
        u = untransform(z, coeff)
        back = Field(grid32, Basis.NEUMANN_COSINE, coeffs=u.coeffs - coeff.zw1 - coeff.zw2)
        assert norm_l2(back - z) < 1e-14 * max(norm_l2(u), 1.0)

    def test_streamfunction_vanishes_on_boundary(self, grid32):
        stream = NoiseStream(seed=20, dt=0.01)
        _, state = evolve(0.01, stream, (masked_field(grid32, 20),), PARAMS, COV1, COV2, check_cfl=False)
        nod = dirichlet_poisson(untransform(state.members[0], state.coeff)).nodal
        edge = max(
            np.max(np.abs(nod[0, :])),
            np.max(np.abs(nod[-1, :])),
            np.max(np.abs(nod[:, 0])),
            np.max(np.abs(nod[:, -1])),
        )
        assert edge < 1e-12

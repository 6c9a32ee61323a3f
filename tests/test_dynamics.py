"""Time stepping, cocycle property, transform to the physical variable."""

import math
import warnings
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from qgsync import dynamics, fields, operators
from qgsync.analysis import cocycle_check
from qgsync.dynamics import (
    CFLWarning,
    CocycleState,
    DivergenceError,
    ModelParams,
    dealias,
    evolve,
    start_state,
    step_imex,
    untransform,
)
from qgsync.fields import (
    Basis,
    DimensionMismatch,
    Field,
    GridSpec,
    coeffs_from_nodal,
    derivative,
    laplacian_eigenvalues,
    nodal_from_coeffs,
    norm_l2,
    retained_mask,
)
from qgsync.noise import ConfigError, CovarianceSpec, NoiseStream, OUKernel, ou_init, ou_step, wiener_shift
from qgsync.operators import dirichlet_poisson, streamfunction_coeffs

from conftest import advection, beta_coeffs, dealiased, evolve_fields, mode_field, nodal, random_field

PARAMS = ModelParams(nu=1.0, r=1.0, beta=0.1)
COV1 = CovarianceSpec(3e-4, 3.0, 4)
COV2 = CovarianceSpec(3e-4, 2.5, 4)
COV_OFF = CovarianceSpec(0.0, 3.0, 4)


def masked_field(grid, seed, scale=0.05, within_dealias=True):
    f = random_field(grid, seed=seed, scale=scale, slope=2.0)
    return dealiased(f) if within_dealias else f


def last(states):
    """The final state of an `evolve` run."""
    return deque(states, maxlen=1)[0]


def implicit_solve(grid: GridSpec, rhs: np.ndarray, dt: float, params: ModelParams = PARAMS) -> Field:
    """The stepper's diffusion-plus-friction solve of cosine coefficients: rhs / (1 + dt (nu lambda + r))."""
    denom = 1.0 + dt * (params.nu * laplacian_eigenvalues(grid) + params.r)
    mask = retained_mask(grid, Basis.NEUMANN_COSINE)
    return Field(grid, Basis.NEUMANN_COSINE, coeffs=rhs / denom * mask)


def exact_cfl_text(z, w, dt, grid):
    """The speed text of the CFL warning from exact syntheses of psi_x and psi_y, or None if it does not fire."""
    psi = streamfunction_coeffs(nodal_from_coeffs(z + w, Basis.NEUMANN_COSINE, grid), grid)
    grad = [nodal_from_coeffs(*derivative(psi, Basis.DIRICHLET_SINE, axis), grid) for axis in (0, 1)]
    speed = max(float(np.max(np.abs(g))) for g in grad)
    return f"(speed {speed:.3g})" if dt > 0.5 * grid.h / max(1.0, speed) else None


def gradient_bounds(z, w, grid):
    """2 sum |d| for the coefficients d of psi_x and of psi_y: bounds of their lattice values."""
    psi = streamfunction_coeffs(nodal_from_coeffs(z + w, Basis.NEUMANN_COSINE, grid), grid)
    return [2.0 * float(np.sum(np.abs(derivative(psi, Basis.DIRICHLET_SINE, axis)[0]))) for axis in (0, 1)]


@pytest.fixture
def transforms(monkeypatch):
    """List of the bases of every 2D transform call from now on, as (name, basis)."""
    calls = []
    for name in ("coeffs_from_nodal", "nodal_from_coeffs"):
        transform = getattr(fields, name)

        def counted(a, basis, *args, _name=name, _transform=transform, **kwargs):
            calls.append((_name, basis))
            return _transform(a, basis, *args, **kwargs)

        for module in (fields, operators, dynamics):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def step_cfl_text(z, w, params, dt, grid):
    """The speed text of the CFL warning that one step raises, or None."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        step_imex(z, w, params, dt, 0)
    messages = [str(r.message) for r in record if issubclass(r.category, CFLWarning)]
    assert len(messages) <= 1
    if not messages:
        return None
    assert messages[0].startswith(f"dt={dt} exceeds the advective limit 0.5*h/max(1,|grad psi|) at t=0.0 (speed ")
    return messages[0][messages[0].index("(speed") :]


class TestModelParams:
    @pytest.mark.parametrize("kwargs", [
        {"nu": 0.0, "r": 1.0},
        {"nu": 1.0, "r": 0.0},
        {"nu": 1.0, "r": 1.0, "beta": -0.1},
        {"nu": 1e-170, "r": 1.0},  # normal, but its square is 0.0
    ])
    def test_positivity(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_smallest_viscosities_with_a_square(self):
        for nu in (1e-154, 2.3e-162):
            assert ModelParams(nu=nu, r=1.0).nu**2 > 0.0


class TestStepImex:
    def test_step_without_noise(self, grid32):
        # both covariances off: one step is the IMEX update of the z-only terms
        dt = 0.01
        z = masked_field(grid32, 1)
        stream = NoiseStream(seed=1, dt=dt)
        _, state = evolve_fields(dt, stream, (z,), PARAMS, COV_OFF, COV_OFF)
        b = dealias(advection(z.coeffs, z.coeffs))
        tendency = -b - PARAMS.beta * beta_coeffs(z.coeffs)
        expected = implicit_solve(grid32, z.coeffs + dt * tendency, dt)
        assert norm_l2(state.members[0] - expected.coeffs) <= 1e-14 * norm_l2(expected.coeffs)

    def test_step_from_rest_is_the_forcing(self, grid32):
        # z = 0 with noise on: one step is the coefficient-process forcing
        # -dealias B(w,w) - beta G(w)_x - r w, solved implicitly
        dt = 0.01
        stream = NoiseStream(seed=2, dt=dt)
        start, state = evolve_fields(dt, stream, (Field.zeros(grid32, Basis.NEUMANN_COSINE),), PARAMS, COV1, COV2)
        planes = start.kernel.planes(start.zw)
        w = planes[0] + planes[1]
        b = dealias(advection(w, w))
        tendency = -b - PARAMS.beta * beta_coeffs(w) - PARAMS.r * w
        expected = implicit_solve(grid32, dt * tendency, dt)
        assert norm_l2(state.members[0] - expected.coeffs) <= 1e-14 * norm_l2(expected.coeffs)

    def test_linear_decay_factor(self, grid32):
        # small single-mode state, no noise, no beta: each step divides the
        # mode by (1 + dt (nu pi^2 + r)); scalar recursion is the oracle
        params = ModelParams(nu=1.0, r=1.0, beta=0.0)
        mu = np.pi**2 + 1.0
        t_end = 0.2

        def terminal_norm(dt):
            z0 = mode_field(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1e-3})
            stream = NoiseStream(seed=4, dt=dt)
            state = last(evolve_fields(t_end, stream, (z0,), params, COV_OFF, COV_OFF, check_cfl=False))
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
        start = (masked_field(grid32, 5, scale=1.0),)
        states = evolve_fields(0.3, stream, start, params, COV_OFF, COV_OFF, check_cfl=False)
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
            return last(evolve_fields(t_end, stream, (z0,), params, COV_OFF, COV_OFF, check_cfl=False)).members[0]

        z_a = solve(4e-3)
        z_b = solve(2e-3)
        z_c = solve(1e-3)
        err_ab = norm_l2(z_a - z_c)
        err_bc = norm_l2(z_b - z_c)
        order = math.log2(err_ab / err_bc) - 0.0
        assert 0.7 < order < 1.6

    def test_mean_mode_stays_zero(self, grid32):
        stream = NoiseStream(seed=7, dt=0.01)
        for state in evolve_fields(0.5, stream, (masked_field(grid32, 7),), PARAMS, COV1, COV2, check_cfl=False):
            assert state.members[0][0, 0] == 0.0
        assert state.step == 50

    def test_divergence_raises(self, grid32):
        params = ModelParams(nu=1e-6, r=1e-6, beta=0.0)
        z0 = random_field(grid32, seed=8, scale=1e6)
        stream = NoiseStream(seed=8, dt=10.0)
        with pytest.raises(DivergenceError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CFLWarning)
                for _ in evolve_fields(500.0, stream, (z0,), params, COV_OFF, COV_OFF):
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
                    step_imex(z0.coeffs, np.zeros(grid32.shape), PARAMS, 0.01, 0, check_cfl=check_cfl)

    def test_cfl_check_leaves_the_step_unchanged(self, grid32):
        stream = NoiseStream(seed=11, dt=0.01)
        start = (masked_field(grid32, 11),)
        states = {
            check_cfl: last(evolve_fields(0.05, stream, start, PARAMS, COV1, COV2, check_cfl=check_cfl))
            for check_cfl in (True, False)
        }
        assert states[True].step == 5
        assert np.array_equal(states[True].members[0], states[False].members[0])
        planes = {check_cfl: state.kernel.planes(state.zw) for check_cfl, state in states.items()}
        assert np.array_equal(planes[True][0], planes[False][0])
        assert np.array_equal(planes[True][1], planes[False][1])

    @pytest.mark.parametrize("check_cfl", [True, False])
    def test_step_builds_few_fields(self, grid32, field_inits, check_cfl):
        # a step maps z's coefficient array to the next one: the explicit
        # terms, the CFL speed, the solve and the new z are all arrays
        stream = NoiseStream(seed=12, dt=0.01)
        z = masked_field(grid32, 12).coeffs
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        planes = kernel.planes(ou_init(kernel, stream))
        w = planes[0] + planes[1]
        field_inits[0] = 0
        step_imex(z, w, PARAMS, 0.01, 0, check_cfl=check_cfl)
        assert field_inits[0] == 0

    def test_cfl_warning(self, grid32):
        z0 = dealiased(random_field(grid32, seed=9, scale=100.0))
        with pytest.warns(CFLWarning) as record:
            step_imex(z0.coeffs, np.zeros(grid32.shape), PARAMS, 0.1, 0)
        # the speed it reports is max |grad psi| on the lattice
        psi = streamfunction_coeffs(nodal(z0), grid32)
        grad = [nodal_from_coeffs(*derivative(psi, Basis.DIRICHLET_SINE, axis), grid32) for axis in (0, 1)]
        speed = max(float(np.max(np.abs(g))) for g in grad)
        assert f"(speed {speed:.3g})" in str(record[0].message)


    @pytest.mark.parametrize("n", [32, 256])
    def test_four_transforms_per_step(self, n, transforms):
        # beta > 0 and the CFL check on a state whose gradient bounds are
        # below 1/2: the synthesis of s, the Poisson analysis, the synthesis
        # of psi and B's analysis; the beta term and the CFL speed take none
        grid = GridSpec(n)
        z, w = masked_field(grid, 28, scale=0.01).coeffs, masked_field(grid, 29, scale=0.001).coeffs
        assert max(gradient_bounds(z, w, grid)) <= 0.5
        transforms.clear()
        step_imex(z, w, PARAMS, 0.5 * grid.h, 0, check_cfl=True)
        assert len(transforms) == 4


class TestCFLBound:
    """The CFL check synthesizes a derivative only when its bound says it could decide the warning."""

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("dt_side", [-1, 1])
    def test_bound_and_dt_straddle_their_thresholds(self, grid32, transforms, side, dt_side):
        # the larger bound a hair below or above 1/2, dt one float below or above h/2
        z0 = masked_field(grid32, 30, scale=1.0).coeffs
        w0 = masked_field(grid32, 31, scale=0.1).coeffs
        scale = 0.5 / max(gradient_bounds(z0, w0, grid32)) * (1.0 + side * 1e-9)
        z, w = scale * z0, scale * w0
        bounds = gradient_bounds(z, w, grid32)
        assert (max(bounds) > 0.5) == (side > 0)
        dt = float(np.nextafter(0.5 * grid32.h, dt_side * np.inf))
        expected = exact_cfl_text(z, w, dt, grid32)
        assert (expected is not None) == (dt_side > 0)
        transforms.clear()
        assert step_cfl_text(z, w, PARAMS, dt, grid32) == expected
        synthesized = [b for name, b in transforms if b in (Basis.COSINE_SINE, Basis.SINE_COSINE)]
        assert synthesized == [
            b for b, bound in zip((Basis.COSINE_SINE, Basis.SINE_COSINE), bounds) if dt_side > 0 or bound > 0.5
        ]

    @pytest.mark.parametrize("dt_factor", [0.9, 1.1])
    def test_skipped_small_axis_next_to_a_fast_one(self, grid32, transforms, dt_factor):
        # psi ~ sin(pi x) sin(10 pi y): psi_x's bound is below 1/2, so it is
        # not synthesized, while psi_y's speed is above 1 and decides the check
        x = np.arange(grid32.n + 1) * grid32.h
        z = coeffs_from_nodal(np.outer(np.sin(np.pi * x), np.sin(10 * np.pi * x)), Basis.NEUMANN_COSINE, grid32)
        z = z * (0.45 / gradient_bounds(z, 0.0, grid32)[0])
        w = np.zeros(grid32.shape)
        bound_x, _ = gradient_bounds(z, w, grid32)
        psi = streamfunction_coeffs(nodal_from_coeffs(z, Basis.NEUMANN_COSINE, grid32), grid32)
        speed_y = float(np.max(np.abs(nodal_from_coeffs(*derivative(psi, Basis.DIRICHLET_SINE, 1), grid32))))
        assert bound_x <= 0.5 and speed_y > 4.0
        dt = dt_factor * 0.5 * grid32.h / speed_y
        expected = exact_cfl_text(z, w, dt, grid32)
        assert (expected is not None) == (dt_factor > 1)
        transforms.clear()
        assert step_cfl_text(z, w, PARAMS, dt, grid32) == expected
        assert [b for _, b in transforms if b in (Basis.COSINE_SINE, Basis.SINE_COSINE)] == [Basis.SINE_COSINE]


class TestEvolve:
    def test_zero_time_is_identity(self, grid32):
        z0 = masked_field(grid32, 11)
        (out,) = evolve_fields(0.0, NoiseStream(seed=11, dt=0.01), (z0,), PARAMS, COV1, COV2)
        assert np.array_equal(out.members[0], z0.coeffs)

    def test_determinism(self, grid32):
        z0 = masked_field(grid32, 12)
        a = last(evolve_fields(0.3, NoiseStream(seed=12, dt=0.01), (z0,), PARAMS, COV1, COV2, check_cfl=False))
        b = last(evolve_fields(0.3, NoiseStream(seed=12, dt=0.01), (z0,), PARAMS, COV1, COV2, check_cfl=False))
        assert np.array_equal(a.members[0], b.members[0])

    @pytest.mark.parametrize("n", [32, 256])
    def test_step_w_is_the_sum_of_the_chain_planes(self, monkeypatch, n):
        # the w each step hands to `step_imex` is zw1 + zw2 of the lattice
        # planes byte for byte, and `combined` is that sum at the cells
        seen = []

        def record(z, w, params, dt, step, check_cfl, out):
            seen.append(w.copy())
            out[...] = z
            return out

        monkeypatch.setattr(dynamics, "step_imex", record)
        grid = GridSpec(n)
        start = (Field.zeros(grid, Basis.NEUMANN_COSINE),)
        states = evolve_fields(2.0, NoiseStream(seed=33, dt=0.01), start, PARAMS, COV1, COV2)
        prev = next(states)
        for state in states:
            (w,) = seen
            planes = prev.kernel.planes(prev.zw)
            assert w.tobytes() == (planes[0] + planes[1]).tobytes()
            assert prev.kernel.combined(prev.zw).tobytes() == w.take(prev.kernel.cells).tobytes()
            seen.clear()
            prev = state
        assert prev.step == 200
        assert np.any(w)

    def test_time_must_be_step_multiple(self, grid32):
        with pytest.raises(ConfigError):
            next(evolve_fields(0.015, NoiseStream(seed=13, dt=0.01), (masked_field(grid32, 13),), PARAMS, COV1, COV2))

    def test_yields_every_state(self, grid32):
        states = evolve_fields(
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
        pair = list(evolve_fields(0.2, stream, (a, b), PARAMS, COV1, COV2, check_cfl=False))
        alone = list(evolve_fields(0.2, stream, (a,), PARAMS, COV1, COV2, check_cfl=False))
        assert len(pair) == len(alone) == 21
        for shared, single in zip(pair, alone):
            assert shared.step == single.step
            assert np.array_equal(shared.members[0], single.members[0])
            shared_planes, single_planes = shared.kernel.planes(shared.zw), single.kernel.planes(single.zw)
            assert np.array_equal(shared_planes[0], single_planes[0])
            assert np.array_equal(shared_planes[1], single_planes[1])
        assert not np.array_equal(pair[-1].members[1], pair[-1].members[0])

    def test_members_are_read_only(self, grid32):
        # the start stack and every stepped stack
        stream = NoiseStream(seed=24, dt=0.01)
        for state in evolve_fields(0.02, stream, (masked_field(grid32, 24),), PARAMS, COV1, COV2, check_cfl=False):
            with pytest.raises(ValueError):
                state.members[0, 1, 1] = 1.0

    @pytest.mark.parametrize("n", [32, 128])
    def test_members_own_their_arrays(self, n):
        # each stack is written in place by the steps, with the bits of
        # stacking fresh steps, and shares no memory with the previous stack
        # or any work array
        grid = GridSpec(n)
        stream = NoiseStream(seed=27, dt=0.001)
        start = (masked_field(grid, 27), masked_field(grid, 28))
        states = list(evolve_fields(0.003, stream, start, PARAMS, COV1, COV2))
        held = list(fields._WORK.get(n)) + list(operators._JACOBIAN_WORK.get(n)) + list(dynamics._STEP_WORK.get(n))
        for prev, state in zip(states, states[1:]):
            planes = prev.kernel.planes(prev.zw)
            w = planes[0] + planes[1]
            fresh = np.array([step_imex(z, w, PARAMS, stream.dt, prev.step) for z in prev.members])
            assert np.array_equal(state.members.view(np.int64), fresh.view(np.int64))
            assert not np.shares_memory(state.members, prev.members)
            assert not any(np.shares_memory(state.members, h) for h in held)
            assert not np.shares_memory(state.members[0], state.members[1])

    def test_rejects_a_sine_start_field(self, grid32):
        # its sine coefficients would be stepped as cosine ones
        z0 = random_field(grid32, Basis.DIRICHLET_SINE, seed=25, scale=0.05)
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        with pytest.raises(DimensionMismatch):
            start_state(kernel, NoiseStream(seed=25, dt=0.01), (z0,))

    def test_rejects_start_fields_on_two_grids(self, grid32, grid64):
        a, b = masked_field(grid32, 26), masked_field(grid64, 27)
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        with pytest.raises(DimensionMismatch):
            start_state(kernel, NoiseStream(seed=26, dt=0.01), (a, b))

    def test_continuity_in_initial_state(self, grid32):
        # the flow map is continuous in z0: the response to a perturbation
        # eps * e1 shrinks linearly with eps (finite slope)
        z0 = masked_field(grid32, 21, scale=0.2)
        e1 = mode_field(grid32, Basis.NEUMANN_COSINE, {(1, 0): 1.0})
        base = last(evolve_fields(0.5, NoiseStream(seed=21, dt=0.01), (z0,), PARAMS, COV1, COV2, check_cfl=False))
        gaps = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            pert = last(
                evolve_fields(
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
        assert cocycle_check(stream, OUKernel(grid32, PARAMS, COV1, COV2, 0.01), 0.05, 0.07, z0)

    def test_zero_legs(self, grid32):
        z0 = masked_field(grid32, 16)
        stream = NoiseStream(seed=16, dt=0.01)
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        assert cocycle_check(stream, kernel, 0.0, 0.05, z0)
        assert cocycle_check(stream, kernel, 0.05, 0.0, z0)

    def test_negative_control(self, grid32):
        z0 = masked_field(grid32, 17)
        stream = NoiseStream(seed=17, dt=0.01)
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        assert not cocycle_check(stream, kernel, 0.05, 0.07, z0, shift_override=0.08)

    def test_restart_keeps_the_states_kernel(self, grid32):
        # the state is the restart token: its chain goes on with the state's
        # kernel
        z0 = masked_field(grid32, 30)
        stream = NoiseStream(seed=30, dt=0.01)
        full = last(evolve_fields(0.12, stream, (z0,), PARAMS, COV1, COV2, check_cfl=False))
        mid = last(evolve_fields(0.05, stream, (z0,), PARAMS, COV1, COV2, check_cfl=False))
        second = last(evolve(0.07, wiener_shift(stream, 5), mid, check_cfl=False))
        assert second.kernel is mid.kernel
        assert np.array_equal(second.zw, full.zw)
        assert np.array_equal(second.members, full.members)

    def test_built_state_steps_its_chain_with_its_kernel(self, grid32):
        # a chain paired with a kernel of another model (the same support,
        # other decays and gains) steps with that kernel, and the members
        # step with that kernel's model
        kernel0 = OUKernel(grid32, replace(PARAMS, nu=4.0 * PARAMS.nu), COV1, COV2, 0.01)
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        stream = NoiseStream(seed=31, dt=0.01)
        zw = ou_init(kernel, stream).copy()
        start = CocycleState(step=0, members=masked_field(grid32, 31).coeffs[np.newaxis], zw=zw, kernel=kernel0)
        assert not start.zw.flags.writeable and not start.members.flags.writeable
        states = list(evolve(0.02, stream, start, check_cfl=False))
        assert all(state.kernel is kernel0 for state in states)
        assert np.any(zw)
        increments = kernel0.step_gain * stream.normals(0, kernel0.n_channels).take(kernel0.channel)
        assert np.array_equal(states[1].zw, kernel0.decay * zw + increments)
        assert np.array_equal(states[2].zw, ou_step(kernel0, states[1].zw, stream, 1))
        assert not np.array_equal(states[1].zw, ou_step(kernel, zw, stream, 0))
        w = np.add(*kernel0.planes(zw))
        member = step_imex(start.members[0], w, kernel0.params, 0.01, 0, check_cfl=False)
        assert np.array_equal(states[1].members[0], member)
        assert not np.array_equal(member, step_imex(start.members[0], w, PARAMS, 0.01, 0, check_cfl=False))

    def test_stream_of_another_dt_is_refused(self, grid32):
        # the chain of a dt = 0.01 kernel would decay at 0.01 per step while
        # the members step 0.02: the restart is refused, naming both
        start = (masked_field(grid32, 34),)
        mid = last(evolve_fields(0.05, NoiseStream(seed=34, dt=0.01), start, PARAMS, COV1, COV2, check_cfl=False))
        assert mid.kernel.dt == 0.01
        with pytest.raises(ConfigError, match=r"dt=0\.02.*dt=0\.01"):
            next(evolve(0.04, NoiseStream(seed=34, dt=0.02), mid, check_cfl=False))

    def test_chain_of_another_kernel_is_refused(self, grid32):
        # a noisy chain paired with a noise-free kernel: the state refuses
        # it, naming both sizes, before a step can index the planes with it
        noisy = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        quiet = OUKernel(grid32, PARAMS, COV_OFF, COV_OFF, 0.01)
        zw = ou_init(noisy, NoiseStream(seed=32, dt=0.01))
        assert zw.size != quiet.index.size
        members = masked_field(grid32, 32).coeffs[np.newaxis]
        with pytest.raises(DimensionMismatch, match=rf"\({zw.size},\).*{quiet.index.size} entries"):
            CocycleState(step=0, members=members, zw=zw, kernel=quiet)

    def test_members_on_another_grid_are_refused(self, grid32):
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        zw = ou_init(kernel, NoiseStream(seed=33, dt=0.01))
        members = masked_field(GridSpec(16), 33).coeffs[np.newaxis]
        with pytest.raises(DimensionMismatch, match=r"\(17, 17\).*\(33, 33\)"):
            CocycleState(step=0, members=members, zw=zw, kernel=kernel)


class TestUntransform:
    def test_zero_coefficients_identity(self, grid32):
        z = masked_field(grid32, 18)
        kernel = OUKernel(grid32, PARAMS, COV_OFF, COV_OFF, 0.01)
        zw = ou_init(kernel, NoiseStream(seed=18, dt=0.01))
        u = untransform(z.coeffs, kernel.planes(zw))
        assert np.array_equal(u, z.coeffs)
        assert dirichlet_poisson(Field(grid32, Basis.NEUMANN_COSINE, u)).basis is Basis.DIRICHLET_SINE

    def test_transform_untransform_round_trip(self, grid32):
        z = masked_field(grid32, 19)
        kernel = OUKernel(grid32, PARAMS, COV1, COV2, 0.01)
        zw = ou_init(kernel, NoiseStream(seed=19, dt=0.01))
        planes = kernel.planes(zw)
        u = untransform(z.coeffs, planes)
        back = Field(grid32, Basis.NEUMANN_COSINE, coeffs=u - planes[0] - planes[1])
        assert norm_l2(back.coeffs - z.coeffs) < 1e-14 * max(norm_l2(u), 1.0)

    def test_streamfunction_vanishes_on_boundary(self, grid32):
        stream = NoiseStream(seed=20, dt=0.01)
        _, state = evolve_fields(0.01, stream, (masked_field(grid32, 20),), PARAMS, COV1, COV2, check_cfl=False)
        u = Field(grid32, Basis.NEUMANN_COSINE, untransform(state.members[0], state.kernel.planes(state.zw)))
        nod = nodal(dirichlet_poisson(u))
        edge = max(
            np.max(np.abs(nod[0, :])),
            np.max(np.abs(nod[-1, :])),
            np.max(np.abs(nod[:, 0])),
            np.max(np.abs(nod[:, -1])),
        )
        assert edge < 1e-12

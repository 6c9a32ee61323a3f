"""Acceptance suite: one test per release criterion, each printing a verdict line.

All tolerances are fixed here, not tuned at runtime.  The default desk-scale
configuration (grid 32, small trace-bounded noise, nu = r = 1, beta = 0.1)
is the reference setup for the noisy criteria.
"""

import functools
import math

import numpy as np
import pytest

from qgsync.analysis import (
    check_condition,
    cocycle_check,
    radius_invariance_experiment,
    stationary_statistics,
    synchronization_experiment,
)
from qgsync.cli import main
from qgsync.config import RunConfig
from qgsync.dynamics import ModelParams, dealias
from qgsync.fields import (
    Basis,
    BoundaryField,
    Field,
    GridSpec,
    inner,
    laplacian_eigenvalues,
    norm_h1,
    norm_l2,
    retained_mask,
)
from qgsync.noise import (
    CovarianceSpec,
    NoiseStream,
    OUKernel,
    ou_init,
    ou_step,
    temperedness_diagnostic,
    wiener_shift,
)
from qgsync.operators import (
    bilinear_b,
    boundary_flux,
    dirichlet_poisson,
    estimate_constants,
    harmonicity_residual,
    neumann_lift,
    semigroup,
)

from conftest import random_field

DEFAULT = RunConfig()
GRID = DEFAULT.grid()
PARAMS = DEFAULT.params()
COV1 = DEFAULT.cov1()
COV2 = DEFAULT.cov2()
COV_OFF = CovarianceSpec(0.0, 3.0, DEFAULT.cutoff)
DT = DEFAULT.dt


def criterion(label):
    """Print one pass/fail line per criterion, then let pytest do its thing."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        return run

    return wrap


@pytest.fixture(scope="module")
def constants():
    return estimate_constants(GRID, PARAMS.nu, trials=200, seed=0)


@criterion("criterion 1: advection bilinear identities at 1e-12")
def test_criterion_1_bilinear_identities():
    rng_seeds = range(100)
    mask = retained_mask(GRID, Basis.NEUMANN_COSINE)
    for s in rng_seeds:
        rng = np.random.default_rng((s, 1))
        v1, v2, v3 = (
            Field(GRID, Basis.NEUMANN_COSINE, coeffs=rng.standard_normal(GRID.shape) * mask)
            for _ in range(3)
        )
        b12 = bilinear_b(v1, v2)
        assert abs(inner(b12, v2)) <= 1e-12 * norm_l2(v1) * norm_h1(v2) ** 2
        resid = inner(b12, v3) + inner(bilinear_b(v1, v3), v2)
        assert abs(resid) <= 1e-12 * norm_l2(v1) * norm_h1(v2) * norm_h1(v3)


@criterion("criterion 2: operator exactness (Poisson 1e-10, lift 1e-8, semigroup 1e-14)")
def test_criterion_2_operator_exactness():
    # Poisson residual in the L2 norm
    u = random_field(GRID, seed=2, slope=0.5)
    psi = dirichlet_poisson(u)
    lam = laplacian_eigenvalues(GRID)
    lap_psi = Field(GRID, Basis.DIRICHLET_SINE, coeffs=-lam * psi.coeffs)
    diff = lap_psi.nodal[1:-1, 1:-1] - u.nodal[1:-1, 1:-1]
    rel = np.linalg.norm(diff) * GRID.h / max(norm_l2(u), 1e-300)
    assert rel < 1e-10

    # Neumann lift: interior harmonicity and flux recovery
    g = BoundaryField(GRID, [1.0, -0.5, 0.25, 0.1])
    for nu in (1.0, 0.3):
        lift = neumann_lift(g, nu)
        assert harmonicity_residual(lift, nu) < 1e-8
        flux = boundary_flux(lift, nu)
        assert np.max(np.abs(flux.coeffs[:4] - g.coeffs)) < 1e-8
        assert np.max(np.abs(flux.coeffs[4:])) < 1e-8

    # semigroup eigen-decay: per-mode error at most 1e-14 of the mode amplitude
    f = random_field(GRID, seed=3)
    nu, t = 0.7, 0.4
    out = semigroup(f, nu, t)
    mask = retained_mask(GRID, Basis.NEUMANN_COSINE)
    for k in range(GRID.n):
        for l in range(GRID.n):
            if not mask[k, l]:
                continue
            expected = math.exp(-nu * math.pi**2 * (k**2 + l**2) * t) * f.coeffs[k, l]
            assert abs(out.coeffs[k, l] - expected) <= 1e-14 * abs(f.coeffs[k, l])


@criterion("criterion 3: coefficient-process stationarity at 5% over 1e5 steps")
def test_criterion_3_ou_stationarity():
    cov1 = CovarianceSpec(1e-2, 3.0, 4)
    cov2 = CovarianceSpec(1e-2, 2.5, 4)

    # variances along one long chain; large steps decorrelate the samples
    # and the exact update has no step-size bias
    dt = 0.5
    kernel = OUKernel(GRID, PARAMS.nu, cov1, cov2, dt)
    stream = NoiseStream(seed=33, dt=dt)
    state = ou_init(kernel, stream)
    v1, v2 = kernel.stationary_variances()
    n_steps = 100_000
    acc1 = np.zeros(GRID.shape)
    acc2 = np.zeros(GRID.shape)
    for j in range(n_steps):
        acc1 += state.zw1.coeffs**2
        acc2 += state.zw2.coeffs**2
        state = ou_step(state, stream, j)
    acc1 /= n_steps
    acc2 /= n_steps
    assert np.max(np.abs(acc1[v1 > 0] / v1[v1 > 0] - 1.0)) < 0.05
    assert np.max(np.abs(acc2[v2 > 0] / v2[v2 > 0] - 1.0)) < 0.05

    # autocovariance shape of a probe interior mode
    dt = 0.02
    kernel = OUKernel(GRID, PARAMS.nu, cov1, cov2, dt)
    stream = NoiseStream(seed=34, dt=dt)
    state = ou_init(kernel, stream)
    n_steps = 100_000
    series = np.empty(n_steps)
    for j in range(n_steps):
        series[j] = state.zw2.coeffs[1, 0]
        state = ou_step(state, stream, j)
    rate = PARAMS.nu * math.pi**2
    var = float(np.var(series))
    for lag in (1, 2, 3, 4, 5):
        emp = float(np.mean(series[:-lag] * series[lag:])) / var
        ref = math.exp(-rate * lag * dt)
        assert abs(emp / ref - 1.0) < 0.05


@criterion("criterion 4: cocycle law bitwise on 20 random tuples")
def test_criterion_4_cocycle_law():
    rng = np.random.default_rng(44)
    mask = retained_mask(GRID, Basis.NEUMANN_COSINE)
    for trial in range(20):
        seed = int(rng.integers(1, 10_000))
        s = int(rng.integers(1, 10)) * DT
        t = int(rng.integers(1, 10)) * DT
        z0 = dealias(
            Field(GRID, Basis.NEUMANN_COSINE, coeffs=0.05 * rng.standard_normal(GRID.shape) * mask)
        )
        stream = NoiseStream(seed=seed, dt=DT)
        assert cocycle_check(stream, PARAMS, COV1, COV2, s, t, z0)
    # negative control: a mis-shifted second leg must not match
    z0 = dealias(Field(GRID, Basis.NEUMANN_COSINE, coeffs=0.05 * rng.standard_normal(GRID.shape) * mask))
    stream = NoiseStream(seed=77, dt=DT)
    assert not cocycle_check(stream, PARAMS, COV1, COV2, 5 * DT, 6 * DT, z0, shift_override=7 * DT)


@criterion("criterion 5: noise-off synchronization rate within 20% of -(pi^2 + 2)")
def test_criterion_5_linear_rate():
    params = ModelParams(nu=1.0, r=1.0, beta=0.0)
    z0a = Field.zeros(GRID, Basis.NEUMANN_COSINE)
    z0b = Field.from_modes(GRID, Basis.NEUMANN_COSINE, {(1, 0): 1e-3})
    rep = synchronization_experiment(
        5, params, COV_OFF, COV_OFF, GRID, z0a, z0b, t_end=2.0, dt=1e-3
    )
    ref = -(math.pi**2 + 2.0)
    assert rep.fitted_rate < 0
    assert abs(rep.fitted_rate - ref) / abs(ref) < 0.2


@criterion("criterion 6: contraction condition evaluator (exact / satisfied / violated)")
def test_criterion_6_condition_evaluator(constants):
    # (a) noise off, beta = 0: exactly the two deterministic damping terms
    params0 = ModelParams(nu=1.0, r=1.0, beta=0.0)
    rep = check_condition(
        params0, COV_OFF, COV_OFF, 100, NoiseStream(seed=6, dt=DT), GRID, constants=constants
    )
    assert rep.satisfied
    assert rep.lhs == pytest.approx(-params0.nu * math.pi**2 - 2.0 * params0.r, abs=1e-12)

    # (b) default small-noise configuration: total traces at most 1e-3
    total_trace = COV1.boundary_trace(GRID) + COV2.interior_traces(GRID)[1]
    assert total_trace <= 1e-3
    rep_b = check_condition(
        PARAMS, COV1, COV2, DEFAULT.mc_samples, NoiseStream(seed=1, dt=DT), GRID, constants=constants
    )
    assert rep_b.satisfied
    assert rep_b.margin_se is not None and rep_b.margin_se > 3.0

    # (c) amplitudes x 1e4 at nu = 0.01: condition must fail
    big1 = CovarianceSpec(COV1.amplitude * 1e4, COV1.decay, COV1.cutoff)
    big2 = CovarianceSpec(COV2.amplitude * 1e4, COV2.decay, COV2.cutoff)
    params_c = ModelParams(nu=0.01, r=1.0, beta=0.1)
    constants_c = estimate_constants(GRID, params_c.nu, trials=100, seed=1)
    rep_c = check_condition(
        params_c, big1, big2, 100, NoiseStream(seed=2, dt=DT), GRID, constants=constants_c
    )
    assert not rep_c.satisfied


@criterion("criterion 7: synchronization on >= 15/16 seeds and pathwise uniqueness")
def test_criterion_7_synchronization_at_scale():
    t_end = 4.0
    good = 0
    for seed in DEFAULT.seeds:
        rng = np.random.default_rng((seed, 7))
        mask = retained_mask(GRID, Basis.NEUMANN_COSINE)
        z0a = dealias(Field(GRID, Basis.NEUMANN_COSINE, coeffs=0.05 * rng.standard_normal(GRID.shape) * mask))
        z0b = dealias(Field(GRID, Basis.NEUMANN_COSINE, coeffs=0.05 * rng.standard_normal(GRID.shape) * mask))
        rep = synchronization_experiment(
            seed, PARAMS, COV1, COV2, GRID, z0a, z0b, t_end=t_end, dt=DT
        )
        if rep.converged and rep.fitted_rate < 0 and rep.distances[-1] < 1e-6 * rep.distances[0]:
            good += 1
    assert good >= 15

    # pathwise uniqueness: two fresh initial conditions collapse after burn-in
    stats = stationary_statistics(
        DEFAULT.seeds, PARAMS, COV1, COV2, GRID, t_end=4.0, burn=2.0, dt=DT
    )
    assert stats["max_postburn_distance"] < 1e-6
    assert stats["energy_cross_seed_std"] > 0.0


@criterion("criterion 8: forward invariance of the absorbing ball on 16 seeds")
def test_criterion_8_forward_invariance(constants):
    report = radius_invariance_experiment(
        DEFAULT.seeds,
        PARAMS,
        COV1,
        COV2,
        GRID,
        t_end=DEFAULT.t_end,
        dt=DT,
        constants=constants,
        slack=0.02,
    )
    assert report["total_violations"] == 0
    assert report["max_excursion"] <= 0.02


@criterion("criterion 9: temperedness diagnostic (orbit < 0.05, synthetic = 0.5 +- 5%)")
def test_criterion_9_temperedness():
    dt = 0.1
    horizon = 200.0
    kernel = OUKernel(GRID, PARAMS.nu, COV1, COV2, dt)
    stream = NoiseStream(seed=9, dt=dt)
    state = ou_init(kernel, stream)
    n_steps = int(horizon / dt) + 1
    series = np.empty(n_steps)
    for j in range(n_steps):
        series[j] = norm_l2(state.zw1)
        state = ou_step(state, stream, j)
    assert temperedness_diagnostic(series, horizon) < 0.05

    t = np.linspace(0.0, horizon, n_steps)
    synthetic = temperedness_diagnostic(np.exp(0.5 * t), horizon)
    assert abs(synthetic - 0.5) <= 0.025


@criterion("criterion 10: byte-identical reports under repeated runs")
def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid.n = 16\ntime.dt = 0.01\ntime.t_end = 0.5\ntime.burn = 0.1\n"
        "noise.cutoff = 3\nseeds = 2\nmc.samples = 100\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        assert main(["synchronize", "--config", str(cfg), "--output", str(out)]) == 0
        assert main(["check-condition", "--config", str(cfg), "--output", str(out)]) == 0
        outs.append(out)
    for fname in (
        "simulate_seed2.csv",
        "simulate_seed2.json",
        "simulate_seed2_final.field",
        "synchronize_seed2.csv",
        "synchronize.json",
        "check-condition.json",
    ):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

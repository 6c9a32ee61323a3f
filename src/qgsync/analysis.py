"""Quantitative diagnostics: absorbing radius, contraction condition, synchronization.

This module turns the stability theory into executable checks:

  * `compute_r` evaluates the nonautonomous driver R fed by the coefficient
    processes, and `compute_rho` the pullback quadrature for the absorbing
    radius rho.
  * `radius_invariance_experiment` verifies forward invariance of the random
    ball B(0, rho) along simulated trajectories, propagating rho^2 by the
    discrete affine recursion that the quadrature satisfies exactly.
  * `check_condition` Monte-Carlo-estimates the expectations entering the
    contraction inequality and reports each summand with its standard error.
  * `synchronization_experiment` drives two states with the same noise path
    and fits the exponential contact rate; `stationary_statistics` reads off
    moments of the synchronized state.
  * `cocycle_check` is the bitwise flow-property regression test.

All estimates are plug-in: the trilinear constant is an empirical lower
bound of the discrete operator norm, the expectations carry standard
errors, and every report states the verdict together with its margin.
Norm convention: the gradient seminorm is used wherever a first-order
energy norm appears, and reports echo both pi^2 and nu*pi^2 to keep the
eigenvalue convention unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CocycleState,
    ModelParams,
    dealias,
    evolve,
    prepare_state,
    step_imex,
    untransform,
)
from .fields import (
    Basis,
    Field,
    GridSpec,
    laplacian_eigenvalues,
    norm_h1,
    norm_l2,
    random_field,
)
from .noise import (
    CoefficientState,
    CovarianceSpec,
    NoiseStream,
    OUKernel,
    ou_init,
    ou_step,
    wiener_shift,
)
from .operators import OperatorConstants, estimate_constants

NORM_CONVENTION = "first-order norm = gradient seminorm |grad(.)|"


class DecayConditionError(RuntimeError):
    """The mean-damping condition fails; the radius quadrature may diverge."""


# ---------------------------------------------------------------------------
# Driver and absorbing radius
# ---------------------------------------------------------------------------


def driver_from_norms(
    w_l2_sq: float, w_h1_sq: float, params: ModelParams, constants: OperatorConstants
) -> float:
    """Driver R as a function of |w|^2 and |grad w|^2 (pure arithmetic)."""
    quad = 3.0 * (constants.c_gx * params.beta + params.r) ** 2 / (params.nu * constants.lambda1)
    mix = 3.0 * constants.c_b**2 / params.nu
    return quad * w_l2_sq + mix * w_l2_sq * w_h1_sq


def compute_r(
    coeff: CoefficientState, params: ModelParams, constants: OperatorConstants
) -> float:
    """Driver R of the radius dynamics, evaluated at the current coefficients."""
    w = coeff.combined()
    return driver_from_norms(norm_l2(w) ** 2, norm_h1(w) ** 2, params, constants)


def decay_margin(
    params: ModelParams, constants: OperatorConstants, grad2_mean: float
) -> float:
    """lambda1*nu + 2r - 2*c_gx*beta - (3 c_b^2 / nu) * E|grad w|^2."""
    return (
        constants.lambda1 * params.nu
        + 2.0 * params.r
        - 2.0 * constants.c_gx * params.beta
        - 3.0 * constants.c_b**2 / params.nu * grad2_mean
    )


def _trapz(values: np.ndarray, dx: float) -> float:
    if values.size < 2:
        return 0.0
    return float(dx * (np.sum(values) - 0.5 * (values[0] + values[-1])))


def rho_squared_from_series(
    g_series: np.ndarray,
    r_series: np.ndarray,
    dt: float,
    params: ModelParams,
    constants: OperatorConstants,
) -> float:
    """Pullback trapezoid quadrature of the radius integrand.

    The series sample |grad w|^2 and R on a uniform grid over [-T, 0]
    (last entry at time 0).  Separated from the simulation driver so the
    quadrature can be checked against closed forms.
    """
    g_series = np.asarray(g_series, dtype=float)
    r_series = np.asarray(r_series, dtype=float)
    m = g_series.size
    taus = -dt * np.arange(m - 1, -1, -1)
    a = constants.lambda1 * params.nu - 2.0 * params.beta * constants.c_gx + 2.0 * params.r
    c = 3.0 * constants.c_b**2 / params.nu
    # inner integral of g from tau to 0, cumulative trapezoid from the right
    inner = np.zeros(m)
    if m > 1:
        seg = 0.5 * dt * (g_series[:-1] + g_series[1:])
        inner[:-1] = np.cumsum(seg[::-1])[::-1]
    integrand = np.exp(a * taus + c * inner) * r_series
    return _trapz(integrand, dt)


def propagate_rho_squared(
    rho2: float,
    g_old: float,
    g_new: float,
    r_old: float,
    r_new: float,
    dt: float,
    params: ModelParams,
    constants: OperatorConstants,
) -> float:
    """One step of the affine radius recursion.

    This is exactly how one more sample extends the trapezoid quadrature,
    so the propagated value tracks `rho_squared_from_series` on the
    shifted path to round-off (up to the truncated tail).
    """
    a = constants.lambda1 * params.nu - 2.0 * params.beta * constants.c_gx + 2.0 * params.r
    c = 3.0 * constants.c_b**2 / params.nu
    growth = math.exp(-a * dt + c * 0.5 * dt * (g_old + g_new))
    return growth * rho2 + 0.5 * dt * (growth * r_old + r_new)


def default_rho_window(
    params: ModelParams, constants: OperatorConstants, grad2_mean: float
) -> float:
    """Quadrature window making the dropped tail weight below exp(-20)."""
    margin = decay_margin(params, constants, grad2_mean)
    if margin <= 0:
        raise DecayConditionError(
            f"mean-damping margin is {margin:.6g} <= 0; the radius integral may diverge"
        )
    return 20.0 / margin


_NORM_BLOCK = 16  # chain steps whose norms `_coefficient_window` takes together


def _block_driver(
    w: np.ndarray, lam: np.ndarray, params: ModelParams, constants: OperatorConstants
) -> tuple[np.ndarray, np.ndarray]:
    """|grad w|^2 and R for a stack of combined coefficient arrays w[i].

    Bitwise equal to `norm_h1(w[i]) ** 2` and `compute_r` per array: the
    sums run over the same contiguous rows, and the norms are squared as
    Python floats (libm `pow`, as `float ** 2` does), not as x * x.
    """
    sq = np.square(w).reshape(len(w), -1)
    l2 = np.sqrt(np.sum(sq, axis=1))
    h1 = np.sqrt(np.sum(lam.reshape(1, -1) * sq, axis=1))
    l2_sq = np.array([x**2 for x in l2.tolist()])
    h1_sq = np.array([x**2 for x in h1.tolist()])
    return h1_sq, driver_from_norms(l2_sq, h1_sq, params, constants)


def _coefficient_window(
    stream: NoiseStream,
    params: ModelParams,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
    grid: GridSpec,
    steps: int,
    constants: OperatorConstants,
):
    """Simulate the coefficient processes from relative step -steps up to 0.

    Returns (g_series, r_series, final_state): g samples |grad w|^2 and r
    the driver R of w = zw1 + zw2 at every step, and the final state is the
    pathwise-consistent coefficient state at the stream's origin, ready to
    be transported into a forward run.  The chain advances one `ou_step`
    at a time; each step's w is added into a buffer of `_NORM_BLOCK` rows,
    and the norms and R of a full buffer are taken in one go, bitwise as a
    per-step `compute_r` loop would take them.
    """
    past = wiener_shift(stream, -steps * stream.dt)
    state = ou_init(OUKernel(grid, params.nu, cov1, cov2, stream.dt), past)
    lam = laplacian_eigenvalues(grid)
    block = np.empty((_NORM_BLOCK, *grid.shape))
    g = np.empty(steps + 1)
    r = np.empty(steps + 1)
    for j in range(steps + 1):
        k = j % _NORM_BLOCK
        np.add(state.zw1.coeffs, state.zw2.coeffs, out=block[k])
        if k == _NORM_BLOCK - 1 or j == steps:
            g[j - k : j + 1], r[j - k : j + 1] = _block_driver(block[: k + 1], lam, params, constants)
        if j < steps:
            state = ou_step(state, past, j)
    return g, r, state


def estimate_grad2(
    stream: NoiseStream,
    params: ModelParams,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
    grid: GridSpec,
    samples: int = 256,
) -> float:
    """Plug-in estimate of E|grad w|^2 from independent stationary draws."""
    kernel = OUKernel(grid, params.nu, cov1, cov2, stream.dt)
    vals = np.empty(samples)
    for i in range(samples):
        st = ou_init(kernel, wiener_shift(stream, -i * stream.dt))
        vals[i] = norm_h1(st.combined()) ** 2
    return float(np.mean(vals))


def compute_rho(
    stream: NoiseStream,
    params: ModelParams,
    constants: OperatorConstants,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
    grid: GridSpec,
    window: float | None = None,
) -> float:
    """Absorbing radius at the stream's origin via the pullback quadrature."""
    rho2, _ = _rho_with_state(stream, params, constants, cov1, cov2, grid, window)
    return math.sqrt(max(rho2, 0.0))


def _rho_with_state(
    stream: NoiseStream,
    params: ModelParams,
    constants: OperatorConstants,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
    grid: GridSpec,
    window: float | None,
):
    grad2 = estimate_grad2(stream, params, cov1, cov2, grid)
    if window is None:
        window = default_rho_window(params, constants, grad2)
    elif decay_margin(params, constants, grad2) <= 0:
        raise DecayConditionError(
            "mean-damping margin is nonpositive for the plug-in gradient estimate"
        )
    steps = max(2, int(round(window / stream.dt)))
    g, r, state = _coefficient_window(stream, params, cov1, cov2, grid, steps, constants)
    rho2 = rho_squared_from_series(g, r, stream.dt, params, constants)
    return rho2, (g, r, state)


# ---------------------------------------------------------------------------
# Forward invariance of the random absorbing ball
# ---------------------------------------------------------------------------


def radius_invariance_experiment(
    seeds,
    params: ModelParams,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
    grid: GridSpec,
    t_end: float,
    dt: float,
    constants: OperatorConstants | None = None,
    window: float | None = None,
    slack: float = 0.02,
    z0_norm: float | None = None,
) -> dict:
    """Track |z(t)|^2 against the propagated rho^2 along each seed's path.

    Initial states are random with |z0| <= rho (a requested `z0_norm`
    beyond the realized radius is rejected); the radius is propagated by
    the affine recursion driven by the same realized coefficients as the
    trajectory.  Excursions beyond (1 + slack) * rho^2 count as violations;
    the slack covers the first-order time discretization of the comparison
    argument.
    """
    if constants is None:
        constants = estimate_constants(grid, params.nu, seed=0)
    reports = []
    for seed in sorted(seeds):
        stream = NoiseStream(seed=seed, dt=dt)
        rho2_0, (g, r, coeff0) = _rho_with_state(
            stream, params, constants, cov1, cov2, grid, window
        )
        rho0 = math.sqrt(max(rho2_0, 0.0))
        rng = np.random.default_rng((seed, 0xABCD))
        direction = dealias(random_field(grid, rng)).coeffs
        dnorm = float(np.sqrt(np.sum(direction**2)))
        scale = rng.uniform(0.0, 1.0) * rho0 if z0_norm is None else z0_norm
        if scale > rho0 * (1.0 + 1e-12):
            raise ValueError(
                f"initial norm {scale:.6g} exceeds the absorbing radius {rho0:.6g}"
            )
        z0_coeffs = direction / dnorm * scale if dnorm > 0 else direction * 0.0
        z0 = Field(grid, Basis.NEUMANN_COSINE, coeffs=z0_coeffs)

        state = CocycleState(step=0, z=z0, coeff=coeff0)
        steps = stream.steps_for(t_end)
        zeta = rho2_0
        g_old = g[-1]
        r_old = r[-1]
        violations = 0
        max_excursion = 0.0
        for _ in range(steps):
            state = step_imex(state, params, stream, dt, check_cfl=False)
            w = state.coeff.combined()
            g_new = norm_h1(w) ** 2
            r_new = compute_r(state.coeff, params, constants)
            zeta = propagate_rho_squared(
                zeta, g_old, g_new, r_old, r_new, dt, params, constants
            )
            g_old, r_old = g_new, r_new
            z2 = norm_l2(state.z) ** 2
            if zeta > 0:
                excursion = z2 / zeta - 1.0
                max_excursion = max(max_excursion, excursion)
                if excursion > slack:
                    violations += 1
            elif z2 > 1e-300:
                violations += 1
                max_excursion = math.inf
        reports.append(
            {
                "seed": seed,
                "rho0": rho0,
                "z0_norm": norm_l2(z0),
                "violations": violations,
                "max_excursion": max_excursion,
            }
        )
    return {
        "slack": slack,
        "total_violations": int(sum(rep["violations"] for rep in reports)),
        "max_excursion": max(rep["max_excursion"] for rep in reports),
        "per_seed": reports,
    }


# ---------------------------------------------------------------------------
# Contraction condition
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    """Evaluated contraction inequality with per-term attribution.

    `terms` holds the named summands whose sum is `lhs`; `estimates` maps
    each Monte Carlo expectation to (mean, standard error).  When the
    mean-damping precondition fails the radius moments are not estimable:
    `satisfied` is False, `reason` explains why, and lhs/terms are None.
    """

    terms: dict | None
    lhs: float | None
    satisfied: bool
    estimates: dict
    constants: OperatorConstants
    margin_se: float | None = None
    reason: str | None = None
    nu_lambda1: float = 0.0
    norm_convention: str = NORM_CONVENTION

    def to_dict(self) -> dict:
        return {
            "terms": self.terms,
            "lhs": self.lhs,
            "satisfied": self.satisfied,
            "margin_se": self.margin_se,
            "reason": self.reason,
            "estimates": self.estimates,
            "constants": self.constants.to_dict(),
            "nu_lambda1": self.nu_lambda1,
            "lambda1": self.constants.lambda1,
            "norm_convention": self.norm_convention,
        }


def check_condition(
    params: ModelParams,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
    samples: int,
    stream: NoiseStream,
    grid: GridSpec,
    constants: OperatorConstants | None = None,
    gap_time: float = 0.5,
) -> ConditionReport:
    """Monte-Carlo evaluation of the contraction inequality.

    The gradient and driver moments come from `samples` independent
    stationary draws; the radius moments from decimated points of one long
    propagated radius path (burn-in of one quadrature window).  Each
    summand is formed with the plug-in constants and reported with the
    standard error it inherits from its estimate.
    """
    if samples < 100:
        raise ValueError("condition check needs at least 100 samples")
    if constants is None:
        constants = estimate_constants(grid, params.nu, seed=stream.seed & 0xFFFF)

    kernel = OUKernel(grid, params.nu, cov1, cov2, stream.dt)
    g_vals = np.empty(samples)
    r_vals = np.empty(samples)
    for i in range(samples):
        st = ou_init(kernel, wiener_shift(stream, -(i + 1) * stream.dt))
        w = st.combined()
        g_vals[i] = norm_h1(w) ** 2
        r_vals[i] = compute_r(st, params, constants)

    def mean_se(vals: np.ndarray) -> tuple[float, float]:
        m = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        return m, se

    e_grad2, se_grad2 = mean_se(g_vals)
    e_grad4, se_grad4 = mean_se(g_vals**2)
    e_r, se_r = mean_se(r_vals)

    estimates = {
        "E_grad2": {"mean": e_grad2, "se": se_grad2},
        "E_grad4": {"mean": e_grad4, "se": se_grad4},
        "E_R": {"mean": e_r, "se": se_r},
    }

    margin = decay_margin(params, constants, e_grad2)
    if margin <= 0:
        estimates["E_rho2"] = None
        estimates["E_rho4"] = None
        return ConditionReport(
            terms=None,
            lhs=None,
            satisfied=False,
            estimates=estimates,
            constants=constants,
            reason=(
                "mean-damping condition violated: "
                f"lambda1*nu + 2r - 2*c_gx*beta - (3 c_b^2/nu) E|grad w|^2 = {margin:.6g} <= 0; "
                "radius moments are not estimable"
            ),
            nu_lambda1=params.nu * constants.lambda1,
        )

    # one long radius path: burn one window, then decimate
    window = 20.0 / margin
    burn_steps = max(2, int(round(window / stream.dt)))
    gap = max(1, int(round(gap_time / stream.dt)))
    total = burn_steps + samples * gap
    g_ser, r_ser, _ = _coefficient_window(
        wiener_shift(stream, total * stream.dt), params, cov1, cov2, grid, total, constants
    )
    zeta = rho_squared_from_series(
        g_ser[: burn_steps + 1], r_ser[: burn_steps + 1], stream.dt, params, constants
    )
    rho2_samples = np.empty(samples)
    idx = burn_steps
    for i in range(samples):
        for _ in range(gap):
            zeta = propagate_rho_squared(
                zeta,
                g_ser[idx],
                g_ser[idx + 1],
                r_ser[idx],
                r_ser[idx + 1],
                stream.dt,
                params,
                constants,
            )
            idx += 1
        rho2_samples[i] = zeta
    e_rho2, se_rho2 = mean_se(rho2_samples)
    e_rho4, se_rho4 = mean_se(rho2_samples**2)
    estimates["E_rho2"] = {"mean": e_rho2, "se": se_rho2}
    estimates["E_rho4"] = {"mean": e_rho4, "se": se_rho4}

    nu, r, beta = params.nu, params.r, params.beta
    cb2 = constants.c_b**2
    coeff_grad2 = 3.0 * cb2 / nu
    coeff_rho2 = 2.0 * cb2 / nu**2 * (1.0 + 2.0 * math.sqrt(constants.lambda1) * constants.c_gx * beta)
    coeff_rho4 = cb2 / nu
    coeff_grad4 = cb2 / nu
    coeff_r = 2.0 / nu

    terms = {
        "viscous_damping": -nu * constants.lambda1,
        "beta_drift": 2.0 * beta * constants.c_gx,
        "friction_damping": -2.0 * r,
        "grad2": coeff_grad2 * e_grad2,
        "rho2": coeff_rho2 * e_rho2,
        "rho4": coeff_rho4 * e_rho4,
        "grad4": coeff_grad4 * e_grad4,
        "driver_mean": coeff_r * e_r,
    }
    lhs = float(sum(terms.values()))
    se_lhs = math.sqrt(
        (coeff_grad2 * se_grad2) ** 2
        + (coeff_rho2 * se_rho2) ** 2
        + (coeff_rho4 * se_rho4) ** 2
        + (coeff_grad4 * se_grad4) ** 2
        + (coeff_r * se_r) ** 2
    )
    margin_se = (-lhs / se_lhs) if se_lhs > 0 else None
    return ConditionReport(
        terms=terms,
        lhs=lhs,
        satisfied=lhs < 0,
        estimates=estimates,
        constants=constants,
        margin_se=margin_se,
        nu_lambda1=nu * constants.lambda1,
    )


# ---------------------------------------------------------------------------
# Synchronization and stationary statistics
# ---------------------------------------------------------------------------


@dataclass
class SyncReport:
    """Distance record between two trajectories driven by the same noise."""

    times: np.ndarray
    distances: np.ndarray
    fitted_rate: float
    rate_stderr: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "fitted_rate": self.fitted_rate,
            "rate_stderr": self.rate_stderr,
            "converged": self.converged,
            "initial_distance": float(self.distances[0]),
            "final_distance": float(self.distances[-1]),
        }


def _fit_log_rate(times: np.ndarray, dists: np.ndarray, floor: float = 1e-14):
    """OLS slope of log-distance over the second half, stopping at the floor."""
    t0 = times[-1] / 2.0
    keep = (times >= t0) & (dists > floor)
    if np.count_nonzero(keep) < 3:
        return 0.0, math.inf
    x = times[keep]
    y = np.log(dists[keep])
    xm, ym = np.mean(x), np.mean(y)
    sxx = np.sum((x - xm) ** 2)
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    dof = max(x.size - 2, 1)
    stderr = float(math.sqrt(np.sum(resid**2) / dof / sxx))
    return slope, stderr


def synchronization_experiment(
    seed: int,
    params: ModelParams,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
    grid: GridSpec,
    z0_a: Field,
    z0_b: Field,
    t_end: float,
    dt: float,
) -> SyncReport:
    """Evolve two initial states under one noise path and fit the contact rate.

    Both trajectories read the same coefficient chain (same realized
    environment), so any approach of the two states is pathwise
    synchronization, not averaging.
    """
    stream = NoiseStream(seed=seed, dt=dt)
    state_a = prepare_state(z0_a, stream, params, cov1, cov2)
    state_b = CocycleState(step=0, z=dealias(z0_b), coeff=state_a.coeff)
    steps = stream.steps_for(t_end)
    times = np.empty(steps + 1)
    dists = np.empty(steps + 1)
    times[0] = 0.0
    dists[0] = norm_l2(state_a.z - state_b.z)
    for j in range(steps):
        state_a = step_imex(state_a, params, stream, dt, check_cfl=False)
        state_b = step_imex(state_b, params, stream, dt, check_cfl=False)
        times[j + 1] = (j + 1) * dt
        dists[j + 1] = norm_l2(state_a.z - state_b.z)
    rate, stderr = _fit_log_rate(times, dists)
    initial = dists[0]
    converged = bool(
        (initial > 0 and dists[-1] < 1e-6 * initial)
        or (rate < 0 and abs(rate) > 3.0 * stderr)
    )
    return SyncReport(
        times=times, distances=dists, fitted_rate=rate, rate_stderr=stderr, converged=converged
    )


def stationary_statistics(
    seeds,
    params: ModelParams,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
    grid: GridSpec,
    t_end: float,
    burn: float,
    dt: float,
) -> dict:
    """Time-averaged moments of the synchronized physical state.

    Two independent initial conditions run under each seed's noise; the
    post-burn gap between them witnesses the collapse onto a single random
    state, and cross-seed dispersion shows that state is genuinely random.
    """
    per_seed = []
    for seed in sorted(seeds):
        stream = NoiseStream(seed=seed, dt=dt)
        rng = np.random.default_rng((seed, 0xFEED))
        z0a = dealias(random_field(grid, rng, 0.5, 3.0))
        z0b = dealias(random_field(grid, rng, 0.5, 3.0))

        state_a = prepare_state(z0a, stream, params, cov1, cov2)
        state_b = CocycleState(step=0, z=dealias(z0b), coeff=state_a.coeff)
        steps = stream.steps_for(t_end)
        burn_steps = stream.steps_for(burn)
        energy = []
        enstrophy = []
        mean_field = np.zeros(grid.shape)
        max_gap = 0.0
        count = 0
        for j in range(steps):
            state_a = step_imex(state_a, params, stream, dt, check_cfl=False)
            state_b = step_imex(state_b, params, stream, dt, check_cfl=False)
            if j + 1 > burn_steps:
                u = untransform(state_a)
                energy.append(norm_l2(u) ** 2)
                enstrophy.append(norm_h1(u) ** 2)
                mean_field += u.coeffs
                count += 1
                max_gap = max(max_gap, norm_l2(state_a.z - state_b.z))
        mean_field /= max(count, 1)
        per_seed.append(
            {
                "seed": seed,
                "energy_mean": float(np.mean(energy)) if energy else 0.0,
                "enstrophy_mean": float(np.mean(enstrophy)) if enstrophy else 0.0,
                "mean_field_norm": float(np.sqrt(np.sum(mean_field**2))),
                "postburn_max_distance": max_gap,
            }
        )
    energies = np.array([rep["energy_mean"] for rep in per_seed])
    return {
        "per_seed": per_seed,
        "energy_cross_seed_mean": float(np.mean(energies)),
        "energy_cross_seed_std": float(np.std(energies)),
        "max_postburn_distance": max(rep["postburn_max_distance"] for rep in per_seed),
    }


# ---------------------------------------------------------------------------
# Cocycle property
# ---------------------------------------------------------------------------


def cocycle_check(
    stream: NoiseStream,
    params: ModelParams,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
    s: float,
    t: float,
    z0: Field,
    shift_override: float | None = None,
) -> bool:
    """Bitwise flow property: phi(s+t, w, z0) == phi(s, theta_t w, phi(t, w, z0)).

    The intermediate state (including its coefficient processes) is
    transported into the second leg, whose stream is the original shifted
    by t; `shift_override` mis-shifts it deliberately for negative
    controls.
    """
    full = evolve(s + t, stream, z0, params, cov1, cov2, check_cfl=False)
    mid = evolve(t, stream, z0, params, cov1, cov2, check_cfl=False)
    shifted = wiener_shift(stream, t if shift_override is None else shift_override)
    second = evolve(s, shifted, mid, params, cov1, cov2, check_cfl=False)
    return bool(
        np.array_equal(full.z.coeffs, second.z.coeffs)
        and np.array_equal(full.coeff.zw1.coeffs, second.coeff.zw1.coeffs)
        and np.array_equal(full.coeff.zw2.coeffs, second.coeff.zw2.coeffs)
    )

"""Quantitative diagnostics: absorbing radius, contraction condition, synchronization.

This module turns the stability theory into executable checks:

  * `driver_from_norms` is the nonautonomous driver R fed by the coefficient
    processes, and `propagate_rho_squared` the one computation of the
    absorbing radius rho: the affine recursion of the trapezoid pullback
    quadrature, started from 0 at the far end of a window.  |w|^2 and
    |grad w|^2 of w = zw1 + zw2 at the chain's cells (`OUKernel.combined`)
    are taken in one place, `_norm_squares`, for a stack; the chain and its
    norm series carry no condition constant, and each experiment forms
    its rates (`_rates`) once and hands them to the consumers.
  * `radius_invariance_experiment` verifies forward invariance of the random
    ball B(0, rho) along simulated trajectories, continuing the same
    recursion along the realized coefficients.
  * `check_condition` evaluates the contraction inequality term by term: the
    moments of w exactly (`_stationary_moments`), those of rho by Monte Carlo.
  * `synchronization_experiment` drives two states with the same noise path
    and fits the exponential contact rate; `stationary_statistics` reads off
    moments of the synchronized state.
  * `cocycle_check` is the bitwise flow-property regression test.

Each experiment takes the run's one coefficient kernel (`OUKernel`), built
once per command, and reads the model, the grid and the step size from
it.  A seed's noise is the stream `NoiseStream(seed, kernel.dt)`.  Each experiment
returns its report body as a plain dict, with the keys in
the order its JSON report writes them; the entry that
`synchronization_experiment` returns also carries the distance record,
which the CLI writes as CSV.

All estimates are plug-in: lambda1 and c_gx are exact, and the trilinear
constant c_b is an empirical lower bound of the discrete operator norm
that depends on the grid alone (`estimate_constants`, the default of both
experiments that use it).  The expectations carry standard errors, and
every report states the verdict together with its margin.
Norm convention: the gradient seminorm is used wherever a first-order
energy norm appears, and reports echo both pi^2 and nu*pi^2 to keep the
eigenvalue convention unambiguous.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import (
    CocycleState,
    DivergenceError,
    ModelParams,
    dealias,
    evolve,
    start_state,
    untransform,
)
from .fields import (
    Field,
    laplacian_eigenvalues,
    norm_h1,
    norm_l2,
    random_coeffs,
    random_field,
)
from .noise import (
    ConfigError,
    NoiseStream,
    OUKernel,
    ou_init,
    ou_step,
    wiener_shift,
)
from .operators import C_GX_EXACT, LAMBDA1, estimate_constants

NORM_CONVENTION = "first-order norm = gradient seminorm |grad(.)|"
RADIUS_SLACK = 0.02  # relative excursion over rho^2 that counts as a violation
CONDITION_GAP_TIME = 0.5  # time between the decimated radius samples
LOG_RATE_FLOOR = 1e-14  # distances at or below this are left out of the rate fit


class DecayConditionError(RuntimeError):
    """The mean-damping condition fails; the radius quadrature may diverge."""


# ---------------------------------------------------------------------------
# Driver and absorbing radius
# ---------------------------------------------------------------------------


def _rates(params: ModelParams, c_b: float) -> tuple[float, float, float]:
    """(a, c, quad) of the radius integrand exp(a*tau + c * int_tau^0 |grad w|^2) R.

    a = lambda1*nu - 2*beta*c_gx + 2r is the deterministic damping, c = 3 c_b^2 / nu
    the gain of |grad w|^2, and R = quad |w|^2 + c |w|^2 |grad w|^2; the only place any is formed.
    A square c_gx*beta + r that overflows is a `DecayConditionError`: R is not finite.
    """
    a = LAMBDA1 * params.nu - 2.0 * params.beta * C_GX_EXACT + 2.0 * params.r
    c = 3.0 * c_b**2 / params.nu
    try:
        quad = 3.0 * (C_GX_EXACT * params.beta + params.r) ** 2 / (params.nu * LAMBDA1)
    except OverflowError:  # `float ** 2` raises where x * x would give inf
        raise DecayConditionError(
            f"the driver coefficient 3 (c_gx beta + r)^2 / (nu lambda1) overflows at r={params.r}, "
            f"beta={params.beta}; R is not finite"
        ) from None
    return a, c, quad


def driver_from_norms(w_l2_sq, w_h1_sq, rates: tuple[float, float, float]):
    """Driver R as a function of |w|^2 and |grad w|^2 (floats or arrays), with `rates` from `_rates`."""
    _, c, quad = rates
    return quad * w_l2_sq + c * w_l2_sq * w_h1_sq


def decay_margin(rates: tuple[float, float, float], grad2_mean: float) -> float:
    """a - c * E|grad w|^2 = lambda1*nu + 2r - 2*c_gx*beta - (3 c_b^2 / nu) * E|grad w|^2."""
    a, c, _ = rates
    return a - c * grad2_mean


def propagate_rho_squared(
    rho2: float, g: np.ndarray, r: np.ndarray, dt: float, rates: tuple[float, float, float]
) -> np.ndarray:
    """rho^2 along a sampled path of |grad w|^2 and R, from its value at sample 0.

    Each step is the affine recursion by which one more sample extends the
    trapezoid quadrature of the pullback integral
    int_{-T}^0 exp(a*tau + c * int_tau^0 |grad w|^2) R dtau.  From
    rho2 = 0, entry k is that quadrature over samples 0..k (a window of
    k steps ending at sample k), to round-off.  A step that overflows, in
    its growth factor or a product, makes the path +inf or nan from there
    on, without a warning; callers that need a finite rho^2 check for one.
    The recursion runs on Python floats, `_RHO_CHUNK` samples at a time,
    with `rates` from `_rates`.
    """
    a, c, _ = rates
    # the factors of -a*dt + c*0.5*dt*(g0 + g1) and 0.5*dt*(...), in their order
    decay, gain, half = -a * dt, c * 0.5 * dt, 0.5 * dt
    path = np.empty(len(g))
    path[0] = rho = float(rho2)
    g_prev, r_prev = float(g[0]), float(r[0])
    for lo in range(1, len(g), _RHO_CHUNK):
        hi = min(lo + _RHO_CHUNK, len(g))
        chunk = []
        for g_k, r_k in zip(g[lo:hi].tolist(), r[lo:hi].tolist()):
            try:
                growth = math.exp(decay + gain * (g_prev + g_k))
            except OverflowError:
                growth = math.inf
            rho = growth * rho + half * (growth * r_prev + r_k)
            chunk.append(rho)
            g_prev, r_prev = g_k, r_k
        path[lo:hi] = chunk
    return path


def _steps_at_least(t: float, dt: float, least: int) -> int:
    """A window time as whole steps of dt, rounded and at least `least`.

    The one place where the radius window, the burn and the decimation gap
    become step counts; a time that is no finite number of steps is a
    `ConfigError`.
    """
    ratio = t / dt
    if not math.isfinite(ratio):
        raise ConfigError(f"a window of {t} is not a finite number of steps of dt={dt}")
    return max(least, round(ratio))


def _window_steps(
    rates: tuple[float, float, float], grad2_mean: float, window: float | None, dt: float
) -> int:
    """Steps of the radius window: `window`, or one whose dropped tail weight is below exp(-20).

    A mean-damping margin a - c * E|grad w|^2 that is not positive is a
    `DecayConditionError` whether `window` is given or not: the radius
    integral may diverge.
    """
    margin = decay_margin(rates, grad2_mean)
    if margin <= 0:
        raise DecayConditionError(
            f"mean-damping margin is {margin:.6g} <= 0; the radius integral may diverge"
        )
    return _steps_at_least(20.0 / margin if window is None else window, dt, 2)


_NORM_BLOCK = 32  # chain steps whose norms `_coefficient_window` takes together
_RHO_CHUNK = 1024  # samples that `propagate_rho_squared` lists at a time


def _norm_squares(w: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|w|^2 and |grad w|^2 for a stack of rows w[i] of w = zw1 + zw2 at the kernel's `cells`.

    The only place either is computed from the chain.  `lam` holds the
    Laplacian eigenvalues at the same cells.  w is zero off them, so these
    are `norm_l2(w) ** 2` and `norm_h1(w) ** 2` of the lattice array up to
    round-off of the sums.  Overflow gives inf, not a warning; callers that
    need finite values check for them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.square(w)
        l2 = np.sum(sq, axis=1)
        return l2, np.sum(np.multiply(sq, lam, out=sq), axis=1)


def _coefficient_window(kernel: OUKernel, stream: NoiseStream, steps: int):
    """Simulate the coefficient processes from relative step -steps up to 0.

    Returns (l2, h1, zw): l2 and h1 sample |w|^2 and |grad w|^2 of
    w = zw1 + zw2 at every step, and `zw` is the read-only chain vector
    at the stream's origin, pathwise consistent with the window and ready
    to be transported into a forward run with this kernel.  The series
    carry no condition constant: a consumer forms R with
    `driver_from_norms` under its own rates.  The chain advances one
    `ou_step` at a time, and each step's `zw` is copied into one row of a
    `_NORM_BLOCK`-row buffer.  A full buffer is combined into its rows of
    w at the cells by one `bincount`, row i into bins i * cells.size
    onwards, each summed from 0.0 in entry order, so every row has the
    bits of `kernel.combined` of that step alone; the norms of the block
    are then taken in one go.  A window whose series of steps + 1 floats
    numpy cannot index or the machine cannot allocate is a `ConfigError`.
    """
    past = wiener_shift(stream, -steps)
    zw = ou_init(kernel, past)
    ncells = kernel.cells.size
    block = np.empty((_NORM_BLOCK, kernel.into.size))
    into = (kernel.into + ncells * np.arange(_NORM_BLOCK)[:, np.newaxis]).ravel()
    lam = laplacian_eigenvalues(kernel.grid).take(kernel.cells)
    try:
        if (steps + 1) * np.dtype(float).itemsize > np.iinfo(np.intp).max:
            raise MemoryError  # numpy cannot index the series
        l2 = np.empty(steps + 1)
        h1 = np.empty(steps + 1)
    except MemoryError:
        raise ConfigError(
            f"a coefficient window of 10^{math.log10(steps):.1f} steps of dt={stream.dt} "
            "is too long to simulate"
        ) from None
    for lo in range(0, steps + 1, _NORM_BLOCK):
        hi = min(lo + _NORM_BLOCK, steps + 1)
        for j, row in zip(range(lo, hi), block):
            if j:
                zw = ou_step(kernel, zw, past, j - 1)
            row[:] = zw
        rows = hi - lo
        w = np.bincount(into[: rows * zw.size], weights=block[:rows].ravel(), minlength=rows * ncells)
        l2[lo:hi], h1[lo:hi] = _norm_squares(w.astype(float, copy=False).reshape(rows, ncells), lam)
    return l2, h1, zw


def _stationary_moments(kernel: OUKernel, rates: tuple[float, float, float]) -> tuple[float, float, float]:
    """E|grad w|^2, E|grad w|^4 and E R of w = zw1 + zw2 under the law `ou_init` draws, R under `rates`.

    That law is Gaussian with one block per y-mode column: a lift column times one normal
    (variances V1; rank one, not the chain's own joint law: see `noise`) plus independent modes
    (V2).  With V = V1 + V2, the eigenvalues lam and the column sums a = sum lam V1 and
    b = sum V1, Isserlis' theorem gives the moments below, and E R follows by linearity.

        E|grad w|^2       = sum lam V
        E|grad w|^4       = (sum lam V)^2 + 2 [sum a^2 + sum lam^2 V2 (2 V1 + V2)]
        E|w|^2 |grad w|^2 = (sum V)(sum lam V) + 2 [sum a b + sum lam V2 (2 V1 + V2)]

    A moment that is not finite is a `DecayConditionError`.
    """
    v1, v2 = kernel.planes(kernel.stat_gain**2)
    lam = laplacian_eigenvalues(kernel.grid)
    _, c, quad = rates
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = np.sum(lam * v1, axis=0), np.sum(v1, axis=0)
        cross = v2 * (2.0 * v1 + v2)
        grad2 = np.sum(lam * (v1 + v2))
        grad4 = grad2**2 + 2.0 * (np.sum(a**2) + np.sum(lam**2 * cross))
        l2_grad2 = np.sum(v1 + v2) * grad2 + 2.0 * (np.sum(a * b) + np.sum(lam * cross))
        moments = np.array([grad2, grad4, quad * np.sum(v1 + v2) + c * l2_grad2])
    if not np.isfinite(moments).all():
        raise DecayConditionError("a stationary moment of w is not finite; the moments are not estimable")
    return tuple(moments.tolist())


# ---------------------------------------------------------------------------
# Forward invariance of the random absorbing ball
# ---------------------------------------------------------------------------


def radius_invariance_experiment(
    seeds,
    kernel: OUKernel,
    t_end: float,
    c_b: float | None = None,
    window: float | None = None,
) -> dict:
    """Track |z(t)|^2 against the propagated rho^2 along each seed's path.

    Initial states are random with |z0| <= rho; the radius is propagated by
    the affine recursion driven by the same realized coefficients as the
    trajectory.  Excursions beyond (1 + RADIUS_SLACK) * rho^2 count as
    violations; the slack covers the first-order time discretization of the
    comparison argument.  The rates, the stationary moments and the window
    depend on no seed, so they are formed once; each seed's window runs its
    own chain up to time 0, where rho^2 must be finite.
    """
    grid, dt = kernel.grid, kernel.dt
    if c_b is None:
        c_b = estimate_constants(grid)
    lam = laplacian_eigenvalues(grid).take(kernel.cells)
    rates = _rates(kernel.params, c_b)
    grad2, _, _ = _stationary_moments(kernel, rates)
    steps = _window_steps(rates, grad2, window, dt)
    reports = []
    for seed in sorted(seeds):
        stream = NoiseStream(seed, dt)
        l2, h1, zw0 = _coefficient_window(kernel, stream, steps)
        rho2_0 = float(propagate_rho_squared(0.0, h1, driver_from_norms(l2, h1, rates), dt, rates)[-1])
        if not math.isfinite(rho2_0):
            raise DecayConditionError(f"rho^2 at the origin is {rho2_0}; the radius quadrature overflows")
        rho0 = math.sqrt(max(rho2_0, 0.0))
        rng = np.random.default_rng((seed, 0xABCD))
        direction = dealias(random_coeffs(grid, rng))
        dnorm = norm_l2(direction)
        scale = rng.uniform(0.0, 1.0) * rho0
        z0 = direction / dnorm * scale if dnorm > 0 else direction * 0.0

        # the norm series continue the window's from its last sample, time 0
        norms, z2 = [(l2[-1:], h1[-1:])], []
        start = CocycleState(step=0, members=z0[np.newaxis], zw=zw0, kernel=kernel)
        states = evolve(t_end, stream, start, check_cfl=False)
        next(states)  # the start state
        for state in states:
            norms.append(_norm_squares(kernel.combined(state.zw)[np.newaxis], lam))
            z2.append(norm_l2(state.members[0]) ** 2)
        l2, h1 = np.concatenate(norms, axis=1)
        zeta = propagate_rho_squared(rho2_0, h1, driver_from_norms(l2, h1, rates), dt, rates)[1:]
        z2 = np.array(z2)
        # a positive |z|^2 against a nonpositive rho^2 is an unbounded excursion
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            excursion = np.where(zeta > 0, z2 / zeta - 1.0, np.where(z2 > 1e-300, np.inf, 0.0))
        violations = int(np.count_nonzero(excursion > RADIUS_SLACK))
        max_excursion = float(np.fmax.reduce(excursion, initial=0.0))
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
        "slack": RADIUS_SLACK,
        "total_violations": int(sum(rep["violations"] for rep in reports)),
        "max_excursion": max(rep["max_excursion"] for rep in reports),
        "per_seed": reports,
    }


# ---------------------------------------------------------------------------
# Contraction condition
# ---------------------------------------------------------------------------


def _moment(vals: np.ndarray, power: int) -> dict:
    """Mean and standard error of vals**power; `DecayConditionError` when either is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = vals**power
        mean = float(np.mean(x))
        se = float(np.std(x, ddof=1) / math.sqrt(x.size))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise DecayConditionError("a sampled moment is not finite; the moments are not estimable")
    return {"mean": mean, "se": se}


def check_condition(
    kernel: OUKernel,
    samples: int,
    seed: int,
    c_b: float | None = None,
) -> dict:
    """The contraction inequality, summand by summand, with the plug-in constants.

    Returns the body of check-condition.json.  `terms` holds the named
    summands whose sum is `lhs`; `satisfied` is lhs < 0, and `margin_se`
    is -lhs in standard errors (None when the standard error is 0).
    `estimates` maps each expectation to its mean and standard error.
    E|grad w|^2, E|grad w|^4 and E R are exact (`_stationary_moments`,
    standard error 0).  E rho^2 and E rho^4 are means over `samples`
    decimated points of one long radius path of the noise of `seed`,
    after a burn of one quadrature window, and alone carry the standard
    error of lhs.  When the mean-damping precondition fails, the radius
    moments are not estimable: `reason` says why, `satisfied` is False,
    and terms, lhs, margin_se, E_rho2 and E_rho4 are None.  A moment or
    an lhs that is not finite is a `DecayConditionError`.
    """
    if samples < 100:
        raise ValueError("condition check needs at least 100 samples")
    if c_b is None:
        c_b = estimate_constants(kernel.grid)
    params = kernel.params
    rates = _rates(params, c_b)

    exact = zip(("E_grad2", "E_grad4", "E_R"), _stationary_moments(kernel, rates))
    estimates = {key: {"mean": mean, "se": 0.0} for key, mean in exact}
    e_grad2 = estimates["E_grad2"]["mean"]
    report = {
        "terms": None,
        "lhs": None,
        "satisfied": False,
        "margin_se": None,
        "reason": None,
        "estimates": estimates,
        "constants": {"lambda1": LAMBDA1, "c_b": c_b, "c_gx": C_GX_EXACT},
        "nu_lambda1": params.nu * LAMBDA1,
        "lambda1": LAMBDA1,
        "norm_convention": NORM_CONVENTION,
    }
    margin = decay_margin(rates, e_grad2)
    if margin <= 0:
        estimates.update(E_rho2=None, E_rho4=None)
        report["reason"] = (
            "mean-damping condition violated: "
            f"lambda1*nu + 2r - 2*c_gx*beta - (3 c_b^2/nu) E|grad w|^2 = {margin:.6g} <= 0; "
            "radius moments are not estimable"
        )
        return report

    # one long radius path of the seed's noise: burn one window, then decimate
    stream = NoiseStream(seed, kernel.dt)
    burn = _steps_at_least(20.0 / margin, stream.dt, 2)
    gap = _steps_at_least(CONDITION_GAP_TIME, stream.dt, 1)
    total = burn + samples * gap
    l2, h1, _ = _coefficient_window(kernel, wiener_shift(stream, total), total)
    r = driver_from_norms(l2, h1, rates)
    rho2 = propagate_rho_squared(0.0, h1, r, stream.dt, rates)[burn + gap :: gap]
    estimates.update(E_rho2=_moment(rho2, 1), E_rho4=_moment(rho2, 2))

    nu, beta = params.nu, params.beta
    cb2 = c_b**2
    _, c, _ = rates
    rho2_gain = 2.0 * cb2 / nu**2 * (1.0 + 2.0 * math.sqrt(LAMBDA1) * C_GX_EXACT * beta)
    # estimated summand -> (coefficient, estimate), in the order of the sums
    estimated = {
        "grad2": (c, "E_grad2"),
        "rho2": (rho2_gain, "E_rho2"),
        "rho4": (cb2 / nu, "E_rho4"),
        "grad4": (cb2 / nu, "E_grad4"),
        "driver_mean": (2.0 / nu, "E_R"),
    }
    terms = {
        "viscous_damping": -nu * LAMBDA1,
        "beta_drift": 2.0 * beta * C_GX_EXACT,
        "friction_damping": -2.0 * params.r,
        **{name: coeff * estimates[key]["mean"] for name, (coeff, key) in estimated.items()},
    }
    lhs = float(sum(terms.values()))
    if not math.isfinite(lhs):  # inf or nan whenever a summand is
        raise DecayConditionError(f"the contraction inequality's lhs is {lhs}; a summand is not finite")
    se_lhs = math.hypot(*(coeff * estimates[key]["se"] for coeff, key in estimated.values()))
    margin_se = (-lhs / se_lhs) if se_lhs > 0 else None
    report.update(terms=terms, lhs=lhs, satisfied=lhs < 0, margin_se=margin_se)
    return report


# ---------------------------------------------------------------------------
# Synchronization and stationary statistics
# ---------------------------------------------------------------------------


def _fit_log_rate(times: np.ndarray, dists: np.ndarray):
    """OLS slope of log-distance over the second half, stopping at `LOG_RATE_FLOOR`."""
    t0 = times[-1] / 2.0
    keep = (times >= t0) & (dists > LOG_RATE_FLOOR)
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
    kernel: OUKernel,
    z0_a: Field,
    z0_b: Field,
    t_end: float,
) -> dict:
    """Evolve two initial states under one noise path and fit the contact rate.

    Both members share one coefficient chain (one realized environment),
    so any approach of the two states is pathwise synchronization, not
    averaging.  Returns the seed's report entry: the fitted log-distance
    rate with its standard error, the convergence verdict and the first
    and last distance, followed by the `times` and `distances` arrays of
    the whole distance record.
    """
    stream = NoiseStream(seed, kernel.dt)
    states = evolve(t_end, stream, start_state(kernel, stream, (z0_a, z0_b)), check_cfl=False)
    dists = np.array([norm_l2(state.members[0] - state.members[1]) for state in states])
    times = kernel.dt * np.arange(dists.size)
    rate, stderr = _fit_log_rate(times, dists)
    # the distance rule needs the first distance below 1e-6 of the initial one to be
    # positive: a pair whose members round to one array jumps to 0 without contracting
    below = dists < 1e-6 * dists[0]
    converged = bool(
        (below[-1] and dists[np.argmax(below)] > 0)
        or (rate < 0 and abs(rate) > 3.0 * stderr)
    )
    return {
        "fitted_rate": rate,
        "rate_stderr": stderr,
        "converged": converged,
        "initial_distance": float(dists[0]),
        "final_distance": float(dists[-1]),
        "times": times,
        "distances": dists,
    }


def stationary_statistics(
    seeds,
    kernel: OUKernel,
    t_end: float,
    burn: float,
) -> dict:
    """Time-averaged moments of the synchronized physical state.

    Two independent initial conditions run under each seed's noise; the
    post-burn gap between them witnesses the collapse onto a single random
    state, and cross-seed dispersion shows that state is genuinely random.
    A post-burn physical field whose energy or enstrophy is not finite
    raises `DivergenceError`: its moments are not estimable.
    """
    grid = kernel.grid
    per_seed = []
    for seed in sorted(seeds):
        stream = NoiseStream(seed, kernel.dt)
        rng = np.random.default_rng((seed, 0xFEED))
        z0a = random_field(grid, rng, 0.5, 3.0)
        z0b = random_field(grid, rng, 0.5, 3.0)
        burn_steps = stream.steps_for(burn)
        energy = []
        enstrophy = []
        mean_field = np.zeros(grid.shape)
        max_gap = 0.0
        count = 0
        for state in evolve(t_end, stream, start_state(kernel, stream, (z0a, z0b)), check_cfl=False):
            if state.step > burn_steps:
                a, b = state.members
                u = untransform(a, state.kernel.planes(state.zw))
                l2, h1 = norm_l2(u), norm_h1(u)
                # squared as products first: `float ** 2` raises on overflow
                if not (math.isfinite(l2 * l2) and math.isfinite(h1 * h1)):
                    raise DivergenceError(
                        f"the physical field's energy or enstrophy is not finite at t={state.step * kernel.dt}"
                    )
                energy.append(l2**2)
                enstrophy.append(h1**2)
                mean_field += u
                count += 1
                max_gap = max(max_gap, norm_l2(a - b))
        mean_field /= max(count, 1)
        per_seed.append(
            {
                "seed": seed,
                "energy_mean": float(np.mean(energy)) if energy else 0.0,
                "enstrophy_mean": float(np.mean(enstrophy)) if enstrophy else 0.0,
                "mean_field_norm": norm_l2(mean_field),
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
    kernel: OUKernel,
    s: float,
    t: float,
    z0: Field,
    shift_override: float | None = None,
) -> bool:
    """Bitwise flow property: phi(s+t, w, z0) == phi(s, theta_t w, phi(t, w, z0)).

    The two legs from z0 share one start state.  The intermediate state
    (including its coefficient processes) is transported into the second
    leg, whose stream is the original shifted by t; `shift_override`
    mis-shifts it deliberately for negative controls.
    """

    def final(span, noise, start):
        for state in evolve(span, noise, start, check_cfl=False):
            pass
        return state

    start = start_state(kernel, stream, (z0,))
    full = final(s + t, stream, start)
    mid = final(t, stream, start)
    shifted = wiener_shift(stream, stream.steps_for(t if shift_override is None else shift_override))
    second = final(s, shifted, mid)
    return bool(
        np.array_equal(full.members, second.members)
        and np.array_equal(full.zw, second.zw)
    )

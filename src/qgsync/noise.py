"""Two-sided driving noise and the stationary coefficient processes.

Randomness is counter-based: every Gaussian increment is a pure function of
(seed, absolute step index, channel), generated from a Philox block cipher
keyed by the seed with the step index in the counter.  This makes the time
shift of a noise path a trivial re-indexing (`wiener_shift`), lets negative
step indices realize the two-sided past, and makes every experiment
bit-reproducible.  One Philox generator per seed is cached and reseated
for every draw (the step goes into counter word 1 and the buffer is
emptied), which gives the bits of a newly built generator without the
cost of building one.

The two coefficient processes (one driven through the boundary lift, one by
interior forcing) are advanced with the exact per-mode Ornstein-Uhlenbeck
recursion, so their stationary law is exact at any step size: there is no
discretization bias to calibrate away in the stationarity tests.

`OUKernel(grid, nu, cov1, cov2, dt)` is the one place the coefficient
processes are set up: it builds the boundary lift itself, sized to the
boundary covariance.  `ou_init(kernel, stream)` is the only stationary
draw and `ou_step` the only update.

Channel layout per step, in one fixed vector of length 2C:

    [ boundary increments | interior increments | boundary init | interior init ]

The first half drives `ou_step`; the second half is reserved for the
stationary draw of `ou_init` (read at relative step -1), so a past-window
simulation never re-reads channels that a later forward run consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .fields import Basis, Field, GridSpec, laplacian_eigenvalues, retained_mask
from .operators import lifting_matrix


class ConfigError(ValueError):
    """Covariance or stream settings violate a structural requirement."""


_TWO64 = 1 << 64
_TWO128 = 1 << 128


@lru_cache(maxsize=64)
def _philox(key: int):
    """One Philox generator per key, with the state that reseats it.

    The returned state dict is the freshly constructed one (counter zero,
    buffer empty); `NoiseStream.normals` writes the step into its counter
    word 1 and assigns it back, which makes the generator indistinguishable
    from `Philox(key=key, counter=step << 64)` built anew.
    """
    bitgen = np.random.Philox(key=key)
    return bitgen, np.random.Generator(bitgen), bitgen.state


@dataclass(frozen=True)
class NoiseStream:
    """Seekable source of standard-normal increments.

    `origin` realizes the path shift: two streams with equal (seed, dt)
    and origins o1, o2 satisfy
    stream2.normals(j, m) == stream1.normals(j + (o2 - o1), m).
    """

    seed: int
    dt: float
    origin: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError(f"step size must be positive, got dt={self.dt}")

    def normals(self, step: int, count: int) -> np.ndarray:
        """Standard normals for one step; deterministic in (seed, step+origin).

        Bitwise equal to a `Generator(Philox(key=seed % 2**128,
        counter=((step + origin) % 2**64) << 64)).standard_normal(count)`
        draw; the cached generator of the key is reseated instead of built.
        """
        if count == 0:
            return np.zeros(0)
        bitgen, gen, state = _philox(self.seed % _TWO128)
        state["state"]["counter"][1] = (step + self.origin) % _TWO64
        bitgen.state = state
        return gen.standard_normal(count)

    def steps_for(self, t: float) -> int:
        """Convert a time to a whole number of steps, or fail loudly."""
        steps = round(t / self.dt)
        if abs(steps * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ConfigError(f"time {t} is not a multiple of dt={self.dt}")
        return steps


def wiener_shift(stream: NoiseStream, t: float) -> NoiseStream:
    """Advance the stream's origin by t (must be a multiple of dt)."""
    return replace(stream, origin=stream.origin + stream.steps_for(t))


@dataclass(frozen=True)
class CovarianceSpec:
    """Diagonal covariance with algebraic spectral decay.

    Boundary role: variance amplitude * k^(-decay) on edge modes k = 1..cutoff,
    summable trace needs decay > 1.  Interior role: amplitude * (k^2+l^2)^(-decay)
    on modes (k,l) in the cutoff box, gradient-space trace needs decay > 2.
    amplitude = 0 switches the noise off.
    """

    amplitude: float
    decay: float
    cutoff: int

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.decay)):
            raise ConfigError("covariance amplitude and decay must be finite")
        if self.amplitude < 0:
            raise ConfigError("covariance amplitude must be nonnegative")
        if self.cutoff < 1:
            raise ConfigError("covariance cutoff must be at least 1")

    def boundary_variances(self, grid: GridSpec) -> np.ndarray:
        """q_k for edge modes k = 1..min(cutoff, n-1)."""
        if self.amplitude > 0 and self.decay <= 1:
            raise ConfigError(
                f"boundary covariance trace requires decay > 1, got {self.decay}"
            )
        kmax = min(self.cutoff, grid.n - 1)
        ks = np.arange(1, kmax + 1, dtype=float)
        return self.amplitude * ks**-self.decay

    def interior_variances(self, grid: GridSpec) -> np.ndarray:
        """q_(k,l) on the (n+1)x(n+1) mode lattice, zero outside the cutoff box."""
        if self.amplitude > 0 and self.decay <= 2:
            raise ConfigError(
                f"interior covariance trace requires decay > 2, got {self.decay}"
            )
        kmax = min(self.cutoff, grid.n - 1)
        k = np.arange(grid.n + 1, dtype=float)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        q = np.zeros(grid.shape)
        box = (kx <= kmax) & (ky <= kmax)
        box[0, 0] = False
        q[box] = self.amplitude * (kx[box] ** 2 + ky[box] ** 2) ** -self.decay
        q[~retained_mask(grid, Basis.NEUMANN_COSINE)] = 0.0
        return q

    def boundary_trace(self, grid: GridSpec) -> float:
        return float(np.sum(self.boundary_variances(grid)))

    def interior_traces(self, grid: GridSpec) -> tuple[float, float]:
        """(state-space trace, gradient-space trace)."""
        q = self.interior_variances(grid)
        lam = laplacian_eigenvalues(grid)
        return float(np.sum(q)), float(np.sum(lam * q))


@dataclass(frozen=True)
class CoefficientState:
    """Current spectral state of the two stationary coefficient processes."""

    t: float
    step: int
    zw1: Field
    zw2: Field
    kernel: "OUKernel"

    def combined(self) -> Field:
        return self.zw1 + self.zw2


class OUKernel:
    """Precomputed arrays for the exact per-mode coefficient updates.

    For each interior mode the process has relaxation rate nu * lambda.
    The boundary-driven process receives one shared Gaussian per edge
    channel per step, distributed through the lifting matrix with the
    per-mode variance matched to the exact stochastic convolution; the
    interior-driven process is diagonal.  Within-step cross-mode weighting
    of shared channels is approximate at O(dt) weak order, marginal laws
    are exact.  The lift is built here, with one column per boundary
    channel, and only when the boundary noise is on.
    """

    def __init__(
        self,
        grid: GridSpec,
        nu: float,
        cov1: CovarianceSpec,
        cov2: CovarianceSpec,
        dt: float,
    ):
        if nu <= 0:
            raise ConfigError("viscosity must be positive")
        if dt <= 0:
            raise ConfigError("step size must be positive")
        self.grid = grid
        self.nu = nu
        self.dt = dt

        lam = laplacian_eigenvalues(grid)
        mask = retained_mask(grid, Basis.NEUMANN_COSINE)
        rate = nu * lam
        with np.errstate(divide="ignore", invalid="ignore"):
            ou_var_scale = np.where(mask, (1.0 - np.exp(-2.0 * rate * dt)) / (2.0 * rate), 0.0)
            stat_scale = np.where(mask, 1.0 / (2.0 * rate), 0.0)
        self.decay = np.where(mask, np.exp(-rate * dt), 0.0)

        # boundary-driven process: gain nu*lambda through lift column m2
        q1 = cov1.boundary_variances(grid) if cov1.amplitude > 0 else np.zeros(0)
        self.n_boundary = q1.size
        if self.n_boundary:
            lift = lifting_matrix(grid, nu, n_modes=self.n_boundary)
            gain = rate[:, 1 : 1 + self.n_boundary] * lift
            gain = gain * np.sqrt(q1)[np.newaxis, :]
            self.w1_step = gain * np.sqrt(ou_var_scale[:, 1 : 1 + self.n_boundary])
            self.w1_stat = gain * np.sqrt(stat_scale[:, 1 : 1 + self.n_boundary])
            self.w1_step[~mask[:, 1 : 1 + self.n_boundary]] = 0.0
            self.w1_stat[~mask[:, 1 : 1 + self.n_boundary]] = 0.0
        else:
            self.w1_step = np.zeros((grid.n + 1, 0))
            self.w1_stat = np.zeros((grid.n + 1, 0))

        # interior-driven process: diagonal
        q2 = cov2.interior_variances(grid) if cov2.amplitude > 0 else np.zeros(grid.shape)
        idx = np.nonzero(q2 > 0)
        self.w2_index = idx
        self.n_interior = idx[0].size
        self.w2_step = np.sqrt(q2[idx] * ou_var_scale[idx])
        self.w2_stat = np.sqrt(q2[idx] * stat_scale[idx])

        self.n_channels = self.n_boundary + self.n_interior

    def stationary_variances(self) -> tuple[np.ndarray, np.ndarray]:
        """Analytic per-mode stationary variances on the mode lattice."""
        v1 = np.zeros(self.grid.shape)
        if self.n_boundary:
            v1[:, 1 : 1 + self.n_boundary] = self.w1_stat**2
        v2 = np.zeros(self.grid.shape)
        if self.n_interior:
            v2[self.w2_index] = self.w2_stat**2
        return v1, v2

    # -- noise plumbing ------------------------------------------------------

    def _blocks(self, stream: NoiseStream, step: int, init: bool) -> tuple[np.ndarray, np.ndarray]:
        vals = stream.normals(step, 2 * self.n_channels)
        base = self.n_channels if init else 0
        g1 = vals[base : base + self.n_boundary]
        g2 = vals[base + self.n_boundary : base + self.n_channels]
        return g1, g2

    def _assemble(self, g1: np.ndarray, g2: np.ndarray, w1: np.ndarray, w2: np.ndarray):
        zw1 = np.zeros(self.grid.shape)
        if self.n_boundary:
            zw1[:, 1 : 1 + self.n_boundary] = w1 * g1[np.newaxis, :]
        zw2 = np.zeros(self.grid.shape)
        if self.n_interior:
            zw2[self.w2_index] = w2 * g2
        return zw1, zw2

    def stationary_sample(self, stream: NoiseStream) -> tuple[np.ndarray, np.ndarray]:
        """Exact stationary draw; reads the reserved block at relative step -1."""
        g1, g2 = self._blocks(stream, -1, init=True)
        return self._assemble(g1, g2, self.w1_stat, self.w2_stat)

    def advance(
        self, zw1: np.ndarray, zw2: np.ndarray, stream: NoiseStream, step: int
    ) -> tuple[np.ndarray, np.ndarray]:
        g1, g2 = self._blocks(stream, step, init=False)
        i1, i2 = self._assemble(g1, g2, self.w1_step, self.w2_step)
        return self.decay * zw1 + i1, self.decay * zw2 + i2


def _field(grid: GridSpec, coeffs: np.ndarray) -> Field:
    return Field(grid, Basis.NEUMANN_COSINE, coeffs=coeffs)


def ou_init(kernel: OUKernel, stream: NoiseStream) -> CoefficientState:
    """Sample the exact stationary law of both coefficient processes at t = 0.

    Boundary-channel amplitudes are drawn first and mapped through the lift,
    so modes sharing an edge channel come out correlated.
    """
    zw1, zw2 = kernel.stationary_sample(stream)
    grid = kernel.grid
    return CoefficientState(t=0.0, step=0, zw1=_field(grid, zw1), zw2=_field(grid, zw2), kernel=kernel)


def ou_step(state: CoefficientState, stream: NoiseStream, step: int | None = None) -> CoefficientState:
    """Advance both processes by one exact Ornstein-Uhlenbeck update."""
    kernel = state.kernel
    j = state.step if step is None else step
    zw1, zw2 = kernel.advance(state.zw1.coeffs, state.zw2.coeffs, stream, j)
    grid = kernel.grid
    return CoefficientState(
        t=(j + 1) * kernel.dt,
        step=j + 1,
        zw1=_field(grid, zw1),
        zw2=_field(grid, zw2),
        kernel=kernel,
    )


def temperedness_diagnostic(series, horizon: float) -> float:
    """Tail growth statistic sup log+ |X(t)| / |t| over |t| in [T/2, T].

    The input is |X| sampled uniformly on [0, horizon]; values near zero
    support subexponential growth of the stationary orbit.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size == 0:
        raise ValueError("temperedness diagnostic needs a nonempty 1D series")
    if np.any(series < 0):
        raise ValueError("series must be nonnegative")
    n = series.size
    if n < 2:
        raise ValueError("series too short")
    times = np.linspace(0.0, horizon, n)
    window = times >= horizon / 2.0
    if np.count_nonzero(window) < 100:
        raise ValueError("horizon must cover at least 100 samples in [T/2, T]")
    logplus = np.log(np.maximum(series[window], 1.0))
    return float(np.max(logplus / times[window]))

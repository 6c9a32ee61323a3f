"""Two-sided driving noise and the stationary coefficient processes.

Randomness is counter-based: every Gaussian increment is a pure function of
(seed, absolute step index, channel), generated from a Philox block cipher
keyed by the seed with the step index in the counter.  This makes the time
shift of a noise path a trivial re-indexing (`wiener_shift`, by a whole
number of steps), lets negative step indices realize the two-sided past,
and makes every experiment bit-reproducible.  One Philox generator per
seed is cached together with a reseat state, the generator's state dict
with its counter, key and buffer words as lists of plain Python ints.
Each draw writes its step into counter word 1 and assigns the state back,
which empties the buffer: the bits of a newly built generator, without
the cost of building one or of converting numpy scalars in the setter.

The two coefficient processes (one driven through the boundary lift, one by
interior forcing) are advanced with the exact per-mode Ornstein-Uhlenbeck
recursion, so each mode's stationary marginal law is exact at any step
size: there is no discretization bias to calibrate away in the
stationarity tests, which test marginals.  The joint law is not exact:
`ou_init` draws all x-modes of a boundary channel from one normal, fully
correlated, while the chain shares that normal between modes that decay
at different rates, so its stationary correlation between them is below 1.

`OUKernel(grid, params, cov1, cov2, dt)` is the one place the coefficient
processes are set up: it builds the boundary lift itself, sized to the
boundary covariance, and keeps the run's model (`ModelParams`, defined
here because `dynamics` imports this module), grid and step size.  A run
builds one kernel (`RunConfig.kernel`) and hands it to every experiment
it runs, which reads the model from it.
`ou_init(kernel, stream)` is the only stationary draw and `ou_step` the
only update.  The state they return is one bare read-only float64 vector
`zw`: the entries of the NEUMANN_COSINE coefficients zw1 and zw2 of the
two processes that are ever nonzero, not `Field`s: the chain never leaves the package as a field, and callers that
need one build it.  The vector holds neither its kernel nor a step counter:
`ou_step(kernel, zw, stream, step)` is given both, and the caller (for a
trajectory, `CocycleState`) keeps them.

Channel layout per step, in one fixed vector of length 2C:

    [ boundary increments | interior increments | boundary init | interior init ]

The first half drives `ou_step`, which draws only those C normals (a
shorter draw is bitwise the prefix of a longer one); the second half is
reserved for the stationary draw of `ou_init` (read at relative step -1),
so a past-window simulation never re-reads channels that a later forward
run consumes.

The kernel is the one owner of the lattice layout.  It lists, once, each
entry of the vector as a flat index into the two (n+1, n+1) planes: each
lift column of plane 0 on every row (its channel is the column's boundary
channel), then each interior mode of plane 1 (one diagonal channel each).
Next to the index it keeps each entry's channel, decay, and step and
stationary gains, so `ou_step` is decay * zw + step_gain * normals[channel],
the products and sums of each process's update on its lattice plane.
`planes` lays a vector out on the two planes, and `combined` sums it into
w = zw1 + zw2 at the `cells` that either plane uses (the radius window
does the same sum for a block of chain steps in one `bincount`).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
# numpy loads numpy.random lazily; importing it here loads it with the package, not in the first draw
from numpy.random import Generator, Philox

from .fields import Basis, GridSpec, laplacian_eigenvalues, retained_mask
from .operators import lifting_matrix


class ConfigError(ValueError):
    """Covariance or stream settings violate a structural requirement."""


_TWO64 = 1 << 64
_TWO128 = 1 << 128


@lru_cache(maxsize=64)
def _philox(key: int):
    """One Philox generator per key, with the state that reseats it.

    The returned state dict is the freshly constructed one (counter zero,
    buffer empty), its counter, key and buffer words held as lists of
    plain Python ints below 2**64, which the `Philox.state` setter reads
    without converting numpy scalars.  `NoiseStream.normals` writes the
    step into counter word 1 and assigns the dict back, which makes the
    generator indistinguishable from `Philox(key=key, counter=step << 64)`
    built anew.
    """
    bitgen = Philox(key=key)
    state = bitgen.state
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    return bitgen, Generator(bitgen), state


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
        ratio = t / self.dt
        if not math.isfinite(ratio):
            raise ConfigError(f"time {t} is not a finite number of steps of dt={self.dt}")
        steps = round(ratio)
        if abs(steps * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ConfigError(f"time {t} is not a multiple of dt={self.dt}")
        return steps


def wiener_shift(stream: NoiseStream, steps: int) -> NoiseStream:
    """The shifted path theta_t: the stream's origin advanced by a whole number of steps.

    t = steps * dt; a time in place of the step count raises `TypeError`
    (convert one with `NoiseStream.steps_for`).
    """
    return replace(stream, origin=stream.origin + operator.index(steps))


@dataclass(frozen=True)
class ModelParams:
    """Viscosity, bottom friction and the planetary vorticity gradient."""

    nu: float
    r: float
    beta: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.nu, self.r, self.beta)):
            raise ValueError(
                f"model parameters must be finite, got nu={self.nu}, r={self.r}, beta={self.beta}"
            )
        if self.nu < sys.float_info.min:
            # a subnormal viscosity overflows 1/(2 nu lambda) in the OU kernel and the lift
            raise ValueError(f"viscosity must be positive and normal, got {self.nu}")
        if not 0.0 < self.nu * self.nu < math.inf:
            # the contraction condition divides by nu**2; a product, as `float ** 2` raises on overflow
            raise ValueError(f"viscosity must have a finite, nonzero square, got {self.nu}")
        if self.r <= 0:
            raise ValueError(f"friction constant must be positive, got {self.r}")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")


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
        """q_k for edge modes k = 1..min(cutoff, n-1); none (no channels) when the noise is off."""
        if self.amplitude == 0:  # noise off: a decay of any sign is unused
            return np.zeros(0)
        if self.decay <= 1:
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
        q = np.zeros(grid.shape)
        if self.amplitude == 0:
            return q
        kmax = min(self.cutoff, grid.n - 1)
        k = np.arange(grid.n + 1, dtype=float)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        box = (kx <= kmax) & (ky <= kmax)
        box[0, 0] = False
        q[box] = self.amplitude * (kx[box] ** 2 + ky[box] ** 2) ** -self.decay
        q[~retained_mask(grid, Basis.NEUMANN_COSINE)] = 0.0
        return q


class OUKernel:
    """Precomputed arrays for the exact per-mode coefficient updates.

    For each interior mode the process has relaxation rate nu * lambda,
    nu the viscosity of the run's model `params`, which the kernel keeps.
    The boundary-driven process receives one shared Gaussian per edge
    channel per step, distributed through the lifting matrix with the
    per-mode variance matched to the exact stochastic convolution; the
    interior-driven process is diagonal.  Within-step cross-mode weighting
    of shared channels is approximate at O(dt) weak order, marginal laws
    are exact.  The lift is built here, with one column per boundary
    channel, and no columns when the boundary noise is off.
    """

    def __init__(
        self,
        grid: GridSpec,
        params: ModelParams,
        cov1: CovarianceSpec,
        cov2: CovarianceSpec,
        dt: float,
    ):
        if dt <= 0:
            raise ConfigError("step size must be positive")
        self.grid = grid
        self.params = params
        self.dt = dt
        nu = params.nu

        lam = laplacian_eigenvalues(grid)
        mask = retained_mask(grid, Basis.NEUMANN_COSINE)
        rate = nu * lam
        with np.errstate(divide="ignore", invalid="ignore"):
            ou_var_scale = np.where(mask, (1.0 - np.exp(-2.0 * rate * dt)) / (2.0 * rate), 0.0)
            stat_scale = np.where(mask, 1.0 / (2.0 * rate), 0.0)

        # boundary-driven process (plane 0): gain nu*lambda through the lift,
        # one column per channel, on every row of lift columns 1..n_boundary
        q1 = cov1.boundary_variances(grid)
        self.n_boundary = q1.size
        cols = slice(1, 1 + self.n_boundary)
        lift = lifting_matrix(grid, nu, n_modes=self.n_boundary)
        gain = rate[:, cols] * lift
        gain = gain * np.sqrt(q1)[np.newaxis, :]
        w1_step = gain * np.sqrt(ou_var_scale[:, cols])
        w1_stat = gain * np.sqrt(stat_scale[:, cols])
        w1_step[~mask[:, cols]] = 0.0
        w1_stat[~mask[:, cols]] = 0.0

        # interior-driven process (plane 1): diagonal, one channel per mode
        q2 = cov2.interior_variances(grid)
        idx = np.nonzero(q2 > 0)
        w2_step = np.sqrt(q2[idx] * ou_var_scale[idx])
        w2_stat = np.sqrt(q2[idx] * stat_scale[idx])

        # each entry of the chain vector: its flat index into the two planes,
        # in flat order, its channel, decay and step and stationary gains
        rows, lift_ch = np.indices(w1_step.shape).reshape(2, -1)
        shape = (2, *grid.shape)
        self.index = np.concatenate([
            np.ravel_multi_index((np.zeros_like(rows), rows, 1 + lift_ch), shape),
            np.ravel_multi_index((np.ones_like(idx[0]), *idx), shape),
        ])
        self.channel = np.concatenate([lift_ch, self.n_boundary + np.arange(idx[0].size)])
        cell = self.index % lam.size  # the entry's lattice cell
        self.decay = np.where(mask, np.exp(-rate * dt), 0.0).take(cell)
        self.step_gain = np.concatenate([w1_step.ravel(), w2_step])
        self.stat_gain = np.concatenate([w1_stat.ravel(), w2_stat])
        self.n_channels = self.n_boundary + idx[0].size
        # the cells either plane uses, and each entry's position among them
        # (as np.unique(cell, return_inverse=True), without its 0.3 MB of RSS)
        self.cells = np.flatnonzero(np.bincount(cell, minlength=lam.size))
        self.into = self.cells.searchsorted(cell)
        for table in (self.index, self.channel, self.decay, self.step_gain, self.stat_gain, self.cells, self.into):
            table.flags.writeable = False

    def planes(self, zw: np.ndarray) -> np.ndarray:
        """A vector over the support (a chain: zw1 and zw2) on its two (n+1, n+1) lattice planes, zero elsewhere."""
        out = np.zeros((2, *self.grid.shape))
        out.reshape(-1)[self.index] = zw
        return out

    def combined(self, zw: np.ndarray) -> np.ndarray:
        """w = zw1 + zw2 at `cells`, summed from 0.0 with plane 0 first; float64 also when there are none."""
        return np.bincount(self.into, weights=zw, minlength=self.cells.size).astype(float, copy=False)


def ou_init(kernel: OUKernel, stream: NoiseStream) -> np.ndarray:
    """Sample the exact stationary law of both coefficient processes at t = 0: a read-only `zw`.

    Boundary-channel amplitudes are drawn first and mapped through the lift,
    so modes sharing an edge channel come out correlated.  The draw reads
    the reserved second half of the channel vector at relative step -1.
    """
    g = stream.normals(-1, 2 * kernel.n_channels)[kernel.n_channels :]
    zw = kernel.stat_gain * g.take(kernel.channel)
    zw.flags.writeable = False
    return zw


def ou_step(kernel: OUKernel, zw: np.ndarray, stream: NoiseStream, step: int) -> np.ndarray:
    """Advance both processes of `zw` by one exact Ornstein-Uhlenbeck update: the next read-only `zw`.

    The increments are the stream's first `n_channels` normals of `step`,
    the step being taken.  `zw` is not written.
    """
    g = stream.normals(step, kernel.n_channels)
    zw = kernel.decay * zw + kernel.step_gain * g.take(kernel.channel)
    zw.flags.writeable = False
    return zw


def temperedness_diagnostic(series, horizon: float) -> float:
    """Tail growth statistic sup log+ |X(t)| / |t| over |t| in [T/2, T].

    The input is |X| sampled uniformly on [0, horizon]; values near zero
    support subexponential growth of the stationary orbit.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size == 0:
        raise ValueError("temperedness diagnostic needs a nonempty 1D series")
    if not np.isfinite(series).all():
        raise ValueError("series must be finite")
    if np.any(series < 0):
        raise ValueError("series must be nonnegative")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    times = np.linspace(0.0, horizon, series.size)
    window = times >= horizon / 2.0
    if np.count_nonzero(window) < 100:
        raise ValueError("horizon must cover at least 100 samples in [T/2, T]")
    logplus = np.log(np.maximum(series[window], 1.0))
    return float(np.max(logplus / times[window]))

"""Time integration of the transformed vorticity equation as a cocycle.

The evolved variable z is the mean-zero cosine-family field obtained from
the physical vorticity u by subtracting the two stationary coefficient
processes; `untransform` restores u.  One step is semi-implicit: the
diffusion-plus-friction part is solved exactly per mode (it is diagonal in
this basis), all advection terms are explicit at the old state, and the
coefficient processes advance by their exact recursion.

`evolve` is the package's only stepping loop, and it steps a `CocycleState`.
A `Field` enters only through `start_state`: the members (several initial
states) become one (E, n+1, n+1) array of cosine coefficients, and from
there a trajectory is arrays until a caller wraps one (a snapshot).  The
members share one coefficient chain, the realized noise path, stepped by
the kernel the caller built once for the run: each step advances the
chain once and steps every member with it under the kernel's model
(`OUKernel.params`; `ModelParams` lives in `noise`, which this module
imports).

Trajectories are bit-reproducible functions of (seed, dt, z0, model).
A member's path does not depend on which other members share its chain.
Restarting from a yielded state and a shifted stream continues the same
path bit-for-bit, which is the discrete cocycle property the test-suite
checks.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import operators
from .fields import (
    Basis,
    DimensionMismatch,
    Field,
    GridSpec,
    WorkArrays,
    cosine_from_cosine_sine,
    derivative,
    laplacian_eigenvalues,
    nodal_from_coeffs,
    retained_mask,
)
from .noise import ConfigError, ModelParams, NoiseStream, OUKernel, ou_init, ou_step
from .operators import advection_coeffs, streamfunction_coeffs

# B's field form, which `step_imex` computes on arrays instead; the name stays
# bound here, where perfbench's tracer test looks for it
bilinear_b = operators.bilinear_b


class DivergenceError(RuntimeError):
    """The trajectory left the representable range."""


class CFLWarning(UserWarning):
    """The explicit advection step is under-resolved for the current state."""


@dataclass(frozen=True)
class CocycleState:
    """One point of an experiment: its members' transformed states and their one chain.

    `members` is the E members' z as one (E, n+1, n+1) NEUMANN_COSINE array;
    all are driven by the one chain `zw`, the vector that `ou_init` and
    `ou_step` return, which `kernel` advances and lays out on the lattice.
    Both arrays are made read-only in place, so a state can be shared freely; it is the only restart token.  `step` is the only
    step counter; the next step reads the noise of that step for every
    member and for the chain.  A chain that is not one entry per entry of
    the kernel's index, or members off its grid, is a `DimensionMismatch`.
    """

    step: int
    members: np.ndarray
    zw: np.ndarray
    kernel: OUKernel

    def __post_init__(self):
        if self.zw.shape != (self.kernel.index.size,):
            raise DimensionMismatch(f"chain of shape {self.zw.shape} for a kernel of {self.kernel.index.size} entries")
        if self.members.shape[1:] != self.kernel.grid.shape:
            raise DimensionMismatch(f"members of shape {self.members.shape[1:]} for a grid of {self.kernel.grid.shape}")
        self.members.flags.writeable = False
        self.zw.flags.writeable = False


@lru_cache(maxsize=None)
def _dealias_mask(n: int) -> np.ndarray:
    """2/3-rule mask on grid n: keeps modes k, l <= 2n // 3."""
    keep = np.arange(n + 1) <= (2 * n) // 3
    mask = np.outer(keep, keep)
    mask.flags.writeable = False
    return mask


def dealias(coeffs: np.ndarray) -> np.ndarray:
    """A coefficient array with its modes above the 2/3 cutoff zeroed (applied to advection products only)."""
    return coeffs * _dealias_mask(len(coeffs) - 1)


# per thread and n: s then psi; s_nodal then r*w and the derivatives'
# coefficients; psi_nodal then |psi|, the beta term and psi_x, then psi_y
_STEP_WORK = WorkArrays(lambda n: tuple(np.empty((n + 1, n + 1)) for _ in range(3)))


@lru_cache(maxsize=32)
def _implicit_divisor(n: int, dt: float, nu: float, r: float) -> np.ndarray:
    """Read-only 1 + dt (nu lambda + r), the diagonal of the diffusion-plus-friction solve."""
    d = 1.0 + dt * (nu * laplacian_eigenvalues(GridSpec(n)) + r)
    d.flags.writeable = False
    return d


def step_imex(
    z: np.ndarray,
    w: np.ndarray,
    params: ModelParams,
    dt: float,
    step: int,
    check_cfl: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One semi-implicit step of the transformed equation: the next z.

    `z` is one member's NEUMANN_COSINE coefficient array (its shape fixes
    the grid), `w` the combined array zw1 + zw2 of the old state and `step`
    the index of the step being taken.  Explicit: the advection self-term,
    the beta term and the coefficient-process forcing, all at the old
    state.  Implicit: the diagonal solve for diffusion plus friction.  The
    chain is not advanced here; `evolve` does that.  The new z is an array,
    finite and zero off the retained modes: the step builds no field.  It
    is written into `out` if given (not `z` or `w`), else into a fresh
    array; every other lattice array is a work array of this thread for
    the grid size, overwritten by the next step.
    """
    grid = GridSpec(len(z) - 1)
    s, s_nodal, psi_nodal = _STEP_WORK.get(grid.n)

    def _diverged() -> DivergenceError:
        with np.errstate(over="ignore", invalid="ignore"):
            zmag = float(np.sqrt(np.nansum(np.square(z))))
        return DivergenceError(f"trajectory diverged at t={(step + 1) * dt} (|z| was {zmag:.6g})")

    # all explicit terms at the old state; the advection self-term and the
    # coefficient cross/forcing terms collapse into one bilinear evaluation
    # of s = z + w by bilinearity, and likewise for the beta terms, so one
    # streamfunction solve serves B, the beta term and the CFL speed.  A
    # non-finite s or psi makes B non-finite, so B is checked before the
    # CFL check can warn
    #
    # b, the new z's array, becomes the explicit terms
    # -1.0 * (b * dealias) - r w [- beta beta_term] and then the new z; the
    # products and sums are those of that expression, in its order
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(z, w, out=s)
        nodal_from_coeffs(s, Basis.NEUMANN_COSINE, grid, out=s_nodal)
        psi = streamfunction_coeffs(s_nodal, grid, out=s)
        nodal_from_coeffs(psi, Basis.DIRICHLET_SINE, grid, out=psi_nodal)
        b = advection_coeffs(psi_nodal, s_nodal, grid, out=out)
        if not np.all(np.isfinite(b)):
            raise _diverged()
        np.multiply(b, _dealias_mask(grid.n), out=b)
        np.multiply(b, -1.0, out=b)
        coeffs = s_nodal  # read for the last time by B
        np.subtract(b, np.multiply(w, params.r, out=coeffs), out=b)
        # the CFL speed is max |grad psi| on the lattice.  Each orthonormal
        # mode is at most sqrt(2) per axis there, so 2 sum |d| bounds the
        # lattice values of a derivative with coefficients d: 2 pi sum k |psi|
        # for psi_x and 2 pi sum l |psi| for psi_y.  Up to dt = h/2 the check
        # fires only on a speed above 1, so a derivative whose bound is at
        # most 1/2 is not synthesized, and the warning and its speed are
        # those of the exact maximum.  A NaN bound is synthesized
        synthesize = (False, False)
        if check_cfl:
            abs_psi = np.abs(psi, out=psi_nodal)
            k = np.arange(grid.n + 1)
            bounds = (2.0 * np.pi * np.dot(k, abs_psi.sum(axis=1)), 2.0 * np.pi * np.dot(k, abs_psi.sum(axis=0)))
            synthesize = tuple(dt > 0.5 * grid.h or not bound <= 0.5 for bound in bounds)
        # max |grad psi| without the |a| arrays: the larger of max a and -min a,
        # from a 0.0 that keeps an all-zero speed +0.0
        speed = 0.0
        if params.beta != 0.0 or synthesize[0]:
            d_x = derivative(psi, Basis.DIRICHLET_SINE, 0, out=coeffs)[0]
            if params.beta != 0.0:
                # the y axis of the round trip through psi_x's lattice values
                beta_term = cosine_from_cosine_sine(d_x, grid, out=psi_nodal)
                np.subtract(b, np.multiply(beta_term, params.beta, out=beta_term), out=b)
            if synthesize[0]:
                psi_x = nodal_from_coeffs(d_x, Basis.COSINE_SINE, grid, out=psi_nodal)
                speed = max(speed, psi_x.max(), -psi_x.min())
        if synthesize[1]:
            psi_y = nodal_from_coeffs(*derivative(psi, Basis.DIRICHLET_SINE, 1, out=coeffs), grid, out=psi_nodal)
            speed = max(speed, psi_y.max(), -psi_y.min())
        if check_cfl:
            speed = float(speed)
            if dt > 0.5 * grid.h / max(1.0, speed):
                warnings.warn(
                    f"dt={dt} exceeds the advective limit 0.5*h/max(1,|grad psi|) "
                    f"at t={step * dt} (speed {speed:.3g})",
                    CFLWarning,
                    stacklevel=2,
                )
        np.multiply(b, dt, out=b)
        np.add(z, b, out=b)
        np.divide(b, _implicit_divisor(grid.n, dt, params.nu, params.r), out=b)
        np.multiply(b, retained_mask(grid, Basis.NEUMANN_COSINE), out=b)
    if not np.all(np.isfinite(b)):
        raise _diverged()
    return b


def start_state(kernel: OUKernel, stream: NoiseStream, fields: tuple[Field, ...]) -> CocycleState:
    """The state at step 0 of an experiment whose members start at `fields`.

    The fields must be NEUMANN_COSINE on the kernel's grid, else
    `DimensionMismatch`.  They are dealiased and stacked once and share one
    stationary coefficient draw from `stream`.
    """
    if any((f.grid, f.basis) != (kernel.grid, Basis.NEUMANN_COSINE) for f in fields):
        raise DimensionMismatch(f"start fields must be NEUMANN_COSINE on {kernel.grid}, got {fields!r}")
    members = np.array([dealias(f.coeffs) for f in fields])
    return CocycleState(step=0, members=members, zw=ou_init(kernel, stream), kernel=kernel)


def evolve(
    t: float,
    stream: NoiseStream,
    start: CocycleState,
    check_cfl: bool = True,
) -> Iterator[CocycleState]:
    """Run the cocycle for time t (a multiple of the stream's dt); the only stepping loop.

    Yields the start state, then the state after each step.  The start
    keeps its members, chain and kernel and restarts at step 0 of the
    (shifted) stream, so that restarts continue the same noise path; its
    chain and its members step with its own kernel and that kernel's
    model, and a stream whose dt is not the kernel's is a `ConfigError`.
    Each step forms w = zw1 + zw2 once from the chain's lattice planes,
    steps every member's array with it, and advances the chain once.
    """
    if stream.dt != start.kernel.dt:
        raise ConfigError(f"a stream of dt={stream.dt} cannot step a chain whose kernel has dt={start.kernel.dt}")
    steps = stream.steps_for(t)
    if steps < 0:
        raise ValueError("evolution time must be nonnegative")
    params = start.kernel.params
    state = replace(start, step=0)
    yield state
    for step in range(steps):
        # unnamed, the planes are freed before the members step: held across
        # the yield they raised the n = 256 peak RSS by 0.75 MB
        w = np.add(*state.kernel.planes(state.zw))
        members = np.empty_like(state.members)
        for z, new in zip(state.members, members):
            step_imex(z, w, params, stream.dt, step, check_cfl, out=new)
        zw = ou_step(state.kernel, state.zw, stream, step)
        state = CocycleState(step=step + 1, members=members, zw=zw, kernel=state.kernel)
        yield state


def untransform(z: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """One member's u = z + zw1 + zw2 from the chain's `kernel.planes`, summed in that order (it fixes the bits)."""
    return z + planes[0] + planes[1]

"""Time integration of the transformed vorticity equation as a cocycle.

The evolved variable z is the mean-zero cosine-family field obtained from
the physical vorticity u by subtracting the two stationary coefficient
processes; `untransform` restores u.  One step is semi-implicit: the
diffusion-plus-friction part is solved exactly per mode (it is diagonal in
this basis), all advection terms are explicit at the old state, and the
coefficient processes advance by their exact recursion.

`evolve` is the package's only stepping loop.  An experiment's members
(several initial states) share one coefficient chain, the realized noise
path: each step advances the chain once and steps every member with it.

Trajectories are bit-reproducible functions of (seed, dt, z0, parameters).
A member's path does not depend on which other members share its chain.
Restarting from a yielded state and a shifted stream continues the same
path bit-for-bit, which is the discrete cocycle property the test-suite
checks.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import operators
from .fields import (
    Basis,
    Field,
    coeffs_from_nodal,
    derivative,
    laplacian_eigenvalues,
    nodal_from_coeffs,
    retained_mask,
)
from .noise import CoefficientState, CovarianceSpec, NoiseStream, OUKernel, ou_init, ou_step
from .operators import advection_coeffs, streamfunction_coeffs

# B's field form, which `step_imex` computes on arrays instead; the name stays
# bound here, where perfbench's tracer test looks for it
bilinear_b = operators.bilinear_b


class DivergenceError(RuntimeError):
    """The trajectory left the representable range."""


class CFLWarning(UserWarning):
    """The explicit advection step is under-resolved for the current state."""


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
        if self.r <= 0:
            raise ValueError(f"friction constant must be positive, got {self.r}")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")


@dataclass(frozen=True)
class CocycleState:
    """One point of an experiment: its members' transformed fields and their one chain.

    Every member is driven by the same coefficient state `coeff`.  `step`
    is the only step counter; the next step reads the noise of that step
    for every member and for the chain.
    """

    step: int
    members: tuple[Field, ...]
    coeff: CoefficientState


@lru_cache(maxsize=None)
def _dealias_mask(n: int) -> np.ndarray:
    """2/3-rule mask on grid n: keeps modes k, l <= 2n // 3."""
    keep = np.arange(n + 1) <= (2 * n) // 3
    return np.outer(keep, keep)


def dealias(f: Field) -> Field:
    """Zero modes above the 2/3 cutoff (applied to advection products only)."""
    return Field(f.grid, f.basis, coeffs=f.coeffs * _dealias_mask(f.grid.n))


def step_imex(
    z: Field,
    w: np.ndarray,
    params: ModelParams,
    dt: float,
    step: int,
    check_cfl: bool = True,
) -> Field:
    """One semi-implicit step of the transformed equation: the next z.

    `w` is the combined coefficient array zw1 + zw2 of the old state and
    `step` the index of the step being taken.  Explicit: the advection
    self-term, the beta term and the coefficient-process forcing, all at
    the old state.  Implicit: the diagonal solve for diffusion plus
    friction.  The chain is not advanced here; `evolve` does that.  The
    step works on coefficient and lattice arrays; the new z is the only
    field it builds.
    """
    grid = z.grid

    def _diverged() -> DivergenceError:
        with np.errstate(over="ignore", invalid="ignore"):
            zmag = float(np.sqrt(np.nansum(np.square(z.coeffs))))
        return DivergenceError(f"trajectory diverged at t={(step + 1) * dt} (|z| was {zmag:.6g})")

    # all explicit terms at the old state; the advection self-term and the
    # coefficient cross/forcing terms collapse into one bilinear evaluation
    # of s = z + w by bilinearity, and likewise for the beta terms, so one
    # streamfunction solve serves B, the CFL speed and the beta term, and
    # one synthesis of d(psi)/dx serves the last two.  A non-finite s or psi
    # makes B non-finite, so B is checked before the CFL check can warn
    with np.errstate(over="ignore", invalid="ignore"):
        s = z.coeffs + w
        s_nodal = nodal_from_coeffs(s, Basis.NEUMANN_COSINE, grid)
        psi = streamfunction_coeffs(s_nodal, grid)
        b = advection_coeffs(nodal_from_coeffs(psi, Basis.DIRICHLET_SINE, grid), s_nodal, grid)
        if not np.all(np.isfinite(b)):
            raise _diverged()
        explicit = -1.0 * (b * _dealias_mask(grid.n)) - params.r * w
        psi_x = None
        if check_cfl or params.beta != 0.0:
            psi_x = nodal_from_coeffs(*derivative(psi, Basis.DIRICHLET_SINE, 0), grid)
        if check_cfl:
            psi_y = nodal_from_coeffs(*derivative(psi, Basis.DIRICHLET_SINE, 1), grid)
            speed = float(max(np.max(np.abs(psi_x)), np.max(np.abs(psi_y))))
            if dt > 0.5 * grid.h / max(1.0, speed):
                warnings.warn(
                    f"dt={dt} exceeds the advective limit 0.5*h/max(1,|grad psi|) "
                    f"at t={step * dt} (speed {speed:.3g})",
                    CFLWarning,
                    stacklevel=2,
                )
        if params.beta != 0.0:
            explicit = explicit - params.beta * coeffs_from_nodal(psi_x, Basis.NEUMANN_COSINE, grid)
        lam = laplacian_eigenvalues(grid)
        new_coeffs = (z.coeffs + dt * explicit) / (1.0 + dt * (params.nu * lam + params.r))
        new_coeffs = new_coeffs * retained_mask(grid, Basis.NEUMANN_COSINE)
    if not np.all(np.isfinite(new_coeffs)):
        raise _diverged()
    return Field(grid, Basis.NEUMANN_COSINE, coeffs=new_coeffs)


def evolve(
    t: float,
    stream: NoiseStream,
    start: tuple[Field, ...] | CocycleState,
    params: ModelParams,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
    check_cfl: bool = True,
) -> Iterator[CocycleState]:
    """Run the cocycle for time t (a multiple of the stream's dt); the only stepping loop.

    Yields the start state, then the state after each step.  A tuple of
    fields starts an experiment: each member is dealiased and all share one
    stationary coefficient draw.  A `CocycleState` keeps its members and
    chain and restarts at step 0 of the (shifted) stream, so that restarts
    continue the same noise path.  Each step combines the chain's arrays
    once, steps every member with them, and advances the chain once.
    """
    steps = stream.steps_for(t)
    if steps < 0:
        raise ValueError("evolution time must be nonnegative")
    if isinstance(start, CocycleState):
        state = CocycleState(step=0, members=start.members, coeff=start.coeff)
    else:
        kernel = OUKernel(start[0].grid, params.nu, cov1, cov2, stream.dt)
        state = CocycleState(step=0, members=tuple(map(dealias, start)), coeff=ou_init(kernel, stream))
    yield state
    for step in range(steps):
        w = state.coeff.combined()
        members = tuple(step_imex(z, w, params, stream.dt, step, check_cfl) for z in state.members)
        state = CocycleState(step=step + 1, members=members, coeff=ou_step(state.coeff, stream, step))
        yield state


def untransform(z: Field, coeff: CoefficientState) -> Field:
    """Recover the physical field u = z + zw1 + zw2 of one member.

    Its streamfunction, when needed, is `dirichlet_poisson(u)`.
    """
    return Field(z.grid, z.basis, coeffs=z.coeffs + coeff.zw1 + coeff.zw2)

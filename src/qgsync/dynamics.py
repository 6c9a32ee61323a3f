"""Time integration of the transformed vorticity equation as a cocycle.

The evolved variable z is the mean-zero cosine-family field obtained from
the physical vorticity u by subtracting the two stationary coefficient
processes; `untransform` restores u.  One step is semi-implicit: the
diffusion-plus-friction part is solved exactly per mode (it is diagonal in
this basis), all advection terms are explicit at the old state, and the
coefficient processes advance by their exact recursion.

Trajectories are bit-reproducible functions of (seed, dt, z0, parameters).
Restarting from a returned state and a shifted stream continues the same
path bit-for-bit, which is the discrete cocycle property the test-suite
checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import Basis, Field, NonFiniteField, gradient, laplacian_eigenvalues, retained_mask
from .noise import CoefficientState, CovarianceSpec, NoiseStream, OUKernel, ou_init, ou_step
from .operators import beta_term, bilinear_b, dirichlet_poisson


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
        if self.nu <= 0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if self.r <= 0:
            raise ValueError(f"friction constant must be positive, got {self.r}")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")


@dataclass(frozen=True)
class CocycleState:
    """One point of a trajectory: transformed field plus coefficient state.

    `step` is the trajectory's only step counter; the next `step_imex`
    reads the noise of that step for both z and the coefficient processes.
    """

    step: int
    z: Field
    coeff: CoefficientState


@lru_cache(maxsize=None)
def _dealias_mask(n: int) -> np.ndarray:
    """2/3-rule mask on grid n: keeps modes k, l <= 2n // 3."""
    keep = np.arange(n + 1) <= (2 * n) // 3
    return np.outer(keep, keep)


def dealias(f: Field) -> Field:
    """Zero modes above the 2/3 cutoff (applied to advection products only)."""
    return Field(f.grid, f.basis, coeffs=f.coeffs * _dealias_mask(f.grid.n))


def _advective_speed(psi_x: Field, psi_y: Field) -> float:
    """Max nodal streamfunction-gradient speed driving the explicit terms."""
    return float(max(np.max(np.abs(psi_x.nodal)), np.max(np.abs(psi_y.nodal))))


def step_imex(
    state: CocycleState,
    params: ModelParams,
    stream: NoiseStream,
    dt: float,
    check_cfl: bool = True,
) -> CocycleState:
    """One semi-implicit step of the transformed equation.

    Explicit: the advection self-term, the beta term and the
    coefficient-process forcing, all at the old state.  Implicit: the
    diagonal solve for diffusion plus friction.  The coefficient state
    advances by its exact update afterwards.
    """
    if abs(dt - stream.dt) > 1e-12 * max(dt, stream.dt):
        raise ValueError("step size must match the stream's dt")
    z = state.z
    grid = z.grid

    def _diverged() -> DivergenceError:
        with np.errstate(over="ignore", invalid="ignore"):
            zmag = float(np.sqrt(np.nansum(np.square(z.coeffs))))
        return DivergenceError(
            f"trajectory diverged at t={(state.step + 1) * dt} (|z| was {zmag:.6g})"
        )

    # all explicit terms at the old state; the advection self-term and the
    # coefficient cross/forcing terms collapse into one bilinear evaluation
    # of s = z + w by bilinearity, and likewise for the beta terms, so one
    # streamfunction solve serves the CFL speed, B and the beta term, and
    # the CFL check's d(psi)/dx (nodal values cached) serves the beta term;
    # the check follows B so its gradients are not held through B's peak.
    # Only s is a field (the operators take one); the other terms are arrays
    # whose non-finite values reach the check on new_coeffs.  Dealiased B
    # stays a temporary so it is not held through the beta term
    w = state.coeff.combined()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            s = Field(grid, Basis.NEUMANN_COSINE, coeffs=z.coeffs + w)
            psi = dirichlet_poisson(s)
            explicit = -1.0 * (bilinear_b(s, s, psi).coeffs * _dealias_mask(grid.n)) - params.r * w
            psi_x = None
            if check_cfl:
                psi_x, psi_y = gradient(psi)
                speed = _advective_speed(psi_x, psi_y)
                if dt > 0.5 * grid.h / max(1.0, speed):
                    warnings.warn(
                        f"dt={dt} exceeds the advective limit 0.5*h/max(1,|grad psi|) "
                        f"at t={state.step * dt} (speed {speed:.3g})",
                        CFLWarning,
                        stacklevel=2,
                    )
            if params.beta != 0.0:
                explicit = explicit - params.beta * beta_term(s, psi, psi_x).coeffs
            lam = laplacian_eigenvalues(grid)
            new_coeffs = (z.coeffs + dt * explicit) / (1.0 + dt * (params.nu * lam + params.r))
            new_coeffs = new_coeffs * retained_mask(grid, Basis.NEUMANN_COSINE)
    except NonFiniteField:
        raise _diverged() from None
    if not np.all(np.isfinite(new_coeffs)):
        raise _diverged()
    z_new = Field(grid, Basis.NEUMANN_COSINE, coeffs=new_coeffs)
    coeff_new = ou_step(state.coeff, stream, state.step)
    return CocycleState(step=state.step + 1, z=z_new, coeff=coeff_new)


def prepare_state(
    z0: Field | CocycleState,
    stream: NoiseStream,
    params: ModelParams,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
) -> CocycleState:
    """Wrap an initial field into a cocycle state (or pass a state through).

    A bare field gets a freshly sampled stationary coefficient state and is
    projected onto the dealiased retained modes; an existing state keeps
    its z and coefficients and restarts at step 0 of the (shifted) stream,
    so that restarts continue the same noise path.
    """
    if isinstance(z0, CocycleState):
        return CocycleState(step=0, z=z0.z, coeff=z0.coeff)
    kernel = OUKernel(z0.grid, params.nu, cov1, cov2, stream.dt)
    return CocycleState(step=0, z=dealias(z0), coeff=ou_init(kernel, stream))


def evolve(
    t: float,
    stream: NoiseStream,
    z0: Field | CocycleState,
    params: ModelParams,
    cov1: CovarianceSpec,
    cov2: CovarianceSpec,
    observer=None,
    check_cfl: bool = True,
) -> CocycleState:
    """Run the cocycle for time t (a multiple of the stream's dt).

    `observer(state)` is called on the initial state and after every step;
    it is the hook used for time-series output and diagnostics.
    """
    steps = stream.steps_for(t)
    if steps < 0:
        raise ValueError("evolution time must be nonnegative")
    state = prepare_state(z0, stream, params, cov1, cov2)
    if observer is not None:
        observer(state)
    for _ in range(steps):
        state = step_imex(state, params, stream, stream.dt, check_cfl=check_cfl)
        if observer is not None:
            observer(state)
    return state


def untransform(state: CocycleState) -> Field:
    """Recover the physical field u = z + zw1 + zw2 from a trajectory state.

    Its streamfunction, when needed, is `dirichlet_poisson(u)`.
    """
    z = state.z
    return Field(z.grid, z.basis, coeffs=z.coeffs + state.coeff.zw1 + state.coeff.zw2)

"""Spectral simulator and verification harness for randomly forced
barotropic quasigeostrophic flow with a noisy slip boundary condition.

The public surface mirrors the layering: fields and transforms, elliptic
and advection operators, the driving noise with its stationary coefficient
processes, the transformed-equation cocycle, and the quantitative
synchronization diagnostics.
"""

from .fields import (
    Basis,
    DimensionMismatch,
    Field,
    GridSpec,
    norm_h1,
    norm_l2,
)
from .operators import (
    bilinear_b,
    boundary_flux,
    dirichlet_poisson,
    estimate_constants,
    lifting_matrix,
    neumann_lift,
    semigroup,
)
from .noise import (
    ConfigError,
    CovarianceSpec,
    ModelParams,
    NoiseStream,
    OUKernel,
    ou_init,
    ou_step,
    temperedness_diagnostic,
    wiener_shift,
)
from .dynamics import (
    CFLWarning,
    CocycleState,
    DivergenceError,
    evolve,
    start_state,
    step_imex,
    untransform,
)
from .analysis import (
    DecayConditionError,
    check_condition,
    cocycle_check,
    radius_invariance_experiment,
    stationary_statistics,
    synchronization_experiment,
)
from .config import RunConfig, parse_config

__version__ = "0.1.0"

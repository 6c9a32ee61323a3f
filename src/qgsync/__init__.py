"""Spectral simulator and verification harness for randomly forced
barotropic quasigeostrophic flow with a noisy slip boundary condition.

The public surface mirrors the layering: fields and transforms, elliptic
and advection operators, the driving noise with its stationary coefficient
processes, the transformed-equation cocycle, and the quantitative
synchronization diagnostics.
"""

from .fields import (
    Basis,
    BoundaryField,
    DimensionMismatch,
    Field,
    GridSpec,
    inner,
    norm_h1,
    norm_l2,
)
from .operators import (
    OperatorConstants,
    bilinear_b,
    boundary_flux,
    dirichlet_poisson,
    estimate_constants,
    lifting_matrix,
    neumann_lift,
    semigroup,
)
from .noise import (
    CoefficientState,
    ConfigError,
    CovarianceSpec,
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
    ModelParams,
    evolve,
    step_imex,
    untransform,
)
from .analysis import (
    ConditionReport,
    DecayConditionError,
    SyncReport,
    check_condition,
    cocycle_check,
    radius_invariance_experiment,
    stationary_statistics,
    synchronization_experiment,
)
from .config import RunConfig, parse_config

__version__ = "0.1.0"

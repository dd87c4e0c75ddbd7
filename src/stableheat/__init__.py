"""Heat kernels, exit laws and survival estimates for killed isotropic
alpha-stable processes."""

from .domains import (
    Ball,
    BallUnionExteriorBall,
    CircularCone,
    Domain,
    ExteriorBall,
    FatWitness,
    HalfSpace,
    HyperplaneComplement,
    Intersection,
    IntervalComplement,
    SpecialLipschitz,
    contains,
    dist_to_complement,
    domain_from_dict,
    domain_to_dict,
    fat_witness,
)
from .errors import (
    EstimateDiagnostic,
    FitError,
    InconclusiveError,
    MissingParameterError,
    UnsupportedRegimeError,
)
from .kernels import (
    Bracket,
    SurvivalProfile,
    ball_exit_tail,
    ball_exit_tail_exact,
    ball_green,
    ball_poisson,
    expected_exit_time_ball,
    heat_kernel_profile,
    survival_profile,
)
from .montecarlo import (
    MCEstimate,
    estimate_beta,
    estimate_heat_kernel,
    estimate_lambda1,
    sample_ball_exit_positions,
    sample_exit_positions_wos,
    sample_stable_increments,
    survival_curve,
)
from .stable import (
    DensityEval,
    StableParams,
    free_density,
    free_density_radial,
    incomplete_kernel_integral,
    levy_constant,
    levy_symbol_quadrature,
)

__version__ = "0.1.0"

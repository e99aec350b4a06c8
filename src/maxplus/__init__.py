"""Max-plus conjugacies, subdifferential coverings, and rate functions on grids."""

from .errors import GridMismatchError, MaxplusError, ValidationError
from .grids import (
    NEG_INF,
    POS_INF,
    DomainMask,
    Grid,
    GridFn,
    domain_masks,
    indicator,
    otimes,
)
from .conjugacy import (
    Kernel,
    SubdiffMap,
    WindowSides,
    coercivity_report,
    conjugate,
    legendre_fast,
    subdifferential_map,
    superlevel_compactness_report,
)
from .covering import (
    CoveringConfig,
    CoveringReport,
    PreimageReport,
    Verdict,
    build_covering,
    quasicontinuity_check,
    solve_preimage,
    verdict,
)
from .forms import (
    LogIntegralForm,
    MaxPlusForm,
    join_defect_estimate,
)
from .convergence import (
    FormSequence,
    GaussianMeanForm,
    default_interval_sets,
    gaussian_mean_sequence,
    ldp_bounds_check,
)
from .ldp import GartnerInput, GartnerOutput, limit_log_moment, pipeline, tightness_criterion
from .merton import (
    MertonParams,
    MertonValueForm,
    brute_force_growth,
    growth_conjugate,
    growth_input,
    growth_value,
    optimal_fraction,
    rate_threshold,
    simulate,
    tail_rate_experiment,
)

__version__ = "0.1.0"

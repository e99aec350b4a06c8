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
    neg,
    oplus,
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
    EmpiricalForm,
    LogIntegralForm,
    MaxPlusForm,
    SupFamilyForm,
    density_of,
    join_defect_estimate,
    tightness_check,
)
from .convergence import (
    FormSequence,
    GaussianMeanForm,
    asymptotic_tightness_check,
    constant_sequence,
    default_interval_sets,
    estimate_rate,
    gaussian_mean_sequence,
    ldp_bounds_check,
    weak_convergence_check,
)
from .ldp import GartnerInput, GartnerOutput, limit_log_moment, pipeline, tightness_criterion
from .merton import (
    ConstantControl,
    FeedbackControl,
    MertonParams,
    MertonValueForm,
    brute_force_growth,
    empirical_form,
    growth_conjugate,
    growth_input,
    growth_value,
    optimal_fraction,
    rate_threshold,
    risk_sensitive_exact,
    risk_sensitive_value,
    simulate,
    tail_rate_experiment,
    truncate_form,
)

__version__ = "0.1.0"

"""Matrix-parameter stochastic optimizers with orthogonalized momentum.

Implements NAMO (norm-adaptive scaling of orthogonalized momentum), its
diagonal extension NAMO-D, and Muon/AdamW baselines, together with synthetic
benchmark problems, numerical certification of the inequalities behind their
convergence guarantees, and a deterministic experiment harness.
"""

from .errors import (
    ConfigError,
    DimensionError,
    InputError,
    NumericalError,
    OrthoptError,
)
from .linalg import (
    SvdFactors,
    frobenius_norm,
    inner_product,
    nuclear_norm,
    reduced_svd,
    spectral_norm,
)
from .orthogonalize import (
    EXACT,
    NEWTON_SCHULZ,
    OrthConfig,
    OrthMethod,
    orthogonality_defect,
    orthogonalize,
)
from .optimizers import (
    AdamWState,
    HyperParams,
    MuonState,
    NamoDState,
    NamoState,
    StepDiagnostics,
    adamw_step,
    is_matrix_parameter,
    muon_step,
    namo_d_step,
    namo_step,
)
from .problems import (
    NoiseKind,
    NoiseModel,
    Problem,
    finite_difference_grad,
    make_matrix_factorization,
    make_matrix_least_squares,
    make_mlp_problem,
    stochastic_grad,
)
from .rng import Rng
from .verification import (
    LEMMA_TOLERANCES,
    LemmaReport,
    check_phi_eps,
    check_series_mut,
    check_series_mutsqrt,
    check_snr_bound,
    check_trace_inequality,
    estimate_rate_slope,
    snr_tightness_gap,
)
from .harness import (
    BatchAdaptResult,
    RateResult,
    RunConfig,
    RunRecord,
    RunResult,
    SweepEntry,
    SweepResult,
    batch_adaptation_experiment,
    default_hyperparams,
    lr_sweep,
    rate_experiment,
    run,
    write_csv,
)

__version__ = "0.1.0"

"""l1gram: rank-one decompositions of PSD matrices with entrywise-l1 costs.

Decomposes A = sum_k x_k x_k^T by eigendecomposition or greedy peeling with
sum_k ||x_k||_1^2 <= n tr(A), and computes exact, heuristic and certified
bounds for the quadratic-form quantity rho1 and the trace quantity piplus
whose ratio lower-bounds the worst-case cost constant over PSD matrices.
"""

from .bounds import (
    BoundReport,
    RatioCertificate,
    WitnessCertificate,
    certify_ratio,
    piplus_dual_upper,
    piplus_rank1_lower,
    piplus_witness,
    quadratic_vertex_bound,
    rho1_exact,
    rho1_multistart,
    rho1_structured_upper,
    witness_value_closed_form,
)
from .decompose import (
    Decomposition,
    PivotRule,
    ValidationReport,
    eigen_decomposer,
    greedy_peel,
    peel_step,
    per_step_cost_identity_check,
    validate,
)
from .errors import (
    AsymmetricMatrixError,
    EigenConvergenceError,
    L1GramError,
    NotPositiveSemidefiniteError,
    ParseError,
    SingularPivotError,
)
from .linalg import (
    GramMatrix,
    entrywise_one_norm,
    max_eigenvalue,
    min_eigenvalue,
    operator_norm,
    project_l1_sphere,
    trace,
)
from .matio import load_matrix, save_decomposition, save_matrix
from .randcert import (
    BaiYinSummary,
    KappaEstimate,
    SubsetNormEstimate,
    all_ones,
    bai_yin_stat,
    build_T,
    circulant_small_offdiag,
    estimate_kappa_for,
    make_ensemble,
    max_restricted_norm,
    sample_W,
    sample_wishart,
    shift_to_T,
    tail_bound_curve,
)
from .rng import Rng

__version__ = "0.1.0"

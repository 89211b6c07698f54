"""Metric flow and spectral geometry on the finite (fuzzy) torus algebra.

The package integrates the matrix flow dc/dt = -L log c for positive
metrics c, where L is the flat torus Laplacian built from clock/shift
generators; diagonalizes the metric-dependent curved Laplacian; and tracks
its eigenvalue curves along the flow, checking the first variation law
d(lambda)/dt = lambda tr(a* a (L log c)) against finite-difference oracles.
"""

from .errors import (
    FuzzyRicciError,
    InsufficientData,
    InvalidInput,
    InvalidParams,
    MetricDegenerate,
    PositivityLost,
    SpectrumOutOfDomain,
    StepUnderflow,
)
from .flow import (
    FlowConfig,
    FlowResult,
    FlowSample,
    flat_metric,
    flow_field,
    metric_from_spec,
    random_metric,
    run_flow,
)
from .laplace_beltrami import (
    COUNTEREXAMPLE_SEED,
    SpectralData,
    WeightedSpace,
    inner_product_c,
    lb_apply,
    lb_conjugated_superop,
    lb_spectrum,
    rayleigh_quotient,
    rejected_operator_superop,
)
from .linalg import (
    HermitianEig,
    Superoperator,
    commutator,
    hermitian_eig,
    hs_inner,
    hs_norm,
    matrix_exp,
    matrix_from_json,
    matrix_function,
    matrix_log,
    matrix_sqrt,
    matrix_to_json,
    superop_from_map,
)
from .torus import FuzzyTorus, clock_matrix, commutant_dimension, fourier_matrix, shift_matrix
from .tracking import (
    SpectralCurves,
    VariationReport,
    fd_derivative,
    first_variation_report,
    match_eigenpairs,
    track_spectrum,
    variation_rhs,
    variation_rhs_state_form,
)

__version__ = "0.1.0"

__all__ = [
    "COUNTEREXAMPLE_SEED",
    "FlowConfig",
    "FlowResult",
    "FlowSample",
    "FuzzyRicciError",
    "FuzzyTorus",
    "HermitianEig",
    "InsufficientData",
    "InvalidInput",
    "InvalidParams",
    "MetricDegenerate",
    "PositivityLost",
    "SpectralCurves",
    "SpectralData",
    "SpectrumOutOfDomain",
    "StepUnderflow",
    "Superoperator",
    "VariationReport",
    "WeightedSpace",
    "clock_matrix",
    "commutant_dimension",
    "commutator",
    "fd_derivative",
    "first_variation_report",
    "flat_metric",
    "flow_field",
    "fourier_matrix",
    "hermitian_eig",
    "hs_inner",
    "hs_norm",
    "inner_product_c",
    "lb_apply",
    "lb_conjugated_superop",
    "lb_spectrum",
    "match_eigenpairs",
    "matrix_exp",
    "matrix_from_json",
    "matrix_function",
    "matrix_log",
    "matrix_sqrt",
    "matrix_to_json",
    "metric_from_spec",
    "random_metric",
    "rayleigh_quotient",
    "rejected_operator_superop",
    "run_flow",
    "shift_matrix",
    "superop_from_map",
    "track_spectrum",
    "variation_rhs",
    "variation_rhs_state_form",
]

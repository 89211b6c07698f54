"""Metric flow and spectral geometry on the finite (fuzzy) torus algebra.

The package integrates the matrix flow dc/dt = -L log c for positive
metrics c, where L is the flat torus Laplacian built from clock/shift
generators; diagonalizes the metric-dependent curved Laplacian; and tracks
its eigenvalue curves along the flow, checking the first variation law
d(lambda)/dt = lambda tr(a* a (L log c)) against finite-difference oracles.

The top level exports the error types, the functions of the README's library
example and the types they return; everything else is imported from its
submodule.
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
from .flow import FlowConfig, FlowResult, random_metric, run_flow
from .laplace_beltrami import SpectralData, lb_spectrum
from .torus import FuzzyTorus
from .tracking import SpectralCurves, VariationReport, first_variation_report, track_spectrum

__version__ = "0.1.0"

__all__ = [
    "FlowConfig",
    "FlowResult",
    "FuzzyRicciError",
    "FuzzyTorus",
    "InsufficientData",
    "InvalidInput",
    "InvalidParams",
    "MetricDegenerate",
    "PositivityLost",
    "SpectralCurves",
    "SpectralData",
    "SpectrumOutOfDomain",
    "StepUnderflow",
    "VariationReport",
    "first_variation_report",
    "lb_spectrum",
    "random_metric",
    "run_flow",
    "track_spectrum",
]

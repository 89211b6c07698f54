"""Exception types shared across the package."""

from __future__ import annotations


class FuzzyRicciError(Exception):
    """Base class for all errors raised by this package; ``time`` is the failure's flow time."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class InvalidInput(FuzzyRicciError):
    """An operation received a malformed value (wrong shape, not Hermitian, ...)."""


class InvalidParams(FuzzyRicciError):
    """Torus or run parameters violate their constraints."""


class SpectrumOutOfDomain(FuzzyRicciError):
    """A scalar function was applied to a matrix with spectrum outside its domain."""

    def __init__(self, message: str, eigenvalue: float | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class MetricDegenerate(FuzzyRicciError):
    """A metric is not above the positivity floor."""


class PositivityLost(FuzzyRicciError):
    """An accepted integrator step produced a non-positive metric.

    The exact flow preserves positivity, so this signals an integrator
    failure; rerun with tighter tolerances.
    """


class StepUnderflow(FuzzyRicciError):
    """Adaptive step size fell below the configured minimum; ``step`` is the size that did."""

    def __init__(self, message: str, time: float | None = None, step: float | None = None):
        super().__init__(message, time=time)
        self.step = step


class NonRealVariation(FuzzyRicciError):
    """A sample's ``L log c`` is not exactly Hermitian, so the variation law is not real."""


class InsufficientData(FuzzyRicciError):
    """Not enough samples for the requested computation."""

"""Eigenvalue-curve tracking along a metric flow and its variation law.

A trajectory of metrics induces, at each sample time, a full curved-Laplacian
spectrum. Consecutive spectra are stitched into continuous curves by solving
an assignment problem on squared eigenvector overlaps, with global phases
fixed so that consecutive overlaps are real positive (first sample: largest
magnitude component made real positive). Crossings are not resolved: samples
where the spectral gap collapses or the best overlap drops below
``overlap_min`` are flagged and excluded from quantitative aggregates.

The tracked curves satisfy a first variation law along the flow,

    d(lambda)/dt = lambda * tr(a* a (L log c)),

for weighted-normalized eigenvectors ``a``; ``first_variation_report``
checks it against a finite-difference derivative of the tracked eigenvalues
(second-order central differences inside the window, second-order one-sided
at the ends). The law has an equivalent form through the state
``phi(b) = tr(c b)``, evaluated separately as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import FuzzyRicciError, InsufficientData, InvalidInput, InvalidParams
from .flow import FlowResult
from .laplace_beltrami import (
    GAP_TOL_REL,
    SpectralData,
    WeightedSpace,
    lb_spectrum,
)
from .torus import FuzzyTorus

PHASE_CONVENTION = "first-sample-largest-component-real-positive"


@dataclass(frozen=True)
class TrackingConfig:
    overlap_min: float = 0.9
    gap_tol_rel: float = GAP_TOL_REL

    def __post_init__(self) -> None:
        if not 0.0 < self.overlap_min <= 1.0:
            raise InvalidParams(f"overlap_min must be in (0, 1], got {self.overlap_min}")


@dataclass(frozen=True)
class MatchResult:
    """Assignment of previous eigenvectors to current ones.

    ``permutation[i]`` is the current-spectrum index matched to previous
    vector ``i``; ``phases[i]`` is the unit complex number to multiply the
    matched current vector by so its overlap with the previous one is real
    positive; ``overlaps[i]`` is that overlap magnitude; ``degenerate[i]``
    marks matches below ``overlap_min``.
    """

    permutation: np.ndarray
    phases: np.ndarray
    overlaps: np.ndarray
    degenerate: np.ndarray


def _match_flat(
    prev: list[np.ndarray], cur: list[np.ndarray], overlap_min: float
) -> MatchResult:
    if len(prev) != len(cur):
        raise InvalidInput(f"dimension mismatch: {len(prev)} vs {len(cur)} vectors")
    p = np.stack([v.reshape(-1) for v in prev])
    q = np.stack([v.reshape(-1) for v in cur])
    overlap = p.conj() @ q.T  # overlap[i, j] = <prev_i, cur_j>
    _, perm = linear_sum_assignment(-np.abs(overlap) ** 2)
    z = overlap[np.arange(len(prev)), perm]
    mag = np.abs(z)
    phases = np.where(mag > 0, np.conj(z) / np.where(mag > 0, mag, 1.0), 1.0)
    return MatchResult(
        permutation=perm,
        phases=phases.astype(complex),
        overlaps=mag,
        degenerate=mag < overlap_min,
    )


def match_eigenpairs(
    prev: SpectralData, cur: SpectralData, overlap_min: float = 0.9
) -> MatchResult:
    """Match two adjacent spectra by maximum total squared overlap."""
    return _match_flat(prev.vectors_flat, cur.vectors_flat, overlap_min)


def _fix_first_phase(a_flat: np.ndarray) -> complex:
    """Phase making the largest-magnitude component real positive."""
    flat = a_flat.reshape(-1)
    z = flat[int(np.argmax(np.abs(flat)))]
    mag = abs(z)
    return np.conj(z) / mag if mag > 0 else 1.0


@dataclass(frozen=True)
class CurveSample:
    """One tracked eigenpair at one time."""

    t: float
    value: float
    vector_weighted: np.ndarray
    vector_flat: np.ndarray
    min_gap: float
    degenerate: bool


@dataclass
class SpectralCurve:
    """One eigenvalue path through the whole trajectory."""

    curve_id: int
    samples: list[CurveSample] = field(default_factory=list)
    phase_convention: str = PHASE_CONVENTION
    is_kernel: bool = False

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    @property
    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])

    @property
    def degenerate_flags(self) -> np.ndarray:
        return np.array([s.degenerate for s in self.samples], dtype=bool)


def track_spectrum(
    torus: FuzzyTorus,
    trajectory: FlowResult,
    config: TrackingConfig | None = None,
) -> list[SpectralCurve]:
    """Stitch per-sample spectra into n^2 continuous eigenvalue curves.

    Curve ``i`` starts at the i-th ascending eigenvalue of the first sample;
    later samples follow by overlap assignment. Matching failures are
    recorded as per-sample degeneracy flags, never raised.
    """
    config = config or TrackingConfig()
    if not trajectory.samples:
        raise InsufficientData("trajectory has no samples")
    n2 = torus.n * torus.n
    curves = [SpectralCurve(curve_id=i) for i in range(n2)]

    prev_flat: list[np.ndarray] | None = None
    for sample in trajectory.samples:
        sd = lb_spectrum(torus, sample.space, gap_tol_rel=config.gap_tol_rel)
        threshold = config.gap_tol_rel * max(sd.operator_norm, 1.0)
        if prev_flat is None:
            order = np.arange(n2)
            phases = np.array([_fix_first_phase(sd.vectors_flat[i]) for i in order])
            overlaps_bad = np.zeros(n2, dtype=bool)
        else:
            match = _match_flat(prev_flat, sd.vectors_flat, config.overlap_min)
            order = match.permutation
            phases = match.phases
            overlaps_bad = match.degenerate
            if int(order[_kernel_slot(curves)]) != sd.kernel_index:
                # The kernel is exactly known; never let the assignment drift it.
                overlaps_bad = overlaps_bad.copy()
                overlaps_bad[_kernel_slot(curves)] = True

        new_flat: list[np.ndarray] = []
        for slot in range(n2):
            j = int(order[slot])
            phase = complex(phases[slot])
            a_flat = phase * sd.vectors_flat[j]
            a = phase * sd.vectors_weighted[j]
            gap = sd.min_gap(j)
            curves[slot].samples.append(
                CurveSample(
                    t=sample.t,
                    value=float(sd.eigenvalues[j]),
                    vector_weighted=a,
                    vector_flat=a_flat,
                    min_gap=gap,
                    degenerate=bool(overlaps_bad[slot]) or gap < threshold,
                )
            )
            new_flat.append(a_flat)
        if prev_flat is None:
            for slot in range(n2):
                curves[slot].is_kernel = slot == sd.kernel_index
        prev_flat = new_flat
    return curves


def _kernel_slot(curves: list[SpectralCurve]) -> int:
    for curve in curves:
        if curve.is_kernel:
            return curve.curve_id
    return 0


def _laplacian_of_log(torus: FuzzyTorus, space: WeightedSpace) -> np.ndarray:
    """``L log c``, the metric-state factor shared by every variation-law term."""
    return torus.laplacian_apply(space.log)


def _real_rhs(val: complex) -> float:
    if abs(val.imag) > 1e-10 * (1.0 + abs(val.real)):
        raise FuzzyRicciError(
            f"variation right-hand side has non-real value {val!r}"
        )
    return float(val.real)


def variation_rhs(
    torus: FuzzyTorus, c, value: float, a, lap_log: np.ndarray | None = None
) -> float:
    """Variation law right-hand side lambda * tr(a* a (L log c)).

    ``a`` must be normalized in the weighted inner product. The trace is real
    up to roundoff (product of two Hermitian factors); a relative imaginary
    part above 1e-10 indicates a broken input and raises. ``lap_log``, if
    given, is ``L log c`` already computed for this metric.
    """
    space = WeightedSpace.coerce(c)
    if lap_log is None:
        lap_log = _laplacian_of_log(torus, space)
    a = np.asarray(a, dtype=complex)
    return _real_rhs(complex(np.trace(a.conj().T @ a @ lap_log)) * value)


def variation_rhs_state_form(
    torus: FuzzyTorus, c, value: float, a, lap_log: np.ndarray | None = None
) -> float:
    """Equivalent form lambda * phi(a* a (L log c) c^{-1}), phi(b) = tr(c b).

    Algebraically identical to :func:`variation_rhs` by trace cyclicity;
    computed literally as written to serve as an independent cross-check.
    ``lap_log`` is as in :func:`variation_rhs`.
    """
    space = WeightedSpace.coerce(c)
    if lap_log is None:
        lap_log = _laplacian_of_log(torus, space)
    a = np.asarray(a, dtype=complex)
    return _real_rhs(complex(space.state(a.conj().T @ a @ lap_log @ space.c_inv)) * value)


def fd_derivative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order finite-difference derivative on a uniform grid.

    Central differences at interior points; one-sided three-point stencils
    at both ends (the flow only exists forward from the initial time, so the
    start derivative is genuinely one-sided).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 3:
        raise InsufficientData(
            f"need at least 3 samples for second-order differences, got {len(times)}"
        )
    h = times[1] - times[0]
    if np.max(np.abs(np.diff(times) - h)) > 1e-9 * max(abs(h), 1.0):
        raise InvalidInput("sample times are not uniformly spaced")
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2 * h)
    d[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * h)
    d[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * h)
    return d


@dataclass
class CurveVariation:
    """Variation-law check for one curve: derivative oracle vs formula."""

    curve_id: int
    is_kernel: bool
    times: np.ndarray
    values: np.ndarray
    fd: np.ndarray
    rhs: np.ndarray
    rhs_state_form: np.ndarray
    abs_residual: np.ndarray
    rel_residual: np.ndarray
    min_gap: np.ndarray
    degenerate: np.ndarray


@dataclass
class VariationReport:
    """Aggregated first-variation residuals over all tracked curves.

    The headline aggregates cover interior, non-degenerate samples: the
    endpoint stencils are one-sided (the flow only exists forward from the
    start) and carry roughly twice the truncation constant, so they are
    reported separately and never gate a verdict.
    """

    h: float
    curves: list[CurveVariation]
    max_rel_residual: float
    max_abs_residual: float
    max_rel_residual_endpoints: float
    max_form_discrepancy: float
    flagged_samples: int
    evaluated_samples: int

    def passed(self, rel_budget: float = 1e-4) -> bool:
        return self.max_rel_residual <= rel_budget


def first_variation_report(
    torus: FuzzyTorus,
    curves: list[SpectralCurve],
    trajectory: FlowResult,
    config: TrackingConfig | None = None,
) -> VariationReport:
    """Check d(lambda)/dt against the variation formula along every curve.

    The derivative oracle is the finite-difference stencil of
    :func:`fd_derivative`; the formula side is evaluated at every sample from
    the tracked eigenpair and the sample's metric state, whose ``log c`` the
    integrator already computed, with ``L log c`` applied once per sample.
    Degenerate samples contribute rows but are excluded from the aggregates.
    Relative residuals are ``|fd - rhs| / (1 + |fd|)``.
    """
    config = config or TrackingConfig()
    if len(trajectory.samples) < 3:
        raise InsufficientData(
            f"need at least 3 trajectory samples, got {len(trajectory.samples)}"
        )
    times = trajectory.times
    spaces = [s.space for s in trajectory.samples]
    lap_logs = [_laplacian_of_log(torus, space) for space in spaces]

    out: list[CurveVariation] = []
    max_rel = 0.0
    max_abs = 0.0
    max_rel_end = 0.0
    max_form = 0.0
    flagged = 0
    evaluated = 0
    for curve in curves:
        if len(curve.samples) != len(times):
            raise InvalidInput(
                f"curve {curve.curve_id} has {len(curve.samples)} samples, "
                f"trajectory has {len(times)}"
            )
        values = curve.values
        fd = fd_derivative(times, values)
        rhs = np.empty_like(values)
        rhs_alt = np.empty_like(values)
        for k, s in enumerate(curve.samples):
            rhs[k] = variation_rhs(torus, spaces[k], s.value, s.vector_weighted, lap_logs[k])
            rhs_alt[k] = variation_rhs_state_form(
                torus, spaces[k], s.value, s.vector_weighted, lap_logs[k]
            )
        abs_res = np.abs(fd - rhs)
        rel_res = abs_res / (1.0 + np.abs(fd))
        flags = curve.degenerate_flags
        ok = ~flags
        interior = ok.copy()
        interior[0] = interior[-1] = False
        ends = ok & ~interior
        flagged += int(flags.sum())
        evaluated += int(ok.sum())
        if np.any(interior):
            max_rel = max(max_rel, float(rel_res[interior].max()))
            max_abs = max(max_abs, float(abs_res[interior].max()))
        if np.any(ends):
            max_rel_end = max(max_rel_end, float(rel_res[ends].max()))
        if np.any(ok):
            max_form = max(max_form, float(np.abs(rhs - rhs_alt)[ok].max()))
        out.append(
            CurveVariation(
                curve_id=curve.curve_id,
                is_kernel=curve.is_kernel,
                times=times,
                values=values,
                fd=fd,
                rhs=rhs,
                rhs_state_form=rhs_alt,
                abs_residual=abs_res,
                rel_residual=rel_res,
                min_gap=np.array([s.min_gap for s in curve.samples]),
                degenerate=flags,
            )
        )
    h = float(times[1] - times[0])
    return VariationReport(
        h=h,
        curves=out,
        max_rel_residual=max_rel,
        max_abs_residual=max_abs,
        max_rel_residual_endpoints=max_rel_end,
        max_form_discrepancy=max_form,
        flagged_samples=flagged,
        evaluated_samples=evaluated,
    )


def curves_csv_rows(report: VariationReport):
    """Variation check as CSV rows (header first), one row per curve sample.

    Columns: t, curve_id, lambda, lambda_dot_fd, variation_rhs, residual
    (absolute), min_gap, degenerate_flag. Rows are grouped by curve, then
    ordered by time; floats rendered with ``repr`` for byte determinism.
    """
    yield [
        "t",
        "curve_id",
        "lambda",
        "lambda_dot_fd",
        "variation_rhs",
        "residual",
        "min_gap",
        "degenerate_flag",
    ]
    for cv in report.curves:
        for k in range(len(cv.times)):
            yield [
                repr(float(cv.times[k])),
                str(cv.curve_id),
                repr(float(cv.values[k])),
                repr(float(cv.fd[k])),
                repr(float(cv.rhs[k])),
                repr(float(cv.abs_residual[k])),
                repr(float(cv.min_gap[k])),
                str(int(cv.degenerate[k])),
            ]


def report_to_json(report: VariationReport, rel_budget: float = 1e-4) -> dict:
    """Aggregate variation-law verdicts as JSON."""
    def curve_doc(cv: CurveVariation) -> dict:
        ok = ~cv.degenerate
        ok[0] = ok[-1] = False
        return {
            "curve_id": cv.curve_id,
            "is_kernel": cv.is_kernel,
            "samples": len(cv.times),
            "flagged": int(cv.degenerate.sum()),
            "max_rel_residual": float(cv.rel_residual[ok].max()) if ok.any() else None,
            "max_abs_residual": float(cv.abs_residual[ok].max()) if ok.any() else None,
            "min_gap": float(cv.min_gap.min()),
        }

    return {
        "h": report.h,
        "curves": [curve_doc(cv) for cv in report.curves],
        "max_rel_residual": report.max_rel_residual,
        "max_abs_residual": report.max_abs_residual,
        "max_rel_residual_endpoints": report.max_rel_residual_endpoints,
        "max_form_discrepancy": report.max_form_discrepancy,
        "flagged_samples": report.flagged_samples,
        "evaluated_samples": report.evaluated_samples,
        "rel_budget": rel_budget,
        "passed": report.passed(rel_budget),
    }

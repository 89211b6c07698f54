"""Eigenvalue-curve tracking along a metric flow and its variation law.

A trajectory of metrics induces, at each sample time, a full curved-Laplacian
spectrum. Consecutive spectra are stitched into continuous curves by solving
an assignment problem on squared eigenvector overlaps, with global phases
fixed so that consecutive overlaps are real positive (first sample: largest
magnitude component made real positive). Crossings are not resolved: samples
where the spectral gap collapses or the best overlap drops below
``OVERLAP_MIN`` are flagged and excluded from quantitative aggregates.

The tracked curves satisfy a first variation law along the flow,

    d(lambda)/dt = lambda * tr(a* a (L log c)),

for weighted-normalized eigenvectors ``a``; ``first_variation_report``
checks it against numpy's second-order finite-difference derivative of the
tracked eigenvalues (``np.gradient`` with ``edge_order=2``: central
differences inside the window, one-sided three-point stencils at the ends).
The law has an equivalent form through the state ``phi(b) = tr(c b)``,
evaluated separately as a cross-check.

The torus, each sample's metric state and ``L log c`` (its negated field) are
read off the trajectory, so no function here takes a torus or applies ``L``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FuzzyRicciError, InsufficientData, InvalidInput
from .flow import FlowResult, FlowSample
from .laplace_beltrami import lb_spectrum

OVERLAP_MIN = 0.9  # a weaker eigenvector match is flagged degenerate
# A report passes with its relative residual and its forms' discrepancy within these.
RESIDUAL_BUDGET = 1e-4
FORMS_BUDGET = 1e-10


@dataclass(frozen=True)
class MatchResult:
    """Assignment of previous eigenvectors to current ones.

    ``permutation[i]`` is the current-stack index matched to previous
    vector ``i``; ``phases[i]`` is the unit complex number to multiply the
    matched current vector by so its overlap with the previous one is real
    positive; ``overlaps[i]`` is that overlap magnitude; ``degenerate[i]``
    marks matches below ``OVERLAP_MIN``.
    """

    permutation: np.ndarray
    phases: np.ndarray
    overlaps: np.ndarray
    degenerate: np.ndarray


def match_eigenpairs(prev: np.ndarray, cur: np.ndarray) -> MatchResult:
    """Match two stacks of flat eigenvectors by maximum total squared overlap."""
    # scipy.optimize is most of the package's import time; only matching needs it.
    from scipy.optimize import linear_sum_assignment

    if prev.shape != cur.shape:
        raise InvalidInput(f"dimension mismatch: {prev.shape} vs {cur.shape} vector stacks")
    p = prev.reshape(len(prev), -1)
    q = cur.reshape(len(cur), -1)
    overlap = p.conj() @ q.T  # overlap[i, j] = <prev_i, cur_j>
    _, perm = linear_sum_assignment(-np.abs(overlap) ** 2)
    z = overlap[np.arange(len(prev)), perm]
    mag = np.abs(z)
    phases = np.where(mag > 0, np.conj(z) / np.where(mag > 0, mag, 1.0), 1.0)
    return MatchResult(
        permutation=perm,
        phases=phases.astype(complex),
        overlaps=mag,
        degenerate=mag < OVERLAP_MIN,
    )


def _fix_first_phase(a_flat: np.ndarray) -> complex:
    """Phase making the largest-magnitude component real positive."""
    flat = a_flat.reshape(-1)
    z = flat[int(np.argmax(np.abs(flat)))]
    mag = abs(z)
    return np.conj(z) / mag if mag > 0 else 1.0


@dataclass(frozen=True)
class SpectralCurves:
    """The n^2 eigenvalue curves of a trajectory, indexed ``[sample, curve]``.

    ``vectors[k, i]`` is curve ``i``'s eigenvector at ``times[k]``,
    normalized in the weighted inner product of that sample's metric, with
    its phase fixed along the curve (first sample: largest-magnitude
    component of the flat vector real positive; later samples: real positive
    overlap with the previous sample). ``degenerate`` flags samples with a
    collapsed gap or a weak overlap; ``kernel`` is the zero-mode curve.
    """

    times: np.ndarray
    values: np.ndarray
    min_gap: np.ndarray
    degenerate: np.ndarray
    vectors: np.ndarray
    kernel: int


def track_spectrum(trajectory: FlowResult) -> SpectralCurves:
    """Stitch per-sample spectra into n^2 continuous eigenvalue curves.

    Curve ``i`` starts at the i-th ascending eigenvalue of the first sample;
    later samples follow by overlap assignment. Matching failures are
    recorded as per-sample degeneracy flags, never raised.
    """
    if not trajectory.samples:
        raise InsufficientData("trajectory has no samples")
    torus = trajectory.torus
    n, n2, samples = torus.n, torus.n * torus.n, len(trajectory.samples)
    values = np.empty((samples, n2))
    min_gap = np.empty((samples, n2))
    degenerate = np.empty((samples, n2), dtype=bool)
    vectors = np.empty((samples, n2, n, n), dtype=complex)

    for k, sample in enumerate(trajectory.samples):
        sd = lb_spectrum(torus, sample.space)
        if k == 0:
            kernel, order, bad = sd.kernel_index, np.arange(n2), np.zeros(n2, dtype=bool)
            # Scalar abs() per vector: array np.abs rounds differently in the last bit.
            phases = np.array([_fix_first_phase(v) for v in sd.vectors_flat])
        else:
            match = match_eigenpairs(prev_flat, sd.vectors_flat)
            order, phases, bad = match.permutation, match.phases, match.degenerate
            # The kernel is exactly known; never let the assignment drift it.
            bad[kernel] |= order[kernel] != sd.kernel_index
        phases = phases[:, None, None]
        prev_flat = phases * sd.vectors_flat[order]
        vectors[k] = phases * sd.vectors_weighted[order]
        values[k] = sd.eigenvalues[order]
        min_gap[k] = sd.min_gaps[order]
        degenerate[k] = bad | (min_gap[k] < sd.gap_threshold)
    return SpectralCurves(
        times=trajectory.times,
        values=values,
        min_gap=min_gap,
        degenerate=degenerate,
        vectors=vectors,
        kernel=kernel,
    )


def _real_rhs(val) -> float | np.ndarray:
    val = np.asarray(val)
    bad = np.abs(val.imag) > 1e-10 * (1.0 + np.abs(val.real))
    if np.any(bad):
        raise FuzzyRicciError(
            f"variation right-hand side has non-real value {complex(val[bad][0])!r}"
        )
    return val.real if val.ndim else float(val.real)


def variation_rhs(sample: FlowSample, value, a) -> float | np.ndarray:
    """Variation law right-hand side lambda * tr(a* a (L log c)) at a flow sample.

    ``L log c`` is the negated field the sample keeps. ``a`` must be
    normalized in the weighted inner product of the sample's metric; it may
    be one matrix or a stack ``(..., n, n)`` with ``value`` of shape
    ``(...)``, and the result has the shape of ``value``. The trace is real
    up to roundoff (product of two Hermitian factors); a relative imaginary
    part above 1e-10 in any entry indicates a broken input and raises.
    """
    a = np.asarray(a, dtype=complex)
    lap_log = -sample.field
    trace = np.trace(a.conj().swapaxes(-1, -2) @ a @ lap_log, axis1=-2, axis2=-1)
    return _real_rhs(trace * value)


def variation_rhs_state_form(sample: FlowSample, value, a) -> float | np.ndarray:
    """Equivalent form lambda * phi(a* a (L log c) c^{-1}), phi(b) = tr(c b).

    Algebraically identical to :func:`variation_rhs` by trace cyclicity;
    computed literally as written, from the sample's metric state, to serve
    as an independent cross-check. Arguments are as in :func:`variation_rhs`.
    """
    space = sample.space
    a = np.asarray(a, dtype=complex)
    lap_log = -sample.field
    return _real_rhs(space.state(a.conj().swapaxes(-1, -2) @ a @ lap_log @ space.c_inv) * value)


def fd_derivative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order finite-difference derivative on a uniform grid: numpy's ``gradient``.

    Central differences at interior points; one-sided three-point stencils
    at both ends (``edge_order=2``; the flow only exists forward from the
    initial time, so the start derivative is genuinely one-sided).
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
    return np.gradient(values, h, axis=0, edge_order=2)


@dataclass(frozen=True)
class VariationReport:
    """First-variation residuals of every tracked curve, indexed ``[sample, curve]``.

    ``fd`` is the derivative oracle, ``rhs`` and ``rhs_state_form`` the two
    forms of the law. The headline aggregates cover interior, non-degenerate
    samples: the endpoint stencils are one-sided (the flow only exists
    forward from the start) and carry roughly twice the truncation constant,
    so they are reported separately and never gate a verdict.
    """

    curves: SpectralCurves
    fd: np.ndarray
    rhs: np.ndarray
    rhs_state_form: np.ndarray

    @property
    def h(self) -> float:
        return float(self.curves.times[1] - self.curves.times[0])

    @property
    def abs_residual(self) -> np.ndarray:
        return np.abs(self.fd - self.rhs)

    @property
    def rel_residual(self) -> np.ndarray:
        return self.abs_residual / (1.0 + np.abs(self.fd))

    @property
    def interior(self) -> np.ndarray:
        """Non-degenerate samples away from the one-sided end stencils."""
        mask = ~self.curves.degenerate
        mask[[0, -1]] = False
        return mask

    @property
    def max_rel_residual(self) -> float:
        return float(np.max(self.rel_residual[self.interior], initial=0.0))

    @property
    def max_abs_residual(self) -> float:
        return float(np.max(self.abs_residual[self.interior], initial=0.0))

    @property
    def max_rel_residual_endpoints(self) -> float:
        ends = ~self.curves.degenerate & ~self.interior
        return float(np.max(self.rel_residual[ends], initial=0.0))

    @property
    def max_form_discrepancy(self) -> float:
        ok = ~self.curves.degenerate
        return float(np.max(np.abs(self.rhs - self.rhs_state_form)[ok], initial=0.0))

    @property
    def flagged_samples(self) -> int:
        return int(self.curves.degenerate.sum())

    @property
    def evaluated_samples(self) -> int:
        return int((~self.curves.degenerate).sum())

    def passed(self) -> bool:
        """The verdict: residual within ``RESIDUAL_BUDGET``, forms within ``FORMS_BUDGET``."""
        return self.max_rel_residual <= RESIDUAL_BUDGET and self.max_form_discrepancy <= FORMS_BUDGET


def first_variation_report(curves: SpectralCurves, trajectory: FlowResult) -> VariationReport:
    """Check d(lambda)/dt against the variation formula along every curve.

    The derivative oracle is the finite-difference stencil of
    :func:`fd_derivative`; the formula side is evaluated once per sample for
    all tracked eigenpairs together, from the sample's metric state, with
    ``L log c`` read off the sample's field ``-L log c``, so ``L`` is not
    applied again. Degenerate samples contribute rows but are excluded from
    the aggregates. Relative residuals are ``|fd - rhs| / (1 + |fd|)``.
    """
    samples = trajectory.samples
    if len(samples) < 3:
        raise InsufficientData(f"need at least 3 trajectory samples, got {len(samples)}")
    if len(curves.times) != len(samples):
        raise InvalidInput(
            f"curves have {len(curves.times)} samples, trajectory has {len(samples)}"
        )
    times = trajectory.times
    rhs = np.empty_like(curves.values)
    rhs_alt = np.empty_like(curves.values)
    for k, sample in enumerate(samples):
        value, a = curves.values[k], curves.vectors[k]
        rhs[k] = variation_rhs(sample, value, a)
        rhs_alt[k] = variation_rhs_state_form(sample, value, a)
    return VariationReport(
        curves=curves, fd=fd_derivative(times, curves.values), rhs=rhs, rhs_state_form=rhs_alt
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
    curves = report.curves
    abs_residual = report.abs_residual
    for i in range(curves.values.shape[1]):
        for k, t in enumerate(curves.times):
            yield [
                repr(float(t)),
                str(i),
                repr(float(curves.values[k, i])),
                repr(float(report.fd[k, i])),
                repr(float(report.rhs[k, i])),
                repr(float(abs_residual[k, i])),
                repr(float(curves.min_gap[k, i])),
                str(int(curves.degenerate[k, i])),
            ]


def report_to_json(report: VariationReport) -> dict:
    """Aggregate variation-law verdicts as JSON."""
    curves = report.curves
    interior = report.interior
    abs_residual, rel_residual = report.abs_residual, report.rel_residual

    def curve_doc(i: int) -> dict:
        ok = interior[:, i]
        return {
            "curve_id": i,
            "is_kernel": i == curves.kernel,
            "samples": len(curves.times),
            "flagged": int(curves.degenerate[:, i].sum()),
            "max_rel_residual": float(rel_residual[ok, i].max()) if ok.any() else None,
            "max_abs_residual": float(abs_residual[ok, i].max()) if ok.any() else None,
            "min_gap": float(curves.min_gap[:, i].min()),
        }

    return {
        "h": report.h,
        "curves": [curve_doc(i) for i in range(curves.values.shape[1])],
        "max_rel_residual": report.max_rel_residual,
        "max_abs_residual": report.max_abs_residual,
        "max_rel_residual_endpoints": report.max_rel_residual_endpoints,
        "max_form_discrepancy": report.max_form_discrepancy,
        "flagged_samples": report.flagged_samples,
        "evaluated_samples": report.evaluated_samples,
        "rel_budget": RESIDUAL_BUDGET,
        "passed": report.passed(),
    }

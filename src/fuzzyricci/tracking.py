"""Eigenvalue-curve tracking along a metric flow and its variation law.

A trajectory of metrics induces, at each sample time, a full curved-Laplacian
spectrum. Consecutive spectra are stitched into continuous curves by solving
an assignment problem on squared eigenvector overlaps, which no global phase
moves. The assignment is exact: Jonker-Volgenant shortest augmenting paths
(Jonker & Volgenant, Computing 38, 1987; Crouse, IEEE TAES 52, 2016),
warm-started by row reduction, in one call per chunk of samples: one
``argmax`` over all of its consecutive pairs, and a pair whose row maxima are
distinct columns takes them; only a contested pair's contested rows run an
augmenting search. Along a flow the row maxima are nearly always a
permutation, so no search runs. Crossings are not resolved: samples where the
spectral gap collapses or the best overlap drops below ``OVERLAP_MIN`` are
flagged and excluded from quantitative aggregates.

The tracked curves satisfy a first variation law along the flow,

    d(lambda)/dt = lambda * tr(a* a (L log c)),

for weighted-normalized eigenvectors ``a``; ``first_variation_report``
checks it against numpy's second-order finite-difference derivative of the
tracked eigenvalues on the sample times the flow produced (``np.gradient``
with the times as coordinates and ``edge_order=2``: three-point stencils,
central inside the window, one-sided at the ends, second order on any
increasing grid). It needs only at least 3 samples at strictly increasing
times, which ``check_sample_times`` checks before the flow is integrated.
The law has an equivalent form through the state ``phi(b) = tr(c b)``,
evaluated separately as a cross-check; both need ``L log c`` exactly Hermitian.
Each form is an inner product over one right product per sample, with no
product per eigenvector (:func:`variation_rhs`, :func:`variation_rhs_state_form`).

The torus, each sample's metric state and ``L log c`` (its negated field) are
read off the trajectory, so no function here takes a torus or applies ``L``.
Tracking is one pass over chunks of samples (``CHUNK_ENTRIES``): each chunk's
spectra are one stacked ``SpectralData``, with the same bits as one sample
at a time and no per-sample record, both forms of the law are evaluated on
them in spectral order, the overlaps of all its consecutive samples are one
stacked product (the first sample is its own predecessor, so every chunk has
as many pairs as samples), and after matching one gather carries the chunk's
values, gaps and law values into curve order.
The law reads an eigenvector only through ``conj(a)`` against a right
product of ``a``, so neither its phase nor its curve matters there. No
eigenvector outlives its chunk: the curves keep per-sample scalars only, and
memory beyond them is bounded per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InsufficientData, InvalidInput, NonRealVariation
from .flow import FlowResult
from .laplace_beltrami import lb_spectra, right_product, stacked_power

OVERLAP_MIN = 0.9  # a weaker eigenvector match is flagged degenerate
# A report passes with its relative residual and its forms' discrepancy within these.
RESIDUAL_BUDGET = 1e-4
FORMS_BUDGET = 1e-10
# Bound on a chunk's stacked (S, n^2, n^2) operators: S = max(1, CHUNK_ENTRIES // n^4) samples.
CHUNK_ENTRIES = 2**14


def _max_weight_assignment(weight: np.ndarray) -> np.ndarray:
    """Each pair's permutation ``perm[p]`` maximizing ``sum(weight[p, i, perm[p, i]])``.

    ``weight`` stacks ``P`` square matrices, one per pair. Row reduction of
    every pair at once: each row takes its largest entry's column (the
    first, on a tie). A pair whose columns are all distinct keeps them, since
    the sum of row maxima bounds every assignment. In a contested pair the
    contested rows give up their columns and each runs a shortest augmenting
    path search (:func:`_augment_contested`). The entries must be finite:
    the search cannot terminate on a NaN or inf, and ``track_spectrum``
    checks each chunk's weights before any assignment.
    """
    k = weight.shape[-1]
    col4row = weight.argmax(-1)
    contested = (np.sort(col4row, axis=-1) != np.arange(k)).any(-1)
    for p in np.flatnonzero(contested):
        _augment_contested(weight[p], col4row[p], np.bincount(col4row[p], minlength=k))
    return col4row


def _augment_contested(weight: np.ndarray, col4row: np.ndarray, claims: np.ndarray) -> None:
    """Reassign, in place, every row of ``col4row`` whose column ``claims`` counts twice or more.

    Jonker-Volgenant shortest augmenting paths on the cost ``-weight``, as
    Crouse's rectangular LSAP (the algorithm behind scipy's
    ``linear_sum_assignment``). The row reduction is the starting dual:
    ``u[i] = -max(weight[i])`` and ``v = 0`` keep every reduced cost
    ``-weight[i, j] - u[i] - v[j]`` non-negative, zero on each kept row's
    column. Each search is Dijkstra's algorithm on reduced costs from one
    free row to the nearest unassigned column; the duals then move so the
    new path's reduced costs are zero, and the path is flipped.
    """
    k = len(weight)
    rows = np.arange(k)
    contested = claims[col4row] > 1
    cost = -weight
    u = cost[rows, col4row]
    v = np.zeros(k)
    col4row[contested] = -1
    row4col = np.full(k, -1)
    row4col[col4row[~contested]] = rows[~contested]
    for start in rows[contested]:
        shortest = np.empty(k)  # path cost to each scanned column
        frontier = np.full(k, np.inf)  # path cost to each unscanned column; inf once scanned
        unscanned = np.ones(k, dtype=bool)
        path = np.empty(k, dtype=int)  # the row each column's shortest path comes from
        scanned, visited = [], []
        distance, i = 0.0, start
        while True:
            visited.append(i)
            reach = distance + cost[i] - u[i] - v
            shorter = unscanned & (reach < frontier)
            frontier[shorter] = reach[shorter]
            path[shorter] = i
            j = int(frontier.argmin())
            distance = shortest[j] = frontier[j]
            frontier[j], unscanned[j] = np.inf, False
            scanned.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[start] += distance
        others = visited[1:]
        u[others] += distance - shortest[col4row[others]]
        v[scanned] -= distance - shortest[scanned]
        while True:  # flip the path back to its start row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break


@dataclass(frozen=True)
class SpectralCurves:
    """The n^2 eigenvalue curves of a trajectory, indexed ``[sample, curve]``.

    ``rhs`` and ``rhs_state_form`` are the two forms of the variation law
    (:func:`variation_rhs`, :func:`variation_rhs_state_form`) at each curve's
    eigenpair. ``degenerate`` flags samples with a collapsed gap or a weak
    overlap; curve 0 is the kernel's. No eigenvector is kept.
    """

    times: np.ndarray
    values: np.ndarray
    min_gap: np.ndarray
    degenerate: np.ndarray
    rhs: np.ndarray
    rhs_state_form: np.ndarray


def track_spectrum(trajectory: FlowResult) -> SpectralCurves:
    """Stitch per-sample spectra into n^2 continuous eigenvalue curves, with the law on them.

    Curve ``i`` starts at the i-th ascending eigenvalue of the first sample,
    which is paired with itself; each later sample follows its predecessor by
    overlap assignment, one :func:`_max_weight_assignment` call per chunk
    for each pair's permutation in spectral order. Weak matches are recorded as
    per-sample degeneracy flags, never raised; a NaN or inf overlap raises
    ``InvalidInput`` before any assignment of its chunk. Each chunk's
    spectra come first, as one :func:`lb_spectra` stack, kernel first. Both forms
    of the law follow, each once per chunk, plain form first: a field that is
    not exactly Hermitian raises ``NonRealVariation`` with its sample's time,
    the chunk's earliest such one. So the earliest failing chunk raises,
    before any later chunk runs.
    """
    if not trajectory.samples:
        raise InsufficientData("trajectory has no samples")
    torus = trajectory.torus
    n2, samples = torus.n * torus.n, len(trajectory.samples)
    values, min_gap, rhs, rhs_alt = curves = np.empty((4, samples, n2))
    degenerate = np.empty((samples, n2), dtype=bool)

    size = max(1, CHUNK_ENTRIES // n2**2)
    for start in range(0, samples, size):
        part = trajectory.samples[start:start + size]
        spectra = lb_spectra(torus, [s.space for s in part])
        lam, a = spectra.eigenvalues, spectra.vectors_weighted
        law = variation_rhs(part, lam, a), variation_rhs_state_form(part, lam, a)
        flat = spectra.vectors_flat.reshape(len(part), n2, n2)
        if start == 0:  # the first sample is its own predecessor
            last, order = flat[:1], np.arange(n2)
        # Every pair of consecutive samples in one product, in spectral order:
        # overlap[i, j] = <earlier vector i, later vector j>.
        pairs = np.concatenate([last, flat])
        with np.errstate(invalid="ignore", over="ignore"):
            magnitude = np.abs(pairs[:-1].conj() @ pairs[1:].swapaxes(-1, -2))
        weight = magnitude**2
        if np.count_nonzero(np.isfinite(weight)) != weight.size:
            raise InvalidInput("overlap matrix has a NaN or inf entry")
        last = flat[-1:]
        perms = _max_weight_assignment(weight)
        # Row p holds each curve's spectral index at the earlier sample of pair p.
        orders = np.empty((len(part) + 1, n2), dtype=int)
        orders[0] = order
        for p, perm in enumerate(perms):
            orders[p + 1] = perm[orders[p]]
        order = orders[-1]
        bad = magnitude[np.arange(len(part))[:, None], orders[:-1], orders[1:]] < OVERLAP_MIN
        # The kernel is index 0 by construction; never let the assignment drift it.
        bad[:, 0] |= orders[1:, 0] != 0
        chunk = slice(start, start + len(part))
        curves[:, chunk] = np.take_along_axis(
            np.stack([lam, spectra.min_gaps, *law]), orders[None, 1:], -1
        )
        degenerate[chunk] = bad | (min_gap[chunk] < spectra.gap_threshold[:, None])
    return SpectralCurves(
        times=trajectory.times,
        values=values,
        min_gap=min_gap,
        degenerate=degenerate,
        rhs=rhs,
        rhs_state_form=rhs_alt,
    )


def _lap_logs(samples) -> np.ndarray:
    """The samples' ``L log c`` (their negated fields), stacked, if each is exactly Hermitian.

    Else the law is not real: ``NonRealVariation``, with the earliest such sample's time.
    """
    lap_log = -np.stack([s.field for s in samples])
    bad = (lap_log != lap_log.conj().swapaxes(-1, -2)).any(axis=(-2, -1))
    if bad.any():
        t = samples[int(bad.argmax())].t
        raise NonRealVariation(f"non-real law, L log c not exactly Hermitian at t = {t!r}", time=t)
    return lap_log


def variation_rhs(samples, values, a) -> np.ndarray:
    """Variation law right-hand side lambda * tr(a* a (L log c)) over flow samples.

    ``samples`` is a sequence of ``S`` flow samples, ``values`` their
    ``(S, K)`` eigenvalues and ``a`` the ``(S, K, n, n)`` eigenvectors, each
    normalized in the weighted inner product of its sample's metric; the
    result is ``(S, K)``, the real part of a trace of two Hermitian factors:
    ``L log c``, each sample's negated field, is read through :func:`_lap_logs`.
    The trace is the inner product ``sum conj(a) o (a L log c)``, with
    ``a L log c`` one product per sample (:func:`right_product`).
    """
    a = np.asarray(a, dtype=complex)
    trace = np.sum(a.conj() * right_product(a, _lap_logs(samples)), axis=(-2, -1))
    return (trace * values).real


def variation_rhs_state_form(samples, values, a) -> np.ndarray:
    """Equivalent form lambda * phi(a* a (L log c) c^{-1}), phi(b) = tr(c b).

    Algebraically identical to :func:`variation_rhs` by trace cyclicity;
    computed from each sample's metric state and its ``c^{-1}``, to serve as
    an independent cross-check. ``phi(a* Y) = tr(c a* Y)`` with
    ``Y = a (L log c) c^{-1}`` is the weighted inner product ``<a, Y>_c``,
    taken as :func:`weighted_inner`'s ``sum conj(a c) o Y``, with ``a c`` one
    product per sample and ``Y`` two (:func:`right_product`).
    Arguments are as in :func:`variation_rhs`.
    """
    a = np.asarray(a, dtype=complex)
    c_inv = stacked_power([s.space for s in samples], -1.0)
    y = right_product(right_product(a, _lap_logs(samples)), c_inv)
    ac = right_product(a, np.stack([s.c for s in samples]))
    phi = np.sum(ac.conj() * y, axis=(-2, -1))
    return (phi * values).real


def check_sample_times(times) -> np.ndarray:
    """The sample times, as floats, if :func:`fd_derivative` can use them.

    Raises ``InsufficientData`` below 3 samples and ``InvalidInput`` unless
    the times strictly increase. They are known from the run settings, so
    ``track`` checks them before the flow.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 3:
        raise InsufficientData(
            f"need at least 3 samples for second-order differences, got {len(times)}"
        )
    if not np.all(np.diff(times) > 0):
        raise InvalidInput("sample times do not strictly increase")
    return times


def fd_derivative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order finite-difference derivative along axis 0, on the sample times.

    numpy's ``gradient`` with the times as coordinates: three-point central
    stencils at interior points, one-sided three-point stencils at both ends
    (``edge_order=2``; the flow only exists forward from the initial time, so
    the start derivative is genuinely one-sided).
    """
    times = check_sample_times(times)
    return np.gradient(np.asarray(values, dtype=float), times, axis=0, edge_order=2)


@dataclass(frozen=True)
class VariationReport:
    """First-variation residuals of every tracked curve, indexed ``[sample, curve]``.

    ``fd`` is the derivative oracle; ``rhs`` and ``rhs_state_form``, the two
    forms of the law, are read off ``curves``. The headline aggregates cover
    interior, non-degenerate samples: the endpoint stencils are one-sided
    (the flow only exists forward from the start) and carry roughly twice the
    truncation constant, so they are reported separately and never gate a
    verdict.
    """

    curves: SpectralCurves
    fd: np.ndarray

    @property
    def rhs(self) -> np.ndarray:
        return self.curves.rhs

    @property
    def rhs_state_form(self) -> np.ndarray:
        return self.curves.rhs_state_form

    @property
    def h(self) -> float:
        """The first sample spacing."""
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


def first_variation_report(trajectory: FlowResult) -> VariationReport:
    """Track the trajectory's curves and check d(lambda)/dt against the variation formula.

    The curves and both forms of the law at them are computed in one pass
    (:func:`track_spectrum`) and kept as the report's ``curves``. The
    derivative oracle is the finite-difference stencil of
    :func:`fd_derivative`, which checks the sample times. Degenerate samples contribute rows but are
    excluded from the aggregates. Relative residuals are
    ``|fd - rhs| / (1 + |fd|)``.
    """
    curves = track_spectrum(trajectory)
    return VariationReport(curves=curves, fd=fd_derivative(curves.times, curves.values))


def curves_csv_rows(report: VariationReport):
    """Variation check as CSV rows (header first), one row per curve sample.

    Columns: t, curve_id, lambda, lambda_dot_fd, variation_rhs, residual
    (absolute), min_gap, degenerate_flag. Rows are grouped by curve, then
    ordered by time; floats rendered with ``repr`` for byte determinism.
    """
    yield ["t", "curve_id", "lambda", "lambda_dot_fd", "variation_rhs", "residual", "min_gap",
           "degenerate_flag"]
    curves = report.curves
    times = list(map(repr, curves.times.tolist()))
    columns = (curves.values, report.fd, report.rhs, report.abs_residual, curves.min_gap)
    for i in range(curves.values.shape[1]):
        floats = [map(repr, column[:, i].tolist()) for column in columns]
        flags = map(str, curves.degenerate[:, i].astype(int).tolist())
        yield from zip(times, repeat(str(i)), *floats, flags)


def report_to_json(report: VariationReport) -> dict:
    """Aggregate variation-law verdicts as JSON."""
    curves = report.curves
    interior = report.interior
    abs_residual, rel_residual = report.abs_residual, report.rel_residual

    def curve_doc(i: int) -> dict:
        ok = interior[:, i]
        return {
            "curve_id": i,
            "is_kernel": i == 0,
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

"""Metric flow on the fuzzy torus: dc/dt = -L log c.

The metric is a Hermitian positive-definite ``n x n`` matrix ``c``; ``L`` is
the flat Laplacian of the torus. Because ``L`` annihilates scalars and its
flat-space kernel is orthogonal to every commutator, the flow preserves
``tr(c)`` exactly, never decreases ``det(c)``, and drives ``c`` to the
scalar matrix ``(tr(c0)/n) I``.

Integration uses an embedded Dormand-Prince 4(5) pair with proportional
step control on the Hilbert-Schmidt error norm; its last stage, evaluated at
the candidate state, is reused as the next step's first stage (FSAL), so a
trial step costs six eigendecompositions.

The flow is stiff in two different ways. Early on the stiffness comes from
``log`` at small eigenvalues of ``c``: the Jacobian is ``-L Dlog_c``, and
``Dlog_c`` is large where ``c`` is nearly singular. Near the flat limit
``kappa I`` (``kappa = tr(c0)/n``) it comes from ``L`` alone: there the flow
is the heat flow ``dc/dt ~ -L c/kappa``, whose stiffness is
``lambda_max(L)/kappa``, and an explicit step is held far below what the
accuracy needs. So once every eigenvalue of an accepted state lies within
``_LAWSON_SPREAD = 0.05`` times ``kappa`` of ``kappa``, the run switches, for
good, to Lawson's integrating factor: the same tableau, error norm, FSAL,
cone rejection and step controller, applied to ``e^{sL/kappa} c``, with
``e^{-sL/kappa}`` applied exactly in the eigenbasis of the flat ``L``. That
decomposition, built once per torus and only by a run that switches, also
gives a Lawson trial its linear part ``L c/kappa``, so the trial applies
``L`` only for its six fields. From the start, the factor would not help:
``L/kappa`` does not capture the stiffness of ``log``.

Each eigendecomposition of a stage builds a metric state
(``WeightedSpace``); a sample keeps the state the integrator reached and the
field there, so spectra and the variation law reuse its decomposition and its
``L log c``. Two domain guards are specific to this flow: every Runge-Kutta
stage and every accepted state must stay Hermitian positive definite (the
vector field needs ``log c``), and a trial step whose stages leave the
positive cone is rejected and retried at half the step size rather than
reported as an error. The exact flow cannot leave the cone, so a persistent
violation signals integrator tolerances that are too loose, reported as
``PositivityLost``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import InvalidInput, InvalidParams, MetricDegenerate, PositivityLost, StepUnderflow
from .laplace_beltrami import POSITIVITY_FLOOR, WeightedSpace
from .linalg import (
    as_square_matrix,
    gaussian_matrices,
    hs_norm,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
)
from .torus import FuzzyTorus

# Dormand-Prince 4(5) tableau: A rows of stages 2-6, then the weights. B5 is
# the fifth-order propagating weight vector, B4 the embedded fourth-order one;
# their difference estimates the local error. The seventh stage sits at the
# fifth-order solution itself (its A row equals B5, whose last entry is zero),
# so it is evaluated there and doubles as the first stage of the next step
# ("first same as last", FSAL).
_DP_A = [
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# Nodes: stage i is evaluated at t + c_i h. They never decrease, so every
# exponent of the integrating factor between two stages is a decay.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])

_SAFETY = 0.9
_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2
_ORDER_EXP = 1 / 5
_MAX_STEP = 1.0
# A trial step below this size ends the run (PositivityLost or StepUnderflow).
_MIN_STEP = 1e-12

# The run switches to the integrating factor once every eigenvalue of c is
# within this fraction of the flat value kappa = tr(c0)/n, and keeps it.
_LAWSON_SPREAD = 0.05

# Largest relative decrease of det c between samples that still counts as
# nondecreasing: the exact flow never decreases it, so this is roundoff room.
DET_SLACK = 1e-12


@dataclass(frozen=True)
class FlowConfig:
    """Integration window, tolerances, and sampling cadence."""

    t0: float = 0.0
    t1: float = 50.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    sample_stride: float = 0.5

    def __post_init__(self) -> None:
        if not np.isfinite(self.t0) or not np.isfinite(self.t1) or self.t1 < self.t0:
            # Forward integration only; t1 == t0 degenerates to a single sample.
            raise InvalidParams(f"bad time window [{self.t0}, {self.t1}]")
        # Each comparison is written so that a NaN fails it.
        if not (0 < self.rel_tol < np.inf and 0 < self.abs_tol < np.inf):
            raise InvalidParams("tolerances must be positive and finite")
        if not 0 < self.sample_stride < np.inf:
            raise InvalidParams("sample_stride must be positive and finite")
        if (self.t1 - self.t0) / self.sample_stride >= np.iinfo(np.intp).max:
            raise InvalidParams(f"sample_stride {self.sample_stride:g} gives too many samples")


@dataclass(frozen=True)
class FlowSample:
    """The flow at one sample time: metric state ``space``, integrator field ``-L log c``."""

    t: float
    space: WeightedSpace
    field: np.ndarray
    trace: float
    det: float
    min_eig: float
    dist_to_flat: float

    @property
    def c(self) -> np.ndarray:
        return self.space.c


@dataclass
class FlowResult:
    """Sampled trajectory plus step-control counters.

    A trial step is rejected either because its error estimate exceeds the
    tolerance (``rejected_error``) or because a stage left the positive cone
    (``rejected_cone``). ``switch_time`` is when the run switched to the
    integrating factor, ``None`` if it never did.
    """

    torus: FuzzyTorus
    samples: list[FlowSample] = field(default_factory=list)
    accepted_steps: int = 0
    rejected_error: int = 0
    rejected_cone: int = 0
    switch_time: float | None = None

    @property
    def rejected_steps(self) -> int:
        return self.rejected_error + self.rejected_cone

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    @property
    def final(self) -> FlowSample:
        return self.samples[-1]


def random_metric(n: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Random positive-definite metric with trace ``n``.

    Draws a Hermitian ``h`` with independent seeded Gaussian entries scaled
    by ``scale``, exponentiates, and rescales so ``tr(c) = n``. The flat
    metric corresponds to ``scale = 0``.
    """
    if n < 1:
        raise InvalidParams(f"matrix size must be positive, got n={n}")
    rng = np.random.default_rng(seed)
    g = gaussian_matrices(rng, 1, n)[0]
    h = scale * (g + g.conj().T) / 2
    c = matrix_exp(h)
    return c * (n / np.trace(c).real)


def flat_metric(n: int) -> np.ndarray:
    """The flat metric, the identity."""
    return np.eye(n, dtype=complex)


def _metric_state(torus: FuzzyTorus, c) -> WeightedSpace:
    """Validate a metric for ``torus`` (size, then positivity) and decompose it."""
    c = as_square_matrix(c, "metric")
    if c.shape[0] != torus.n:
        raise InvalidInput(f"metric must be {torus.n}x{torus.n}, got {c.shape}")
    return WeightedSpace.from_metric(c)


def _field(torus: FuzzyTorus, space: WeightedSpace) -> np.ndarray:
    """The flow's right-hand side -L log c at a metric state.

    Traceless by construction (the Laplacian is a sum of commutators), which
    is what makes the flow conserve ``tr(c)`` to roundoff; zero at a scalar
    metric.
    """
    return -torus.laplacian_apply(space.log)


def _field_or_reject(torus: FuzzyTorus, c: np.ndarray) -> tuple[WeightedSpace, np.ndarray] | None:
    """Metric state at a trial stage and the field there; ``None`` marks a domain exit."""
    try:
        space = WeightedSpace.from_metric(c)
    except (InvalidInput, MetricDegenerate):
        return None
    return space, _field(torus, space)


class _LawsonStages:
    """The stage states of one Lawson trial step, in ``L``'s eigen-coordinates.

    The integrating factor ``e^{-sL/kappa}`` is the exact flow of the
    linearization at ``kappa I``: near the flat limit
    ``log c ~ log(kappa) I + (c - kappa I)/kappa``, so the flow is the heat
    flow ``dc/dt ~ -L c/kappa``. It is diagonal in the eigenbasis ``Q``
    (``basis``) of the flat ``L``: there it decays at the ``rates``
    ``mu = max(eig L, 0)/kappa``.

    With ``F = -L log c`` split as ``-L c/kappa + N(c)``, stage ``i`` is
    ``C_i = c + unvec(Q d_i)``, where

        d_i = (e^{-c_i h mu} - 1)/mu * g + h sum_j a_ij e^{-(c_i - c_j) h mu} * N_j,

    ``g = Q* vec(L c)/kappa``, and ``N_j = Q* vec(F_j + L C_j/kappa)``, which
    is ``Q* vec(F_j) + g + mu * d_j``. Since ``L`` annihilates the scalar
    ``c_00 I``, ``g = mu * Q* vec(c - c_00 I)``, so no stage applies ``L``
    beyond its field, and a scalar ``c`` has ``g = N_j = 0`` and stays
    bit-exact.
    """

    def __init__(self, rates: np.ndarray, basis: np.ndarray, c: np.ndarray, h: float):
        self.rates, self.basis, self.c, self.h = rates, basis, c, h
        self.hmu = h * rates
        self.g = rates * self._to_eigen(c - c[0, 0] * np.eye(len(c)))
        self.offsets = [np.zeros_like(self.g)]  # d_j of the stages so far
        self.nonlinear: list[np.ndarray] = []  # N_j of the stages so far

    def _to_eigen(self, a: np.ndarray) -> np.ndarray:
        """``Q* vec(a)``, without forming ``Q*``."""
        return (a.reshape(-1).conj() @ self.basis).conj()

    def _propagated(self, weights, node: float, fields: list[np.ndarray]) -> np.ndarray:
        """``h sum_j w_j e^{-(node - c_j) h mu} * N_j`` over the given stage fields."""
        for j in range(len(self.nonlinear), len(fields)):
            self.nonlinear.append(self._to_eigen(fields[j]) + self.g + self.rates * self.offsets[j])
        total = sum(
            w * np.exp((_DP_C[j] - node) * self.hmu) * nj
            for j, (w, nj) in enumerate(zip(weights, self.nonlinear))
            if w != 0.0
        )
        return self.h * total

    def state(self, weights, node: float, fields: list[np.ndarray]) -> np.ndarray:
        """The stage state at ``t + node h`` from the weights of its tableau row."""
        rates = self.rates
        # (e^{-node h mu} - 1)/mu, whose limit at mu = 0 is -node h.
        decay = np.divide(
            np.expm1(-node * self.hmu), rates,
            out=np.full_like(rates, -node * self.h), where=rates > 0,
        )
        d = decay * self.g + self._propagated(weights, node, fields)
        self.offsets.append(d)
        return self.c + (self.basis @ d).reshape(self.c.shape)

    def error(self, fields: list[np.ndarray]) -> float:
        """Hilbert-Schmidt norm of the fifth- minus the fourth-order state."""
        return float(np.linalg.norm(self._propagated(_DP_B5 - _DP_B4, 1.0, fields)))


def _trial_step(
    torus: FuzzyTorus,
    c: np.ndarray,
    k1: np.ndarray,
    h: float,
    config: FlowConfig,
    factor: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[WeightedSpace, np.ndarray, float, float] | None:
    """One embedded RK trial step of size ``h`` from ``c``, whose field is ``k1``.

    Returns ``(space_next, k_next, error_estimate, tolerance)`` for an
    evaluable step, or ``None`` when a stage leaves the positive cone and the
    step must be retried smaller. ``space_next`` is the metric state of the
    symmetrized candidate, where the last stage is evaluated: its cone check
    is the positivity check of the candidate state, and ``k_next`` is the
    field there, the next step's first stage. Acceptance is the caller's
    decision (``error_estimate <= tolerance``).

    With an integrating ``factor``, the ``(rates, basis)`` of ``_LawsonStages``,
    the step is Lawson's: the same tableau, applied to ``e^{sL/kappa} c``.
    """
    lawson = None if factor is None else _LawsonStages(*factor, c, h)
    stages = [k1]
    for row, node in zip(_DP_A, _DP_C[1:]):
        if lawson is None:
            ci = c
            for a_ij, k in zip(row, stages):
                if a_ij != 0.0:
                    ci = ci + h * a_ij * k
        else:
            ci = lawson.state(row, node, stages)
        stage = _field_or_reject(torus, ci)
        if stage is None:
            return None
        stages.append(stage[1])

    if lawson is None:
        c5 = c + h * sum(b * k for b, k in zip(_DP_B5, stages) if b != 0.0)
    else:
        c5 = lawson.state(_DP_B5, 1.0, stages)
    stage = _field_or_reject(torus, c5)
    if stage is None:
        return None
    space_next, k_next = stage
    c5 = space_next.c  # symmetrized
    stages.append(k_next)
    if lawson is None:
        c4 = c + h * sum(b * k for b, k in zip(_DP_B4, stages) if b != 0.0)
        c4 = (c4 + c4.conj().T) / 2
        err = hs_norm(c5 - c4)
    else:
        err = lawson.error(stages)
    tol = config.abs_tol + config.rel_tol * max(hs_norm(c), hs_norm(c5))
    return space_next, k_next, err, tol


def sample_times(config: FlowConfig) -> np.ndarray:
    """Uniform cadence t0, t0 + stride, ... with t1 always included."""
    k = int(np.floor((config.t1 - config.t0) / config.sample_stride + 1e-9))
    ts = config.t0 + config.sample_stride * np.arange(k + 1)
    if config.t1 - ts[-1] > 1e-9 * max(1.0, abs(config.t1)):
        ts = np.append(ts, config.t1)
    else:
        ts[-1] = config.t1
    return ts


def _make_sample(t: float, space: WeightedSpace, field: np.ndarray, trace0: float) -> FlowSample:
    n = space.n
    return FlowSample(
        t=float(t),
        space=space,
        field=field,
        trace=space.trace,
        det=float(np.prod(space.eigenvalues)),
        min_eig=float(space.eigenvalues[0]),
        dist_to_flat=hs_norm(space.c - (trace0 / n) * np.eye(n)),
    )


def run_flow(torus: FuzzyTorus, c0: np.ndarray, config: FlowConfig | None = None) -> FlowResult:
    """Integrate the metric flow and sample it on the configured cadence.

    The trajectory lands exactly on each sample time (the adaptive step is
    clipped at sample boundaries), so sampled states are integration states,
    not interpolants, and each sample's field is the integrator's own. The
    run switches to the integrating factor at the first state whose
    eigenvalues all lie within ``_LAWSON_SPREAD * kappa`` of the flat value
    ``kappa``, and keeps it.
    """
    config = config or FlowConfig()
    space = _metric_state(torus, c0)
    result = FlowResult(torus=torus)
    ts = sample_times(config)
    target_trace = space.trace  # conserved; fixes the flat limit
    kappa = target_trace / torus.n

    k1 = _field(torus, space)  # the field at space, the next trial's first stage
    result.samples.append(_make_sample(ts[0], space, k1, target_trace))
    h = min(_MAX_STEP, config.sample_stride)
    t = float(ts[0])
    factor = None  # (rates, basis) of e^{-sL/kappa} once the run has switched
    for t_next in ts[1:]:
        t_target = float(t_next)
        while t < t_target:
            if factor is None and np.max(np.abs(space.eigenvalues - kappa)) <= _LAWSON_SPREAD * kappa:
                w, q = torus.laplacian_eig
                factor = (np.maximum(w, 0.0) / kappa, q)
                result.switch_time = t
            h = min(h, _MAX_STEP, t_target - t)
            trial = _trial_step(torus, space.c, k1, h, config, factor)
            if trial is None:
                result.rejected_cone += 1
                h = h / 2
                if h < _MIN_STEP:
                    raise PositivityLost(
                        "a Runge-Kutta stage left the positive cone at the minimum "
                        "step size; rerun with tighter tolerances",
                        time=t,
                    )
                continue
            space_next, k_next, err, tol = trial
            if err <= tol:
                result.accepted_steps += 1
                t = t + h
                space, k1 = space_next, k_next
                growth = _SAFETY * (tol / err) ** _ORDER_EXP if err > 0 else _MAX_GROWTH
                h = h * min(_MAX_GROWTH, max(_MIN_SHRINK, growth))
            else:
                result.rejected_error += 1
                shrink = _SAFETY * (tol / err) ** _ORDER_EXP
                h = h * min(1.0, max(_MIN_SHRINK, shrink))
            if h < _MIN_STEP:
                raise StepUnderflow(f"step size fell below min_step={_MIN_STEP:g}", time=t)
        t = t_target
        result.samples.append(_make_sample(t, space, k1, target_trace))
    return result


def flow_invariants(result: FlowResult) -> tuple[float, float]:
    """``(trace_drift_rel, max_rel_det_drop)`` over the sampled trajectory.

    The drift is the largest ``|tr c - tr c0|`` relative to ``|tr c0|``; the
    drop is the largest decrease of ``det c`` between consecutive samples,
    relative to the earlier one (0 when ``det`` never decreases or there is
    only one sample). The exact flow keeps both at 0.
    """
    trace0 = result.samples[0].trace
    drift = max(abs(s.trace - trace0) for s in result.samples) / abs(trace0)
    dets = np.array([s.det for s in result.samples])
    drops = np.maximum(dets[:-1] - dets[1:], 0.0) / np.abs(dets[:-1])
    return drift, float(np.max(drops, initial=0.0))


def trajectory_csv_rows(result: FlowResult) -> Iterator[list[str]]:
    """Trajectory as CSV rows (header first), deterministic formatting.

    Columns: t, the metric entries c_re_jk / c_im_jk in row-major (j, k)
    order, then trace, det, min_eig, dist_to_flat. Floats are rendered with
    ``repr`` so identical runs produce identical bytes.
    """
    n = result.torus.n
    header = ["t"]
    for j in range(n):
        for k in range(n):
            header += [f"c_re_{j}{k}", f"c_im_{j}{k}"]
    header += ["trace", "det", "min_eig", "dist_to_flat"]
    yield header
    for s in result.samples:
        row = [repr(s.t)]
        for z in s.c.reshape(-1):
            row += [repr(float(z.real)), repr(float(z.imag))]
        row += [repr(s.trace), repr(s.det), repr(s.min_eig), repr(s.dist_to_flat)]
        yield row


def trajectory_to_json(result: FlowResult, config: FlowConfig) -> dict:
    """Trajectory (with geometry parameters and integrator stats) as JSON."""
    return {
        "n": result.torus.n,
        "m": result.torus.m,
        "config": {
            "t0": config.t0,
            "t1": config.t1,
            "rel_tol": config.rel_tol,
            "abs_tol": config.abs_tol,
            "max_step": _MAX_STEP,
            "min_step": _MIN_STEP,
            "sample_stride": config.sample_stride,
            "positivity_floor": POSITIVITY_FLOOR,
        },
        "samples": [
            {
                "t": s.t,
                "c": matrix_to_json(s.c),
                "trace": s.trace,
                "det": s.det,
                "min_eig": s.min_eig,
                "dist_to_flat": s.dist_to_flat,
            }
            for s in result.samples
        ],
        "accepted_steps": result.accepted_steps,
        "rejected_steps": result.rejected_steps,
        "rejected_error": result.rejected_error,
        "rejected_cone": result.rejected_cone,
        "switch_time": result.switch_time,
    }


def metric_from_spec(spec: str | dict, n: int, seed_default: int = 0) -> np.ndarray:
    """Build an initial metric from a compact textual spec or a JSON document.

    Accepted forms: a dict in the matrix JSON encoding; ``"flat"``;
    ``"diag:v1,v2,..."`` (n positive reals); ``"random"``,
    ``"random:seed=S"``, or ``"random:seed=S,scale=X"`` for the seeded
    generator (defaults: ``seed_default`` and scale 1).
    """
    if isinstance(spec, dict):
        return matrix_from_json(spec)
    if not isinstance(spec, str):
        raise InvalidInput(f"initial metric must be a spec string or a matrix document: {spec!r}")
    spec = spec.strip()
    if spec == "flat":
        return flat_metric(n)
    if spec == "random":
        return random_metric(n, seed_default)
    if spec.startswith("diag:"):
        try:
            values = [float(x) for x in spec[len("diag:"):].split(",")]
        except ValueError as exc:
            raise InvalidInput(f"bad diagonal metric spec {spec!r}: {exc}") from exc
        if len(values) != n:
            raise InvalidInput(
                f"diagonal metric spec has {len(values)} entries, expected {n}"
            )
        return np.diag(values).astype(complex)
    if spec.startswith("random:"):
        seed = seed_default
        scale = 1.0
        body = spec[len("random:"):]
        for part in filter(None, body.split(",")):
            key, _, value = part.partition("=")
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "scale":
                    scale = float(value)
                else:
                    raise InvalidInput(f"unknown random-metric key {key!r}")
            except ValueError as exc:
                raise InvalidInput(f"bad random metric spec {spec!r}: {exc}") from exc
        return random_metric(n, seed, scale)
    raise InvalidInput(f"unrecognized initial metric spec {spec!r}")


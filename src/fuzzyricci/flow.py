"""Metric flow on the fuzzy torus: dc/dt = -L log c.

The metric is a Hermitian positive-definite ``n x n`` matrix ``c``; ``L`` is
the flat Laplacian of the torus. Because ``L`` annihilates scalars and its
flat-space kernel is orthogonal to every commutator, the flow preserves
``tr(c)`` exactly, never decreases ``det(c)``, and drives ``c`` to the
scalar matrix ``(tr(c0)/n) I``.

Integration uses an embedded Dormand-Prince 4(5) pair with proportional
step control on the Hilbert-Schmidt error norm; its last stage, evaluated at
the candidate state, is reused as the next step's first stage (FSAL), so a
trial step costs six eigendecompositions. Each one builds a metric state
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
from .linalg import as_square_matrix, hs_norm, matrix_exp, matrix_from_json, matrix_to_json
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

_SAFETY = 0.9
_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2
_ORDER_EXP = 1 / 5
_MAX_STEP = 1.0

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
    min_step: float = 1e-12
    sample_stride: float = 0.5

    def __post_init__(self) -> None:
        if not np.isfinite(self.t0) or not np.isfinite(self.t1) or self.t1 < self.t0:
            # Forward integration only; t1 == t0 degenerates to a single sample.
            raise InvalidParams(f"bad time window [{self.t0}, {self.t1}]")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InvalidParams("tolerances must be positive")
        if not 0 < self.min_step < _MAX_STEP:
            raise InvalidParams(f"need 0 < min_step < {_MAX_STEP:g}")
        if self.sample_stride <= 0:
            raise InvalidParams("sample_stride must be positive")


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
    """Sampled trajectory plus step-control counters."""

    torus: FuzzyTorus
    samples: list[FlowSample] = field(default_factory=list)
    accepted_steps: int = 0
    rejected_steps: int = 0

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
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = scale * (g + g.conj().T) / 2
    c = matrix_exp(h)
    return c * (n / np.trace(c).real)


def flat_metric(n: int, trace: float | None = None) -> np.ndarray:
    """Scalar metric (trace/n) I; default trace is n."""
    tr = float(trace) if trace is not None else float(n)
    return (tr / n) * np.eye(n, dtype=complex)


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


def _trial_step(
    torus: FuzzyTorus, c: np.ndarray, k1: np.ndarray, h: float, config: FlowConfig
) -> tuple[WeightedSpace, np.ndarray, float, float] | None:
    """One embedded RK trial step of size ``h`` from ``c``, whose field is ``k1``.

    Returns ``(space_next, k_next, error_estimate, tolerance)`` for an
    evaluable step, or ``None`` when a stage leaves the positive cone and the
    step must be retried smaller. ``space_next`` is the metric state of the
    symmetrized candidate, where the last stage is evaluated: its cone check
    is the positivity check of the candidate state, and ``k_next`` is the
    field there, the next step's first stage. Acceptance is the caller's
    decision (``error_estimate <= tolerance``).
    """
    stages = [k1]
    for row in _DP_A:
        ci = c
        for a_ij, k in zip(row, stages):
            if a_ij != 0.0:
                ci = ci + h * a_ij * k
        stage = _field_or_reject(torus, ci)
        if stage is None:
            return None
        stages.append(stage[1])

    c5 = c + h * sum(b * k for b, k in zip(_DP_B5, stages) if b != 0.0)
    stage = _field_or_reject(torus, c5)
    if stage is None:
        return None
    space_next, k_next = stage
    c5 = space_next.c  # symmetrized
    stages.append(k_next)
    c4 = c + h * sum(b * k for b, k in zip(_DP_B4, stages) if b != 0.0)
    c4 = (c4 + c4.conj().T) / 2
    err = hs_norm(c5 - c4)
    tol = config.abs_tol + config.rel_tol * max(hs_norm(c), hs_norm(c5))
    return space_next, k_next, err, tol


def _advance(
    torus: FuzzyTorus,
    space: WeightedSpace,
    k1: np.ndarray,
    t: float,
    t_target: float,
    h: float,
    config: FlowConfig,
    counters: FlowResult,
) -> tuple[WeightedSpace, np.ndarray, float]:
    """Integrate from ``t`` to ``t_target`` exactly, adapting the step size.

    ``k1`` is the field at the metric state ``space``; the returned state and
    field are the ones at the end.
    """
    while t < t_target:
        h = min(h, _MAX_STEP, t_target - t)
        trial = _trial_step(torus, space.c, k1, h, config)
        if trial is None:
            counters.rejected_steps += 1
            h = h / 2
            if h < config.min_step:
                raise PositivityLost(
                    "a Runge-Kutta stage left the positive cone at the minimum "
                    "step size; rerun with tighter tolerances",
                    time=t,
                )
            continue
        space_next, k_next, err, tol = trial
        if err <= tol:
            counters.accepted_steps += 1
            t = t + h
            space, k1 = space_next, k_next
            factor = _SAFETY * (tol / err) ** _ORDER_EXP if err > 0 else _MAX_GROWTH
            h = h * min(_MAX_GROWTH, max(_MIN_SHRINK, factor))
        else:
            counters.rejected_steps += 1
            factor = _SAFETY * (tol / err) ** _ORDER_EXP
            h = h * min(1.0, max(_MIN_SHRINK, factor))
        if h < config.min_step:
            raise StepUnderflow(
                f"step size fell below min_step={config.min_step:g}", time=t
            )
    return space, k1, h


def sample_times(config: FlowConfig) -> np.ndarray:
    """Uniform cadence t0, t0 + stride, ... with t1 always included."""
    if config.t1 == config.t0:
        return np.array([config.t0])
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
    not interpolants, and each sample's field is the integrator's own.
    """
    config = config or FlowConfig()
    space = _metric_state(torus, c0)
    result = FlowResult(torus=torus)
    ts = sample_times(config)
    target_trace = space.trace  # conserved; fixes the flat limit

    k1 = _field(torus, space)
    result.samples.append(_make_sample(ts[0], space, k1, target_trace))
    h = min(_MAX_STEP, config.sample_stride)
    t = float(ts[0])
    for t_next in ts[1:]:
        space, k1, h = _advance(torus, space, k1, t, float(t_next), h, config, result)
        t = float(t_next)
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
            "min_step": config.min_step,
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


"""Metric flow on the fuzzy torus: dc/dt = -L log c.

The metric is a Hermitian positive-definite ``n x n`` matrix ``c``; ``L`` is
the flat Laplacian of the torus. Because ``L`` annihilates scalars and its
flat-space kernel is orthogonal to every commutator, the flow preserves
``tr(c)`` exactly, never decreases ``det(c)``, and drives ``c`` to the
scalar matrix ``(tr(c0)/n) I``.

Integration uses an embedded Dormand-Prince 4(5) pair with proportional
step control on the Hilbert-Schmidt error norm; its last stage, evaluated at
the candidate state, is reused as the next step's first stage (FSAL), so a
trial step costs six eigendecompositions. A trial keeps its seven stage
fields as the rows of one array ``K``: each stage state and the candidate
are one row-vector product over it, the rows of ``h A`` (built once per
trial, with ``B5`` as its last row), and the error estimate, the distance to
the embedded fourth-order solution, is ``h ||(B5 - B4) K||``.

The flow is stiff in two different ways. Early on the stiffness comes from
``log`` at small eigenvalues of ``c``: the Jacobian is ``-L Dlog_c``, and
``Dlog_c`` is large where ``c`` is nearly singular. Near the flat limit
``kappa I`` (``kappa = tr(c0)/n``) it comes from ``L`` alone: there the flow
is the heat flow ``dc/dt ~ -L c/kappa``, whose stiffness is
``lambda_max(L)/kappa``, and an explicit step is held far below what the
accuracy needs. So once every eigenvalue of an accepted state lies within
``_TAIL_SPREAD = 0.05`` times ``kappa`` of ``kappa``, the run switches, for
good, to an exponential Runge-Kutta pair with that linear part: Cox and
Matthews' ETDRK4, with their ETD3RK embedded for the error estimate, under
the same error norm, FSAL, cone rejection and step controller (only the
controller's exponent follows the estimate's order, and the explicit phase's
step cap ``_MAX_STEP`` no longer applies). Its weights, the phi-functions of
``-h L/kappa``, are diagonal in the eigen-coordinates of the flat ``L`` on
the real coordinates ``Re a + Im a`` of a Hermitian ``a``
(``FuzzyTorus.laplacian_split``), where every stage is an increment from the
step's start state, so every stage state is exactly Hermitian. The tail
integrates only the n^2 - 1 modes ``L`` moves, not its kernel, the trace
direction: the flow conserves ``tr c``, and a zero rate's weights grow like
``h`` over a roundoff remainder, so that lane alone would reject long steps;
without it every window ends. The split is built once per torus, by a run
that switches. From the start ``L/kappa`` misses the stiffness of ``log``.

Only the initial metric is validated as outside input (``metric_state``). A
stage state is a sum of the integrator's own Hermitian matrices, so it is not
checked for Hermiticity: one ``eigh`` call, which reads its lower triangle
only, gives the eigenpairs from which the stage's field
``L(V diag(-log w) V*)`` comes directly (``_field``, which applies ``L`` to
that Hermitian matrix by ``laplacian_apply(..., hermitian=True)``). Only an
accepted state becomes a metric state (``WeightedSpace``): it is mirrored
once from that triangle, with a real diagonal (``linalg.lower_mirrored``),
as the initial state is. So every sample's
``c`` is exactly Hermitian and exactly the matrix of its decomposition, and
spectra and the variation law reuse that decomposition and the sample's
field. Two domain guards stay per stage: a finite norm, and the smallest
eigenvalue above ``POSITIVITY_FLOOR`` (the vector field needs ``log c``). A
stage failing either has left the positive cone: the trial is rejected and
retried at half the step size rather than reported as an error. The exact
flow cannot leave the cone, so a persistent violation signals integrator
tolerances that are too loose, reported as ``PositivityLost`` raised from
the last stage's ``MetricDegenerate``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Iterator

import numpy as np

from .errors import InvalidInput, InvalidParams, MetricDegenerate, PositivityLost, StepUnderflow
from .laplace_beltrami import POSITIVITY_FLOOR, WeightedSpace, check_positive, metric_state
from .linalg import (
    LazyDocs,
    gaussian_matrices,
    hs_norm,
    lower_mirrored,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
)
from .torus import FuzzyTorus, RealSplit

# Dormand-Prince 4(5) tableau: A rows of stages 2-6 (row i - 2 holds the
# weights of stages 1 to i - 1, then zeros), then the weights. B5 is the
# fifth-order propagating weight vector, B4 the embedded fourth-order one;
# their difference estimates the local error. The seventh stage sits at the
# fifth-order solution itself (its A row equals B5, whose last entry is zero),
# so it is evaluated there and doubles as the first stage of the next step
# ("first same as last", FSAL).
_DP_A = np.array([
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4
# The rows that make stage states 2-7 from stages 1-6: A, padded, then B5.
# Complex, as matmul would cast them against the complex stages anyway: the
# bits are the same, and no stage pays for the cast.
_DP_STATES = np.vstack([np.pad(_DP_A, ((0, 0), (0, 1))), _DP_B5[:6]]).astype(complex)

# Taylor coefficients 1/(j+3)! of phi_3, j = 0..16: where |z| < 1 the first
# term left out, 1/20!, is below 1e-17 of phi_3.
_PHI3_TAYLOR = [1 / math.factorial(j + 3) for j in range(17)]

_SAFETY = 0.9
_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2
# The controller's exponent is one over the order of the error estimate plus
# one: fourth order (DP45's embedded solution) before the switch, third
# order (ETD3RK) after it.
_ORDER_EXP = 1 / 5
_ETD_ORDER_EXP = 1 / 4
# The exponential pair's error estimate, ETDRK4 minus ETD3RK, is multiplied
# by this weight so that the tail is as accurate as the explicit phase.
# Unweighted, the estimate exceeds the propagated ETDRK4 solution's true
# local error only 2-8x (n=16, seed 0, one step of h = 0.01 to 0.08 from the
# state at t = 2), and simulate at n=16, t1=20 is 9.45 and 9.41 digits
# accurate at seeds 0 and 1 against a rel_tol=1e-13 reference, where a run
# that never switches is 10.29 and 10.36. Weighted by 30 it is 10.24 and
# 10.32, with 127 and 122 tail trials (67 and 70 unweighted).
_ETD_ERROR_WEIGHT = 30.0
# The explicit phase's largest step; after the switch the error controller
# alone bounds the step.
_MAX_STEP = 1.0
# A rejected trial whose retry is below this size ends the run (PositivityLost or StepUnderflow).
_MIN_STEP = 1e-12

# The run switches to the exponential tail once every eigenvalue of c is
# within this fraction of the flat value kappa = tr(c0)/n, and keeps it.
_TAIL_SPREAD = 0.05

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
    """The flow at one sample time: metric state ``space``, integrator field ``-L log c``.

    ``trace``, ``det`` and ``min_eig`` are read off the state's decomposition.
    """

    t: float
    space: WeightedSpace
    field: np.ndarray
    dist_to_flat: float

    @property
    def c(self) -> np.ndarray:
        return self.space.c

    @property
    def trace(self) -> float:
        return self.space.trace

    @property
    def det(self) -> float:
        return float(np.prod(self.space.eigenvalues))

    @property
    def min_eig(self) -> float:
        return float(self.space.eigenvalues[0])


@dataclass
class FlowResult:
    """Sampled trajectory of a run of ``config`` on ``torus``, plus step-control counters.

    A trial step is rejected either because its error estimate exceeds the
    tolerance (``rejected_error``) or because a stage left the positive cone
    (``rejected_cone``). ``switch_time`` is when the run switched to the
    exponential tail, ``None`` if it never did; ``tail_trials`` counts the
    trials after it. ``field_evaluations`` counts evaluations of ``-L log c``:
    one at the start, then one per stage that stays in the positive cone (a
    completed trial costs six before the switch and five after it).
    ``eigendecompositions`` counts the ``eigh`` calls of the metric: one at
    the start, then one per stage that reaches ``eigh`` (every field, plus
    each stage that ``eigh`` puts below ``POSITIVITY_FLOOR``); the flat
    ``L``'s real decomposition at the switch is not one. ``counters`` is the
    table of all eight, by the names the JSON artifacts use.
    """

    torus: FuzzyTorus
    config: FlowConfig
    samples: list[FlowSample] = field(default_factory=list)
    accepted_steps: int = 0
    rejected_error: int = 0
    rejected_cone: int = 0
    switch_time: float | None = None
    field_evaluations: int = 0
    tail_trials: int = 0
    eigendecompositions: int = 0

    @property
    def rejected_steps(self) -> int:
        return self.rejected_error + self.rejected_cone

    @property
    def counters(self) -> dict:
        return {
            "accepted_steps": self.accepted_steps,
            "rejected_steps": self.rejected_steps,
            "rejected_error": self.rejected_error,
            "rejected_cone": self.rejected_cone,
            "switch_time": self.switch_time,
            "field_evaluations": self.field_evaluations,
            "tail_trials": self.tail_trials,
            "eigendecompositions": self.eigendecompositions,
        }

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
    metric corresponds to ``scale = 0``. A negative seed or a scale that
    is not finite raises ``InvalidParams``, before anything is drawn, and
    so does one whose metric's least eigenvalue, ``n min(e) / sum(e)`` with
    ``e = exp(w)`` over ``h``'s eigenvalues ``w``, is not above ``POSITIVITY_FLOOR``.
    """
    if n < 1:
        raise InvalidParams(f"matrix size must be positive, got n={n}")
    if seed < 0:
        raise InvalidParams(f"seed must be non-negative, got seed={seed}")
    if not np.isfinite(scale):
        raise InvalidParams(f"scale must be finite, got scale={scale}")
    rng = np.random.default_rng(seed)
    g = gaussian_matrices(rng, 1, n)[0]
    h = (g + g.conj().T) / 2
    with np.errstate(all="ignore"):  # an exp that overflows leaves least 0 or NaN
        e = np.exp(scale * np.linalg.eigvalsh(h))
        least = n * e.min() / e.sum()
    if not least > POSITIVITY_FLOOR:
        raise InvalidParams(f"scale is too large for a positive-definite metric, got "
                            f"scale={scale}: least eigenvalue {least:.3e}")
    c = matrix_exp(scale * h)
    return c * (n / np.trace(c).real)


def _field(torus: FuzzyTorus, eig) -> np.ndarray:
    """The flow's right-hand side -L log c, from the eigenpairs of ``c``.

    ``eig`` has ``c``'s ``eigenvalues`` and ``eigenvectors``: a
    ``WeightedSpace``, or a stage's ``np.linalg.eigh`` result. Traceless by
    construction (the Laplacian is a sum of commutators), which is what
    makes the flow conserve ``tr(c)`` to roundoff; zero at a scalar metric.
    ``L`` is applied to the Hermitian ``V diag(-log w) V*`` by
    ``laplacian_apply(..., hermitian=True)``, which keeps a scalar's field
    exactly zero. Negating the ``n`` logs rather than the result is exact.
    Every field of a run is computed here.
    """
    v = eig.eigenvectors
    return torus.laplacian_apply((v * -np.log(eig.eigenvalues)) @ v.conj().T, hermitian=True)


def _phi_functions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``phi_1, phi_2, phi_3`` of a real array ``z < 0``, elementwise.

    ``phi_0(z) = e^z`` and ``phi_{k+1}(z) = (phi_k(z) - 1/k!)/z``, with
    ``phi_k(0) = 1/k!``. Where ``|z| >= 1`` the functions start from
    ``expm1(z)/z`` and follow that recurrence, which loses little there;
    where ``|z| < 1`` it would cancel, so ``phi_3`` is summed from its Taylor
    series and ``phi_2 = 1/2 + z phi_3``, ``phi_1 = 1 + z phi_2``. Each
    formula is evaluated on lanes that keep it finite, so no lane overflows.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1
    zs = np.where(small, z, 0.0)
    phi3 = np.full_like(zs, _PHI3_TAYLOR[-1])
    for coefficient in _PHI3_TAYLOR[-2::-1]:
        phi3 = phi3 * zs + coefficient
    phi2 = zs * phi3 + 0.5
    phi1 = zs * phi2 + 1.0
    zb = np.where(small, -1.0, z)
    big1 = np.expm1(zb) / zb
    big2 = (big1 - 1.0) / zb
    big3 = (big2 - 0.5) / zb
    return np.where(small, phi1, big1), np.where(small, phi2, big2), np.where(small, phi3, big3)


def _dp45_trial(evaluate, c: np.ndarray, k1: np.ndarray, h: float):
    """One embedded DP45 trial step of size ``h`` from ``c``, whose field is ``k1``.

    ``evaluate(C)`` gives a pair at a stage state ``C``: the state as the
    caller keeps it (``run_flow``'s: ``C`` and its ``eigh`` result), and the
    field there. It raises ``MetricDegenerate`` outside the positive cone;
    that exception leaves the trial from the stage that left the cone, and
    the caller retries the step smaller. Otherwise returns
    ``(state_next, k_next, error_estimate)``. ``state_next`` is the kept state
    of the candidate (``run_flow`` mirrors it into a ``WeightedSpace`` if it
    is accepted), where the last stage is evaluated: its cone check is the
    positivity check of the candidate state, and ``k_next`` is the field
    there, the next step's first stage. Acceptance is the caller's decision.
    ``_etd_trial`` keeps the same contract after the switch to the
    exponential tail.
    """
    n = c.shape[0]
    weights = h * _DP_STATES  # row i - 1 makes stage i + 1's state; row 5 the candidate
    stages = np.empty((7, n * n), dtype=complex)
    stages[0] = k1.reshape(-1)
    for i in range(1, 6):
        stages[i] = evaluate(c + (weights[i - 1, :i] @ stages[:i]).reshape(n, n))[1].reshape(-1)
    state_next, k_next = evaluate(c + (weights[5] @ stages[:6]).reshape(n, n))
    stages[6] = k_next.reshape(-1)
    return state_next, k_next, h * hs_norm(_DP_E @ stages)


def _etd_trial(
    evaluate, c: np.ndarray, k1: np.ndarray, h: float, rates: np.ndarray, split: RealSplit
):
    """An exponential Runge-Kutta trial on ``e^{-sL/kappa}``: ``(state_next, k_next, error)``.

    In the real eigen-coordinates of the flat ``L`` on Hermitian matrices
    (``split``: the n^2 - 1 modes past the trace direction, ``L``'s kernel),
    where ``L/kappa`` acts as the ``rates`` ``mu``, ``L``'s positive
    eigenvalues over kappa, write a stage state as the increment ``d`` from
    ``c``: ``C = c + Q(d)``, ``Q = split.from_eigen``, exactly Hermitian.
    Then ``d' = -mu d + M(d)``, ``d(0) = 0``, with the remainder
    ``M = Q*(F(C)) + mu d`` (``Q* = split.to_eigen``). Cox and Matthews'
    ETDRK4 (J. Comput. Phys. 176, 2002), with ``z = -h mu``, ``phi_k =
    phi_k(z)`` and ``p = (h/2) phi_1(z/2)``:

        d_a = p M_0,   d_b = p M_a,   d_c = e^{z/2} d_a + p (2 M_b - M_0),
        d_next = h [(phi_1 - 3 phi_2 + 4 phi_3) M_0 + (2 phi_2 - 4 phi_3)(M_a + M_b)
                    + (4 phi_3 - phi_2) M_c].

    The embedded third-order solution is their ETD3RK, which reuses stage
    ``a`` and adds the full-step stage ``d_3 = h phi_1 (2 M_a - M_0)``; it
    replaces ``M_a + M_b`` by ``2 M_a`` and ``M_c`` by ``M_3``. A trial
    evaluates five fields (``a``, ``b``, ``c``, ``3`` and the end state, the
    next trial's ``M_0``). A scalar ``c`` has ``M = 0`` and stays bit-exact.
    The phi-functions at ``z/2`` and ``z`` come from one call on both, stacked:
    lanes are independent, so the bits are those of two calls.
    """
    z = -h * rates
    (half, phi1), (_, phi2), (_, phi3) = _phi_functions(np.stack([z / 2, z]))
    p = (h / 2) * half
    w_mid = h * (2 * phi2 - 4 * phi3)
    w_end = h * (4 * phi3 - phi2)

    def remainder(d: np.ndarray) -> np.ndarray:
        return split.to_eigen(evaluate(c + split.from_eigen(d))[1]) + rates * d

    m0 = split.to_eigen(k1)
    d_a = p * m0
    m_a = remainder(d_a)
    m_b = remainder(p * m_a)
    m_c = remainder(np.exp(z / 2) * d_a + p * (2 * m_b - m0))
    m_3 = remainder(h * phi1 * (2 * m_a - m0))
    d_next = h * (phi1 - 3 * phi2 + 4 * phi3) * m0 + w_mid * (m_a + m_b) + w_end * m_c
    state_next, k_next = evaluate(c + split.from_eigen(d_next))
    error = _ETD_ERROR_WEIGHT * float(np.linalg.norm(w_mid * (m_b - m_a) + w_end * (m_c - m_3)))
    return state_next, k_next, error


def sample_times(config: FlowConfig) -> np.ndarray:
    """Uniform cadence t0, t0 + stride, ... with t1 always included."""
    k = int(np.floor((config.t1 - config.t0) / config.sample_stride + 1e-9))
    try:
        ts = config.t0 + config.sample_stride * np.arange(k + 1)
    except MemoryError as exc:  # within FlowConfig's intp guard, but no process can hold it
        raise InvalidParams(f"sample_stride {config.sample_stride:g} gives too many samples") from exc
    # A remainder up to 1e-6 strides moves the last sample onto t1: the finite-
    # difference oracle divides the curves' roundoff by the last spacing, and a
    # 2e-12 sliver after a 1e-3 stride lifts it past the variation budget.
    if config.t1 - ts[-1] > 1e-6 * config.sample_stride:
        ts = np.append(ts, config.t1)
    else:
        ts[-1] = config.t1
    return ts


def run_flow(torus: FuzzyTorus, c0: np.ndarray, config: FlowConfig | None = None) -> FlowResult:
    """Integrate the metric flow and sample it on the configured cadence.

    The trajectory lands exactly on each sample time (the adaptive step is
    clipped at sample boundaries), so sampled states are integration states,
    not interpolants, and each sample's field is the integrator's own. The
    run switches to the exponential tail at the first state whose
    eigenvalues all lie within ``_TAIL_SPREAD * kappa`` of the flat value
    ``kappa``, and keeps it: a phase is its trial, the controller's exponent
    and the step cap (``_MAX_STEP``, then none). A trial is accepted when
    its error estimate is within ``abs_tol + rel_tol * max(||c||, ||c_next||)``.
    """
    config = config or FlowConfig()
    space = metric_state(torus, c0)
    result = FlowResult(torus=torus, config=config)
    ts = sample_times(config)
    kappa = space.trace / torus.n  # the trace is conserved; it fixes the flat limit
    flat = kappa * np.eye(torus.n)
    lower = np.tri(torus.n, dtype=bool)
    spread = _TAIL_SPREAD * kappa

    def evaluate(c: np.ndarray) -> tuple[tuple[np.ndarray, tuple], np.ndarray]:
        # A stage keeps its matrix and eigh's result; only an accepted
        # candidate becomes a WeightedSpace.
        norm = hs_norm(c)
        if not math.isfinite(norm):  # eigh raises on some NaN entries and passes others
            raise MetricDegenerate(f"stage state is not finite: ||c|| = {norm}")
        eig = np.linalg.eigh(c)  # an EighResult: eigenvalues, eigenvectors
        result.eigendecompositions += 1
        check_positive(eig.eigenvalues)
        result.field_evaluations += 1
        return (c, eig), _field(torus, eig)

    k1 = _field(torus, space)  # the field at space, the next trial's first stage
    result.field_evaluations = result.eigendecompositions = 1
    result.samples.append(FlowSample(float(ts[0]), space, k1, hs_norm(space.c - flat)))
    h = min(_MAX_STEP, config.sample_stride)
    t = float(ts[0])
    trial, order_exp, max_step = _dp45_trial, _ORDER_EXP, _MAX_STEP
    for t_next in ts[1:]:
        t_target = float(t_next)
        while t < t_target:
            w = space.eigenvalues  # ascending, so its ends are the farthest from kappa
            if result.switch_time is None and max(w[-1] - kappa, kappa - w[0]) <= spread:
                full = torus.laplacian_split  # its first pair is L's kernel, the trace direction
                split = RealSplit(full.n, full.eigenvalues[1:], full.eigenvectors[:, 1:])
                trial = partial(_etd_trial, rates=split.eigenvalues / kappa, split=split)
                order_exp, max_step = _ETD_ORDER_EXP, math.inf
                result.switch_time = t
            h = min(h, max_step, t_target - t)
            result.tail_trials += result.switch_time is not None
            try:
                (c_next, eig_next), k_next, err = trial(evaluate, space.c, k1, h)
            except MetricDegenerate as exc:
                # A stage left the positive cone: retry at half the step.
                result.rejected_cone += 1
                if h / 2 < _MIN_STEP:
                    raise PositivityLost(
                        f"a Runge-Kutta stage left the positive cone at the minimum step "
                        f"size, h = {h:.6e} ({exc}); rerun with tighter tolerances",
                        time=t,
                    ) from exc
                h = h / 2
                continue
            tol = config.abs_tol + config.rel_tol * max(hs_norm(space.c), hs_norm(c_next))
            accepted = err <= tol
            if accepted:
                result.accepted_steps += 1
                # A step clipped to the sample time lands on it: t + (t_target - t) can round short.
                t = t_target if h == t_target - t else t + h
                space = WeightedSpace(lower_mirrored(c_next, lower), *eig_next)
                k1 = k_next
            else:
                result.rejected_error += 1
            # err == 0 only on acceptance; a NaN estimate is rejected and shrinks by _MIN_SHRINK.
            factor = _MAX_GROWTH if err == 0 else _SAFETY * (tol / err) ** order_exp
            h = h * min(_MAX_GROWTH if accepted else 1.0, max(_MIN_SHRINK, factor))
            if h < _MIN_STEP and not accepted:  # a step clipped to a sample time may be tiny
                raise StepUnderflow(
                    f"step size h = {h:.6e} fell below min_step={_MIN_STEP:g}", time=t, step=h
                )
        t = t_target
        result.samples.append(FlowSample(t, space, k1, hs_norm(space.c - flat)))
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
    order, then trace, det, min_eig, dist_to_flat. ``j`` and ``k`` are each
    zero-padded to the digits of ``n - 1`` (``c_re_0111`` at n = 12), so
    every name is unique; for n <= 10 they are single digits. Floats are
    rendered with ``repr`` so identical runs produce identical bytes.
    """
    n = result.torus.n
    width = len(str(n - 1))
    header = ["t"]
    for j in range(n):
        for k in range(n):
            header += [f"c_re_{j:0{width}}{k:0{width}}", f"c_im_{j:0{width}}{k:0{width}}"]
    header += ["trace", "det", "min_eig", "dist_to_flat"]
    yield header
    for s in result.samples:
        entries = np.ascontiguousarray(s.c).view(float).reshape(-1).tolist()
        yield [repr(s.t), *map(repr, entries), repr(s.trace), repr(s.det), repr(s.min_eig),
               repr(s.dist_to_flat)]


def _sample_to_json(s: FlowSample) -> dict:
    return {
        "t": s.t,
        "c": matrix_to_json(s.c),
        "trace": s.trace,
        "det": s.det,
        "min_eig": s.min_eig,
        "dist_to_flat": s.dist_to_flat,
    }


def trajectory_to_json(result: FlowResult) -> dict:
    """Trajectory (with geometry parameters, run config and integrator stats) as JSON.

    ``config.max_step`` is the explicit phase's step cap; steps after the
    switch to the exponential tail are not capped. The samples are a
    ``LazyDocs``: each sample's document is built when it is read, so the
    writer holds one sample's lists at a time.
    """
    return {
        "n": result.torus.n,
        "m": result.torus.m,
        "config": {
            **asdict(result.config),
            "max_step": _MAX_STEP,
            "min_step": _MIN_STEP,
            "positivity_floor": POSITIVITY_FLOOR,
        },
        "samples": LazyDocs(_sample_to_json, result.samples),
        **result.counters,
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
        return np.eye(n, dtype=complex)
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


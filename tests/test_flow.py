import math
import warnings
from decimal import Decimal, localcontext
from functools import partial

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from fuzzyricci import (
    FlowConfig,
    FlowResult,
    FuzzyTorus,
    InvalidInput,
    InvalidParams,
    MetricDegenerate,
    PositivityLost,
    StepUnderflow,
    random_metric,
    run_flow,
)
from fuzzyricci import flow, linalg
from fuzzyricci.flow import (
    flow_invariants,
    metric_from_spec,
    sample_times,
    trajectory_csv_rows,
    trajectory_to_json,
)
from fuzzyricci.laplace_beltrami import WeightedSpace
from fuzzyricci.linalg import hs_norm, matrix_from_json
from fuzzyricci.torus import RealSplit
from conftest import dense_laplacian, log_metric


# What a trial raises from the stage that left the positive cone.
CONE_EXIT = MetricDegenerate


def patch_trials(monkeypatch, wrap):
    """Route every trial of ``run_flow`` through ``wrap(real, tail, *args, **kwargs)``.

    ``real`` is the trial function wrapped, DP45's or the exponential tail's,
    and ``tail`` tells which. A wrapper that records a cone exit re-raises it.
    """
    for name, tail in (("_dp45_trial", False), ("_etd_trial", True)):
        monkeypatch.setattr(flow, name, partial(wrap, getattr(flow, name), tail))


def flat_tail(torus, kappa):
    """``_etd_trial``'s ``(rates, split)`` as ``run_flow`` builds them: ``L`` past its kernel."""
    full = torus.laplacian_split
    split = RealSplit(full.n, full.eigenvalues[1:], full.eigenvectors[:, 1:])
    return split.eigenvalues / kappa, split


def stage_at(torus, c):
    """A trial stage's metric state, as a ``WeightedSpace``, and its field as ``run_flow``'s."""
    space = WeightedSpace.from_metric(c)
    return space, flow._field(torus, space)


class TestRandomMetric:
    def test_trace_normalized(self):
        for n in (2, 3, 5):
            c = random_metric(n, seed=4)
            assert np.trace(c).real == pytest.approx(n, rel=1e-12)

    def test_hermitian_positive(self):
        c = random_metric(4, seed=9)
        np.testing.assert_allclose(c, c.conj().T, atol=1e-13)
        assert np.linalg.eigvalsh(c).min() > 0

    def test_deterministic(self):
        np.testing.assert_array_equal(random_metric(3, 5), random_metric(3, 5))

    def test_zero_scale_is_flat(self):
        np.testing.assert_allclose(random_metric(3, 0, scale=0.0), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan])
    def test_non_finite_scale_rejected(self, scale):
        # Rejected before the draw, so numpy warns of no inf * 0 or inf / 2.
        with pytest.raises(InvalidParams, match="scale must be finite"):
            random_metric(2, 0, scale=scale)


class TestMetricSpec:
    def test_flat(self):
        np.testing.assert_allclose(metric_from_spec("flat", 3), np.eye(3))

    def test_diag(self):
        np.testing.assert_allclose(
            metric_from_spec("diag:1,3", 2), np.diag([1.0, 3.0])
        )

    def test_diag_wrong_length(self):
        with pytest.raises(InvalidInput):
            metric_from_spec("diag:1,2,3", 2)

    def test_random_forms(self):
        np.testing.assert_array_equal(
            metric_from_spec("random", 2, seed_default=7), random_metric(2, 7)
        )
        np.testing.assert_array_equal(
            metric_from_spec("random:seed=3", 2), random_metric(2, 3)
        )
        np.testing.assert_array_equal(
            metric_from_spec("random:seed=3,scale=0.5", 2), random_metric(2, 3, 0.5)
        )

    def test_json_document(self):
        doc = {"n": 2, "entries": [[1, 0], [0, 0], [0, 0], [2, 0]]}
        np.testing.assert_allclose(metric_from_spec(doc, 2), np.diag([1.0, 2.0]))

    def test_garbage_rejected(self):
        with pytest.raises(InvalidInput):
            metric_from_spec("sphere", 2)
        with pytest.raises(InvalidInput):
            metric_from_spec("random:seed=x", 2)
        with pytest.raises(InvalidInput):
            metric_from_spec("random:sigma=1", 2)


def flow_field(torus, c):
    # The field -L log c that the flow keeps on a one-sample run's only sample.
    return run_flow(torus, c, FlowConfig(t1=0.0)).samples[0].field


class TestFlowField:
    def test_scalar_metric_is_stationary(self, torus2):
        np.testing.assert_allclose(
            flow_field(torus2, 3.0 * np.eye(2)), np.zeros((2, 2)), atol=1e-14
        )

    def test_traceless(self, torus3):
        c = random_metric(3, 1)
        assert abs(np.trace(flow_field(torus3, c))) <= 1e-13

    def test_degenerate_metric_rejected(self, torus2):
        with pytest.raises(MetricDegenerate):
            flow_field(torus2, np.diag([1.0, 0.0]))
        with pytest.raises(MetricDegenerate):
            flow_field(torus2, np.diag([1.0, -0.5]))

    def test_against_hand_computed_commutators(self, torus2):
        # c = diag(1, e): log c = diag(0, 1), and the double commutators give
        # [y,[y,diag(0,1)]] = diag(-1/2, 1/2) while [x,.] vanishes on
        # diagonals, so the field is diag(1/2, -1/2).
        c = np.diag([1.0, np.e])
        np.testing.assert_allclose(
            flow_field(torus2, c), np.diag([0.5, -0.5]), atol=1e-14
        )

    def test_matches_double_commutator_route(self, torus3):
        # Independent evaluation of the same field through raw commutators.
        c = random_metric(3, 2)
        w, v = np.linalg.eigh(c)
        log_c = (v * np.log(w)) @ v.conj().T

        def comm(p, a):
            return p @ a - a @ p

        expected = -(
            comm(torus3.y, comm(torus3.y, log_c))
            + comm(torus3.x, comm(torus3.x, log_c))
        )
        np.testing.assert_allclose(flow_field(torus3, c), expected, atol=1e-12)


class TestFlowStep:
    """The adaptive step routine, driven through ``run_flow``."""

    def test_scalar_fixed_point_exact(self, torus2):
        c = 2.0 * np.eye(2, dtype=complex)
        result = run_flow(torus2, c, FlowConfig(t1=0.5, sample_stride=0.5))
        for s in result.samples:
            np.testing.assert_array_equal(s.c, c)
        # One trial of the full 0.5 stride, accepted with a zero error estimate.
        assert result.accepted_steps == 1 and result.rejected_steps == 0

    def test_trace_conserved_per_step(self, torus3):
        c = random_metric(3, 6)
        result = run_flow(torus3, c, FlowConfig(t1=0.1, sample_stride=0.1))
        tr0 = np.trace(c).real
        for s in result.samples:
            assert abs(s.trace - tr0) <= 1e-12 * tr0

    def test_output_hermitian(self, torus3):
        result = run_flow(torus3, random_metric(3, 6), FlowConfig(t1=0.1, sample_stride=0.1))
        for s in result.samples:
            np.testing.assert_array_equal(s.c, (s.c + s.c.conj().T) / 2)

    def test_oversized_step_gets_halved(self, torus2):
        # A strong log gradient throws wide stages out of the positive cone;
        # the step must come back smaller instead of failing.
        c = np.diag([1e-6, 2.0]).astype(complex)
        result = run_flow(torus2, c, FlowConfig(t1=1.0, sample_stride=1.0))
        assert result.rejected_steps > 0
        assert min(s.min_eig for s in result.samples) > 0
        assert min(np.linalg.eigvalsh(s.c).min() for s in result.samples) > 0

    def test_step_underflow(self, torus2, monkeypatch):
        monkeypatch.setattr(flow, "_MIN_STEP", 0.4)
        config = FlowConfig(t1=1.0, sample_stride=1.0, rel_tol=1e-14, abs_tol=1e-16)
        with pytest.raises(StepUnderflow) as caught:
            run_flow(torus2, random_metric(2, 0), config)
        step = caught.value.step
        assert 0 < step < 0.4
        assert f"h = {step:.6e}" in str(caught.value)

    def test_window_below_min_step_is_one_accepted_step(self, torus2):
        # The step clipped to the 1e-13 window is accepted; the next step's
        # size, below the floor, is no underflow since no trial was rejected.
        config = FlowConfig(t1=1e-13, sample_stride=1e-13)
        result = run_flow(torus2, random_metric(2, 0), config)
        assert [s.t for s in result.samples] == [0.0, 1e-13]
        assert result.accepted_steps == 1 and result.rejected_steps == 0


class TestFlowConfig:
    def test_backward_window_rejected(self):
        with pytest.raises(InvalidParams):
            FlowConfig(t0=1.0, t1=0.0)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(InvalidParams):
            FlowConfig(rel_tol=0.0)
        with pytest.raises(InvalidParams):
            FlowConfig(sample_stride=-1.0)

    def test_sample_times(self):
        ts = sample_times(FlowConfig(t0=0.0, t1=50.0, sample_stride=0.5))
        assert len(ts) == 101 and ts[0] == 0.0 and ts[-1] == 50.0
        ts = sample_times(FlowConfig(t0=0.0, t1=0.25, sample_stride=0.1))
        np.testing.assert_allclose(ts, [0.0, 0.1, 0.2, 0.25])
        assert sample_times(FlowConfig(t0=1.0, t1=1.0)).tolist() == [1.0]
        # A remainder of up to 1e-6 strides moves the last sample onto t1.
        ts = sample_times(FlowConfig(t0=0.0, t1=0.200000000002, sample_stride=1e-3))
        assert len(ts) == 201 and ts[-1] == 0.200000000002
        ts = sample_times(FlowConfig(t0=0.0, t1=0.2 + 1.1e-9, sample_stride=1e-3))  # keeps its own
        assert len(ts) == 202 and ts[-1] == 0.2 + 1.1e-9


class TestRunFlow:
    def test_diag_metric_converges_to_flat(self, torus2):
        result = run_flow(torus2, np.diag([1.0, 3.0]), FlowConfig(t1=50.0))
        assert hs_norm(result.final.c - 2.0 * np.eye(2)) < 1e-6

    def test_scalar_start_stays_scalar(self, torus3):
        alpha = 1.7
        result = run_flow(torus3, alpha * np.eye(3), FlowConfig(t1=5.0))
        for s in result.samples:
            np.testing.assert_array_equal(s.c, alpha * np.eye(3))

    def test_conservation_and_monotonicity(self, torus3):
        result = run_flow(torus3, random_metric(3, 8), FlowConfig(t1=20.0))
        trace0 = result.samples[0].trace
        assert max(abs(s.trace - trace0) for s in result.samples) <= 1e-9 * trace0
        dets = [s.det for s in result.samples]
        assert all(b >= a - 1e-12 * abs(a) for a, b in zip(dets, dets[1:]))
        assert min(s.min_eig for s in result.samples) > 0
        for s in result.samples:
            assert hs_norm(s.c - s.c.conj().T) <= 1e-12 * hs_norm(s.c)

    def test_sampling_grid(self, torus2):
        result = run_flow(torus2, random_metric(2, 1), FlowConfig(t1=2.0, sample_stride=0.5))
        np.testing.assert_allclose(result.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("t0, t1", [(0.05, 0.21), (0.09, 0.34), (1e-9, 2.9e-9)])
    def test_step_clipped_to_a_sample_time_lands_on_it(self, torus2, t0, t1):
        # t0 + (t1 - t0) rounds one ulp short of t1 in these windows; a step
        # left that short would be followed by a ~1e-17 trial and underflow.
        result = run_flow(torus2, np.eye(2), FlowConfig(t0=t0, t1=t1, sample_stride=t1 - t0))
        assert result.times.tolist() == [t0, t1]
        assert (result.accepted_steps, result.rejected_steps, result.tail_trials) == (1, 0, 1)

    def test_tolerance_self_consistency(self, torus3):
        # Integrations at two different tolerances must land on the same
        # endpoint well within the looser tolerance's global error budget.
        c0 = random_metric(3, 3)
        loose = run_flow(torus3, c0, FlowConfig(t1=5.0, rel_tol=1e-8, abs_tol=1e-10))
        tight = run_flow(torus3, c0, FlowConfig(t1=5.0, rel_tol=1e-10, abs_tol=1e-12))
        assert hs_norm(loose.final.c - tight.final.c) < 1e-6

    def test_rejections_recovered(self, torus3):
        # A rough metric at a loose tolerance forces rejected trial steps;
        # the run must still finish with valid samples.
        result = run_flow(
            torus3, random_metric(3, 0, scale=2.0), FlowConfig(t1=50.0)
        )
        assert result.rejected_steps > 0
        assert min(s.min_eig for s in result.samples) > 0

    def test_eigendecomposition_budget(self, monkeypatch):
        # Six per DP45 trial (stages 2-7; stage 7 at the candidate state is
        # also its positivity check, its sample and the next step's stage 1),
        # five per tail trial (stages a, b, c, the embedded full-step stage
        # and the candidate state, which plays the same roles) and one at
        # start-up; samples reuse the integrator's states. The count is taken
        # at numpy's eigh, which every route calls, so no route can hide a call.
        c0 = random_metric(3, 0, scale=2.0)
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append((np.shape(a)[0], np.isrealobj(a)))
            return real_eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)

        # L is applied once per field: six per completed DP45 trial, five per
        # completed tail trial (a tail trial reads its linear part from L's
        # eigenbasis), and once at start-up.
        applies = []
        real_apply = FuzzyTorus.laplacian_apply

        def counting_apply(self, a, **kwargs):
            applies.append(np.shape(a))
            return real_apply(self, a, **kwargs)

        monkeypatch.setattr(FuzzyTorus, "laplacian_apply", counting_apply)

        # A trial that a stage outside the cone ends early costs fewer, so the
        # bound alone leaves room for per-sample calls; count each trial's
        # calls and require, outside all trials, exactly one metric state
        # (start-up) and one decomposition of the flat L's real 9 x 9 form on
        # Hermitian matrices (the switch to the exponential tail).
        per_trial = []
        in_trials = set()

        def counting_trial(real, tail, *args, **kwargs):
            eigs_before, applies_before = len(calls), len(applies)
            left_cone = False
            try:
                return real(*args, **kwargs)
            except CONE_EXIT:
                left_cone = True
                raise
            finally:
                in_trials.update(range(eigs_before, len(calls)))
                per_trial.append(
                    (len(calls) - eigs_before, len(applies) - applies_before, left_cone, tail)
                )

        patch_trials(monkeypatch, counting_trial)
        # A torus of its own: the shared fixture may hold a cached decomposition of L.
        result = run_flow(FuzzyTorus(3, 1), c0, FlowConfig(t1=5.0))
        trials = result.accepted_steps + result.rejected_steps
        assert result.rejected_steps > 0
        assert result.switch_time is not None and 0 < result.switch_time < 5.0
        assert len(per_trial) == trials
        assert all(
            k == (5 if tail else 6) or (left_cone and 1 <= k < (5 if tail else 6))
            for k, _, left_cone, tail in per_trial
        )
        assert len(calls) - sum(k for k, _, _, _ in per_trial) == 2
        outside = sorted(call for i, call in enumerate(calls) if i not in in_trials)
        assert outside == [(3, False), (9, True)]
        assert trials + 2 <= len(calls) <= 6 * trials + 2

        completed = [(k, tail) for _, k, left_cone, tail in per_trial if not left_cone]
        assert {tail for _, tail in completed} == {False, True}
        assert all(k == (5 if tail else 6) for k, tail in completed)
        assert len(applies) - sum(k for _, k, _, _ in per_trial) == 1

    def test_eigendecompositions_count_every_metric_eigh(self, monkeypatch):
        # The counter is the start-up metric plus every stage that reaches
        # eigh: each field, and each stage that eigh puts below the floor.
        # It is taken from numpy's complex eigh calls, as the budget above
        # counts them; the flat L's real block at the switch is not one.
        c0 = random_metric(3, 0, scale=2.0)
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(np.isrealobj(a))
            return real_eigh(a)

        below_floor = []
        real_check = flow.check_positive

        def counting_check(w):
            try:
                real_check(w)
            except MetricDegenerate:
                below_floor.append(float(w[0]))
                raise

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(flow, "check_positive", counting_check)
        result = run_flow(FuzzyTorus(3, 1), c0, FlowConfig(t1=5.0))
        assert result.switch_time is not None and len(below_floor) > 0
        assert result.rejected_cone >= len(below_floor)
        assert result.eigendecompositions == result.field_evaluations + len(below_floor)
        assert result.eigendecompositions == calls.count(False)
        assert calls.count(True) == 1
        assert result.counters["eigendecompositions"] == result.eigendecompositions

    def test_field_evaluations_count_every_field(self, torus3, monkeypatch):
        # One field at start-up, then one per stage that stays in the cone:
        # six per completed DP45 trial, five per completed tail trial, fewer
        # in a trial that a stage outside the cone ends. Every one of them is
        # computed by flow._field, the patch point that tests of the stages use.
        applies, fields, per_trial = [], [], []
        real_apply = FuzzyTorus.laplacian_apply
        real_field = flow._field

        def counting_apply(self, a, **kwargs):
            applies.append(np.shape(a))
            return real_apply(self, a, **kwargs)

        def counting_field(torus, space):
            fields.append(space)
            return real_field(torus, space)

        def counting_trial(real, tail, *args, **kwargs):
            before = len(applies)
            left_cone = False
            try:
                return real(*args, **kwargs)
            except CONE_EXIT:
                left_cone = True
                raise
            finally:
                per_trial.append((len(applies) - before, left_cone, tail))

        monkeypatch.setattr(FuzzyTorus, "laplacian_apply", counting_apply)
        monkeypatch.setattr(flow, "_field", counting_field)
        patch_trials(monkeypatch, counting_trial)
        for spread in (-1.0, flow._TAIL_SPREAD):  # a run that never switches, then one that does
            monkeypatch.setattr(flow, "_TAIL_SPREAD", spread)
            for calls in (applies, fields, per_trial):
                calls.clear()
            result = run_flow(torus3, random_metric(3, 0, scale=2.0), FlowConfig(t1=5.0))
            reaches_tail = spread > 0
            assert result.rejected_cone > 0 and (result.switch_time is not None) == reaches_tail
            assert result.field_evaluations == len(fields) == len(applies)
            assert len(fields) == 1 + sum(k for k, _, _ in per_trial)
            # The tail trials are the last ones: the switch is for good.
            tails = [tail for _, _, tail in per_trial]
            assert 0 < result.tail_trials < len(tails) if reaches_tail else result.tail_trials == 0
            switch = len(tails) - result.tail_trials
            assert tails == [False] * switch + [True] * result.tail_trials
            for k, left_cone, tail in per_trial:
                full = 5 if tail else 6
                assert k < full if left_cone else k == full

    def test_trials_are_accepted_or_rejected_by_one_cause(self, torus3, monkeypatch):
        # Every trial step ends in exactly one of: accepted, rejected on its
        # error estimate, rejected because a stage left the cone.
        # A trial is accepted when its error estimate is within the tolerance
        # at the larger of its start and end states.
        outcomes = []
        config = FlowConfig(t1=5.0)

        def counting_trial(real, tail, evaluate, c, k1, h, **kwargs):
            try:
                trial = real(evaluate, c, k1, h, **kwargs)
            except CONE_EXIT:
                outcomes.append("cone")
                raise
            c_next, _ = trial[0]  # run_flow keeps a stage as its matrix and eigh's result
            tol = config.abs_tol + config.rel_tol * max(hs_norm(c), hs_norm(c_next))
            outcomes.append("ok" if trial[2] <= tol else "error")
            return trial

        patch_trials(monkeypatch, counting_trial)
        result = run_flow(torus3, random_metric(3, 0, scale=2.0), config)
        assert result.rejected_error > 0 and result.rejected_cone > 0
        assert result.rejected_steps == result.rejected_error + result.rejected_cone
        assert (
            result.accepted_steps + result.rejected_error + result.rejected_cone
            == len(outcomes)
        )
        assert outcomes.count("ok") == result.accepted_steps
        assert outcomes.count("error") == result.rejected_error
        assert outcomes.count("cone") == result.rejected_cone

    def test_only_a_cone_exit_is_retried(self, monkeypatch):
        # A stage error other than a cone exit leaves run_flow as it is: the
        # trial is not counted as rejected_cone and not retried smaller. eigh
        # call 1 is start-up; the first trial leaves the cone at call 4, and
        # call 5 is the first stage of its retry at half the step.
        c0 = random_metric(3, 0, scale=2.0)
        calls = []
        real_eigh = np.linalg.eigh

        def failing_eigh(a):
            calls.append(a)
            if len(calls) == 5:
                raise np.linalg.LinAlgError("eigh did not converge")
            return real_eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        cone_exits = []

        def counting_trial(real, tail, *args, **kwargs):
            try:
                return real(*args, **kwargs)
            except CONE_EXIT:
                cone_exits.append(tail)
                raise

        patch_trials(monkeypatch, counting_trial)
        with pytest.raises(np.linalg.LinAlgError):
            run_flow(FuzzyTorus(3, 1), c0, FlowConfig(t1=5.0))
        assert len(calls) == 5 and cone_exits == [False]

    @pytest.mark.parametrize("entry", [(2, 0), (1, 1)], ids=["lower-off-diagonal", "diagonal"])
    def test_a_non_finite_stage_is_a_cone_exit(self, torus3, monkeypatch, entry):
        # A NaN below the diagonal makes eigh raise LinAlgError, and one on
        # the diagonal can leave the least eigenvalue finite; either way the
        # stage has left the cone, and its trial is retried at half the step.
        # Trial 10's second stage gets a field with a NaN at ``entry``, so
        # its third stage state holds one there.
        trials = []

        def poisoning_trial(real, tail, evaluate, c, k1, h, **kwargs):
            index = len(trials)
            trials.append([h, False, False])

            def poisoned_evaluate(state):
                space, k = evaluate(state)
                if index == 10 and not trials[index][2]:
                    k, trials[index][2] = k.copy(), True
                    k[entry] = np.nan
                return space, k

            try:
                return real(poisoned_evaluate, c, k1, h, **kwargs)
            except CONE_EXIT:
                trials[index][1] = True
                raise

        patch_trials(monkeypatch, poisoning_trial)
        result = run_flow(torus3, random_metric(3, 4), FlowConfig(t1=0.5))
        h, left_cone, poisoned = trials[10]
        assert poisoned and left_cone and trials[11][0] == h / 2
        assert result.rejected_cone == sum(cone for _, cone, _ in trials)

    @pytest.mark.parametrize(
        "value, reason",
        [(np.nan, "stage state is not finite"), (-1e30, "metric is not positive definite")],
        ids=["non-finite", "below-the-floor"],
    )
    def test_positivity_lost_names_its_stage_and_step(self, torus3, monkeypatch, value, reason):
        # A field that is NaN, or far outside the flow's scale, pushes every
        # stage out of the cone down to the minimum step; the error is raised
        # from the last stage's and says why and at which h.
        monkeypatch.setattr(flow, "_field", lambda torus, space: value * np.eye(3, dtype=complex))
        with pytest.raises(PositivityLost) as caught:
            run_flow(torus3, random_metric(3, 4), FlowConfig(t1=0.5))
        cause = caught.value.__cause__
        assert isinstance(cause, MetricDegenerate) and str(cause).startswith(reason)
        h = 0.5 / 2 ** math.ceil(math.log2(0.5 / 2e-12))  # the first halving below 2e-12
        assert f"h = {h:.6e} ({cause})" in str(caught.value)
        assert caught.value.time == 0.0

    def test_sample_space_matches_fresh_decomposition(self, torus3):
        result = run_flow(torus3, random_metric(3, 4), FlowConfig(t1=2.0, sample_stride=0.25))
        for s in result.samples:
            fresh = WeightedSpace.from_metric(s.c)
            np.testing.assert_array_equal(s.space.eigenvalues, fresh.eigenvalues)
            np.testing.assert_array_equal(s.space.c_invsqrt, fresh.c_invsqrt)
            np.testing.assert_array_equal(log_metric(s.space), log_metric(fresh))

    @pytest.mark.parametrize("t1, samples", [(2.0, 9), (0.0, 1)])
    def test_sample_field_is_the_field_at_its_state(self, torus3, t1, samples):
        result = run_flow(torus3, random_metric(3, 4), FlowConfig(t1=t1, sample_stride=0.25))
        assert len(result.samples) == samples
        for s in result.samples:
            np.testing.assert_array_equal(
                s.field, -torus3.laplacian_apply(log_metric(s.space), hermitian=True)
            )

    @pytest.mark.parametrize(
        "n, m, c0, t1",
        [
            (16, 1, random_metric(16, 0), 20.0),
            (4, 1, np.diag([1.0, 2.0, 3.0, 4.0]), 50.0),  # flat point 2.5 I, deep in the tail
            (5, 2, random_metric(5, 3), 20.0),
        ],
        ids=["16-1-0", "4-1-diag", "5-2-3"],
    )
    def test_every_field_is_exactly_hermitian(self, n, m, c0, t1, monkeypatch):
        # At every sample and every stage, in both phases.
        fields = []

        def recording_field(torus, eig):
            fields.append(real(torus, eig))
            return fields[-1]

        real = flow._field
        monkeypatch.setattr(flow, "_field", recording_field)
        result = run_flow(FuzzyTorus(n, m), c0, FlowConfig(t1=t1))
        assert result.switch_time is not None
        assert len(fields) == result.field_evaluations
        for f in fields + [s.field for s in result.samples]:
            np.testing.assert_array_equal(f, f.conj().T)

    def test_flow_invariants(self, torus3):
        result = run_flow(torus3, random_metric(3, 8), FlowConfig(t1=5.0))
        drift, drop = flow_invariants(result)
        trace0 = result.samples[0].trace
        assert drift == max(abs(s.trace - trace0) for s in result.samples) / trace0
        assert drift <= 1e-9
        dets = [s.det for s in result.samples]
        assert drop == max(max(a - b, 0.0) / a for a, b in zip(dets, dets[1:]))
        assert drop <= 1e-12

    def test_flow_invariants_single_sample(self, torus2):
        result = run_flow(torus2, random_metric(2, 1), FlowConfig(t0=1.0, t1=1.0))
        assert len(result.samples) == 1
        assert flow_invariants(result) == (0.0, 0.0)

    def test_wrong_size_metric_rejected(self, torus2):
        with pytest.raises(InvalidInput):
            run_flow(torus2, np.eye(3), FlowConfig(t1=1.0))

    def test_degenerate_start_rejected(self, torus2):
        with pytest.raises(MetricDegenerate):
            run_flow(torus2, np.diag([1.0, 0.0]), FlowConfig(t1=1.0))

    def test_dist_to_flat_uses_initial_trace(self, torus2):
        result = run_flow(torus2, np.diag([1.0, 3.0]), FlowConfig(t1=50.0))
        assert result.final.dist_to_flat == hs_norm(result.final.c - 2.0 * np.eye(2))


# The Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980), written out here so that the trial is checked against the published
# coefficients rather than against its own.
DP_NODES = [1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0]
DP_A = [
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
]
DP_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
DP_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]


def near_flat_metric(n, m, kappa, eps):
    """``kappa I + eps B`` for a seeded traceless Hermitian ``B`` of unit norm."""
    rng = np.random.default_rng(n + 10 * m)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = (g + g.conj().T) / 2
    b -= (np.trace(b).real / n) * np.eye(n)
    return kappa * np.eye(n) + eps * b / hs_norm(b)


class TestExplicitTrial:
    """The DP45 trial of the explicit phase, against the published tableau."""

    # A DP45 stage state is decomposed without a Hermiticity check, so its
    # defect is bounded here instead: 16 eps relative to its norm. Over these
    # four inputs run to t1 = 20 (21k stages) the largest defect was 1.92 eps;
    # the runtime check this replaces allowed 1e-10.
    @pytest.mark.parametrize("n, m, seed", [(16, 1, 0), (5, 2, 3), (8, 3, 2), (12, 11, 3)])
    def test_stage_defect_is_roundoff(self, n, m, seed, monkeypatch):
        defects = []

        def recording_trial(real, tail, evaluate, *args, **kwargs):
            def recording_evaluate(c):
                defects.append(hs_norm(c - c.conj().T) / hs_norm(c))
                return evaluate(c)

            return real(recording_evaluate, *args, **kwargs)

        patch_trials(monkeypatch, recording_trial)
        result = run_flow(FuzzyTorus(n, m), random_metric(n, seed), FlowConfig(t1=1.0))
        assert len(defects) >= result.field_evaluations - 1 > 1000
        assert max(defects) <= 16 * np.finfo(float).eps

    def test_rows_sum_to_the_nodes(self):
        assert len(flow._DP_A) == len(DP_NODES)
        for row, node in zip(flow._DP_A, DP_NODES):
            assert math.fsum(row) == pytest.approx(node, rel=1e-15)

    def test_weights_sum_to_one(self):
        assert math.fsum(flow._DP_B5) == pytest.approx(1.0, rel=1e-15)
        assert math.fsum(flow._DP_B4) == pytest.approx(1.0, rel=1e-15)
        # The seventh stage sits at the candidate, so it is the next trial's first.
        assert flow._DP_B5[-1] == 0.0

    def test_trial_is_the_tableau(self):
        # Fields drawn at random, one per stage, so nothing cancels in the
        # sums and a wrong coefficient shows in every quantity.
        n, h = 4, 0.01
        c = random_metric(n, 1, scale=0.3)
        g = linalg.gaussian_matrices(np.random.default_rng(5), 7, n)
        fields = [(a + a.conj().T) / hs_norm(a + a.conj().T) for a in g]
        states = []

        def evaluate(state):
            states.append(state)
            return WeightedSpace.from_metric(state), fields[len(states)]

        space, k_next, error = flow._dp45_trial(evaluate, c, fields[0], h)
        increments = [
            h * sum(a * k for a, k in zip(row, fields)) for row in [*DP_A, DP_B5]
        ]
        assert len(states) == len(increments) == 6
        for state, increment in zip(states, increments):
            assert hs_norm(state - c - increment) <= 1e-13 * hs_norm(increment)
        # from_metric keeps the triangle eigh read, mirrored, with a real diagonal.
        last = states[-1]
        mirrored = np.tril(last) + np.tril(last, -1).conj().T
        np.fill_diagonal(mirrored, last.diagonal().real)
        np.testing.assert_array_equal(space.c, mirrored)
        assert k_next is fields[6]
        expected = h * hs_norm(sum((b5 - b4) * k for b5, b4, k in zip(DP_B5, DP_B4, fields)))
        assert error == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("eps", [0.2, 0.5])
    def test_fixed_steps_converge_at_fifth_order(self, eps):
        # DP45 at fixed steps over [0, 1/2] from kappa I + eps B at n=4, the
        # controller bypassed, against scipy's DOP853 at rtol 1e-13: halving h
        # from 1/16 must cut the error by 2^4.5 or more (2^5 for fifth order).
        torus = FuzzyTorus(4, 1)
        c0 = near_flat_metric(4, 1, 1.3, eps)
        evaluate = partial(stage_at, torus)

        def fixed_steps(steps):
            space = WeightedSpace.from_metric(c0)
            k = flow._field(torus, space)
            for _ in range(steps):
                space, k, _ = flow._dp45_trial(evaluate, space.c, k, 0.5 / steps)
            return space.c

        def field(t, c):
            return evaluate(c.reshape(4, 4))[1].reshape(-1)

        solution = solve_ivp(field, (0.0, 0.5), c0.reshape(-1), "DOP853", rtol=1e-13, atol=1e-15)
        reference = solution.y[:, -1].reshape(4, 4)
        errors = [hs_norm(fixed_steps(steps) - reference) for steps in (8, 16, 32)]
        assert errors[-1] < 1e-9
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 2**4.5


class TestExponentialTail:
    """The near-flat tail, integrated with exponential Runge-Kutta on e^{-sL/kappa}."""

    @pytest.mark.parametrize("n, m", [(4, 1), (5, 2)])
    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_near_flat_start_follows_the_heat_flow(self, n, m, eps, monkeypatch):
        # From kappa I + eps B the flow is the heat flow exp(-tL/kappa) up to
        # O(eps^2); the factor integrates that part exactly, so unit steps
        # are all accepted.
        torus = FuzzyTorus(n, m)
        kappa = 1.3
        rng = np.random.default_rng(n + 10 * m)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = (g + g.conj().T) / 2
        b -= (np.trace(b).real / n) * np.eye(n)
        b /= hs_norm(b)
        c0 = kappa * np.eye(n) + eps * b
        # A wrong factor shows as rejected steps; a large minimum step makes it fail fast.
        monkeypatch.setattr(flow, "_MIN_STEP", 0.1)
        result = run_flow(torus, c0, FlowConfig(t1=10.0, sample_stride=1.0))
        assert result.switch_time == 0.0
        assert result.accepted_steps == 10 and result.rejected_steps == 0
        lap = dense_laplacian(torus)
        for s in result.samples:
            heat = (expm(-s.t * lap / kappa) @ (eps * b).reshape(-1)).reshape(n, n)
            assert hs_norm(s.c - (kappa * np.eye(n) + heat)) <= eps**2

    @pytest.mark.parametrize("n, m, eps", [(4, 1, 0.05), (5, 2, 0.05), (4, 1, 0.5)])
    def test_fixed_steps_converge_at_fourth_order(self, n, m, eps):
        # ETDRK4 at fixed steps over [0, 1/2] from kappa I + eps B, against
        # scipy's DOP853 at rtol 1e-13: halving h from 1/32 must cut the
        # error by 2^3.5 or more (2^4 for fourth order). Near the flat point
        # the remainder is nearly linear, so the start far from it is what
        # shows a stage that is only accurate to low order. The reference is
        # scipy's integrator, not the package's DP45, so a wrong DP45 weight
        # cannot slow or skew it.
        torus = FuzzyTorus(n, m)
        kappa = 1.3
        c0 = near_flat_metric(n, m, kappa, eps)
        tail = flat_tail(torus, kappa)

        evaluate = partial(stage_at, torus)

        def fixed_steps(steps):
            space = WeightedSpace.from_metric(c0)
            k = flow._field(torus, space)
            h = 0.5 / steps
            for _ in range(steps):
                space, k, _ = flow._etd_trial(evaluate, space.c, k, h, *tail)
            return space.c

        def field(t, c):
            return evaluate(c.reshape(n, n))[1].reshape(-1)

        solution = solve_ivp(field, (0.0, 0.5), c0.reshape(-1), "DOP853", rtol=1e-13, atol=1e-15)
        reference = solution.y[:, -1].reshape(n, n)
        errors = [hs_norm(fixed_steps(steps) - reference) for steps in (16, 32, 64)]
        assert errors[-1] < 1e-9
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 2**3.5

    @pytest.mark.parametrize(
        "n, m",
        [(n, m) for n in range(2, 9) for m in range(1, n) if np.gcd(m, n) == 1] + [(12, 7)],
    )
    def test_stage_states_are_exactly_hermitian(self, n, m, monkeypatch):
        torus = FuzzyTorus(n, m)
        kappa = 1.3
        g = random_metric(n, n + 10 * m) - np.eye(n)
        space = WeightedSpace.from_metric(kappa * np.eye(n) + 1e-2 * g / hs_norm(g))
        tail = flat_tail(torus, kappa)
        states = []

        def recording_evaluate(c):
            states.append(c)
            return stage_at(torus, c)

        trial = flow._etd_trial(recording_evaluate, space.c, flow._field(torus, space), 0.1, *tail)
        assert len(trial) == 3 and len(states) == 5
        for c in states:
            np.testing.assert_array_equal(c, c.conj().T)

        # The explicit phase: a DP45 stage state is Hermitian only up to
        # roundoff, and eigh reads its lower triangle, unchecked. So every
        # accepted state, the start of the next trial, must be exactly
        # Hermitian, mirrored from that triangle.
        starts = []

        def recording_trial(real, tail, evaluate, c, *args, **kwargs):
            starts.append((tail, c))
            return real(evaluate, c, *args, **kwargs)

        patch_trials(monkeypatch, recording_trial)
        result = run_flow(torus, random_metric(n, n + 10 * m), FlowConfig(t1=0.05))
        explicit = [c for tail, c in starts if not tail]
        assert len(explicit) > 2
        for c in explicit + [s.c for s in result.samples]:
            np.testing.assert_array_equal(c, c.conj().T)

    def test_agrees_with_the_explicit_run(self, monkeypatch):
        torus = FuzzyTorus(8, 3)
        c0 = random_metric(8, 2)
        config = FlowConfig(t1=50.0)
        switched = run_flow(torus, c0, config)
        monkeypatch.setattr(flow, "_TAIL_SPREAD", -1.0)  # never switches
        explicit = run_flow(torus, c0, config)
        assert explicit.switch_time is None
        assert switched.switch_time is not None
        assert switched.accepted_steps <= 1000 < explicit.accepted_steps
        for a, b in zip(switched.samples, explicit.samples):
            assert a.t == b.t
            assert hs_norm(a.c - b.c) <= 1e-9 * hs_norm(b.c)
            if a.t <= switched.switch_time:
                np.testing.assert_array_equal(a.c, b.c)


def phi_reference(z: float, k: int) -> Decimal:
    """phi_k(z) to 50 digits: its Taylor series where |z| <= 1, else the closed form."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(z)
        if abs(x) <= 1:
            return 1 / Decimal(math.factorial(k)) + sum(
                x**j / math.factorial(j + k) for j in range(1, 60)
            )
        return (x.exp() - sum(x**j / math.factorial(j) for j in range(k))) / x**k


PHI_POINTS = [0.0, -1e-12, -1e-3, -0.999999, -1.0, -1.000001, -10.0, -342.0, -1e4, -1e300]


def test_phi_functions_match_a_50_digit_reference():
    # All points in one array, so a formula evaluated on every lane (a
    # Taylor sum at -1e300, say) would overflow here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phis = flow._phi_functions(np.array(PHI_POINTS))
    for k, phi in enumerate(phis, start=1):
        assert phi[0] == 1 / math.factorial(k)
        for z, value in zip(PHI_POINTS, phi):
            exact = phi_reference(z, k)
            assert abs(Decimal(float(value)) - exact) <= Decimal("1e-15") * abs(exact), (k, z)


@pytest.fixture(scope="module")
def result(torus2):
    return run_flow(torus2, random_metric(2, 5), FlowConfig(t1=1.0, sample_stride=0.5))


class TestTrajectorySerialization:
    def test_csv_shape(self, result):
        rows = list(trajectory_csv_rows(result))
        assert rows[0] == [
            "t",
            "c_re_00", "c_im_00", "c_re_01", "c_im_01",
            "c_re_10", "c_im_10", "c_re_11", "c_im_11",
            "trace", "det", "min_eig", "dist_to_flat",
        ]
        assert len(rows) == 1 + len(result.samples)
        assert float(rows[1][0]) == 0.0 and float(rows[-1][0]) == 1.0

    @pytest.mark.parametrize("n", [2, 10, 12, 16])
    def test_csv_header_names_each_entry_once(self, n):
        # Unpadded, (1, 11) and (11, 1) would both be c_re_111 at n = 12.
        header = next(trajectory_csv_rows(FlowResult(FuzzyTorus(n), FlowConfig())))
        for part in ("c_re_", "c_im_"):
            digits = [name[len(part):] for name in header if name.startswith(part)]
            assert all(len(d) % 2 == 0 for d in digits)
            pairs = [(int(d[: len(d) // 2]), int(d[len(d) // 2 :])) for d in digits]
            assert pairs == [(j, k) for j in range(n) for k in range(n)]

    def test_csv_round_trips_metric(self, result):
        rows = list(trajectory_csv_rows(result))
        entries = [float(x) for x in rows[-1][1:9]]
        c = np.array(
            [complex(entries[2 * i], entries[2 * i + 1]) for i in range(4)]
        ).reshape(2, 2)
        np.testing.assert_array_equal(c, result.final.c)

    def test_json_round_trips_metric(self, result):
        doc = trajectory_to_json(result)
        assert doc["n"] == 2 and doc["m"] == 1
        assert len(doc["samples"]) == len(result.samples)
        np.testing.assert_array_equal(
            matrix_from_json(doc["samples"][-1]["c"]), result.final.c
        )
        assert doc["config"]["sample_stride"] == 0.5
        assert result.config == FlowConfig(t1=1.0, sample_stride=0.5)

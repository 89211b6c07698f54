import numpy as np
import pytest

from fuzzyricci import (
    FlowConfig,
    InvalidInput,
    InvalidParams,
    MetricDegenerate,
    StepUnderflow,
    random_metric,
    run_flow,
)
from fuzzyricci import cli, flow, laplace_beltrami, linalg, tracking, verify
from fuzzyricci.flow import (
    flat_metric,
    flow_invariants,
    metric_from_spec,
    sample_times,
    trajectory_csv_rows,
    trajectory_to_json,
)
from fuzzyricci.laplace_beltrami import WeightedSpace
from fuzzyricci.linalg import hs_norm, matrix_from_json


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

    def test_step_underflow(self, torus2):
        config = FlowConfig(
            t1=1.0, sample_stride=1.0, rel_tol=1e-14, abs_tol=1e-16, min_step=0.4
        )
        with pytest.raises(StepUnderflow):
            run_flow(torus2, random_metric(2, 0), config)


class TestFlowConfig:
    def test_backward_window_rejected(self):
        with pytest.raises(InvalidParams):
            FlowConfig(t0=1.0, t1=0.0)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(InvalidParams):
            FlowConfig(rel_tol=0.0)
        with pytest.raises(InvalidParams):
            FlowConfig(min_step=0.0)
        with pytest.raises(InvalidParams):
            FlowConfig(sample_stride=-1.0)

    def test_sample_times(self):
        ts = sample_times(FlowConfig(t0=0.0, t1=50.0, sample_stride=0.5))
        assert len(ts) == 101 and ts[0] == 0.0 and ts[-1] == 50.0
        ts = sample_times(FlowConfig(t0=0.0, t1=0.25, sample_stride=0.1))
        np.testing.assert_allclose(ts, [0.0, 0.1, 0.2, 0.25])
        assert sample_times(FlowConfig(t0=1.0, t1=1.0)).tolist() == [1.0]


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

    def test_eigendecomposition_budget(self, torus3, monkeypatch):
        # Six per trial (stages 2-7; stage 7 at the candidate state is also
        # its positivity check, its sample and the next step's stage 1) and
        # one at start-up; samples reuse the integrator's states. Every module
        # binding hermitian_eig is patched, so no route can hide a call.
        c0 = random_metric(3, 0, scale=2.0)
        calls = []
        real_eig = linalg.hermitian_eig

        def counting_eig(a):
            calls.append(1)
            return real_eig(a)

        modules = [cli, flow, laplace_beltrami, linalg, tracking, verify]
        patched = [m for m in modules if vars(m).get("hermitian_eig") is real_eig]
        assert laplace_beltrami in patched and linalg in patched
        for module in patched:
            monkeypatch.setattr(module, "hermitian_eig", counting_eig)

        # A trial that a stage outside the cone ends early costs fewer than
        # six, so the bound alone leaves room for per-sample calls; count
        # each trial's calls and require exactly one outside all trials.
        per_trial = []
        real_trial = flow._trial_step

        def counting_trial(*args):
            before = len(calls)
            trial = real_trial(*args)
            per_trial.append((len(calls) - before, trial is None))
            return trial

        monkeypatch.setattr(flow, "_trial_step", counting_trial)
        result = run_flow(torus3, c0, FlowConfig(t1=5.0))
        trials = result.accepted_steps + result.rejected_steps
        assert result.rejected_steps > 0
        assert len(per_trial) == trials
        assert all(k == 6 or (left_cone and k >= 1) for k, left_cone in per_trial)
        assert len(calls) - sum(k for k, _ in per_trial) == 1
        assert trials + 1 <= len(calls) <= 6 * trials + 1

    def test_sample_space_matches_fresh_decomposition(self, torus3):
        result = run_flow(torus3, random_metric(3, 4), FlowConfig(t1=2.0, sample_stride=0.25))
        for s in result.samples:
            fresh = WeightedSpace.from_metric(s.c)
            np.testing.assert_array_equal(s.space.eigenvalues, fresh.eigenvalues)
            np.testing.assert_array_equal(s.space.c_invsqrt, fresh.c_invsqrt)
            np.testing.assert_array_equal(s.space.log, fresh.log)

    @pytest.mark.parametrize("t1, samples", [(2.0, 9), (0.0, 1)])
    def test_sample_field_is_the_field_at_its_state(self, torus3, t1, samples):
        result = run_flow(torus3, random_metric(3, 4), FlowConfig(t1=t1, sample_stride=0.25))
        assert len(result.samples) == samples
        for s in result.samples:
            np.testing.assert_array_equal(s.field, -torus3.laplacian_apply(s.space.log))

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

    def test_csv_round_trips_metric(self, result):
        rows = list(trajectory_csv_rows(result))
        entries = [float(x) for x in rows[-1][1:9]]
        c = np.array(
            [complex(entries[2 * i], entries[2 * i + 1]) for i in range(4)]
        ).reshape(2, 2)
        np.testing.assert_array_equal(c, result.final.c)

    def test_json_round_trips_metric(self, result):
        doc = trajectory_to_json(result, FlowConfig(t1=1.0, sample_stride=0.5))
        assert doc["n"] == 2 and doc["m"] == 1
        assert len(doc["samples"]) == len(result.samples)
        np.testing.assert_array_equal(
            matrix_from_json(doc["samples"][-1]["c"]), result.final.c
        )
        assert doc["config"]["sample_stride"] == 0.5


def test_flat_metric_helper():
    np.testing.assert_allclose(flat_metric(3), np.eye(3))
    np.testing.assert_allclose(flat_metric(2, trace=6.0), 3.0 * np.eye(2))

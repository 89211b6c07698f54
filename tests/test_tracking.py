import dataclasses

import numpy as np
import pytest

from fuzzyricci import (
    FlowConfig,
    FuzzyRicciError,
    FuzzyTorus,
    InsufficientData,
    InvalidInput,
    first_variation_report,
    lb_spectrum,
    random_metric,
    run_flow,
    track_spectrum,
)
from fuzzyricci import laplace_beltrami, linalg, tracking
from fuzzyricci.laplace_beltrami import WeightedSpace
from fuzzyricci.linalg import hs_norm
from fuzzyricci.tracking import (
    curves_csv_rows,
    fd_derivative,
    match_eigenpairs,
    report_to_json,
    variation_rhs,
    variation_rhs_state_form,
)


def sample_at(torus, c):
    # The flow sample at c: its metric state and its field -L log c.
    return run_flow(torus, c, FlowConfig(t1=0.0)).samples[0]


@pytest.fixture(scope="module")
def short_run(torus2):
    c0 = random_metric(2, 7)
    config = FlowConfig(t0=0.0, t1=0.05, rel_tol=1e-10, abs_tol=1e-12, sample_stride=1e-3)
    trajectory = run_flow(torus2, c0, config)
    curves = track_spectrum(trajectory)
    return trajectory, curves


class TestMatching:
    def test_identical_spectra(self, torus2):
        vectors = lb_spectrum(torus2, random_metric(2, 1)).vectors_flat
        match = match_eigenpairs(vectors, vectors)
        np.testing.assert_array_equal(match.permutation, np.arange(4))
        np.testing.assert_allclose(match.phases, np.ones(4), atol=1e-12)
        np.testing.assert_allclose(match.overlaps, np.ones(4), atol=1e-12)
        assert not match.degenerate.any()

    def test_swapped_vectors_recovered(self, torus2):
        vectors = lb_spectrum(torus2, random_metric(2, 1)).vectors_flat
        swapped = vectors[[0, 3, 2, 1]]
        match = match_eigenpairs(vectors, swapped)
        np.testing.assert_array_equal(match.permutation, [0, 3, 2, 1])

    def test_phase_rotation_recovered(self, torus2):
        vectors = lb_spectrum(torus2, random_metric(2, 1)).vectors_flat
        theta = 0.83
        rotated = np.exp(1j * theta) * vectors
        match = match_eigenpairs(vectors, rotated)
        np.testing.assert_allclose(match.phases, np.exp(-1j * theta) * np.ones(4), atol=1e-12)
        # Applying the phases makes the overlap real positive again.
        for i in range(4):
            fixed = match.phases[i] * rotated[i]
            overlap = np.vdot(vectors[i].reshape(-1), fixed.reshape(-1))
            assert overlap.real > 0.99 and abs(overlap.imag) < 1e-12

    def test_dimension_mismatch(self, torus2, torus3):
        a = lb_spectrum(torus2, np.eye(2)).vectors_flat
        b = lb_spectrum(torus3, np.eye(3)).vectors_flat
        with pytest.raises(InvalidInput):
            match_eigenpairs(a, b)


class TestFiniteDifferences:
    def test_exact_on_quadratics(self):
        t = np.linspace(0.0, 1.0, 11)
        # Curves are columns, as in a report: each is differentiated along time.
        values = np.stack([2.5 * t**2 - 1.2 * t + 0.3, 4.0 - t**2], axis=1)
        expected = np.stack([5.0 * t - 1.2, -2.0 * t], axis=1)
        np.testing.assert_allclose(fd_derivative(t, values), expected, atol=1e-12)

    def test_second_order_convergence(self):
        def max_err(h):
            t = np.arange(0.0, 1.0 + h / 2, h)
            d = fd_derivative(t, np.sin(3 * t))
            return np.max(np.abs(d - 3 * np.cos(3 * t)))

        assert max_err(1e-3) / max_err(5e-4) > 3.0

    def test_too_few_samples(self):
        with pytest.raises(InsufficientData):
            fd_derivative(np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(InvalidInput):
            fd_derivative(np.array([0.0, 0.1, 0.3]), np.zeros(3))


class TestVariationRhs:
    def test_scalar_metric_gives_zero(self, torus2, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert variation_rhs(sample_at(torus2, 1.7 * np.eye(2)), 2.0, a) == 0.0

    def test_zero_eigenvalue_gives_zero(self, torus2):
        sample = sample_at(torus2, random_metric(2, 3))
        kernel = np.eye(2) / np.sqrt(sample.space.trace)
        assert variation_rhs(sample, 0.0, kernel) == 0.0

    def test_phase_invariance(self, torus3, rng):
        sample = sample_at(torus3, random_metric(3, 5))
        data = lb_spectrum(torus3, sample.space)
        a = data.vectors_weighted[2]
        lam = float(data.eigenvalues[2])
        base = variation_rhs(sample, lam, a)
        for theta in rng.uniform(0, 2 * np.pi, size=5):
            rotated = np.exp(1j * theta) * a
            assert variation_rhs(sample, lam, rotated) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_both_forms_agree(self, torus3, seed):
        sample = sample_at(torus3, random_metric(3, seed))
        data = lb_spectrum(torus3, sample.space)
        for lam, a in zip(data.eigenvalues, data.vectors_weighted):
            direct = variation_rhs(sample, float(lam), a)
            via_state = variation_rhs_state_form(sample, float(lam), a)
            assert direct == pytest.approx(via_state, rel=1e-12, abs=1e-10)

    @pytest.mark.parametrize("form", [variation_rhs, variation_rhs_state_form])
    def test_stacked_call_matches_per_vector_calls(self, torus3, form):
        sample = sample_at(torus3, random_metric(3, 6))
        data = lb_spectrum(torus3, sample.space)
        stacked = form(sample, data.eigenvalues, data.vectors_weighted)
        assert stacked.shape == (9,)
        for i, a in enumerate(data.vectors_weighted):
            assert stacked[i] == form(sample, data.eigenvalues[i], a)

    @pytest.mark.parametrize("form", [variation_rhs, variation_rhs_state_form])
    def test_stacked_call_rejects_one_non_real_entry(self, torus3, form):
        sample = sample_at(torus3, random_metric(3, 6))
        data = lb_spectrum(torus3, sample.space)
        values = np.zeros(9)
        values[4] = 1.0
        # An anti-Hermitian L log c makes tr(a* a L log c) imaginary; only entry 4 is nonzero.
        broken = dataclasses.replace(sample, field=-1j * np.eye(3))
        with pytest.raises(FuzzyRicciError):
            form(broken, values, data.vectors_weighted)


class TestTrackSpectrum:
    def test_flat_trajectory_constant_curves(self, torus2):
        alpha = 2.0
        trajectory = run_flow(
            torus2, alpha * np.eye(2), FlowConfig(t1=1.0, sample_stride=0.25)
        )
        curves = track_spectrum(trajectory)
        # Scaling the metric by alpha divides every eigenvalue by alpha.
        expected = np.array([0.0, 1.0, 1.0, 2.0]) / alpha
        for values, lam in zip(curves.values.T, expected):
            np.testing.assert_allclose(values, lam, atol=1e-12)

    def test_kernel_curve(self, torus2, short_run):
        trajectory, curves = short_run
        assert curves.values.shape == (len(trajectory.samples), 4)
        assert curves.vectors.shape == (len(trajectory.samples), 4, 2, 2)
        np.testing.assert_allclose(curves.values[:, curves.kernel], 0.0, atol=1e-12)
        for vector, flow_sample in zip(curves.vectors[:, curves.kernel], trajectory.samples):
            target = np.eye(2) / np.sqrt(np.trace(flow_sample.c).real)
            assert hs_norm(vector - target) <= 1e-8

    def test_normalization_along_curves(self, short_run):
        trajectory, curves = short_run
        spaces = [WeightedSpace.from_metric(s.c) for s in trajectory.samples]
        for k, vectors in enumerate(curves.vectors):
            for vector in vectors:
                assert abs(spaces[k].norm(vector) - 1.0) <= 1e-10

    def test_mean_zero_off_kernel(self, short_run):
        trajectory, curves = short_run
        spaces = [WeightedSpace.from_metric(s.c) for s in trajectory.samples]
        for k, vectors in enumerate(curves.vectors):
            for i, vector in enumerate(vectors):
                if i != curves.kernel:
                    assert abs(spaces[k].state(vector)) <= 1e-9

    def test_dense_sampling_keeps_high_overlap(self, torus2):
        c0 = random_metric(2, 7)
        config = FlowConfig(t1=0.05, rel_tol=1e-10, abs_tol=1e-12, sample_stride=1e-3)
        trajectory = run_flow(torus2, c0, config)
        curves = track_spectrum(trajectory)
        assert not curves.degenerate.any()
        stacks = [lb_spectrum(torus2, s.space).vectors_flat for s in trajectory.samples]
        for prev, cur in zip(stacks, stacks[1:]):
            assert match_eigenpairs(prev, cur).overlaps.min() > 0.99

    def test_curves_converge_to_flat_spectrum(self, torus2):
        trajectory = run_flow(
            torus2, random_metric(2, 5), FlowConfig(t1=50.0, sample_stride=10.0)
        )
        curves = track_spectrum(trajectory)
        final = sorted(curves.values[-1])
        np.testing.assert_allclose(final, [0.0, 1.0, 1.0, 2.0], atol=1e-6)

    def test_empty_trajectory_rejected(self, torus2):
        from fuzzyricci import FlowResult

        with pytest.raises(InsufficientData):
            track_spectrum(FlowResult(torus=torus2))


class TestVariationReport:
    def test_flat_trajectory_all_residuals_vanish(self, torus2):
        trajectory = run_flow(
            torus2, 2.0 * np.eye(2), FlowConfig(t1=0.01, sample_stride=1e-3)
        )
        curves = track_spectrum(trajectory)
        report = first_variation_report(curves, trajectory)
        np.testing.assert_allclose(report.abs_residual, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.rhs, 0.0, atol=1e-15)

    def test_seeded_run_within_budget(self, torus2, short_run):
        trajectory, curves = short_run
        report = first_variation_report(curves, trajectory)
        assert report.flagged_samples == 0
        assert report.max_rel_residual <= 1e-4
        assert report.max_form_discrepancy <= 1e-10
        assert report.passed()

    def test_insufficient_samples(self, torus2):
        trajectory = run_flow(torus2, random_metric(2, 1), FlowConfig(t1=0.1, sample_stride=0.1))
        assert len(trajectory.samples) == 2
        curves = track_spectrum(trajectory)
        with pytest.raises(InsufficientData):
            first_variation_report(curves, trajectory)

    def test_mismatched_curves_rejected(self, torus2, short_run):
        trajectory, curves = short_run
        fields = ("times", "values", "min_gap", "degenerate", "vectors")
        truncated = dataclasses.replace(curves, **{f: getattr(curves, f)[:-1] for f in fields})
        with pytest.raises(InvalidInput):
            first_variation_report(truncated, trajectory)

    def test_forms_disagreement_fails_the_verdict(self, torus2, short_run):
        trajectory, curves = short_run
        report = first_variation_report(curves, trajectory)
        assert report.passed()
        off = dataclasses.replace(report, rhs_state_form=report.rhs_state_form + 1e-6)
        assert not off.passed()
        assert report_to_json(off)["passed"] is False

    def test_csv_rows_shape(self, torus2, short_run):
        trajectory, curves = short_run
        report = first_variation_report(curves, trajectory)
        rows = list(curves_csv_rows(report))
        assert rows[0] == [
            "t", "curve_id", "lambda", "lambda_dot_fd",
            "variation_rhs", "residual", "min_gap", "degenerate_flag",
        ]
        assert len(rows) == 1 + 4 * len(trajectory.samples)
        assert {row[1] for row in rows[1:]} == {"0", "1", "2", "3"}
        assert all(row[7] in {"0", "1"} for row in rows[1:])

    def test_report_json_shape(self, torus2, short_run):
        trajectory, curves = short_run
        report = first_variation_report(curves, trajectory)
        doc = report_to_json(report)
        assert doc["passed"] is True
        assert doc["h"] == pytest.approx(1e-3)
        assert len(doc["curves"]) == 4
        assert doc["max_rel_residual"] <= doc["rel_budget"]
        kernel_docs = [c for c in doc["curves"] if c["is_kernel"]]
        assert len(kernel_docs) == 1

    def test_entries_match_from_scratch_calls(self, torus3):
        trajectory = run_flow(
            torus3, random_metric(3, 2), FlowConfig(t1=0.01, sample_stride=1e-3)
        )
        curves = track_spectrum(trajectory)
        report = first_variation_report(curves, trajectory)
        for k, sample in enumerate(trajectory.samples):
            # From scratch: a fresh decomposition of the sample's metric, L
            # applied here, and both forms evaluated literally.
            space = WeightedSpace.from_metric(sample.c)
            lap_log = torus3.laplacian_apply(space.log)
            for i in range(9):
                value, a = curves.values[k, i], curves.vectors[k, i]
                aa = a.conj().T @ a
                direct = (value * np.trace(aa @ lap_log)).real
                b = aa @ lap_log @ space.c_inv
                state = (value * np.trace(space.c @ b)).real  # lambda phi(b)
                assert abs(report.rhs[k, i] - direct) <= 1e-13 * abs(direct)
                assert abs(report.rhs_state_form[k, i] - state) <= 1e-13 * abs(state)

    def test_one_batched_call_per_sample(self, torus2, monkeypatch):
        trajectory = run_flow(
            torus2, random_metric(2, 1), FlowConfig(t1=0.2, sample_stride=1e-3)
        )
        curves = track_spectrum(trajectory)
        calls = {"variation_rhs": 0, "variation_rhs_state_form": 0}
        for name in calls:
            real = getattr(tracking, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(tracking, name, counting)
        first_variation_report(curves, trajectory)
        assert len(trajectory.samples) == 201
        assert calls == {"variation_rhs": 201, "variation_rhs_state_form": 201}

    def test_no_laplacian_apply_after_the_flow(self, torus2, monkeypatch):
        # Each sample keeps the integrator's field -L log c, and the curved
        # operator is built from the per-torus flat L.
        trajectory = run_flow(
            torus2, random_metric(2, 1), FlowConfig(t1=0.2, sample_stride=1e-3)
        )
        torus2.laplacian
        calls = []
        real = FuzzyTorus.laplacian_apply

        def counting(self, a):
            calls.append(np.shape(a))
            return real(self, a)

        monkeypatch.setattr(FuzzyTorus, "laplacian_apply", counting)
        curves = track_spectrum(trajectory)
        first_variation_report(curves, trajectory)
        assert len(trajectory.samples) == 201
        assert calls == []

    def test_one_operator_eig_per_sample(self, torus3, monkeypatch):
        # Tracking and the variation law reuse the flow's metric states: the
        # only decomposition left per sample is the n^2 x n^2 operator's.
        trajectory = run_flow(
            torus3, random_metric(3, 1), FlowConfig(t1=0.2, sample_stride=1e-3)
        )
        shapes = []
        real_eig = linalg.hermitian_eig

        def counting_eig(a):
            shapes.append(np.shape(a))
            return real_eig(a)

        for module in (laplace_beltrami, linalg, tracking):
            if vars(module).get("hermitian_eig") is real_eig:
                monkeypatch.setattr(module, "hermitian_eig", counting_eig)
        curves = track_spectrum(trajectory)
        first_variation_report(curves, trajectory)
        assert len(trajectory.samples) == 201
        assert shapes == [(9, 9)] * len(trajectory.samples)

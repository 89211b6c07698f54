import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from fuzzyricci import (
    FlowConfig,
    FuzzyRicciError,
    FuzzyTorus,
    InsufficientData,
    InvalidInput,
    NonRealVariation,
    first_variation_report,
    lb_spectrum,
    random_metric,
    run_flow,
    track_spectrum,
)
from fuzzyricci import tracking
from fuzzyricci.flow import sample_times
from fuzzyricci.laplace_beltrami import (
    SpectralData,
    WeightedSpace,
    lb_spectra,
    right_product,
    stacked_power,
)
from fuzzyricci.linalg import hs_norm
from fuzzyricci.tracking import (
    FORMS_BUDGET,
    check_sample_times,
    curves_csv_rows,
    fd_derivative,
    report_to_json,
    variation_rhs,
    variation_rhs_state_form,
)
from conftest import log_metric, random_complex, recording_eigh


def sample_at(torus, c):
    # The flow sample at c: its metric state and its field -L log c.
    return run_flow(torus, c, FlowConfig(t1=0.0)).samples[0]


def sample_spectra(torus, trajectory):
    # The spectra the curves were tracked from, one stacked record, as the tracker makes them.
    return lb_spectra(torus, [s.space for s in trajectory.samples])


@pytest.fixture(scope="module")
def short_run(torus2):
    c0 = random_metric(2, 7)
    config = FlowConfig(t0=0.0, t1=0.05, rel_tol=1e-10, abs_tol=1e-12, sample_stride=1e-3)
    trajectory = run_flow(torus2, c0, config)
    curves = track_spectrum(trajectory)
    return trajectory, curves


def matched_overlaps(prev, cur):
    """The tracker's assignment of ``cur`` to ``prev`` and each match's overlap magnitude."""
    magnitude = np.abs(prev.reshape(len(prev), -1).conj() @ cur.reshape(len(cur), -1).T)
    perm = tracking._max_weight_assignment((magnitude**2)[None])[0]
    return perm, magnitude[np.arange(len(prev)), perm]


class TestMatching:
    def test_identical_spectra(self, torus2):
        vectors = lb_spectrum(torus2, random_metric(2, 1)).vectors_flat
        perm, overlaps = matched_overlaps(vectors, vectors)
        np.testing.assert_array_equal(perm, np.arange(4))
        np.testing.assert_allclose(overlaps, np.ones(4), atol=1e-12)
        assert not (overlaps < tracking.OVERLAP_MIN).any()

    def test_swapped_vectors_recovered(self, torus2):
        vectors = lb_spectrum(torus2, random_metric(2, 1)).vectors_flat
        swapped = vectors[[0, 3, 2, 1]]
        perm, _ = matched_overlaps(vectors, swapped)
        np.testing.assert_array_equal(perm, [0, 3, 2, 1])

    def test_phase_rotation_recovered(self, torus2):
        vectors = lb_spectrum(torus2, random_metric(2, 1)).vectors_flat
        theta = 0.83
        rotated = np.exp(1j * theta) * vectors[[0, 3, 2, 1]]
        # Matching is on |overlap|^2: a global phase moves neither the assignment nor the overlaps.
        perm, overlaps = matched_overlaps(vectors, rotated)
        np.testing.assert_array_equal(perm, [0, 3, 2, 1])
        np.testing.assert_allclose(overlaps, np.ones(4), atol=1e-12)
        assert not (overlaps < tracking.OVERLAP_MIN).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_overlap_rejected(self, short_run, monkeypatch, bad):
        # The augmenting search never finishes on a NaN: each chunk's weights
        # are checked before any assignment, with no warning from the product.
        trajectory, _ = short_run
        real = tracking.lb_spectra

        def broken(torus, states, times=None):
            spectra = real(torus, states, times=times)
            vectors = spectra.vectors_flat.copy()
            vectors[2, 2, 0, 1] = bad
            return dataclasses.replace(spectra, vectors_flat=vectors)

        monkeypatch.setattr(tracking, "lb_spectra", broken)
        with pytest.raises(InvalidInput, match="NaN or inf"):
            track_spectrum(trajectory)


def scipy_assignment(weight):
    """The reference solver: scipy's exact assignment, minimizing the negated weights."""
    return linear_sum_assignment(-weight)[1]


def assignment_weights(kind, k, rng):
    """A k x k weight matrix of one kind; every kind but "ties" has a unique optimum almost surely."""
    if kind == "random":
        return rng.random((k, k))
    if kind == "unitary":  # |U|^2: the overlaps of two orthonormal bases
        return np.abs(np.linalg.qr(random_complex(rng, k))[0]) ** 2
    if kind == "near_identity":
        return np.eye(k) + 1e-3 * rng.random((k, k))
    if kind == "ties":
        return rng.integers(0, 3, (k, k)).astype(float)
    if kind == "one_column":  # every row's maximum in one column
        weight = rng.random((k, k))
        weight[:, rng.integers(k)] += 1.0
        return weight
    # "collisions": a third of the rows put their maximum in one shared column
    target = rng.permutation(k)
    target[: k // 3] = target[0]
    weight = 0.05 * rng.random((k, k))
    weight[np.arange(k), target] += 1.0
    return weight


class TestAssignment:
    @pytest.mark.parametrize("k", [1, 2, 4, 16, 81, 256])
    @pytest.mark.parametrize(
        "kind", ["random", "unitary", "near_identity", "ties", "one_column", "collisions"]
    )
    def test_matches_scipy(self, k, kind):
        # Each weight matrix alone, as a stack of one, then all of them as one stack.
        rng = np.random.default_rng(k)
        rows = np.arange(k)
        weights = [assignment_weights(kind, k, rng) for _ in range(3 if k == 256 else 10)]
        stacked = tracking._max_weight_assignment(np.stack(weights))
        for weight, in_stack in zip(weights, stacked):
            perm = tracking._max_weight_assignment(weight[None])[0]
            reference = scipy_assignment(weight)
            np.testing.assert_array_equal(in_stack, perm)
            np.testing.assert_array_equal(np.sort(perm), rows)
            assert abs(weight[rows, perm].sum() - weight[rows, reference].sum()) <= 1e-12
            if kind != "ties":
                np.testing.assert_array_equal(perm, reference)

    def test_contested_rows_run_the_search(self, monkeypatch):
        # Pair 1's row maxima are a permutation, the optimum, so only pairs 0 and 2 search.
        rng = np.random.default_rng(0)
        stack = np.stack([assignment_weights("one_column", 16, rng), np.eye(16)[::-1],
                          assignment_weights("collisions", 16, rng)])
        searched = []
        search = tracking._augment_contested

        def counting_search(weight, *args):
            searched.append(next(p for p in range(3) if np.array_equal(weight, stack[p])))
            search(weight, *args)

        monkeypatch.setattr(tracking, "_augment_contested", counting_search)
        np.testing.assert_array_equal(
            tracking._max_weight_assignment(stack[0][None])[0], scipy_assignment(stack[0])
        )
        assert searched == [0]
        perms = tracking._max_weight_assignment(stack)
        assert searched == [0, 0, 2]
        for weight, perm in zip(stack, perms):
            np.testing.assert_array_equal(perm, scipy_assignment(weight))
        assert perms[1].tolist() == list(range(15, -1, -1))

    @pytest.mark.parametrize(
        "n, m, seed, t1",
        [pytest.param(*case, id="-".join(map(str, case[:3])))
         for case in ((5, 2, 3, 0.05), (8, 1, 0, 0.05), (4, 1, 0, 0.2))],
    )
    def test_curves_equal_scipy_matching(self, n, m, seed, t1):
        # At (8, 1, 0) two samples have contested rows, so the search runs.
        # (4, 1, 0) on [0, 0.2] is the benchmark's run: four chunks, the last
        # one partial. The reference matches every consecutive pair on its
        # own, rows in curve order, with scipy: no chunk, so a fault at a
        # chunk's first pair or in the rows' order shows, which patching the
        # solver would hide.
        trajectory = run_flow(
            FuzzyTorus(n, m), random_metric(n, seed), FlowConfig(t1=t1, sample_stride=1e-3)
        )
        ours = track_spectrum(trajectory)
        spectra = sample_spectra(trajectory.torus, trajectory)
        lam = spectra.eigenvalues
        flat = spectra.vectors_flat.reshape(len(lam), n * n, -1)
        forms = (variation_rhs, variation_rhs_state_form)
        laws = [form(trajectory.samples, lam, spectra.vectors_weighted) for form in forms]
        rows, order, kernel = np.arange(n * n), np.arange(n * n), spectra.kernel_index[0]
        for k in range(len(lam)):
            bad = np.zeros(n * n, dtype=bool)
            if k:
                overlap = np.abs(flat[k - 1, order].conj() @ flat[k].T)
                order = scipy_assignment(overlap**2)
                bad = overlap[rows, order] < tracking.OVERLAP_MIN
                bad[kernel] |= order[kernel] != spectra.kernel_index[k]
            gaps = spectra.min_gaps[k, order]
            threshold = spectra.gap_threshold[k]
            np.testing.assert_array_equal(ours.values[k], lam[k, order])
            np.testing.assert_array_equal(ours.min_gap[k], gaps)
            np.testing.assert_array_equal(ours.degenerate[k], bad | (gaps < threshold))
            np.testing.assert_array_equal(ours.rhs[k], laws[0][k, order])
            np.testing.assert_array_equal(ours.rhs_state_form[k], laws[1][k, order])
        assert ours.kernel == kernel

    @pytest.mark.parametrize(
        "n, m, seed, t1",
        [pytest.param(*case, id="-".join(map(str, case[:3])))
         for case in ((4, 1, 0, 0.2), (8, 1, 0, 0.05))],
    )
    def test_search_runs_on_contested_pairs_only(self, n, m, seed, t1, monkeypatch):
        # One assignment call per chunk settles every pair whose row maxima
        # are distinct; the search runs once per contested pair, and one
        # spectral record is built per chunk, none per sample.
        trajectory = run_flow(
            FuzzyTorus(n, m), random_metric(n, seed), FlowConfig(t1=t1, sample_stride=1e-3)
        )
        flat = sample_spectra(trajectory.torus, trajectory).vectors_flat
        flat = flat.reshape(len(flat), n * n, -1)
        maxima = (np.abs(flat[:-1].conj() @ flat[1:].swapaxes(-1, -2)) ** 2).argmax(-1)
        contested = sum(len(set(row.tolist())) < n * n for row in maxima)
        assert contested == (0 if n == 4 else 2)

        calls, searches, records = [], [], []
        assignment, search = tracking._max_weight_assignment, tracking._augment_contested
        monkeypatch.setattr(
            tracking, "_max_weight_assignment", lambda w: (calls.append(1), assignment(w))[1]
        )
        monkeypatch.setattr(
            tracking, "_augment_contested", lambda *args: (searches.append(1), search(*args))
        )
        init = SpectralData.__init__

        def counting_init(*args, **kwargs):
            records.append(1)
            init(*args, **kwargs)

        monkeypatch.setattr(SpectralData, "__init__", counting_init)
        first_variation_report(trajectory)
        assert len(trajectory.samples) == (201 if n == 4 else 51)
        assert len(searches) == contested
        assert len(calls) == len(records) == (4 if n == 4 else 13)  # 64 and 4 samples a chunk


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

    def test_second_order_on_a_short_last_spacing(self):
        # The grid sample_times gives when the stride does not divide the window.
        def max_err(h):
            t = sample_times(FlowConfig(t1=1.0 + 0.3 * h, sample_stride=h))
            d = fd_derivative(t, np.sin(3 * t))
            return np.max(np.abs(d - 3 * np.cos(3 * t)))

        assert max_err(1e-3) / max_err(5e-4) > 3.0

    def test_second_order_on_a_geometric_grid(self):
        def max_err(samples):
            t = np.geomspace(1e-3, 1.0, samples)
            d = fd_derivative(t, np.sin(3 * t))
            return np.max(np.abs(d - 3 * np.cos(3 * t)))

        assert max_err(1001) / max_err(2001) > 3.0

    @pytest.mark.parametrize(
        "times", [[0.0, 0.1, 0.1], [0.0, 0.2, 0.1], [0.0, np.nan, 0.2]],
        ids=["zero-spacing", "decreasing", "nan"],
    )
    def test_times_that_do_not_increase_rejected(self, times):
        with pytest.raises(InvalidInput, match="strictly increase"):
            fd_derivative(np.array(times), np.zeros(3))

    def test_times_from_any_scale_pass(self):
        # An end sample 0.2 s past the last stride multiple is kept and passes, at every scale s.
        for k in range(-40, 21):
            s = 2.0**k
            uneven = sample_times(FlowConfig(t1=1.2 * s, sample_stride=0.5 * s))
            assert len(uneven) == 4, k
            assert np.array_equal(check_sample_times(uneven), uneven), k
            assert len(sample_times(FlowConfig(t1=s, sample_stride=0.5 * s))) == 3, k
        # Grids uneven only by the rounding of large float times pass too.
        for t0 in (1e4, 1e10):
            times = sample_times(FlowConfig(t0=t0, t1=t0 + 0.2, sample_stride=1e-3))
            assert np.ptp(np.diff(times)) > 0
            assert np.array_equal(check_sample_times(times), times)


def law_at(form, sample, lam, a):
    # The law at one sample and one vector: the (1, 1) call.
    return form([sample], np.array([[lam]]), np.asarray(a)[None, None])[0, 0]


class TestVariationRhs:
    def test_scalar_metric_gives_zero(self, torus2, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert law_at(variation_rhs, sample_at(torus2, 1.7 * np.eye(2)), 2.0, a) == 0.0

    def test_zero_eigenvalue_gives_zero(self, torus2):
        sample = sample_at(torus2, random_metric(2, 3))
        kernel = np.eye(2) / np.sqrt(sample.space.trace)
        assert law_at(variation_rhs, sample, 0.0, kernel) == 0.0

    def test_phase_invariance(self, torus3, rng):
        sample = sample_at(torus3, random_metric(3, 5))
        data = lb_spectrum(torus3, sample.space)
        a = data.vectors_weighted[2]
        lam = float(data.eigenvalues[2])
        base = law_at(variation_rhs, sample, lam, a)
        for theta in rng.uniform(0, 2 * np.pi, size=5):
            rotated = np.exp(1j * theta) * a
            assert law_at(variation_rhs, sample, lam, rotated) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_both_forms_agree(self, torus3, seed):
        sample = sample_at(torus3, random_metric(3, seed))
        data = lb_spectrum(torus3, sample.space)
        values, vectors = data.eigenvalues[None], data.vectors_weighted[None]
        direct = variation_rhs([sample], values, vectors)[0]
        via_state = variation_rhs_state_form([sample], values, vectors)[0]
        for i in range(9):
            assert direct[i] == pytest.approx(via_state[i], rel=1e-12, abs=1e-10)

    @pytest.mark.parametrize("form", [variation_rhs, variation_rhs_state_form])
    def test_stacked_call_matches_per_vector_calls(self, form):
        # The report evaluates the law per chunk of samples, with the bits of
        # one sample and one vector at a time; an odd n > 3 reaches other
        # BLAS edge cases than n = 3.
        for n, m in ((3, 1), (5, 2)):
            torus = FuzzyTorus(n, m)
            samples = [sample_at(torus, random_metric(n, seed)) for seed in (6, 8)]
            data = [lb_spectrum(torus, s.space) for s in samples]
            values = np.stack([d.eigenvalues for d in data])
            vectors = np.stack([d.vectors_weighted for d in data])
            stacked = form(samples, values, vectors)
            assert stacked.shape == (2, n * n)
            for k in range(2):
                for i in range(n * n):
                    one = form(samples[k:k + 1], values[k:k + 1, [i]], vectors[k:k + 1, [i]])
                    assert stacked[k, i] == one[0, 0]

    @pytest.mark.parametrize("form", [variation_rhs, variation_rhs_state_form])
    def test_stacked_call_rejects_one_non_real_entry(self, torus3, form):
        sample = sample_at(torus3, random_metric(3, 6))
        data = lb_spectrum(torus3, sample.space)
        values = np.zeros(9)
        values[4] = 1.0
        # An anti-Hermitian L log c makes tr(a* a L log c) imaginary; only entry 4 is nonzero.
        broken = dataclasses.replace(sample, field=-1j * np.eye(3))
        with pytest.raises(NonRealVariation):
            form([broken], values[None], data.vectors_weighted[None])

    @pytest.mark.parametrize(
        "n, m, seed, t1",
        [pytest.param(*case, id="-".join(map(str, case[:3])))
         for case in ((2, 1, 7, 0.01), (3, 1, 0, 0.01), (4, 1, 0, 0.01), (5, 2, 3, 0.01),
                      (8, 1, 0, 0.005), (8, 3, 2, 0.005), (12, 5, 1, 0.002))],
    )
    def test_inner_products_agree_with_the_literal_traces(self, n, m, seed, t1):
        # The literal association, a* a formed per eigenvector and traced,
        # agrees with the inner products within 8 roundoff units
        # eps |lambda| ||a||_F^2 ||L log c||_F, times cond(c) in the state form.
        torus = FuzzyTorus(n, m)
        samples = run_flow(
            torus, random_metric(n, seed), FlowConfig(t1=t1, sample_stride=1e-3)
        ).samples
        spectra = lb_spectra(torus, [s.space for s in samples])
        lam, a = spectra.eigenvalues, spectra.vectors_weighted
        lap_log = -np.stack([s.field for s in samples])[:, None]
        c = np.stack([s.c for s in samples])[:, None]
        c_inv = np.stack([s.space.c_inv for s in samples])[:, None]
        aa = a.conj().swapaxes(-1, -2) @ a
        literal = (lam * np.trace(aa @ lap_log, axis1=-2, axis2=-1)).real
        literal_state = (lam * np.trace(c @ aa @ lap_log @ c_inv, axis1=-2, axis2=-1)).real
        w = np.stack([s.space.eigenvalues for s in samples])
        unit = (np.finfo(float).eps * np.abs(lam) * np.sum(np.abs(a) ** 2, axis=(-2, -1))
                * np.linalg.norm(lap_log, axis=(-2, -1)))
        cond = (w[:, -1] / w[:, 0])[:, None]
        plain = variation_rhs(samples, lam, a)
        state = variation_rhs_state_form(samples, lam, a)
        assert np.all(np.abs(plain - literal) <= 8 * unit)
        assert np.all(np.abs(state - literal_state) <= 8 * unit * cond)


def broken_state_form(c_inv_side):
    # The state form with c^-1 left of a (L log c), or with no c^-1.
    def form(samples, values, a):
        y = right_product(a, -np.stack([s.field for s in samples]))
        if c_inv_side == "left":
            y = stacked_power([s.space for s in samples], -1.0)[:, None] @ y
        ac = right_product(a, np.stack([s.c for s in samples]))
        return (values * np.sum(ac.conj() * y, axis=(-2, -1))).real

    return form


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
        for name in ("values", "min_gap", "degenerate", "rhs", "rhs_state_form"):
            assert getattr(curves, name).shape == (len(trajectory.samples), 4), name
        np.testing.assert_allclose(curves.values[:, curves.kernel], 0.0, atol=1e-12)
        spectra = sample_spectra(torus2, trajectory)
        for k, (kernel, flow_sample) in enumerate(zip(spectra.kernel_index, trajectory.samples)):
            assert curves.values[k, curves.kernel] == spectra.eigenvalues[k, kernel]
            # The zero mode is I / sqrt(tr c) up to a free phase: make its trace real positive.
            vector = spectra.vectors_weighted[k, kernel]
            trace = np.trace(vector)
            target = np.eye(2) / np.sqrt(np.trace(flow_sample.c).real)
            assert hs_norm(vector * trace.conj() / abs(trace) - target) <= 1e-8

    def test_normalization_along_curves(self, torus2, short_run):
        trajectory, _ = short_run
        spaces = [WeightedSpace.from_metric(s.c) for s in trajectory.samples]
        for k, vectors in enumerate(sample_spectra(torus2, trajectory).vectors_weighted):
            for vector in vectors:
                assert abs(spaces[k].norm(vector) - 1.0) <= 1e-10

    def test_mean_zero_off_kernel(self, torus2, short_run):
        trajectory, _ = short_run
        spaces = [WeightedSpace.from_metric(s.c) for s in trajectory.samples]
        spectra = sample_spectra(torus2, trajectory)
        for k, (vectors, kernel) in enumerate(zip(spectra.vectors_weighted, spectra.kernel_index)):
            for i, vector in enumerate(vectors):
                if i != kernel:
                    assert abs(spaces[k].state(vector)) <= 1e-9

    def test_dense_sampling_keeps_high_overlap(self, torus2):
        c0 = random_metric(2, 7)
        config = FlowConfig(t1=0.05, rel_tol=1e-10, abs_tol=1e-12, sample_stride=1e-3)
        trajectory = run_flow(torus2, c0, config)
        curves = track_spectrum(trajectory)
        assert not curves.degenerate.any()
        stacks = [lb_spectrum(torus2, s.space).vectors_flat for s in trajectory.samples]
        for prev, cur in zip(stacks, stacks[1:]):
            assert matched_overlaps(prev, cur)[1].min() > 0.99

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
            track_spectrum(FlowResult(torus=torus2, config=FlowConfig()))

    @pytest.mark.parametrize(
        "n, m, seed, t1",
        [pytest.param(*case, id="-".join(map(str, case[:3])))
         for case in ((8, 1, 0, 0.05), (4, 1, 0, 0.2), (2, 1, 7, 0.1))],
    )
    def test_curves_do_not_depend_on_the_chunk_size(self, n, m, seed, t1, monkeypatch):
        # Chunks of 1, 2 and 3 samples put a chunk boundary between most
        # pairs; the curves keep every bit of the default run.
        trajectory = run_flow(
            FuzzyTorus(n, m), random_metric(n, seed), FlowConfig(t1=t1, sample_stride=1e-3)
        )
        default = track_spectrum(trajectory)
        for size in (1, 2, 3):
            monkeypatch.setattr(tracking, "CHUNK_ENTRIES", size * n**4)
            chunked = track_spectrum(trajectory)
            for name in ("values", "min_gap", "degenerate", "rhs", "rhs_state_form"):
                assert np.array_equal(getattr(chunked, name), getattr(default, name)), (size, name)
            assert chunked.kernel == default.kernel


class TestVariationReport:
    def test_flat_trajectory_all_residuals_vanish(self, torus2):
        trajectory = run_flow(
            torus2, 2.0 * np.eye(2), FlowConfig(t1=0.01, sample_stride=1e-3)
        )
        report = first_variation_report(trajectory)
        np.testing.assert_allclose(report.abs_residual, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.rhs, 0.0, atol=1e-15)

    def test_seeded_run_within_budget(self, torus2, short_run):
        trajectory, _ = short_run
        report = first_variation_report(trajectory)
        assert report.flagged_samples == 0
        assert report.max_rel_residual <= 1e-4
        assert report.max_form_discrepancy <= 1e-10
        assert report.passed()

    def test_insufficient_samples(self, torus2):
        trajectory = run_flow(torus2, random_metric(2, 1), FlowConfig(t1=0.1, sample_stride=0.1))
        assert len(trajectory.samples) == 2
        with pytest.raises(InsufficientData):
            first_variation_report(trajectory)

    @pytest.mark.parametrize("c_inv_side", ["left", "none"])
    @pytest.mark.parametrize("n, seed", [(2, 7), (3, 0)])
    def test_forms_check_catches_a_broken_state_form(self, n, seed, c_inv_side, monkeypatch):
        # The forms agree to roundoff; a state form that misplaces or drops
        # c^-1 differs by order one and more (4.3 and 5.4 at n = 2, 816 and
        # 915 at n = 3), and fails the verdict.
        trajectory = run_flow(
            FuzzyTorus(n, 1), random_metric(n, seed), FlowConfig(t1=0.01, sample_stride=1e-3)
        )
        assert first_variation_report(trajectory).max_form_discrepancy <= FORMS_BUDGET
        monkeypatch.setattr(tracking, "variation_rhs_state_form", broken_state_form(c_inv_side))
        report = first_variation_report(trajectory)
        assert report.max_form_discrepancy > 1e9 * FORMS_BUDGET
        assert not report.passed()

    def test_forms_disagreement_fails_the_verdict(self, torus2, short_run):
        trajectory, _ = short_run
        report = first_variation_report(trajectory)
        assert report.passed()
        curves = dataclasses.replace(report.curves, rhs_state_form=report.rhs_state_form + 1e-6)
        off = dataclasses.replace(report, curves=curves)
        assert not off.passed()
        assert report_to_json(off)["passed"] is False

    def test_csv_rows_shape(self, torus2, short_run):
        trajectory, _ = short_run
        report = first_variation_report(trajectory)
        rows = list(curves_csv_rows(report))
        assert rows[0] == [
            "t", "curve_id", "lambda", "lambda_dot_fd",
            "variation_rhs", "residual", "min_gap", "degenerate_flag",
        ]
        assert len(rows) == 1 + 4 * len(trajectory.samples)
        assert {row[1] for row in rows[1:]} == {"0", "1", "2", "3"}
        assert all(row[7] in {"0", "1"} for row in rows[1:])

    def test_report_json_shape(self, torus2, short_run):
        trajectory, _ = short_run
        report = first_variation_report(trajectory)
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
        report = first_variation_report(trajectory)
        curves = report.curves
        spectra = sample_spectra(torus3, trajectory)
        for k, sample in enumerate(trajectory.samples):
            # From scratch: a fresh decomposition of the sample's metric, L
            # applied here as the flow applies it (its Hermitian path), and
            # both forms evaluated at each eigenpair as the inner products
            # <a, a L log c> and <a, a L log c c^-1>_c, found on its curve by
            # its eigenvalue's bits.
            space = WeightedSpace.from_metric(sample.c)
            lap_log = torus3.laplacian_apply(log_metric(space), hermitian=True)
            for value, a in zip(spectra.eigenvalues[k], spectra.vectors_weighted[k]):
                (i,) = np.flatnonzero(curves.values[k] == value)
                direct = (value * np.sum(a.conj() * (a @ lap_log))).real
                y = a @ lap_log @ space.c_inv
                state = (value * np.sum((a @ space.c).conj() * y)).real  # lambda phi(a* y)
                assert abs(report.rhs[k, i] - direct) <= 1e-13 * abs(direct)
                assert abs(report.rhs_state_form[k, i] - state) <= 1e-13 * abs(state)

    def test_one_batched_call_per_chunk(self, torus2, monkeypatch):
        # At n = 2 one chunk holds all 201 samples: one call of each form.
        trajectory = run_flow(
            torus2, random_metric(2, 1), FlowConfig(t1=0.2, sample_stride=1e-3)
        )
        calls = {"variation_rhs": [], "variation_rhs_state_form": []}
        for name in calls:
            real = getattr(tracking, name)

            def counting(sample, *args, _name=name, _real=real, **kwargs):
                calls[_name].append(len(sample))
                return _real(sample, *args, **kwargs)

            monkeypatch.setattr(tracking, name, counting)
        first_variation_report(trajectory)
        assert len(trajectory.samples) == 201
        assert calls == {"variation_rhs": [201], "variation_rhs_state_form": [201]}

    def test_no_laplacian_apply_after_the_flow(self, torus2, monkeypatch):
        # Each sample keeps the integrator's field -L log c, and the curved
        # operator is assembled from n x n pieces, never by applying L.
        trajectory = run_flow(
            torus2, random_metric(2, 1), FlowConfig(t1=0.2, sample_stride=1e-3)
        )
        calls = []
        real = FuzzyTorus.laplacian_apply

        def counting(self, a):
            calls.append(np.shape(a))
            return real(self, a)

        monkeypatch.setattr(FuzzyTorus, "laplacian_apply", counting)
        first_variation_report(trajectory)
        assert len(trajectory.samples) == 201
        assert calls == []

    def test_one_operator_eig_per_chunk(self, torus3, monkeypatch):
        # Tracking and the variation law reuse the flow's metric states: the
        # only decomposition left is the n^2 x n^2 operators', one stacked
        # call per chunk, and at n = 3 one chunk holds all 201 samples.
        trajectory = run_flow(
            torus3, random_metric(3, 1), FlowConfig(t1=0.2, sample_stride=1e-3)
        )
        # Every eigh call the report makes counts, checked or not.
        inputs = recording_eigh(monkeypatch)
        first_variation_report(trajectory)
        assert len(trajectory.samples) == 201
        assert [a.shape for a in inputs] == [(201, 9, 9)]

    def test_chunked_spectra_equal_per_sample_spectra(self, monkeypatch):
        # A chunk holds 2**14 // n**4 samples: 64 at n = 4 and 26 at n = 5, so
        # 201 samples make several full chunks and a partial one.
        chunks = []
        real = tracking.lb_spectra

        def recording(torus, states, times=None):
            spectra = real(torus, states, times=times)
            chunks.append((states, spectra))
            return spectra

        monkeypatch.setattr(tracking, "lb_spectra", recording)
        for n, m, seed, sizes in ((4, 1, 0, [64, 64, 64, 9]), (5, 2, 3, [26] * 7 + [19])):
            torus = FuzzyTorus(n, m)
            config = FlowConfig(t1=0.2, sample_stride=1e-3)
            trajectory = run_flow(torus, random_metric(n, seed), config)
            chunks.clear()
            track_spectrum(trajectory)
            assert [len(spectra.eigenvalues) for _, spectra in chunks] == sizes
            stacked = [(state, spectra, k) for states, spectra in chunks
                       for k, state in enumerate(states)]
            for sample, (state, spectra, k) in zip(trajectory.samples, stacked, strict=True):
                one = lb_spectrum(torus, sample.space)
                assert state is sample.space
                for name in ("eigenvalues", "vectors_flat", "vectors_weighted", "min_gaps"):
                    assert np.array_equal(getattr(spectra, name)[k], getattr(one, name)), name
                assert spectra.gap_threshold[k] == one.gap_threshold
                assert spectra.kernel_index[k] == one.kernel_index

    def test_memory_does_not_grow_with_eigenvectors(self):
        # The report keeps per-sample scalars only. From 51 to 201 samples at
        # n = 6 its peak traced memory may grow by eight (S, n^2) float arrays
        # (the curves' four, fd, and room for temporaries): 2.3 KB a sample,
        # where the sample's n^2 weighted eigenvectors alone would hold 20.7 KB.
        n, torus = 6, FuzzyTorus(6, 1)
        runs = [
            run_flow(torus, random_metric(n, 0), FlowConfig(t1=t1, sample_stride=1e-3))
            for t1 in (0.05, 0.2)
        ]
        first_variation_report(runs[0])  # one-time caches stay out of the peaks
        peaks = []
        for trajectory in runs:
            tracemalloc.start()
            try:
                first_variation_report(trajectory)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        extra_samples = len(runs[1].samples) - len(runs[0].samples)
        assert extra_samples == 150
        assert peaks[1] - peaks[0] <= 8 * extra_samples * n**2 * 8

    def test_report_keeps_the_curves_it_tracked(self, short_run):
        trajectory, curves = short_run
        tracked = first_variation_report(trajectory).curves
        fresh = track_spectrum(trajectory)
        for name in ("times", "values", "min_gap", "degenerate", "rhs", "rhs_state_form"):
            assert np.array_equal(getattr(tracked, name), getattr(fresh, name)), name
            assert np.array_equal(getattr(tracked, name), getattr(curves, name)), name
        assert tracked.kernel == fresh.kernel == curves.kernel


class TestNonRealGuard:
    """The variation law's guard names the earliest failing sample's time."""

    @pytest.fixture
    def broken_run(self, torus2, short_run):
        # The third sample's field gets a 1e-6 anti-Hermitian part.
        trajectory, _ = short_run
        samples = list(trajectory.samples)
        samples[2] = dataclasses.replace(samples[2], field=samples[2].field + 1e-6j * np.eye(2))
        return dataclasses.replace(trajectory, samples=samples)

    def test_report_raises_at_the_broken_sample(self, torus2, broken_run):
        trajectory = broken_run
        with pytest.raises(NonRealVariation) as report_error:
            first_variation_report(trajectory)
        sd = lb_spectrum(torus2, trajectory.samples[2].space)
        with pytest.raises(NonRealVariation) as direct:
            variation_rhs(trajectory.samples[2:3], sd.eigenvalues[None], sd.vectors_weighted[None])
        assert report_error.value.time == trajectory.samples[2].t
        assert str(report_error.value) == str(direct.value)
        assert direct.value.time == trajectory.samples[2].t

    @pytest.mark.parametrize("state_index, raised", [(1, "state form"), (2, "non-real")])
    def test_earliest_sample_first_then_plain_form(self, broken_run, monkeypatch, state_index, raised):
        # One sample per chunk (2**14 // 2**4 entries at n = 2): the earliest
        # failing chunk is the earliest failing sample, and within it the
        # plain form raises first.
        monkeypatch.setattr(tracking, "CHUNK_ENTRIES", 2**4)
        trajectory = broken_run
        t = trajectory.samples[state_index].t
        real = tracking.variation_rhs_state_form

        def failing_state_form(samples, *args):
            if samples[0].t == t:
                raise FuzzyRicciError("state form", time=t)
            return real(samples, *args)

        monkeypatch.setattr(tracking, "variation_rhs_state_form", failing_state_form)
        with pytest.raises(FuzzyRicciError, match=raised):
            first_variation_report(trajectory)

    def test_plain_form_first_within_a_chunk(self, broken_run, monkeypatch):
        # All 51 samples share one chunk: the plain form's failure at the third
        # sample raises before the state form runs, even were it to fail earlier.
        trajectory = broken_run
        monkeypatch.setattr(
            tracking, "variation_rhs_state_form", lambda *args: pytest.fail("state form ran")
        )
        with pytest.raises(NonRealVariation) as error:
            first_variation_report(trajectory)
        assert error.value.time == trajectory.samples[2].t

import dataclasses

import numpy as np
import pytest

from fuzzyricci import (
    FlowConfig,
    FuzzyTorus,
    InvalidInput,
    MetricDegenerate,
    lb_spectrum,
    random_metric,
    run_flow,
)
from fuzzyricci.laplace_beltrami import (
    COUNTEREXAMPLE_SEED,
    SpectralData,
    WeightedSpace,
    lb_conjugated_superop,
    lb_spectra,
    metric_state,
    rayleigh_quotient,
    rejected_operator_superop,
    right_product,
    spectrum_to_json,
    weighted_inner,
)
from fuzzyricci.linalg import (
    gaussian_matrices,
    hermiticity_defect,
    hs_inner,
    hs_norm,
    superop_from_map,
)
from fuzzyricci.verify import coprime_pairs
from conftest import ROUNDOFF_PAIRS, dense_laplacian, random_complex, recording_eigh


def lb_apply(torus, space, a):
    # The curved Laplacian (La) c^{-1} that the weighted space carries.
    return torus.laplacian_apply(a) @ space.c_inv


@pytest.fixture(scope="module")
def space3():
    return WeightedSpace.from_metric(random_metric(3, 4))


class TestWeightedSpace:
    def test_sqrt_squares_to_metric(self, space3):
        c = space3.c
        assert hs_norm(space3.c_sqrt @ space3.c_sqrt - c) <= 1e-11 * hs_norm(c)
        assert hs_norm(space3.c_invsqrt @ space3.c_sqrt - np.eye(3)) <= 1e-11
        assert hs_norm(space3.c_inv @ c - np.eye(3)) <= 1e-11

    def test_rejects_degenerate(self):
        with pytest.raises(MetricDegenerate):
            WeightedSpace.from_metric(np.diag([1.0, 0.0]))
        with pytest.raises(MetricDegenerate):
            WeightedSpace.from_metric(np.diag([1.0, -2.0]))

    def test_identity_inner_product_is_trace(self, space3):
        assert space3.inner(np.eye(3), np.eye(3)).real == pytest.approx(space3.trace)

    def test_flat_space_reduces_to_hs(self, rng):
        space = WeightedSpace.from_metric(np.eye(3))
        for _ in range(10):
            a, b = random_complex(rng, 3), random_complex(rng, 3)
            assert space.inner(a, b) == pytest.approx(hs_inner(a, b))

    def test_positivity(self, space3, rng):
        for _ in range(20):
            a = random_complex(rng, 3)
            value = space3.inner(a, a)
            assert value.imag == pytest.approx(0.0, abs=1e-12)
            assert value.real > 0

    def test_unitary_preserves_inner_product(self, space3, rng):
        for _ in range(10):
            a, b = random_complex(rng, 3), random_complex(rng, 3)
            lhs = hs_inner(space3.to_flat(a), space3.to_flat(b))
            rhs = space3.inner(a, b)
            assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1.0)

    def test_unitary_inverse_pair(self, space3, rng):
        a = random_complex(rng, 3)
        np.testing.assert_allclose(
            space3.to_flat(a) @ space3.c_invsqrt, a, atol=1e-11 * hs_norm(a)
        )

    def test_flat_unitary_is_identity(self, rng):
        space = WeightedSpace.from_metric(np.eye(2))
        a = random_complex(rng, 2)
        np.testing.assert_allclose(space.to_flat(a), a, atol=1e-14)

    def test_one_off_inner_product(self):
        space = WeightedSpace.from_metric(np.diag([2.0, 1.0]))
        assert space.inner(np.eye(2), np.eye(2)).real == pytest.approx(3.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 16])
    def test_weighted_inner_matches_the_literal_trace(self, n):
        # weighted_inner sums conj(a c) o b, which is tr(c a* b) for a
        # Hermitian c. The reference is that trace as written, and the bound,
        # fixed from the dtype before measuring, is 16 eps ||c|| ||a|| ||b||
        # in Hilbert-Schmidt norms, per entry of a stack.
        rng = np.random.default_rng(n)
        eps = np.finfo(float).eps
        metrics = np.stack([random_metric(n, seed, scale=0.5) for seed in range(3)])
        a, b = gaussian_matrices(rng, 24, n).reshape(2, 3, 4, n, n)
        cases = [
            (metrics[0], a[0, 0], b[0, 0]),  # single matrices
            (metrics[0], a[0], b[0]),  # one metric against a stack
            (metrics[:, None], a, b),  # a metric per sample, as lb_spectra and verify use
        ]
        for c, x, y in cases:
            literal = np.trace(c @ x.conj().swapaxes(-1, -2) @ y, axis1=-2, axis2=-1)
            got = weighted_inner(c, x, y)
            assert got.shape == literal.shape
            norm_c, norm_x, norm_y = (np.linalg.norm(m, axis=(-2, -1)) for m in (c, x, y))
            assert np.all(np.abs(got - literal) <= 16 * eps * norm_c * norm_x * norm_y)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_right_product_has_the_bits_of_per_matrix_products(self, n):
        # One (K n x n) @ (n x n) product per sample must give every entry the
        # bits of K separate n x n products: spectra and both forms of the
        # variation law rely on it. Odd n matter, since BLAS kernels treat
        # edge rows apart.
        rng = np.random.default_rng(n)
        a = gaussian_matrices(rng, 3 * 5, n).reshape(3, 5, n, n)
        p = gaussian_matrices(rng, 3, n)
        for q in (p, p.swapaxes(-1, -2)):  # the operators right-multiply by a transpose
            stacked = right_product(a, q)
            assert stacked.tobytes() == (a @ q[:, None]).tobytes()
            for k in range(3):
                for i in range(5):
                    assert stacked[k, i].tobytes() == (a[k, i] @ q[k]).tobytes()
        # The conjugated operators' block product: one fixed left factor, the
        # x-weights, against a stack of (n, n^2) matrices.
        weights = FuzzyTorus(n, 1)._x_weights
        terms = gaussian_matrices(rng, 3 * n, n).reshape(3, n, n * n)
        stacked = weights @ terms
        for k in range(3):
            assert stacked[k].tobytes() == (weights @ terms[k]).tobytes()


class TestMetricState:
    @pytest.mark.parametrize(
        "consumer",
        [
            lambda torus, c: run_flow(torus, c, FlowConfig(t1=1.0)),
            lb_spectrum,
            lb_conjugated_superop,
            rejected_operator_superop,
        ],
        ids=["run_flow", "lb_spectrum", "lb_conjugated_superop", "rejected_operator_superop"],
    )
    @pytest.mark.parametrize("as_space", [False, True], ids=["matrix", "space"])
    def test_wrong_size_metric_rejected(self, torus2, consumer, as_space):
        c = random_metric(3, 1)
        with pytest.raises(InvalidInput, match="metric must be 2x2"):
            consumer(torus2, WeightedSpace.from_metric(c) if as_space else c)

    def test_size_is_checked_before_positivity(self, torus2):
        with pytest.raises(InvalidInput, match="metric must be 2x2"):
            metric_state(torus2, np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(MetricDegenerate):
            metric_state(torus2, np.diag([1.0, 0.0]))

    def test_non_square_rejected(self, torus2):
        with pytest.raises(InvalidInput, match="square"):
            metric_state(torus2, np.ones((2, 3)))

    def test_space_passes_through(self, torus2):
        space = WeightedSpace.from_metric(random_metric(2, 1))
        assert metric_state(torus2, space) is space


class TestRayleighQuotient:
    @pytest.mark.parametrize(
        "n, sizes",
        [(3, ("(2, 2)", "(3, 3)")), (2, ("2x2", "(3, 3)"))],
        ids=["vector-off-size", "metric-off-size"],
    )
    def test_wrong_size_names_both_sizes(self, space3, n, sizes):
        with pytest.raises(InvalidInput) as error:
            rayleigh_quotient(FuzzyTorus(n), space3, np.eye(2))
        for size in sizes:
            assert size in str(error.value)


class TestCurvedLaplacian:
    def test_kills_identity(self, torus3, space3):
        np.testing.assert_allclose(
            lb_apply(torus3, space3, np.eye(3)), np.zeros((3, 3)), atol=1e-12
        )

    def test_flat_metric_reduces_to_flat_laplacian(self, torus3, rng):
        a = random_complex(rng, 3)
        flat = WeightedSpace.from_metric(np.eye(3))
        np.testing.assert_allclose(
            lb_apply(torus3, flat, a), torus3.laplacian_apply(a), atol=1e-12
        )

    def test_weighted_energy_equals_flat_energy(self, torus3, space3, rng):
        # <a, (La)c^{-1}>_c telescopes to the unweighted <a, La>.
        for _ in range(10):
            a = random_complex(rng, 3)
            lhs = space3.inner(a, lb_apply(torus3, space3, a))
            rhs = hs_inner(a, torus3.laplacian_apply(a))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
            assert lhs.real >= -1e-12 * hs_norm(a) ** 2

    def test_conjugated_superop_flat_case(self, torus2):
        op = lb_conjugated_superop(torus2, np.eye(2))
        np.testing.assert_allclose(op, dense_laplacian(torus2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_conjugated_superop_hermitian_psd(self, torus2, seed):
        op = lb_conjugated_superop(torus2, random_metric(2, seed))
        assert hermiticity_defect(op) <= 1e-11
        w = np.linalg.eigvalsh((op + op.conj().T) / 2)
        assert w[0] >= -1e-10 * max(abs(w[-1]), 1.0)

    @pytest.mark.parametrize("n,m", ROUNDOFF_PAIRS)
    def test_operators_reach_eigh_hermitian_to_roundoff(self, n, m, monkeypatch):
        # lb_spectra sends its stacked operators straight to eigh, which reads
        # one triangle, unchecked: their Hermiticity defect must stay at
        # roundoff, far below the HERM_TOL_SCALE that outside matrices meet.
        inputs = recording_eigh(monkeypatch)
        lb_spectra(FuzzyTorus(n, m), [random_metric(n, seed) for seed in range(6)])
        operators = inputs[-1]
        assert operators.shape == (6, n * n, n * n)
        for op in operators:
            assert hs_norm(op - op.conj().T) <= 16 * np.finfo(float).eps * hs_norm(op)

    @pytest.mark.parametrize("n,m", [*coprime_pairs(8), (12, 5), (16, 1)])
    def test_closed_form_matches_probed_map(self, n, m, monkeypatch):
        # The single build and the stacked one lb_spectra decomposes, for
        # several metrics at once, each against the literal map.
        torus = FuzzyTorus(n, m)
        spaces = [WeightedSpace.from_metric(random_metric(n, seed)) for seed in range(3)]
        inputs = recording_eigh(monkeypatch)
        lb_spectra(torus, spaces)
        (stacked,) = inputs
        for space, op in zip(spaces, stacked, strict=True):
            s = space.c_invsqrt
            probed = superop_from_map(n, lambda a: torus.laplacian_apply(a @ s) @ s)
            for closed in (lb_conjugated_superop(torus, space), op):
                assert hs_norm(closed - probed) <= 1e-13 * hs_norm(closed)

    def test_spectrum_caches_no_dense_operator_on_the_torus(self):
        # The operator is assembled from n x n pieces: after a spectrum the
        # torus holds no array of n^4 entries (the dense flat L is 1 MB at n = 16).
        torus = FuzzyTorus(16, 1)
        lb_spectrum(torus, random_metric(16, 0))
        sizes = [np.size(v) for v in vars(torus).values() if isinstance(v, np.ndarray)]
        assert sizes and max(sizes) < 16**4


class TestSpectrum:
    def test_flat_spectrum_and_kernel(self, torus2):
        data = lb_spectrum(torus2, np.eye(2))
        np.testing.assert_allclose(data.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=1e-12)
        assert data.kernel_index == 0
        a0 = data.vectors_weighted[0]
        phase = a0[0, 0] / abs(a0[0, 0])
        np.testing.assert_allclose(a0 / phase, np.eye(2) / np.sqrt(2), atol=1e-12)
        assert spectrum_to_json(data, t=0.0)["degeneracy_groups"] == [[0], [1, 2], [3]]

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 5), (3, 1), (3, 7)])
    def test_eigenpair_structure(self, n, seed):
        from fuzzyricci import FuzzyTorus

        torus = FuzzyTorus(n, 1)
        c = random_metric(n, seed)
        data = lb_spectrum(torus, c)
        space = metric_state(torus, c)
        norm = np.max(np.abs(data.eigenvalues))

        assert data.eigenvalues[0] >= -1e-10 * norm
        assert np.all(np.diff(data.eigenvalues) >= 0)

        # Weighted orthonormality.
        gram = np.array(
            [
                [space.inner(a, b) for b in data.vectors_weighted]
                for a in data.vectors_weighted
            ]
        )
        np.testing.assert_allclose(gram, np.eye(n * n), atol=1e-10)

        c_norm = hs_norm(space.c)
        for i, a in enumerate(data.vectors_weighted):
            lam = float(data.eigenvalues[i])
            # Eigen-residual in the defining form.
            residual = hs_norm(lb_apply(torus, space, a) - lam * a)
            assert residual <= 1e-9 * norm * hs_norm(a)
            # Rayleigh identity.
            assert rayleigh_quotient(torus, space, a) == pytest.approx(
                lam, rel=1e-9, abs=1e-9 * norm
            )
            # Zero mean against the state for non-kernel vectors.
            if i != data.kernel_index:
                assert abs(space.state(a)) <= 1e-10 * c_norm * hs_norm(a)

        # The kernel is one-dimensional and proportional to the identity.
        kernel = data.vectors_weighted[data.kernel_index]
        target = np.eye(n) / np.sqrt(space.trace)
        overlap = abs(space.inner(target, kernel)) / space.norm(target)
        assert overlap == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n,m,seed", [(2, 1, 0), (3, 1, 2), (4, 1, 1), (5, 2, 3)])
    def test_batched_vectors_match_per_vector_normalization(self, n, m, seed):
        torus = FuzzyTorus(n, m)
        c = random_metric(n, seed)
        data = lb_spectrum(torus, c)
        space = metric_state(torus, c)
        assert data.vectors_flat.shape == data.vectors_weighted.shape == (n * n, n, n)
        for i, v in enumerate(data.vectors_flat):
            a = v @ space.c_invsqrt
            np.testing.assert_array_equal(data.vectors_weighted[i], a / space.norm(a))
            w = data.eigenvalues
            neighbors = [abs(w[j] - w[i]) for j in (i - 1, i + 1) if 0 <= j < len(w)]
            assert data.min_gaps[i] == min(neighbors)

    def test_spectrum_invariant_under_conjugation(self, torus3):
        # The weighted-operator eigenvalues recovered through the Rayleigh
        # identity on mapped eigenvectors must coincide with the conjugated
        # operator's spectrum.
        c = random_metric(3, 9)
        data = lb_spectrum(torus3, c)
        space = metric_state(torus3, c)
        for lam, a in zip(data.eigenvalues, data.vectors_weighted):
            assert rayleigh_quotient(torus3, space, a) == pytest.approx(
                float(lam), rel=1e-9, abs=1e-9 * np.max(np.abs(data.eigenvalues))
            )

    def test_stack_entry_is_the_single_spectrum(self, torus3):
        # Entry k of a stacked record is sample k's lb_spectrum, bit for bit,
        # and its arrays are views of the stack's, not copies.
        metrics = [random_metric(3, seed) for seed in range(4)]
        spectra = lb_spectra(torus3, metrics)
        assert spectra.eigenvalues.shape == (4, 9) and spectra.kernel_index.shape == (4,)
        for k, c in enumerate(metrics):
            entry, one = spectra[k], lb_spectrum(torus3, c)
            for f in dataclasses.fields(SpectralData):
                assert np.array_equal(getattr(entry, f.name), getattr(one, f.name)), f.name
            for name in ("eigenvalues", "vectors_flat", "vectors_weighted", "min_gaps"):
                assert np.shares_memory(getattr(entry, name), getattr(spectra, name)), name
        # json.dumps rejects numpy integers.
        assert type(spectrum_to_json(spectra[1], t=0.0)["kernel_index"]) is int

    def test_json_shape(self, torus2):
        data = lb_spectrum(torus2, random_metric(2, 3))
        doc = spectrum_to_json(data, t=1.5)
        assert doc["t"] == 1.5
        assert len(doc["eigenvalues"]) == 4
        assert len(doc["eigenvectors_Hc"]) == 4
        assert doc["eigenvectors_Hc"][0]["n"] == 2


class TestRejectedOperator:
    def test_flat_case_is_hermitian(self, torus2):
        # With the identity metric the alternative collapses to the flat
        # Laplacian, so nothing is broken yet.
        op = rejected_operator_superop(torus2, np.eye(2))
        assert hermiticity_defect(op) <= 1e-12

    def test_counterexample_seed_breaks_hermiticity(self, torus2):
        c = random_metric(2, COUNTEREXAMPLE_SEED)
        defect = hermiticity_defect(rejected_operator_superop(torus2, c))
        assert defect > 1e-6

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (5, 2)])
    def test_closed_form_matches_probed_map(self, n, m):
        # The reference: the literal map a -> c^{-1} L(a c^{-1/2}) c^{1/2},
        # applied to each matrix unit.
        torus = FuzzyTorus(n, m)
        for seed in (COUNTEREXAMPLE_SEED, 0):
            space = WeightedSpace.from_metric(random_metric(n, seed))
            closed = rejected_operator_superop(torus, space)
            probed = superop_from_map(
                n,
                lambda a: space.c_inv
                @ torus.laplacian_apply(a @ space.c_invsqrt)
                @ space.c_sqrt,
            )
            assert hs_norm(closed - probed) <= 1e-13 * hs_norm(closed)

import numpy as np
import pytest

from fuzzyricci import FuzzyTorus, MetricDegenerate, lb_spectrum, random_metric
from fuzzyricci.laplace_beltrami import (
    COUNTEREXAMPLE_SEED,
    WeightedSpace,
    lb_conjugated_superop,
    rayleigh_quotient,
    rejected_operator_superop,
    spectrum_to_json,
)
from fuzzyricci.linalg import hs_inner, hs_norm, superop_from_map
from fuzzyricci.verify import coprime_pairs
from conftest import random_complex


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
            space3.from_flat(space3.to_flat(a)), a, atol=1e-11 * hs_norm(a)
        )

    def test_flat_unitary_is_identity(self, rng):
        space = WeightedSpace.from_metric(np.eye(2))
        a = random_complex(rng, 2)
        np.testing.assert_allclose(space.to_flat(a), a, atol=1e-14)

    def test_one_off_inner_product(self):
        space = WeightedSpace.from_metric(np.diag([2.0, 1.0]))
        assert space.inner(np.eye(2), np.eye(2)).real == pytest.approx(3.0)


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
        np.testing.assert_allclose(op.matrix, torus2.laplacian.matrix, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_conjugated_superop_hermitian_psd(self, torus2, seed):
        op = lb_conjugated_superop(torus2, random_metric(2, seed))
        assert op.hermiticity_defect() <= 1e-11
        w = np.linalg.eigvalsh((op.matrix + op.matrix.conj().T) / 2)
        assert w[0] >= -1e-10 * max(abs(w[-1]), 1.0)

    @pytest.mark.parametrize("n,m", list(coprime_pairs(8)))
    def test_closed_form_matches_probed_map(self, n, m):
        torus = FuzzyTorus(n, m)
        for seed in range(3):
            space = WeightedSpace.from_metric(random_metric(n, seed))
            closed = lb_conjugated_superop(torus, space).matrix
            s = space.c_invsqrt
            probed = superop_from_map(n, lambda a: torus.laplacian_apply(a @ s) @ s)
            assert hs_norm(closed - probed.matrix) <= 1e-13 * hs_norm(closed)


class TestSpectrum:
    def test_flat_spectrum_and_kernel(self, torus2):
        data = lb_spectrum(torus2, np.eye(2))
        np.testing.assert_allclose(data.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=1e-12)
        assert data.kernel_index == 0
        a0 = data.vectors_weighted[0]
        phase = a0[0, 0] / abs(a0[0, 0])
        np.testing.assert_allclose(a0 / phase, np.eye(2) / np.sqrt(2), atol=1e-12)
        assert data.degeneracy_groups == [[0], [1, 2], [3]]

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 5), (3, 1), (3, 7)])
    def test_eigenpair_structure(self, n, seed):
        from fuzzyricci import FuzzyTorus

        torus = FuzzyTorus(n, 1)
        c = random_metric(n, seed)
        data = lb_spectrum(torus, c)
        space = data.space
        norm = data.operator_norm

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
        data = lb_spectrum(torus, random_metric(n, seed))
        space = data.space
        assert data.vectors_flat.shape == data.vectors_weighted.shape == (n * n, n, n)
        for i, v in enumerate(data.vectors_flat):
            a = space.from_flat(v)
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
        for lam, a in zip(data.eigenvalues, data.vectors_weighted):
            assert rayleigh_quotient(torus3, data.space, a) == pytest.approx(
                float(lam), rel=1e-9, abs=1e-9 * data.operator_norm
            )

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
        assert op.hermiticity_defect() <= 1e-12

    def test_counterexample_seed_breaks_hermiticity(self, torus2):
        c = random_metric(2, COUNTEREXAMPLE_SEED)
        defect = rejected_operator_superop(torus2, c).hermiticity_defect()
        assert defect > 1e-6

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (5, 2)])
    def test_closed_form_matches_probed_map(self, n, m):
        # The reference: the literal map a -> c^{-1} L(a c^{-1/2}) c^{1/2},
        # applied to each matrix unit.
        torus = FuzzyTorus(n, m)
        for seed in (COUNTEREXAMPLE_SEED, 0):
            space = WeightedSpace.from_metric(random_metric(n, seed))
            closed = rejected_operator_superop(torus, space).matrix
            probed = superop_from_map(
                n,
                lambda a: space.c_inv
                @ torus.laplacian_apply(a @ space.c_invsqrt)
                @ space.c_sqrt,
            ).matrix
            assert hs_norm(closed - probed) <= 1e-13 * hs_norm(closed)

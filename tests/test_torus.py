import math

import numpy as np
import pytest

from fuzzyricci import FuzzyTorus, InvalidParams
from fuzzyricci.linalg import hermitian_eig, hs_norm, matrix_function, superop_from_map
from fuzzyricci.torus import _ad, commutant_dimension
from conftest import random_complex

ALL_PAIRS = [
    (n, m) for n in range(2, 9) for m in range(1, n) if math.gcd(m, n) == 1
]


def comm(p, a):
    return p @ a - a @ p


def test_n2_generators_explicit():
    t = FuzzyTorus(2, 1)
    assert t.q == pytest.approx(-1.0)
    np.testing.assert_allclose(t.u, np.diag([1.0, -1.0]), atol=1e-15)
    np.testing.assert_allclose(t.v, np.array([[0, 1], [1, 0]]), atol=1e-15)
    np.testing.assert_allclose(t.x, np.diag([0.0, 1.0]))
    np.testing.assert_allclose(t.y, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15)


def test_n3_m2_relation():
    t = FuzzyTorus(3, 2)
    assert hs_norm(t.v @ t.u - t.q * (t.u @ t.v)) < 1e-14


@pytest.mark.parametrize("n,m", [(4, 2), (6, 3), (6, 2)])
def test_non_coprime_rejected(n, m):
    with pytest.raises(InvalidParams):
        FuzzyTorus(n, m)


def test_bad_sizes_rejected():
    with pytest.raises(InvalidParams):
        FuzzyTorus(1, 1)
    with pytest.raises(InvalidParams):
        FuzzyTorus(3, 0)
    with pytest.raises(InvalidParams):
        FuzzyTorus(3, 3)


@pytest.mark.parametrize("n,m", ALL_PAIRS)
def test_geometry_invariants(n, m):
    t = FuzzyTorus(n, m)
    eye = np.eye(n)
    assert hs_norm(t.v @ t.u - t.q * (t.u @ t.v)) <= 1e-12
    assert hs_norm(t.u.conj().T @ t.u - eye) <= 1e-12
    assert hs_norm(t.v.conj().T @ t.v - eye) <= 1e-12

    phase = 2j * np.pi / n
    assert hs_norm(matrix_function(t.x, lambda w: np.exp(phase * w)) - t.u) <= 1e-11
    assert hs_norm(matrix_function(t.y, lambda w: np.exp(phase * w)) - t.v) <= 1e-11

    powers = t.q ** np.arange(1, n + 1)
    assert abs(powers[-1] - 1) <= 1e-12
    assert np.all(np.abs(powers[:-1] - 1) > 1e-12)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (5, 2), (8, 3)])
def test_commutant_is_one_dimensional(n, m):
    t = FuzzyTorus(n, m)
    assert commutant_dimension(t.u, t.v) == 1


def test_commutant_of_commuting_pair_is_larger():
    d1 = np.diag([1.0, 2.0]).astype(complex)
    d2 = np.diag([3.0, 5.0]).astype(complex)
    assert commutant_dimension(d1, d2) == 2


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (5, 2), (8, 3)])
def test_commutant_matrix_matches_probed_commutators(n, m, rng):
    # The stacked closed-form matrices commutant_dimension takes the SVD of,
    # against a probe of the two commutator maps; also for a generic pair.
    t = FuzzyTorus(n, m)
    for u, v in [(t.u, t.v), (random_complex(rng, n), random_complex(rng, n))]:
        closed = np.vstack([_ad(u), _ad(v)])
        probed = np.vstack(
            [superop_from_map(n, lambda a: comm(u, a)).matrix,
             superop_from_map(n, lambda a: comm(v, a)).matrix]
        )
        assert hs_norm(closed - probed) <= 1e-14 * hs_norm(probed)


def _derivation(torus, which):
    # The torus derivations d1 = [y, .] and d2 = -[x, .].
    if which == "d1":
        return lambda a: comm(torus.y, a)
    return lambda a: -comm(torus.x, a)


class TestDerivations:
    def test_annihilate_identity(self, torus3):
        for which in ("d1", "d2"):
            delta = _derivation(torus3, which)
            np.testing.assert_allclose(delta(np.eye(3)), np.zeros((3, 3)))

    def test_d2_kills_clock(self, torus3):
        # x and u are both diagonal, so -[x, u] = 0.
        d2 = _derivation(torus3, "d2")
        np.testing.assert_allclose(d2(torus3.u), np.zeros((3, 3)), atol=1e-15)

    @pytest.mark.parametrize("which", ["d1", "d2"])
    def test_leibniz_rule(self, torus3, rng, which):
        delta = _derivation(torus3, which)
        a, b = random_complex(rng, 3), random_complex(rng, 3)
        lhs = delta(a @ b)
        rhs = delta(a) @ b + a @ delta(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * hs_norm(a) * hs_norm(b))


class TestFlatLaplacian:
    def test_kills_identity(self, torus2):
        np.testing.assert_allclose(torus2.laplacian_apply(np.eye(2)), np.zeros((2, 2)))

    def test_clock_is_eigenvector(self, torus2):
        np.testing.assert_allclose(torus2.laplacian_apply(torus2.u), torus2.u, atol=1e-14)

    def test_shift_is_eigenvector(self, torus2):
        np.testing.assert_allclose(torus2.laplacian_apply(torus2.v), torus2.v, atol=1e-14)

    def test_traceless_images(self, torus3, rng):
        for _ in range(20):
            a = random_complex(rng, 3)
            assert abs(np.trace(torus3.laplacian_apply(a))) <= 1e-12 * hs_norm(a)

    def test_respects_adjoint(self, torus3, rng):
        a = random_complex(rng, 3)
        lhs = torus3.laplacian_apply(a).conj().T
        rhs = torus3.laplacian_apply(a.conj().T)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * hs_norm(a))

    @pytest.mark.parametrize("n,m", ALL_PAIRS)
    def test_matches_literal_double_commutators(self, n, m, rng):
        t = FuzzyTorus(n, m)
        lam_max = float(np.linalg.norm(t.laplacian.matrix, 2))
        for _ in range(5):
            a = random_complex(rng, n)
            literal = comm(t.y, comm(t.y, a)) + comm(t.x, comm(t.x, a))
            assert hs_norm(t.laplacian_apply(a) - literal) <= 1e-13 * hs_norm(a) * lam_max

    def test_n2_spectrum(self, torus2):
        w, _ = hermitian_eig(torus2.laplacian.matrix)
        np.testing.assert_allclose(w, [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_flattened_clock_is_eigenvector(self, torus2):
        flat_u = torus2.u.reshape(-1)
        np.testing.assert_allclose(
            torus2.laplacian.matrix @ flat_u, flat_u, atol=1e-13
        )

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (4, 3), (5, 2)])
    def test_superop_hermitian_psd_kernel(self, n, m):
        t = FuzzyTorus(n, m)
        mat = t.laplacian.matrix
        norm = float(np.linalg.norm(mat, 2))
        assert hs_norm(mat - mat.conj().T) <= 1e-12 * hs_norm(mat)
        w, vecs = hermitian_eig(mat)
        assert w[0] >= -1e-12 * norm
        kernel = np.flatnonzero(np.abs(w) < 1e-8 * norm)
        assert len(kernel) == 1
        identity_flat = np.eye(n).reshape(-1) / np.sqrt(n)
        assert abs(np.vdot(identity_flat, vecs[:, kernel[0]])) == pytest.approx(1.0, abs=1e-10)
        assert w[kernel[0] + 1] > 1e-6  # spectral gap stays open at desk scale

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 1)])
    def test_superop_matches_kron_construction(self, n, m):
        # Independent route: products of the Kronecker commutator matrices,
        # not the accumulated closed form.
        t = FuzzyTorus(n, m)
        eye = np.eye(n)

        def ad(p):
            return np.kron(p, eye) - np.kron(eye, p.T)

        expected = ad(t.y) @ ad(t.y) + ad(t.x) @ ad(t.x)
        np.testing.assert_allclose(t.laplacian.matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("n,m", ALL_PAIRS + [(16, 1)])
    def test_closed_form_matches_probe(self, n, m):
        # The reference: the literal map applied to each matrix unit.
        t = FuzzyTorus(n, m)
        closed = t.laplacian.matrix
        probed = superop_from_map(n, t.laplacian_apply).matrix
        lam_max = float(np.linalg.norm(probed, 2))
        assert np.max(np.abs(closed - probed)) <= 1e-15 * lam_max


def test_superop_of_derivation_diagonal(torus3):
    # -[x, .] with diagonal x acts diagonally on matrix units.
    op = superop_from_map(3, _derivation(torus3, "d2"))
    x = np.diag(torus3.x)
    expected = np.diag([(x[k] - x[j]) for j in range(3) for k in range(3)])
    np.testing.assert_allclose(op.matrix, expected, atol=1e-14)


def test_geometry_json_shape(torus2):
    doc = torus2.to_json()
    assert doc["n"] == 2 and doc["m"] == 1
    assert doc["q"] == [pytest.approx(-1.0), pytest.approx(0.0, abs=1e-15)]
    assert doc["u"]["n"] == 2 and len(doc["u"]["entries"]) == 4
    for key in ("u", "v", "x", "y"):
        assert set(doc[key]) == {"n", "entries"}


def test_tampered_clock_breaks_relation(torus2):
    tampered = torus2.u.copy()
    tampered[0, 1] = 0.25
    residual = hs_norm(torus2.v @ tampered - torus2.q * (tampered @ torus2.v))
    assert residual > 1e-3

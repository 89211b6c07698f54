import math

import numpy as np
import pytest

from fuzzyricci import FuzzyTorus, InvalidParams, random_metric, verify
from fuzzyricci.linalg import hermitian_eig, hs_norm, matrix_function, superop_from_map
from fuzzyricci.laplace_beltrami import WeightedSpace, lb_conjugated_superop
from fuzzyricci.torus import DENSE_MAX_N, _ad, commutant_dimension
from conftest import (
    ROUNDOFF_PAIRS,
    dense_laplacian,
    random_complex,
    random_hermitian,
    recording_eigh,
)

ALL_PAIRS = [
    (n, m) for n in range(2, 9) for m in range(1, n) if math.gcd(m, n) == 1
]
SPLIT_PAIRS = ALL_PAIRS + [(12, 7)]


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
            [superop_from_map(n, lambda a: comm(u, a)),
             superop_from_map(n, lambda a: comm(v, a))]
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
        lam_max = float(np.linalg.norm(dense_laplacian(t), 2))
        for _ in range(5):
            a = random_complex(rng, n)
            literal = comm(t.y, comm(t.y, a)) + comm(t.x, comm(t.x, a))
            assert hs_norm(t.laplacian_apply(a) - literal) <= 1e-13 * hs_norm(a) * lam_max

    def test_n2_spectrum(self, torus2):
        w, _ = hermitian_eig(dense_laplacian(torus2))
        np.testing.assert_allclose(w, [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_flattened_clock_is_eigenvector(self, torus2):
        flat_u = torus2.u.reshape(-1)
        np.testing.assert_allclose(
            dense_laplacian(torus2) @ flat_u, flat_u, atol=1e-13
        )

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (4, 3), (5, 2)])
    def test_superop_hermitian_psd_kernel(self, n, m):
        t = FuzzyTorus(n, m)
        mat = dense_laplacian(t)
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
        # against the closed form from n x n pieces, the curved operator at
        # the flat metric.
        t = FuzzyTorus(n, m)
        eye = np.eye(n)

        def ad(p):
            return np.kron(p, eye) - np.kron(eye, p.T)

        expected = ad(t.y) @ ad(t.y) + ad(t.x) @ ad(t.x)
        np.testing.assert_allclose(lb_conjugated_superop(t, np.eye(n)), expected, atol=1e-12)

    @pytest.mark.parametrize("n,m", ALL_PAIRS + [(16, 1)])
    def test_closed_form_matches_probe(self, n, m):
        # The reference: the literal map applied to each matrix unit. The
        # closed form is the curved operator's, from n x n pieces, at c = I.
        t = FuzzyTorus(n, m)
        closed = lb_conjugated_superop(t, np.eye(n))
        probed = dense_laplacian(t)
        lam_max = float(np.linalg.norm(probed, 2))
        assert np.max(np.abs(closed - probed)) <= 1e-15 * lam_max

    @pytest.mark.parametrize("n,m", [(2, 1), (5, 2), (8, 3)])
    def test_real_stack_is_the_complex_one(self, n, m):
        # A real stack of S is cast to complex on entry, at no cost to a complex one.
        t = FuzzyTorus(n, m)
        real = t.conjugated_laplacians(np.eye(n)[None])
        np.testing.assert_array_equal(real, t.conjugated_laplacians(np.eye(n, dtype=complex)[None]))
        assert real.dtype == complex


# Both sides of the crossover between the Hermitian path's two branches.
HERMITIAN_PATH_PAIRS = [
    (2, 1), (3, 2), (5, 2), (8, 3), (DENSE_MAX_N, 1), (DENSE_MAX_N + 1, 1), (12, 11), (16, 1),
    (32, 1),
]


def dense_formula(t, a):
    """``g + g*`` with ``g = (M/2) vec(a)``, ``M`` the complex matrix of ``L``."""
    half = t.conjugated_laplacians(np.eye(t.n)[None])[0] / 2
    g = (half @ a.reshape(-1)).reshape(t.n, t.n)
    return g + g.conj().T


def two_product_formula(t, a):
    """``p = y a``, ``b = p - p*``, ``d = y b + (W/2) o a``, then ``d + d*``."""
    j = np.arange(t.n, dtype=float)
    half_weights = (t.m * (j[:, None] - j[None, :])) ** 2 / 2
    p = t.y @ a
    b = p - p.conj().swapaxes(-1, -2)
    d = t.y @ b + half_weights * a
    return d + d.conj().swapaxes(-1, -2)


class TestHermitianPath:
    """``laplacian_apply(a, hermitian=True)``, the flow's path, against the general one."""

    @pytest.mark.parametrize("n,m", [(2, 1), (4, 1), (5, 2), (DENSE_MAX_N, 1)])
    def test_one_dense_product_up_to_the_crossover(self, n, m, rng):
        t = FuzzyTorus(n, m)
        for _ in range(3):
            a = random_hermitian(rng, n)
            np.testing.assert_array_equal(t.laplacian_apply(a, hermitian=True), dense_formula(t, a))

    @pytest.mark.parametrize("n,m", [(DENSE_MAX_N + 1, 1), (16, 1)])
    def test_two_products_above_the_crossover(self, n, m, rng):
        t = FuzzyTorus(n, m)
        for _ in range(3):
            a = random_hermitian(rng, n)
            np.testing.assert_array_equal(
                t.laplacian_apply(a, hermitian=True), two_product_formula(t, a)
            )

    def test_equal_corner_diagonal_takes_two_products(self, rng):
        # The scalar guard: a scalar's dense image is ~eps, not 0, so an input
        # whose first and last diagonal entries are equal skips the dense product.
        t = FuzzyTorus(4, 1)
        a = random_hermitian(rng, 4)
        a[-1, -1] = a[0, 0]
        assert hs_norm(t.laplacian_apply(a)) > 1  # not a scalar
        np.testing.assert_array_equal(t.laplacian_apply(a, hermitian=True), two_product_formula(t, a))

    def test_a_stack_takes_two_products(self, rng):
        t = FuzzyTorus(4, 1)
        a = np.stack([random_hermitian(rng, 4) for _ in range(3)])
        np.testing.assert_array_equal(t.laplacian_apply(a, hermitian=True), two_product_formula(t, a))

    @pytest.mark.parametrize("n,m", HERMITIAN_PATH_PAIRS)
    def test_agrees_with_the_general_path(self, n, m, rng):
        # Within 2 eps lambda_max(L) ||a||. Over 20 inputs per pair the
        # largest difference was 0.45 of that bound, on the dense branch at
        # (3, 2); on the two-product branch it was 0.08 or less above n = 11.
        t = FuzzyTorus(n, m)
        lam_max = float(t.laplacian_split.eigenvalues[-1])
        for _ in range(5):
            a = random_hermitian(rng, n)
            gap = hs_norm(t.laplacian_apply(a, hermitian=True) - t.laplacian_apply(a))
            assert gap <= 2 * np.finfo(float).eps * lam_max * hs_norm(a)

    @pytest.mark.parametrize("n,m", HERMITIAN_PATH_PAIRS)
    def test_hermitian_input_gives_exactly_hermitian_output(self, n, m, rng):
        t = FuzzyTorus(n, m)
        for _ in range(5):
            a = random_hermitian(rng, n)
            np.testing.assert_array_equal(a, a.conj().T)
            image = t.laplacian_apply(a, hermitian=True)
            np.testing.assert_array_equal(image, image.conj().T)

    @pytest.mark.parametrize("n,m", HERMITIAN_PATH_PAIRS)
    def test_inexact_log_gives_exactly_hermitian_output(self, n, m):
        # The flow's log c, V diag(log w) V*, is Hermitian only to roundoff.
        t = FuzzyTorus(n, m)
        for seed in range(3):
            a = WeightedSpace.from_metric(random_metric(n, seed)).log
            assert not np.array_equal(a, a.conj().T)
            image = t.laplacian_apply(a, hermitian=True)
            np.testing.assert_array_equal(image, image.conj().T)

    @pytest.mark.parametrize("n,m", HERMITIAN_PATH_PAIRS)
    def test_scalars_map_to_exactly_zero(self, n, m):
        t = FuzzyTorus(n, m)
        for s in (1.0, 2.5, -0.3):
            image = t.laplacian_apply(s * np.eye(n, dtype=complex), hermitian=True)
            np.testing.assert_array_equal(image, np.zeros((n, n)))


def broken_reflection_torus():
    """FuzzyTorus(5, 2) whose x-weights break the reflection S(a) = P a^T P.

    The weights stay symmetric and zero on the diagonal (L stays Hermitian
    and traceless) but are not invariant under (j, k) -> (n-1-k, n-1-j).
    """
    t = FuzzyTorus(5, 2)
    j, k = np.indices((5, 5))
    t.__dict__["_x_weights"] = t._x_weights + 1e-3 * (j + k) * (j != k)
    return t


class TestReflectionSplit:
    """The flat L's one real block against the complex matrix and the literal map."""

    @pytest.mark.parametrize("n,m", SPLIT_PAIRS)
    def test_blocks_have_the_spectrum_of_l(self, n, m):
        t = FuzzyTorus(n, m)
        split = t.laplacian_split
        assert split.eigenvalues.shape == (n * n,)
        assert split.eigenvectors.shape == (n * n, n * n) and np.isrealobj(split.eigenvectors)
        w = hermitian_eig(dense_laplacian(t)).eigenvalues
        np.testing.assert_allclose(split.eigenvalues, w, rtol=0, atol=1e-14 * w[-1])

    @pytest.mark.parametrize("n,m", ROUNDOFF_PAIRS)
    def test_blocks_reach_eigh_symmetric_to_roundoff(self, n, m, monkeypatch):
        # The block goes straight to eigh, which reads one triangle, unchecked.
        inputs = recording_eigh(monkeypatch)
        FuzzyTorus(n, m).laplacian_split
        assert [b.shape for b in inputs] == [(n * n, n * n)]
        block = inputs[0]
        assert np.isrealobj(block)
        assert hs_norm(block - block.T) <= 16 * np.finfo(float).eps * hs_norm(block)
        # In the coordinates Re a + Im a, L is Re D + (Im D) P, P the transpose.
        d = dense_laplacian(FuzzyTorus(n, m))
        transpose = np.arange(n * n).reshape(n, n).T.reshape(-1)
        lam_max = float(np.linalg.norm(d, 2))
        assert np.max(np.abs(block - (d.real + d.imag[:, transpose]))) <= 1e-15 * lam_max

    @pytest.mark.parametrize("n,m", SPLIT_PAIRS + [(32, 1)])
    def test_round_trip_through_eigen_coordinates(self, n, m, rng):
        split = FuzzyTorus(n, m).laplacian_split
        for _ in range(3):
            a = random_hermitian(rng, n)
            d = split.to_eigen(a)
            assert np.isrealobj(d) and d.shape == (n * n,)
            assert abs(np.linalg.norm(d) - hs_norm(a)) <= 1e-14 * hs_norm(a)
            back = split.from_eigen(d)
            np.testing.assert_array_equal(back, back.conj().T)
            assert hs_norm(back - a) <= 1e-14 * hs_norm(a)

    @pytest.mark.parametrize("n,m", SPLIT_PAIRS + [(32, 1)])
    def test_blocks_apply_l(self, n, m, rng):
        t = FuzzyTorus(n, m)
        split = t.laplacian_split
        for _ in range(3):
            a = random_hermitian(rng, n)
            direct = t.laplacian_apply(a)
            through = split.from_eigen(split.eigenvalues * split.to_eigen(a))
            assert hs_norm(through - direct) <= 1e-14 * hs_norm(direct)

    @pytest.mark.parametrize("n,m", SPLIT_PAIRS + [(32, 1)])
    def test_first_pair_is_the_kernel(self, n, m):
        # The exponential tail drops the split's first pair as L's kernel, the trace direction.
        split = FuzzyTorus(n, m).laplacian_split
        w = split.eigenvalues
        assert abs(w[0]) <= 16 * np.finfo(float).eps * w[-1]
        assert w[1] >= 0.5
        identity = split.to_eigen(np.eye(n) / np.sqrt(n))
        assert 1 - abs(identity[0]) <= 1e-14

    def test_applies_l_that_breaks_the_reflection(self, rng):
        # The basis needs only that L is symmetric on Hermitian matrices.
        t = broken_reflection_torus()
        split = t.laplacian_split
        for _ in range(3):
            a = random_hermitian(rng, 5)
            direct = t.laplacian_apply(a)
            through = split.from_eigen(split.eigenvalues * split.to_eigen(a))
            assert hs_norm(through - direct) <= 1e-14 * hs_norm(direct)

    def test_verify_row_sees_a_broken_reflection(self):
        t = broken_reflection_torus()
        rows = {row["check"]: row["passed"] for row in verify.laplacian_checks(t)}
        assert rows["laplacian_kills_trace"] and rows["laplacian_respects_adjoint"]
        assert not rows["laplacian_commutes_with_reflection"]


def test_superop_of_derivation_diagonal(torus3):
    # -[x, .] with diagonal x acts diagonally on matrix units.
    op = superop_from_map(3, _derivation(torus3, "d2"))
    x = np.diag(torus3.x)
    expected = np.diag([(x[k] - x[j]) for j in range(3) for k in range(3)])
    np.testing.assert_allclose(op, expected, atol=1e-14)


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

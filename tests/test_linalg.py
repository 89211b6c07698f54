import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fuzzyricci import InvalidInput, SpectrumOutOfDomain
from fuzzyricci.linalg import (
    as_int,
    hermitian_eig,
    hs_inner,
    hs_norm,
    matrix_exp,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    superop_from_map,
)
from fuzzyricci.torus import _ad
from conftest import random_complex, random_hermitian


def matrix_log(a):
    return matrix_function(a, np.log)


def comm(p, a):
    return p @ a - a @ p


class TestHermitianEig:
    def test_diagonal(self):
        w, v = hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 3.0])
        np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-15)

    def test_off_diagonal(self):
        w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(w, [-1.0, 1.0])

    def test_reconstruction(self, rng):
        a = random_hermitian(rng, 4)
        w, v = hermitian_eig(a)
        np.testing.assert_allclose((v * w) @ v.conj().T, a, atol=1e-12 * 4 * hs_norm(a))

    def test_eigenvector_unitarity(self, rng):
        a = random_hermitian(rng, 5)
        _, v = hermitian_eig(a)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-12 * 5 * hs_norm(a))

    def test_ascending(self, rng):
        w, _ = hermitian_eig(random_hermitian(rng, 6))
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(InvalidInput):
            hermitian_eig(random_complex(rng, 3))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInput):
            hermitian_eig(np.zeros((2, 3)))

    @pytest.mark.parametrize("index, value", [((0, 0), np.nan), ((0, 1), np.inf)])
    def test_rejects_non_finite_entry(self, index, value):
        # A NaN or inf norm would let the Hermiticity test pass.
        a = np.eye(2, dtype=complex)
        a[index] = value
        with pytest.raises(InvalidInput):
            hermitian_eig(a)

    def test_symmetrizes_small_drift(self, rng):
        a = random_hermitian(rng, 3)
        drifted = a + 1e-14 * random_complex(rng, 3)
        w, _ = hermitian_eig(drifted)
        np.testing.assert_allclose(w, hermitian_eig(a).eigenvalues, atol=1e-12)

    def test_deterministic(self, rng):
        a = random_hermitian(rng, 4)
        w1, v1 = hermitian_eig(a)
        w2, v2 = hermitian_eig(a.copy())
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


class TestMatrixFunction:
    def test_exp_diagonal(self):
        np.testing.assert_allclose(
            matrix_exp(np.diag([0.0, np.log(2.0)])), np.diag([1.0, 2.0]), atol=1e-14
        )

    def test_log_identity_is_zero(self):
        np.testing.assert_allclose(matrix_log(np.eye(3)), np.zeros((3, 3)), atol=1e-14)

    def test_sqrt_squares_back(self, rng):
        c = matrix_exp(random_hermitian(rng, 3))
        root = matrix_function(c, np.sqrt)
        np.testing.assert_allclose(root @ root, c, atol=1e-12 * hs_norm(c))

    def test_identity_function(self, rng):
        a = random_hermitian(rng, 4)
        np.testing.assert_allclose(
            matrix_function(a, lambda w: w), a, atol=1e-12 * 4 * hs_norm(a)
        )

    def test_log_exp_round_trip(self, rng):
        h = random_hermitian(rng, 3)
        np.testing.assert_allclose(matrix_log(matrix_exp(h)), h, atol=1e-11 * hs_norm(h))

    def test_log_rejects_nonpositive_spectrum(self):
        a = np.diag([2.0, -0.5])
        with pytest.raises(SpectrumOutOfDomain) as err:
            matrix_log(a)
        assert err.value.eigenvalue == pytest.approx(-0.5)

    def test_hermitian_output_for_real_function(self, rng):
        out = matrix_exp(random_hermitian(rng, 4))
        np.testing.assert_allclose(out, out.conj().T, atol=1e-13 * hs_norm(out))


class TestHsInner:
    def test_identity_gives_dimension(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_clock_shift_orthogonal(self):
        u = np.diag([1.0, -1.0]).astype(complex)
        v = np.array([[0, 1], [1, 0]], dtype=complex)
        assert hs_inner(u, v) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            hs_inner(np.eye(2), np.eye(3))

    def test_conjugate_linearity(self, rng):
        a, b = random_complex(rng, 3), random_complex(rng, 3)
        alpha = 0.7 - 1.3j
        assert hs_inner(alpha * a, b) == pytest.approx(np.conj(alpha) * hs_inner(a, b))
        assert hs_inner(a, alpha * b) == pytest.approx(alpha * hs_inner(a, b))

    def test_positive_definite_sample(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = random_complex(rng, 3)
            value = hs_inner(a, a)
            assert value.imag == pytest.approx(0.0, abs=1e-15)
            assert value.real > 0


class TestCommutator:
    """The closed-form commutator matrix p x I - I x p^T that the torus builds."""

    def test_identity_commutes(self):
        np.testing.assert_array_equal(_ad(np.eye(3)), np.zeros((9, 9)))

    def test_self_commutator_vanishes(self):
        x = np.diag([0.0, 1.0, 2.0])
        np.testing.assert_allclose(_ad(x) @ x.reshape(-1), np.zeros(9))


class TestSuperoperator:
    def test_identity_map(self):
        op = superop_from_map(2, lambda a: a)
        np.testing.assert_allclose(op.matrix, np.eye(4))

    def test_diagonal_conjugation_map(self):
        # a -> [x, a] with diagonal x has a diagonal matrix with entries
        # x_jj - x_kk at basis slot j*n + k.
        x = np.diag([0.0, 1.0, 2.0])
        op = superop_from_map(3, lambda a: comm(x, a))
        expected = np.diag([x[j, j] - x[k, k] for j in range(3) for k in range(3)])
        np.testing.assert_allclose(op.matrix, expected, atol=1e-14)

    def test_left_right_multiplication_kron_forms(self, rng):
        # Independent oracle: left multiplication is kron(p, I), right
        # multiplication is kron(I, p.T) under row-major flattening.
        p = random_complex(rng, 3)
        left = superop_from_map(3, lambda a: p @ a)
        right = superop_from_map(3, lambda a: a @ p)
        np.testing.assert_allclose(left.matrix, np.kron(p, np.eye(3)), atol=1e-13)
        np.testing.assert_allclose(right.matrix, np.kron(np.eye(3), p.T), atol=1e-13)

    def test_apply_matches_map(self, rng):
        h = random_hermitian(rng, 4)
        op = superop_from_map(4, lambda a: h @ a - a @ h)
        sample_rng = np.random.default_rng(1)
        for _ in range(100):
            b = random_complex(sample_rng, 4)
            np.testing.assert_allclose(
                op.apply(b), h @ b - b @ h, atol=1e-12 * hs_norm(b)
            )

    def test_rejects_nonlinear_map(self):
        with pytest.raises(InvalidInput):
            superop_from_map(2, lambda a: a @ a)

    def test_rejects_wrong_output_shape(self):
        with pytest.raises(InvalidInput):
            superop_from_map(2, lambda a: np.zeros((3, 3)))

    def test_apply_rejects_wrong_size(self):
        op = superop_from_map(2, lambda a: a)
        with pytest.raises(InvalidInput):
            op.apply(np.eye(3))


class TestJsonRoundTrip:
    def test_round_trip(self, rng):
        a = random_complex(rng, 3)
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_malformed_document(self):
        with pytest.raises(InvalidInput):
            matrix_from_json({"n": 2, "entries": [[1.0, 0.0]]})
        # A non-integral or bool size is rejected, not truncated to a valid one.
        with pytest.raises(InvalidInput):
            matrix_from_json({"n": 1.5, "entries": [[1.0, 0.0]]})
        with pytest.raises(InvalidInput):
            matrix_from_json({"n": True, "entries": [[1.0, 0.0]]})
        with pytest.raises(InvalidInput):
            matrix_from_json({"entries": []})
        with pytest.raises(InvalidInput):
            matrix_from_json({"n": 1, "entries": [[1]]})
        with pytest.raises(InvalidInput):
            matrix_from_json({"n": 1, "entries": [["x", 0]]})


class TestAsInt:
    @pytest.mark.parametrize("value", [3, 3.0, "3", np.int64(3)])
    def test_accepts_integers(self, value):
        assert as_int(value) == 3 and type(as_int(value)) is int

    @pytest.mark.parametrize("value", [2.9, "2.9", True, False, None, [2], float("nan")])
    def test_rejects_non_integers(self, value):
        with pytest.raises((TypeError, ValueError)):
            as_int(value)


_ENTRIES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _complex_matrices(n: int):
    shape = (n, n)
    return st.tuples(
        arrays(np.float64, shape, elements=_ENTRIES),
        arrays(np.float64, shape, elements=_ENTRIES),
    ).map(lambda pair: pair[0] + 1j * pair[1])


@settings(deadline=None, max_examples=50)
@given(a=_complex_matrices(3), b=_complex_matrices(3))
def test_hs_inner_hermitian_symmetry(a, b):
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)), abs=1e-6)


@settings(deadline=None, max_examples=50)
@given(p=_complex_matrices(3), a=_complex_matrices(3))
def test_commutator_is_traceless(p, a):
    scale = max(hs_norm(p) * hs_norm(a), 1.0)
    image = (_ad(p) @ a.reshape(-1)).reshape(3, 3)
    assert abs(np.trace(image)) <= 1e-12 * scale


@settings(deadline=None, max_examples=30)
@given(g=_complex_matrices(4))
def test_functional_calculus_identity_function(g):
    a = (g + g.conj().T) / 2
    np.testing.assert_allclose(
        matrix_function(a, lambda w: w), a, atol=1e-12 * 4 * max(hs_norm(a), 1.0)
    )

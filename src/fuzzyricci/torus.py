"""Fuzzy torus algebra: clock/shift unitaries, log generators, flat Laplacian.

The algebra at matrix size ``n`` with twist ``m`` (``gcd(m, n) = 1``) is
generated by the clock matrix ``u = diag(1, q, ..., q^(n-1))`` and the cyclic
shift ``v``, with ``q = exp(2 pi i m / n)`` and the exchange relation
``v u = q u v``.

Both unitaries are exponentials of canonical Hermitian generators:
``u = exp((2 pi i / n) x)`` with ``x = m diag(0, ..., n-1)``, and
``v = exp((2 pi i / n) y)`` with ``y`` the Fourier conjugate of
``diag(0, ..., n-1)``. The flat Laplacian is
``L a = [y, [y, a]] + [x, [x, a]]``, a positive-semidefinite superoperator
whose kernel is exactly the scalar matrices. The package holds ``L`` only as
a map (``laplacian_apply``) and as its real split (``laplacian_split``); no
dense n^2 x n^2 matrix of it is cached. The curved operators of
``laplace_beltrami`` are assembled from n x n pieces, and the tests probe
``laplacian_apply`` with ``linalg.superop_from_map`` as a reference. The
commutators behind ``commutant_dimension`` are Kronecker products: under the
row-major flattening ``a -> [p, a]`` has the matrix ``p (x) I - I (x) p^T``.

``laplacian_apply`` computes ``[y, [y, a]]`` with four products; for a
Hermitian ``a``, ``hermitian=True`` needs two, since ``[y, a] = p - p*``
with ``p = y a`` is anti-Hermitian and then ``[y, b] = d + d*`` with
``d = y b``. The flow applies ``L`` that way to every ``log c``; every other
caller, and ``laplacian_split``'s build, keep the general path, the
reference the Hermitian one is tested against.

``L`` maps Hermitian matrices to Hermitian matrices and is symmetric in the
Hilbert-Schmidt inner product. On the real coordinates of a Hermitian matrix
(the diagonal, then sqrt(2) Re and sqrt(2) Im of the strict upper triangle)
it is therefore one real symmetric n^2 x n^2 matrix; ``laplacian_split``
decomposes it (a ``RealSplit``), for the flow's exponential tail and the
invariant suite's kernel checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParams
from .linalg import matrix_to_json


@dataclass(frozen=True)
class FuzzyTorus:
    """Fuzzy torus of size ``n`` with twist ``m`` coprime to ``n``.

    Exposes the generating unitaries ``u``, ``v``, the Hermitian log
    generators ``x``, ``y``, and the flat Laplacian as a map and as its real
    split. All matrix-valued members are cached per instance.
    """

    n: int
    m: int = 1

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidParams(f"matrix size must be >= 2, got n={self.n}")
        if not 1 <= self.m < self.n:
            raise InvalidParams(
                f"twist must satisfy 1 <= m < n, got m={self.m}, n={self.n}"
            )
        if math.gcd(self.m, self.n) != 1:
            raise InvalidParams(
                f"twist must be coprime to the size: gcd({self.m}, {self.n}) != 1"
            )

    @property
    def q(self) -> complex:
        """Exchange phase q = exp(2 pi i m / n); v u = q u v."""
        return complex(np.exp(2j * np.pi * self.m / self.n))

    @cached_property
    def u(self) -> np.ndarray:
        """Clock matrix diag(1, q, ..., q^(n-1))."""
        return np.diag(self.q ** np.arange(self.n))

    @cached_property
    def v(self) -> np.ndarray:
        """Cyclic shift: ones on the superdiagonal and in the bottom-left corner."""
        return np.roll(np.eye(self.n, dtype=complex), 1, axis=1)

    @cached_property
    def x(self) -> np.ndarray:
        """Hermitian generator with exp((2 pi i / n) x) = u."""
        return self.m * np.diag(np.arange(self.n)).astype(complex)

    @cached_property
    def y(self) -> np.ndarray:
        """Hermitian generator with exp((2 pi i / n) y) = v.

        Fourier conjugate of diag(0, ..., n-1): since F* v F is diagonal
        with entries exp(-2 pi i k / n), conjugating diag(0, ..., n-1) by F
        reproduces v under the exponential map.
        """
        jk = np.outer(np.arange(self.n), np.arange(self.n))
        f = np.exp(2j * np.pi * jk / self.n) / np.sqrt(self.n)  # unitary DFT
        d = np.diag(np.arange(self.n)).astype(complex)
        y = f @ d @ f.conj().T
        return (y + y.conj().T) / 2

    @cached_property
    def _x_weights(self) -> np.ndarray:
        """Weights W_jk = m^2 (j - k)^2, so that [x, [x, a]] = W o a entrywise."""
        d = self.m * np.arange(self.n, dtype=float)
        return (d[:, None] - d[None, :]) ** 2

    def laplacian_apply(self, a: np.ndarray, hermitian: bool = False) -> np.ndarray:
        """Flat Laplacian [y, [y, a]] + [x, [x, a]], applied as [y, [y, a]] + W o a.

        The y-part stays a literal double commutator so that scalars map to
        exactly zero. With ``hermitian=True`` the caller vouches that ``a``
        is Hermitian, and the double commutator takes two products instead
        of four: ``p = y a``, ``b = p - p*``, ``d = y b``, then ``d + d*``.
        The result then differs from the general path's by roundoff, is
        exactly Hermitian when ``a`` is, and is exactly zero at a real scalar.
        """
        a = np.asarray(a)
        if not hermitian:
            return _flat_laplacian(self.y, self._x_weights, a)
        p = self.y @ a
        p -= p.conj().swapaxes(-1, -2)  # [y, a], anti-Hermitian
        d = self.y @ p
        d += d.conj().swapaxes(-1, -2)  # [y, b] = y b - b y = d + d*, as b* = -b
        d += self._x_weights * a
        return d

    @cached_property
    def laplacian_split(self) -> RealSplit:
        """The flat Laplacian in a Hermitian matrix's real coordinates, decomposed.

        The real symmetric n^2 x n^2 matrix is filled from ``L`` applied to the
        coordinates' basis matrices (the formula of ``laplacian_apply``), n of
        them at a time, so neither the dense complex matrix nor its
        decomposition is needed, and decomposed with one ``eigh`` call.
        """
        n = self.n
        index_in, scale, index_out, weight_out = _real_coordinates(n)
        block = np.empty((n * n, n * n))
        for row in range(0, n * n, n):
            units = np.eye(n, n * n, row)  # these rows' coordinate vectors
            basis = np.ascontiguousarray(weight_out * units[:, index_out]).view(complex)
            images = _flat_laplacian(self.y, self._x_weights, basis.reshape(n, n, n))
            block[row : row + n] = scale * images.reshape(n, -1).view(float)[:, index_in]
        return RealSplit(n, *np.linalg.eigh(block), index_in, scale, index_out, weight_out)

    def to_json(self) -> dict:
        """Dump the generators for cross-checking against other builds."""
        return {
            "n": self.n,
            "m": self.m,
            "q": [self.q.real, self.q.imag],
            "u": matrix_to_json(self.u),
            "v": matrix_to_json(self.v),
            "x": matrix_to_json(self.x),
            "y": matrix_to_json(self.y),
        }


@dataclass(frozen=True, eq=False)
class RealSplit:
    """The flat Laplacian on Hermitian matrices as one real symmetric matrix, decomposed.

    ``eigenvalues`` (ascending) and ``eigenvectors`` (columns) are
    ``np.linalg.eigh``'s for ``L`` in the real coordinates of
    ``_real_coordinates``. Eigen-coordinates are real vectors of length n^2.
    Both maps are isometries between Hermitian matrices in the
    Hilbert-Schmidt norm and eigen-coordinates in the Euclidean norm.
    """

    n: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    _index_in: np.ndarray
    _scale: np.ndarray
    _index_out: np.ndarray
    _weight_out: np.ndarray

    def to_eigen(self, a: np.ndarray) -> np.ndarray:
        """Eigen-coordinates of a Hermitian ``a``, read from its upper triangle and diagonal."""
        af = np.ascontiguousarray(a, dtype=complex).reshape(-1).view(float)
        return (self._scale * af[self._index_in]) @ self.eigenvectors

    def from_eigen(self, d: np.ndarray) -> np.ndarray:
        """The exactly Hermitian matrix with eigen-coordinates ``d``."""
        z = self.eigenvectors @ d
        return (self._weight_out * z[self._index_out]).view(complex).reshape(self.n, self.n)


def _flat_laplacian(y: np.ndarray, weights: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``[y, [y, a]] + weights o a`` over the last two axes of ``a``."""
    b = y @ a - a @ y
    return (y @ b - b @ y) + weights * a


def _real_coordinates(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One-term gathers between an n x n Hermitian matrix and its real coordinates.

    The coordinates, orthonormal in the Hilbert-Schmidt inner product, are the
    diagonal, then sqrt(2) Re and sqrt(2) Im of the strict upper triangle.
    Returns the indices and scales that read them from a matrix's ``float``
    view (its diagonal and upper triangle), then the index and weight that
    write each entry of that view back: Im negated below the diagonal, so the
    matrix is exactly Hermitian, and the diagonal's Im zero.
    """
    r, c = np.triu_indices(n, 1)
    diagonal = np.arange(n) * (n + 1)
    part = np.repeat([0, 1], [n + len(r), len(r)])  # Re, then Im
    index_in = 2 * np.concatenate([diagonal, r * n + c, r * n + c]) + part
    mirror = 2 * np.concatenate([diagonal, c * n + r, c * n + r]) + part
    off = np.arange(n * n) >= n
    scale = np.where(off, np.sqrt(2.0), 1.0)
    weight = np.where(off, np.sqrt(0.5), 1.0)  # correctly rounded, as 1/sqrt(2) is not
    index_out = np.zeros(2 * n * n, dtype=int)
    weight_out = np.zeros(2 * n * n)
    index_out[mirror] = index_out[index_in] = np.arange(n * n)
    weight_out[mirror] = np.where(part == 1, -weight, weight)
    weight_out[index_in] = weight
    return index_in, scale, index_out, weight_out


def _ad(p: np.ndarray) -> np.ndarray:
    """Matrix of ``a -> [p, a]`` under the row-major flattening: p (x) I - I (x) p^T."""
    eye = np.eye(p.shape[0])
    return np.kron(p, eye) - np.kron(eye, p.T)


def commutant_dimension(u: np.ndarray, v: np.ndarray) -> int:
    """Dimension of {a : [u, a] = [v, a] = 0} for a pair of n x n matrices.

    Computed as the numerical nullspace dimension of the stacked commutator
    superoperators (singular values at most 1e-8 times the largest).
    For generating pairs like the clock and shift this is 1: only scalars
    commute with both.
    """
    stacked = np.vstack([_ad(u), _ad(v)])
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s <= 1e-8 * max(float(s[0]), 1.0)))

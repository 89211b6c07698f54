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
whose kernel is exactly the scalar matrices. The package holds ``L`` as a map
(``laplacian_apply``), as ``conjugated_laplacians``, the matrices of
``a -> L(a S) S`` assembled from n x n pieces (``laplace_beltrami``'s curved
operators at ``S = c^{-1/2}``, ``L``'s complex matrix ``M`` at ``S = I``),
and as its real split (``laplacian_split``). The commutators behind
``commutant_dimension`` are Kronecker products: under the row-major
flattening ``a -> [p, a]`` has the matrix ``p (x) I - I (x) p^T``.

``laplacian_apply`` computes ``[y, [y, a]]`` with four products; its
Hermitian path, ``laplacian_apply(..., hermitian=True)``, takes fewer, and
its docstring states that path's branches and guarantees. The flow applies
``L`` that way to every ``log c``; every other caller keeps the general
path, the reference the Hermitian one is tested against.

``L`` maps Hermitian matrices to Hermitian matrices and is symmetric in the
Hilbert-Schmidt inner product. So on the real coordinates ``Re a + Im a`` of
a Hermitian ``a``, an isometry onto real n x n matrices, it is one real
symmetric n^2 x n^2 matrix; ``laplacian_split`` decomposes it (a
``RealSplit``), for the flow's exponential tail and the invariant suite's
kernel checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParams
from .linalg import matrix_to_json

# Largest n at which the Hermitian path applies L as one product with its
# cached complex matrix (16 n^4 bytes, 234 KB at n = 11). At n = 4 a call
# costs 3.2 us against 7.5 us for two products, whose four small-array numpy
# calls cost more than the n^4 multiply-adds. With one OpenBLAS thread on a
# 2-CPU Xeon, run_flow on [0, 0.05] at stride 1e-3 took 42.8 against 45.4 ms
# at n = 11 (one product faster in 15 of 15 interleaved runs), 56.2 against
# 56.3 ms at n = 12 (9 of 15) and 71.8 against 68.2 ms at n = 14 (0 of 15).
DENSE_MAX_N = 11


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

    @cached_property
    def _x_half_weights(self) -> np.ndarray:
        return self._x_weights / 2  # W / 2, added before the Hermitian path's mirror

    @cached_property
    def _half_matrix(self) -> np.ndarray:
        """``M / 2``, ``M`` the complex matrix of ``L`` (``conjugated_laplacians`` at ``S = I``)."""
        return self.conjugated_laplacians(np.eye(self.n)[None])[0] / 2

    def laplacian_apply(self, a: np.ndarray, hermitian: bool = False) -> np.ndarray:
        """Flat Laplacian [y, [y, a]] + [x, [x, a]], applied as [y, [y, a]] + W o a.

        The y-part stays a literal double commutator so that scalars map to
        exactly zero. With ``hermitian=True`` the caller vouches that ``a``
        is Hermitian, and the result is ``g + g*`` for a ``g`` whose Hermitian
        part is ``L a / 2``:
        - a single ``a`` at ``n <= DENSE_MAX_N`` takes ``g = (M/2) vec(a)``,
          one product with ``L``'s cached complex matrix, which beats the
          four numpy calls below up to that measured crossover. A dense
          product maps a scalar to ~eps (BLAS uses FMA), so an ``a`` whose
          first and last diagonal entries are equal, every scalar among
          them, takes the two products instead;
        - otherwise two products instead of four: ``p = y a``,
          ``b = p - p*``, ``g = y b + (W/2) o a``.
        The result differs from the general path's by at most
        ``2 eps lambda_max(L) ||a||``, is exactly Hermitian for any ``a``,
        and is exactly zero at a real scalar.
        """
        a = np.asarray(a)
        if not hermitian:
            b = self.y @ a - a @ self.y
            return (self.y @ b - b @ self.y) + self._x_weights * a
        if self.n <= DENSE_MAX_N and a.ndim == 2 and a[0, 0] != a[-1, -1]:
            g = (self._half_matrix @ a.reshape(-1)).reshape(self.n, self.n)
            g += g.conj().T
            return g
        p = self.y @ a
        p -= p.conj().swapaxes(-1, -2)  # [y, a], anti-Hermitian
        d = self.y @ p
        d += self._x_half_weights * a
        d += d.conj().swapaxes(-1, -2)  # [y, b] + W o a, as b* = -b and W is symmetric
        return d

    def conjugated_laplacians(self, s: np.ndarray) -> np.ndarray:
        """The ``(S, n^2, n^2)`` complex matrices of ``a -> L(a S) S`` for a stack ``s`` of ``S``.

        With ``L b = y^2 b - 2 y b y + b y^2 + W o b`` the operator is, in
        n x n pieces,

            y^2 (x) (S^2)^T - 2 y (x) (S y S)^T + blockdiag_j (S (y^2 + diag W_j) S)^T,

        ``W_j`` the j-th row of the x-weights: row j of ``(W o (a S)) S`` is row j
        of ``a`` times ``S diag(W_j) S``. The two Kronecker terms are one rank-2
        product per sample, written in ``[j, l, k, p]`` order and copied once into
        the operators' ``[j, k, l, p]``; the ``j = l`` blocks are added in one step.
        """
        n, count, s = self.n, len(s), np.asarray(s, dtype=complex)
        y, st = self.y, s.swapaxes(-1, -2)
        g = y.T @ st  # (S y)^T
        # terms[:, r, k, p] = S[r, k] S[p, r]; block j sums them with weights W[j, r].
        terms = s[..., None] * st[:, :, None, :]
        blocks = (self._x_weights @ terms.reshape(count, n, n * n)).reshape(count, n, n, n)
        blocks += (g.conj().swapaxes(-1, -2) @ g)[:, None]  # (S y^2 S)^T
        left = np.stack([y @ y, -2 * y], axis=-1).reshape(n * n, 2)
        right = np.stack([st @ st, st @ g], axis=1).reshape(count, 2, n * n)
        m = (left @ right).reshape(count, n, n, n, n).transpose(0, 1, 3, 2, 4).copy()
        j = np.arange(n)
        m[:, j, :, j] += blocks.swapaxes(0, 1)
        return m.reshape(count, n * n, n * n)

    @cached_property
    def laplacian_split(self) -> RealSplit:
        """The flat Laplacian in a Hermitian matrix's real coordinates, decomposed.

        In the coordinates ``r = Re a + Im a`` (``Re a`` symmetric, ``Im a``
        antisymmetric, so ``Re a - Im a = r^T``) ``L`` is ``Re M + (Im M) P``,
        ``M`` its complex matrix (``conjugated_laplacians`` at ``S = I``) and
        ``P`` the transpose of a flattened matrix; one ``eigh`` decomposes it.
        At ``n <= DENSE_MAX_N`` ``M`` is the Hermitian path's cached ``M/2``
        doubled, which is exact.
        """
        n = self.n
        if n <= DENSE_MAX_N:
            m = 2 * self._half_matrix
        else:
            m = self.conjugated_laplacians(np.eye(n)[None])[0]
        block = m.imag[:, np.arange(n * n).reshape(n, n).T.reshape(-1)]  # (Im M) P
        block += m.real
        del m
        return RealSplit(n, *np.linalg.eigh(block))

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
    ``np.linalg.eigh``'s for ``L`` in the real coordinates ``Re a + Im a`` of
    a Hermitian ``a``, flattened row-major, or a subset of those pairs, one
    real eigen-coordinate each. ``from_eigen`` is an isometry into Hermitian
    matrices (Hilbert-Schmidt norm), and ``to_eigen``, its adjoint, inverts it.
    """

    n: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def to_eigen(self, a: np.ndarray) -> np.ndarray:
        """Eigen-coordinates of a Hermitian ``a``."""
        a = np.asarray(a)
        return (a.real + a.imag).reshape(-1) @ self.eigenvectors

    def from_eigen(self, d: np.ndarray) -> np.ndarray:
        """The exactly Hermitian matrix with eigen-coordinates ``d``.

        Its Re and Im are the symmetric and antisymmetric parts of ``r = Q d``.
        """
        half = (self.eigenvectors @ d).reshape(self.n, self.n) / 2
        a = np.empty(half.shape, dtype=complex)
        a.real, a.imag = half + half.T, half - half.T
        return a


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

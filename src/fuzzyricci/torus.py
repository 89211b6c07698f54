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
whose kernel is exactly the scalar matrices. Its dense matrix, and the
commutators behind ``commutant_dimension``, are built in closed form from
Kronecker products: under the row-major flattening ``a -> [p, a]`` has the
matrix ``p (x) I - I (x) p^T``. The dense matrix is cached per torus, and
``laplacian_eig`` decomposes that cached matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParams
from .linalg import HermitianEig, Superoperator, hermitian_eig, matrix_to_json


@dataclass(frozen=True)
class FuzzyTorus:
    """Fuzzy torus of size ``n`` with twist ``m`` coprime to ``n``.

    Exposes the generating unitaries ``u``, ``v``, the Hermitian log
    generators ``x``, ``y``, and the flat Laplacian. All matrix-valued
    members are cached per instance.
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

    def laplacian_apply(self, a: np.ndarray) -> np.ndarray:
        """Flat Laplacian [y, [y, a]] + [x, [x, a]], applied as [y, [y, a]] + W o a.

        The y-part stays a literal double commutator so that scalars map to
        exactly zero.
        """
        a = np.asarray(a)
        y = self.y
        b = y @ a - a @ y
        return (y @ b - b @ y) + self._x_weights * a

    @cached_property
    def laplacian(self) -> Superoperator:
        """Flat Laplacian as a dense ``n^2 x n^2`` superoperator, built in closed form.

        Hermitian and positive semidefinite in the Hilbert-Schmidt inner
        product, with one-dimensional kernel spanned by the identity.
        ``[y, [y, .]]`` has the matrix ``y^2 (x) I - 2 y (x) y^T + I (x) (y^2)^T``
        and ``[x, [x, .]]`` the diagonal ``diag(vec W)``; the terms are
        accumulated into one array.
        """
        n, y = self.n, self.y
        y2 = y @ y
        # m[j, k, l, p] is the entry at row j*n + k, column l*n + p.
        m = np.empty((n, n, n, n), dtype=complex)
        np.multiply(y[:, None, :, None], -2 * y.T[None, :, None, :], out=m)
        i = np.arange(n)
        m[:, i, :, i] += y2  # y^2 (x) I
        m[i, :, i, :] += y2.T  # I (x) (y^2)^T
        m = m.reshape(n * n, n * n)
        m[np.arange(n * n), np.arange(n * n)] += self._x_weights.reshape(-1)
        return Superoperator(n=n, matrix=m)

    @cached_property
    def laplacian_eig(self) -> HermitianEig:
        """Eigendecomposition of the cached ``laplacian`` matrix.

        Built for the flow's integrating factor and the invariant suite's
        kernel checks.
        """
        return hermitian_eig(self.laplacian.matrix)

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

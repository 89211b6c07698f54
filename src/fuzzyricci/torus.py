"""Fuzzy torus algebra: clock/shift unitaries, log generators, flat Laplacian.

The algebra at matrix size ``n`` with twist ``m`` (``gcd(m, n) = 1``) is
generated by the clock matrix ``u = diag(1, q, ..., q^(n-1))`` and the cyclic
shift ``v``, with ``q = exp(2 pi i m / n)`` and the exchange relation
``v u = q u v``.

Both unitaries are exponentials of canonical Hermitian generators:
``u = exp((2 pi i / n) x)`` with ``x = m diag(0, ..., n-1)``, and
``v = exp((2 pi i / n) y)`` with ``y`` the Fourier conjugate of
``diag(0, ..., n-1)``. The derivations are the commutators
``d1 = [y, .]`` and ``d2 = -[x, .]``; the flat Laplacian is
``L a = [y, [y, a]] + [x, [x, a]]``, a positive-semidefinite superoperator
whose kernel is exactly the scalar matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParams
from .linalg import Superoperator, commutator, matrix_to_json, superop_from_map


def clock_matrix(n: int, m: int = 1) -> np.ndarray:
    """Clock matrix diag(1, q, ..., q^(n-1)) with q = exp(2 pi i m / n)."""
    q = np.exp(2j * np.pi * m / n)
    return np.diag(q ** np.arange(n)).astype(complex)


def shift_matrix(n: int) -> np.ndarray:
    """Cyclic shift: ones on the superdiagonal and in the bottom-left corner."""
    v = np.zeros((n, n), dtype=complex)
    for j in range(n - 1):
        v[j, j + 1] = 1.0
    v[n - 1, 0] = 1.0
    return v


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix F[j, k] = exp(2 pi i j k / n) / sqrt(n)."""
    jk = np.outer(np.arange(n), np.arange(n))
    return np.exp(2j * np.pi * jk / n) / np.sqrt(n)


@dataclass(frozen=True)
class FuzzyTorus:
    """Fuzzy torus of size ``n`` with twist ``m`` coprime to ``n``.

    Exposes the generating unitaries ``u``, ``v``, the Hermitian log
    generators ``x``, ``y``, the derivations, and the flat Laplacian. All
    matrix-valued members are cached per instance.
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
        return clock_matrix(self.n, self.m)

    @cached_property
    def v(self) -> np.ndarray:
        return shift_matrix(self.n)

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
        f = fourier_matrix(self.n)
        d = np.diag(np.arange(self.n)).astype(complex)
        y = f @ d @ f.conj().T
        return (y + y.conj().T) / 2

    def d1(self, a: np.ndarray) -> np.ndarray:
        """First derivation [y, a]."""
        return commutator(self.y, a)

    def d2(self, a: np.ndarray) -> np.ndarray:
        """Second derivation -[x, a]."""
        return -commutator(self.x, a)

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
        """Flat Laplacian as a dense superoperator.

        Hermitian and positive semidefinite in the Hilbert-Schmidt inner
        product, with one-dimensional kernel spanned by the identity.
        """
        return superop_from_map(self.n, self.laplacian_apply)

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


def commutant_dimension(u: np.ndarray, v: np.ndarray) -> int:
    """Dimension of {a : [u, a] = [v, a] = 0} for a pair of n x n matrices.

    Computed as the numerical nullspace dimension of the stacked commutator
    superoperators (singular values at most 1e-8 times the largest).
    For generating pairs like the clock and shift this is 1: only scalars
    commute with both.
    """
    n = u.shape[0]
    mu = superop_from_map(n, lambda a: commutator(u, a))
    mv = superop_from_map(n, lambda a: commutator(v, a))
    stacked = np.vstack([mu.matrix, mv.matrix])
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s <= 1e-8 * max(float(s[0]), 1.0)))

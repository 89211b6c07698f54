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
matrix ``p (x) I - I (x) p^T``. The dense matrix is cached per torus.

``L`` maps Hermitian matrices to Hermitian matrices and commutes with the
reflection ``S(a) = P a^T P`` (``P`` reverses the index), because
``P x P = m(n-1) I - x`` and ``P y P = y^T``. On the real coordinates of a
Hermitian matrix it is therefore a real symmetric matrix that splits into an
S-even and an S-odd block; ``laplacian_split`` decomposes the two blocks
(a ``ReflectionSplit``), for the flow's exponential tail and the invariant
suite's kernel checks.
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
        return _flat_laplacian(self.y, self._x_weights, np.asarray(a))

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Flat Laplacian as a dense ``(n^2, n^2)`` array, built in closed form.

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
        return m

    @cached_property
    def laplacian_split(self) -> ReflectionSplit:
        """The flat Laplacian's two real blocks and their eigendecompositions.

        Each block is filled from ``L`` applied to its basis matrices (the
        formula of ``laplacian_apply``), n of them at a time, so neither the
        dense complex matrix nor its decomposition is needed.
        """
        n = self.n
        gather_in, gather_out, n_even = _adapted_coordinates(n)
        blocks = []
        for lo, hi in ((0, n_even), (n_even, n * n)):
            block = np.empty((hi - lo, hi - lo))
            for row in range(lo, hi, n):
                end = min(row + n, hi)
                units = np.eye(end - row, n * n, row)  # these rows' coordinate vectors
                basis = np.ascontiguousarray(_gather(units, gather_out)).view(complex)
                images = _flat_laplacian(self.y, self._x_weights, basis.reshape(-1, n, n))
                coords = _gather(images.reshape(end - row, -1).view(float), gather_in)
                block[row - lo : end - lo] = coords[:, lo:hi]
            blocks.append(np.linalg.eigh(block))
        return ReflectionSplit(n, *blocks, gather_in, gather_out)

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
class ReflectionSplit:
    """The flat Laplacian on Hermitian matrices as two real symmetric blocks.

    ``even`` and ``odd`` are ``np.linalg.eigh``'s results (with
    ``.eigenvalues`` and ``.eigenvectors``) for ``L`` on the S-even and S-odd
    reflection-adapted coordinates (sizes n(n+1)/2 and n(n-1)/2). Eigen-
    coordinates are real vectors of length n^2, the even block's first:
    ``eigenvalues`` lists the blocks' eigenvalues in that order (each block's
    ascending). Both maps are isometries between Hermitian matrices in the
    Hilbert-Schmidt norm and eigen-coordinates in the Euclidean norm.
    """

    n: int
    even: tuple[np.ndarray, np.ndarray]
    odd: tuple[np.ndarray, np.ndarray]
    _gather_in: _Gather
    _gather_out: _Gather

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.concatenate([self.even.eigenvalues, self.odd.eigenvalues])

    def to_eigen(self, a: np.ndarray) -> np.ndarray:
        """Eigen-coordinates of a Hermitian ``a``, read from its upper triangle and diagonal."""
        af = np.ascontiguousarray(a, dtype=complex).reshape(-1).view(float)
        z = _gather(af, self._gather_in)
        ne = len(self.even.eigenvalues)
        return np.concatenate([z[:ne] @ self.even.eigenvectors, z[ne:] @ self.odd.eigenvectors])

    def from_eigen(self, d: np.ndarray) -> np.ndarray:
        """The exactly Hermitian matrix with eigen-coordinates ``d``."""
        ne = len(self.even.eigenvalues)
        z = np.concatenate([self.even.eigenvectors @ d[:ne], self.odd.eigenvectors @ d[ne:]])
        return _gather(z, self._gather_out).view(complex).reshape(self.n, self.n)


def _flat_laplacian(y: np.ndarray, weights: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``[y, [y, a]] + weights o a`` over the last two axes of ``a``."""
    b = y @ a - a @ y
    return (y @ b - b @ y) + weights * a


# A two-term gather (index1, weight1, index2, weight2) along the last axis:
# out = weight1 * values[..., index1] + weight2 * values[..., index2].
_Gather = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _gather(values: np.ndarray, gather: _Gather) -> np.ndarray:
    i1, w1, i2, w2 = gather
    return w1 * values[..., i1] + w2 * values[..., i2]


def _adapted_coordinates(n: int) -> tuple[_Gather, _Gather, int]:
    """Gathers between an n x n Hermitian matrix and its reflection-adapted coordinates.

    The plain real coordinates, orthonormal in the Hilbert-Schmidt inner
    product, are the diagonal and sqrt(2) Re of the upper triangle, then
    sqrt(2) Im of the strict upper triangle. ``S`` maps entry (j, k) to
    (n-1-k, n-1-j), so it permutes them without signs. An orbit is a fixed
    coordinate ``r``, with the even coordinate ``r``, or a pair ``{r, S r}``,
    with the even coordinate ``(r + S r)/sqrt 2`` and the odd one
    ``(r - S r)/sqrt 2``. The even coordinates come first.

    Returns the gather from a matrix's ``float`` view (its upper triangle)
    to the adapted coordinates, the gather back to the ``float`` view of the
    Hermitian matrix (both triangles, so it is exactly Hermitian), and the
    number of even coordinates. Every weight is the correctly rounded square
    root of an exact number, so a weight that is 1 in exact arithmetic is 1.
    """
    size = n * n
    r, c = np.triu_indices(n)
    upper = r < c
    rows, cols = np.concatenate([r, r[upper]]), np.concatenate([c, c[upper]])
    part = np.repeat([0, 1], [len(r), np.count_nonzero(upper)])  # Re, then Im
    src = 2 * (rows * n + cols) + part  # each plain coordinate's index in the float view
    plain = np.zeros(2 * size, dtype=int)
    plain[src] = np.arange(size)
    partner = plain[2 * ((n - 1 - cols) * n + n - 1 - rows) + part]
    scale2 = np.where(rows == cols, 1.0, 2.0)

    first = np.flatnonzero(np.arange(size) <= partner)
    pairs = first[partner[first] != first]
    n_even = len(first)
    first = np.concatenate([first, pairs])
    second = partner[first]
    share = np.where(second != first, 0.5, 1.0)
    w1 = np.sqrt(share * scale2[first])
    w2 = np.repeat([1.0, -1.0], [n_even, len(pairs)]) * np.sqrt((1 - share) * scale2[second])

    # The way back is the transpose divided by the squared scale: an entry
    # reads its orbit's even coordinate (slot 0) and odd one (slot 1), and
    # the lower triangle mirrors the upper with Im negated.
    slot = np.repeat([0, 1], [n_even, len(pairs)])
    index = np.zeros((2, 2 * size), dtype=int)
    weight = np.zeros((2, 2 * size))
    for members, w in ((second, w2), (first, w1)):  # a fixed coordinate keeps w1
        index[slot, src[members]] = np.arange(size)
        weight[slot, src[members]] = w / scale2[members]
    mirror = 2 * (cols * n + rows) + part
    index[:, mirror] = index[:, src]
    weight[:, mirror] = weight[:, src] * np.where(part == 1, -1.0, 1.0)
    gather_in = (src[first], w1, src[second], w2)
    return gather_in, (index[0], weight[0], index[1], weight[1]), n_even


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

"""Curved Laplacian for a metric c and its spectral decomposition.

For a positive-definite metric ``c`` the natural operator is
``a -> (La) c^{-1}``, self-adjoint and positive in the weighted inner
product ``<a,b>_c = tr(c a* b)`` but not in the plain Hilbert-Schmidt one.
Right multiplication by ``c^{1/2}`` is a unitary from the weighted space
onto the Hilbert-Schmidt space, and conjugating through it gives the
computationally convenient form

    a_flat -> (L(a_flat c^{-1/2})) c^{-1/2},

an ordinary Hermitian positive-semidefinite superoperator whose spectrum
equals that of the weighted operator. All spectral computations happen on
this conjugated form; eigenvectors are mapped back by right multiplication
with ``c^{-1/2}`` and renormalized in the weighted inner product.

The tempting alternative ``a -> c^{-1}(La)`` (left instead of right
multiplication by the inverse metric) is *not* self-adjoint in the weighted
inner product; ``rejected_operator_superop`` assembles it in the same
conjugated frame so the defect is measurable, and ``COUNTEREXAMPLE_SEED``
records a random metric exhibiting it at n = 2.

Both matrices are built in closed form from the flat Laplacian's matrix:
left and right multiplication by ``p`` act on the row-major flattening as
``p (x) I`` and ``I (x) p^T``, applied by reshaping, so no map is probed
column by column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInput, MetricDegenerate
from .linalg import (
    Superoperator,
    as_square_matrix,
    hermitian_eig,
    hs_inner,
    matrix_to_json,
)
from .torus import FuzzyTorus

# Relative spectral-gap threshold below which eigenvalues are grouped as
# degenerate, and below which an eigenvalue counts as kernel.
GAP_TOL_REL = 1e-8

# A metric is positive definite when its smallest eigenvalue exceeds this.
POSITIVITY_FLOOR = 1e-12

# Seed for random_metric(2, seed) producing a metric for which the rejected
# operator's Hermiticity defect is macroscopic (order 1, vs the 1e-6 bar).
COUNTEREXAMPLE_SEED = 3


@dataclass(frozen=True)
class WeightedSpace:
    """One metric state: ``c`` with its spectral decomposition.

    ``from_metric`` validates ``c`` and decomposes it once; every function of
    ``c`` the package needs (its powers and ``log c``) is built lazily from
    that decomposition, so each consumer of a state (the flow field, the
    sample, the spectrum, the variation law) reuses it. Also provides the
    weighted inner product ``<a,b>_c = tr(c a* b)``, the state
    ``phi(a) = tr(c a)``, and the unitary (and its inverse) between the
    weighted space and the plain Hilbert-Schmidt space.
    """

    c: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @classmethod
    def from_metric(cls, c) -> "WeightedSpace":
        """Validate ``c`` (square, Hermitian, eigenvalues above ``POSITIVITY_FLOOR``).

        Raises ``InvalidInput`` for a non-square or grossly non-Hermitian
        ``c`` and ``MetricDegenerate`` when positive definiteness fails.
        """
        c = as_square_matrix(c, "metric")
        w, v = hermitian_eig(c)  # symmetrizes; rejects gross non-Hermiticity
        lo = float(w[0])
        if lo <= POSITIVITY_FLOOR:
            raise MetricDegenerate(
                f"metric is not positive definite: min eigenvalue {lo:.6e} <= {POSITIVITY_FLOOR:g}"
            )
        return cls(c=(c + c.conj().T) / 2, eigenvalues=w, eigenvectors=v)

    def _power(self, p: float) -> np.ndarray:
        v = self.eigenvectors
        m = (v * self.eigenvalues**p) @ v.conj().T
        return (m + m.conj().T) / 2

    @cached_property
    def c_sqrt(self) -> np.ndarray:
        return self._power(0.5)

    @cached_property
    def c_invsqrt(self) -> np.ndarray:
        return self._power(-0.5)

    @cached_property
    def c_inv(self) -> np.ndarray:
        return self._power(-1.0)

    @cached_property
    def log(self) -> np.ndarray:
        """``log c``, Hermitian up to roundoff (not symmetrized)."""
        v = self.eigenvectors
        return (v * np.log(self.eigenvalues)) @ v.conj().T

    @classmethod
    def coerce(cls, c) -> "WeightedSpace":
        """``c`` itself if it already is a ``WeightedSpace``, else ``from_metric(c)``."""
        return c if isinstance(c, cls) else cls.from_metric(c)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @cached_property
    def trace(self) -> float:
        return float(np.trace(self.c).real)

    def inner(self, a, b) -> complex | np.ndarray:
        """Weighted inner product tr(c a* b), entrywise over stacks ``(..., n, n)``."""
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if a.shape != b.shape or a.shape[-2:] != self.c.shape:
            raise InvalidInput(f"shape mismatch: {a.shape} vs {b.shape}")
        return np.trace(self.c @ a.conj().swapaxes(-1, -2) @ b, axis1=-2, axis2=-1)

    def norm(self, a) -> float | np.ndarray:
        return np.sqrt(self.inner(a, a).real)

    def state(self, a) -> complex | np.ndarray:
        """The positive linear functional phi(a) = tr(c a), entrywise over stacks."""
        return np.trace(self.c @ np.asarray(a, dtype=complex), axis1=-2, axis2=-1)

    def to_flat(self, a) -> np.ndarray:
        """Unitary into the plain Hilbert-Schmidt space: a -> a c^{1/2}."""
        return np.asarray(a, dtype=complex) @ self.c_sqrt

    def from_flat(self, a_flat) -> np.ndarray:
        """Inverse unitary: a_flat -> a_flat c^{-1/2}."""
        return np.asarray(a_flat, dtype=complex) @ self.c_invsqrt


def _sandwiched_laplacian(
    torus: FuzzyTorus, pre: np.ndarray, post: np.ndarray, left: np.ndarray | None = None
) -> Superoperator:
    """Matrix of ``a -> left (L(a pre)) post`` (``left`` defaults to the identity).

    That is ``(left x post^T) L (I x pre^T)``; each factor is applied to the
    flat Laplacian's matrix by reshaping, never formed.
    """
    n, dim = torus.n, torus.n**2
    m = (torus.laplacian.matrix.reshape(dim, n, n) @ pre.T).reshape(dim, dim)
    m = post.T @ m.reshape(n, n, dim)
    if left is not None:
        m = left @ m.reshape(n, n * dim)
    return Superoperator(n=n, matrix=m.reshape(dim, dim))


def lb_conjugated_superop(torus: FuzzyTorus, c) -> Superoperator:
    """Dense matrix of the conjugated curved Laplacian (L(a c^{-1/2})) c^{-1/2}.

    Hermitian positive semidefinite under the flattening convention; its
    spectrum equals that of the weighted-space operator. In closed form it
    is ``(I x S^T) L (I x S^T)`` with ``S = c^{-1/2}``.
    """
    space = WeightedSpace.coerce(c)
    return _sandwiched_laplacian(torus, space.c_invsqrt, space.c_invsqrt)


def rejected_operator_superop(torus: FuzzyTorus, c) -> Superoperator:
    """The discarded alternative a -> c^{-1}(La), in the conjugated frame.

    Assembled as ``a_flat -> c^{-1} (L(a_flat c^{-1/2})) c^{1/2}`` so that
    Hermiticity of the returned matrix is equivalent to self-adjointness of
    the alternative in the weighted inner product. Generic metrics break it;
    see ``COUNTEREXAMPLE_SEED``.
    """
    space = WeightedSpace.coerce(c)
    return _sandwiched_laplacian(torus, space.c_invsqrt, space.c_sqrt, left=space.c_inv)


@dataclass(frozen=True)
class SpectralData:
    """Full eigendecomposition of the curved Laplacian at one metric.

    ``vectors_flat`` and ``vectors_weighted`` are ``(n^2, n, n)`` stacks
    indexed like ``eigenvalues``. ``vectors_flat[i]`` are orthonormal in the
    plain Hilbert-Schmidt inner product (eigenvectors of the conjugated
    operator); ``vectors_weighted[i]`` are the same eigenvectors mapped back
    by ``c^{-1/2}`` and normalized in the weighted inner product. Global
    phases are left free; the tracking layer owns the phase convention.
    ``gap_threshold`` is ``GAP_TOL_REL`` times the operator norm (at least
    1); ``degeneracy_groups`` lists index runs whose consecutive gaps fall
    below it, and ``kernel_index`` locates the single eigenvalue below it.
    """

    space: WeightedSpace
    eigenvalues: np.ndarray
    vectors_flat: np.ndarray
    vectors_weighted: np.ndarray
    gap_threshold: float
    degeneracy_groups: list[list[int]]
    kernel_index: int

    @property
    def operator_norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    @property
    def min_gaps(self) -> np.ndarray:
        """Distance from each eigenvalue to its nearest spectral neighbor."""
        gaps = np.abs(np.diff(self.eigenvalues))
        return np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))


def _group_degenerate(eigenvalues: np.ndarray, threshold: float) -> list[list[int]]:
    # Index ranges between the gaps of at least threshold; np.split would cost ~4x more.
    cuts = np.flatnonzero(np.diff(eigenvalues) >= threshold) + 1
    bounds = [0, *cuts.tolist(), len(eigenvalues)]
    return [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


def lb_spectrum(torus: FuzzyTorus, c) -> SpectralData:
    """Eigenvalues and eigenvectors of the curved Laplacian for metric ``c``.

    Diagonalizes the conjugated (Hermitian) form, so the eigenvalues are real
    and returned ascending with Hilbert-Schmidt-orthonormal flat
    eigenvectors. Exactly one eigenvalue sits below the kernel threshold;
    its weighted eigenvector is proportional to the identity.
    """
    space = WeightedSpace.coerce(c)
    op = lb_conjugated_superop(torus, space)
    eig = hermitian_eig(op.matrix)
    n = torus.n
    w = eig.eigenvalues
    threshold = GAP_TOL_REL * max(float(np.max(np.abs(w), initial=0.0)), 1.0)

    # Column i of the eigenvector matrix is the row-major flattening of vector i.
    vectors_flat = eig.eigenvectors.T.reshape(n * n, n, n)
    vectors = space.from_flat(vectors_flat)
    vectors = vectors / space.norm(vectors)[:, None, None]

    kernel = np.flatnonzero(np.abs(w) < threshold)
    if len(kernel) != 1:
        raise MetricDegenerate(
            f"expected exactly one zero mode, found {len(kernel)} "
            f"eigenvalues below {threshold:.3e}"
        )
    return SpectralData(
        space=space,
        eigenvalues=w,
        vectors_flat=vectors_flat,
        vectors_weighted=vectors,
        gap_threshold=threshold,
        degeneracy_groups=_group_degenerate(w, threshold),
        kernel_index=int(kernel[0]),
    )


def spectrum_to_json(data: SpectralData, t: float) -> dict:
    """Spectrum at time ``t`` as JSON: eigenvalues plus weighted-normalized eigenvectors."""
    return {
        "eigenvalues": [float(w) for w in data.eigenvalues],
        "eigenvectors_Hc": [matrix_to_json(a) for a in data.vectors_weighted],
        "kernel_index": data.kernel_index,
        "degeneracy_groups": data.degeneracy_groups,
        "t": float(t),
    }


def rayleigh_quotient(torus: FuzzyTorus, space: WeightedSpace, a) -> float:
    """Eigenvalue via tr(a* La) / tr(c a* a), valid for any nonzero ``a``."""
    a = as_square_matrix(a)
    num = hs_inner(a, torus.laplacian_apply(a)).real
    den = space.inner(a, a).real
    if den <= 0:
        raise InvalidInput("Rayleigh quotient of a null vector")
    return float(num / den)

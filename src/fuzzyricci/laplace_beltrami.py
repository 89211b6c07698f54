"""Curved Laplacian for a metric c and its spectral decomposition.

For a positive-definite metric ``c`` the natural operator is
``a -> (La) c^{-1}``, self-adjoint and positive in the weighted inner
product ``<a,b>_c = tr(c a* b)`` but not in the plain Hilbert-Schmidt one.
Right multiplication by ``c^{1/2}`` is a unitary from the weighted space
onto the Hilbert-Schmidt space, and conjugating through it gives the
computationally convenient form

    a_flat -> (L(a_flat c^{-1/2})) c^{-1/2},

an ordinary Hermitian positive-semidefinite operator whose spectrum
equals that of the weighted operator. All spectral computations happen on
this conjugated form; eigenvectors are mapped back by right multiplication
with ``c^{-1/2}`` and renormalized in the weighted inner product.

The tempting alternative ``a -> c^{-1}(La)`` (left instead of right
multiplication by the inverse metric) is *not* self-adjoint in the weighted
inner product; ``rejected_operator_superop`` assembles it in the same
conjugated frame so the defect is measurable, and ``COUNTEREXAMPLE_SEED``
records a random metric exhibiting it at n = 2.

Every metric enters through the size-checked ``metric_state``. Both
operators are plain ``(n^2, n^2)`` arrays built in closed form from n x n
pieces, ``y``, the x-weights and ``c^{-1/2}``, by the torus
(``FuzzyTorus.conjugated_laplacians``). Under the row-major flattening
``a -> p a q`` has the matrix ``p (x) q^T``, so no map is probed column by
column. A right product over a stack of matrices is one BLAS call per
sample (``right_product``), with the bits of one call per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import InsufficientData, InvalidInput, MetricDegenerate
from .linalg import LazyDocs, as_square_matrix, hermitian_eig, lower_mirrored, matrix_to_json
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

    ``from_metric`` validates ``c`` and decomposes it once; every power of
    ``c`` the package needs is built lazily from that decomposition, and the
    flow field builds ``log c`` from its eigenpairs, so each consumer of a
    state (the flow field, the sample, the spectrum, the variation law)
    reuses it. Also provides the
    weighted inner product ``<a,b>_c = tr(c a* b)``, the state
    ``phi(a) = tr(c a)``, and the unitary ``to_flat`` from the weighted
    space onto the plain Hilbert-Schmidt space (its inverse is right
    multiplication by ``c_invsqrt``).
    """

    c: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @classmethod
    def from_metric(cls, c) -> "WeightedSpace":
        """Validate ``c`` (square, Hermitian, eigenvalues above ``POSITIVITY_FLOOR``).

        Raises ``InvalidInput`` for a non-square or grossly non-Hermitian
        ``c`` and ``MetricDegenerate`` when positive definiteness fails. The
        state keeps the matrix ``eigh`` decomposed: the lower triangle of
        ``c``, mirrored, with a real diagonal, so it is exactly Hermitian.
        """
        c = as_square_matrix(c, "metric")
        w, v = hermitian_eig(c)  # rejects gross non-Hermiticity
        check_positive(w)
        return cls(lower_mirrored(c, np.tri(len(c), dtype=bool)), w, v)

    def _power(self, p: float) -> np.ndarray:
        return stacked_power([self], p)[0]

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
    def trace(self) -> float:
        return float(np.trace(self.c).real)

    def inner(self, a, b) -> complex | np.ndarray:
        """Weighted inner product tr(c a* b), entrywise over stacks ``(..., n, n)``."""
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if a.shape != b.shape or a.shape[-2:] != self.c.shape:
            raise InvalidInput(f"shape mismatch: {a.shape} vs {b.shape}, metric {self.c.shape}")
        return weighted_inner(self.c, a, b)

    def norm(self, a) -> float | np.ndarray:
        return np.sqrt(self.inner(a, a).real)

    def state(self, a) -> complex | np.ndarray:
        """The positive linear functional phi(a) = tr(c a), entrywise over stacks."""
        return np.trace(self.c @ np.asarray(a, dtype=complex), axis1=-2, axis2=-1)

    def to_flat(self, a) -> np.ndarray:
        """Unitary into the plain Hilbert-Schmidt space: a -> a c^{1/2}."""
        return np.asarray(a, dtype=complex) @ self.c_sqrt


def check_positive(eigenvalues: np.ndarray) -> None:
    """Raise ``MetricDegenerate`` unless the least of ascending ``eigenvalues`` is above the floor."""
    lo = float(eigenvalues[0])
    if lo <= POSITIVITY_FLOOR:
        raise MetricDegenerate(
            f"metric is not positive definite: min eigenvalue {lo:.6e} <= {POSITIVITY_FLOOR:g}"
        )


def stacked_power(spaces, p: float) -> np.ndarray:
    """``c^p = V diag(w^p) V*``, symmetrized, of each state in ``spaces``, stacked ``(S, n, n)``."""
    v, w = np.stack([s.eigenvectors for s in spaces]), np.stack([s.eigenvalues for s in spaces])
    m = (v * (w**p)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def weighted_inner(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(c a* b) over the last two axes, ``c`` broadcast against ``a`` and ``b``.

    ``c`` must be Hermitian, as a metric is: the trace is ``sum conj(a c) o b``.
    """
    return np.sum((a @ c).conj() * b, axis=(-2, -1))


def right_product(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``a[k, i] @ p[k]`` of stacks ``(S, K, n, n)``, ``(S, n, n)``, one product per sample."""
    return (a.reshape(len(a), -1, a.shape[-1]) @ p).reshape(a.shape[:-1] + p.shape[-1:])


def metric_state(torus: FuzzyTorus, c) -> WeightedSpace:
    """The one way from a metric, a matrix or a ``WeightedSpace``, to a state on ``torus``.

    A matrix is checked square, then of the torus's size (``InvalidInput``,
    before positivity), then decomposed; a state passes the same size check.
    """
    space = c if isinstance(c, WeightedSpace) else None
    c = as_square_matrix(c, "metric") if space is None else space.c
    if c.shape[0] != torus.n:
        raise InvalidInput(f"metric must be {torus.n}x{torus.n}, got {c.shape}")
    return space if space is not None else WeightedSpace.from_metric(c)


def lb_conjugated_superop(torus: FuzzyTorus, c) -> np.ndarray:
    """Dense ``(n^2, n^2)`` matrix of the conjugated curved Laplacian (L(a c^{-1/2})) c^{-1/2}.

    Hermitian positive semidefinite under the flattening convention; its
    spectrum equals that of the weighted-space operator.
    """
    return torus.conjugated_laplacians(metric_state(torus, c).c_invsqrt[None])[0]


def rejected_operator_superop(torus: FuzzyTorus, c) -> np.ndarray:
    """The discarded alternative a -> c^{-1}(La), in the conjugated frame.

    Assembled as ``a_flat -> c^{-1} (L(a_flat c^{-1/2})) c^{1/2}`` so that
    Hermiticity of the returned matrix is equivalent to self-adjointness of
    the alternative in the weighted inner product. Generic metrics break it;
    see ``COUNTEREXAMPLE_SEED``. As ``c^{1/2} = c^{-1/2} c``, it is the
    conjugated matrix ``M`` with ``(c^{-1} x c^T)`` applied by reshaping.
    """
    space = metric_state(torus, c)
    n, dim = torus.n, torus.n**2
    m = space.c.T @ lb_conjugated_superop(torus, space).reshape(n, n, dim)
    return (space.c_inv @ m.reshape(n, n * dim)).reshape(dim, dim)


@dataclass(frozen=True)
class SpectralData:
    """Eigendecompositions of the curved Laplacian, at one metric or a stack of ``S``.

    ``vectors_flat`` and ``vectors_weighted`` are ``(n^2, n, n)`` stacks
    indexed like ``eigenvalues``. ``vectors_flat[i]`` are orthonormal in the
    plain Hilbert-Schmidt inner product (eigenvectors of the conjugated
    operator); ``vectors_weighted[i]`` are the same eigenvectors mapped back
    by ``c^{-1/2}`` and normalized in the weighted inner product. Global
    phases are left free: matching and the variation law do not see them.
    ``gap_threshold`` is ``GAP_TOL_REL`` times the operator norm (at least
    1); ``kernel_index`` locates the single eigenvalue below it.
    ``min_gaps`` is each eigenvalue's distance to its nearest neighbor.
    A stack (``lb_spectra``) puts a leading sample axis on every field, and
    ``data[k]``, sample ``k``'s record, holds views of its arrays.
    """

    eigenvalues: np.ndarray
    vectors_flat: np.ndarray
    vectors_weighted: np.ndarray
    gap_threshold: np.ndarray
    kernel_index: np.ndarray
    min_gaps: np.ndarray

    def __getitem__(self, k) -> "SpectralData":
        # Not dataclasses.astuple: it deep-copies every array.
        return SpectralData(*(getattr(self, f.name)[k] for f in fields(self)))


def lb_spectrum(torus: FuzzyTorus, c) -> SpectralData:
    """Eigenvalues and eigenvectors of the curved Laplacian for metric ``c``.

    Diagonalizes the conjugated (Hermitian) form, so the eigenvalues are real
    and returned ascending with Hilbert-Schmidt-orthonormal flat
    eigenvectors. Exactly one eigenvalue sits below the kernel threshold;
    its weighted eigenvector is proportional to the identity. The record is
    ``lb_spectra(torus, [c])[0]``.
    """
    return lb_spectra(torus, [c])[0]


def lb_spectra(torus: FuzzyTorus, states, times=None) -> SpectralData:
    """The spectra of every metric or state in ``states``, as one stacked :class:`SpectralData`.

    The one spectrum implementation: one stacked operator build
    (``len(states) * n^4`` entries) and one ``eigh`` call, with no
    per-sample object. The zero modes are counted for the whole stack at
    once: the first state without exactly one raises ``MetricDegenerate``,
    with its ``times`` entry. No states raise ``InsufficientData``.
    """
    spaces = [metric_state(torus, c) for c in states]
    if not spaces:
        raise InsufficientData("no metric states to decompose")
    s = stacked_power(spaces, -0.5)
    w, v = np.linalg.eigh(torus.conjugated_laplacians(s))
    n, count = torus.n, len(spaces)
    thresholds = GAP_TOL_REL * np.maximum(np.max(np.abs(w), axis=-1, initial=0.0), 1.0)
    kernels = np.abs(w) < thresholds[:, None]
    zero_modes = np.count_nonzero(kernels, axis=-1)
    if np.any(zero_modes != 1):
        k = int(np.argmax(zero_modes != 1))
        raise MetricDegenerate(
            f"expected exactly one zero mode, found {zero_modes[k]} "
            f"eigenvalues below {thresholds[k]:.3e}",
            time=None if times is None else float(times[k]),
        )

    # Column i of each eigenvector matrix is the row-major flattening of vector i.
    vectors_flat = v.swapaxes(-1, -2).reshape(count, n * n, n, n)
    vectors = right_product(vectors_flat, s)
    # weighted_inner's sum, with its product a c taken once per sample.
    vc = right_product(vectors, np.stack([space.c for space in spaces]))
    vectors = vectors / np.sqrt(np.sum(vc.conj() * vectors, axis=(-2, -1)).real)[..., None, None]
    # Ascending eigenvalues: abs leaves every gap's bits as np.diff gives them.
    gaps = np.abs(np.diff(w, axis=-1))
    inf = np.full((count, 1), np.inf)
    min_gaps = np.minimum(np.concatenate([gaps, inf], -1), np.concatenate([inf, gaps], -1))
    return SpectralData(w, vectors_flat, vectors, thresholds, kernels.argmax(-1), min_gaps)


def spectrum_to_json(data: SpectralData, t: float) -> dict:
    """Spectrum at time ``t`` as JSON: eigenvalues plus weighted-normalized eigenvectors.

    The eigenvectors are a :class:`LazyDocs`, each matrix's document built when read.
    """
    # Index runs whose consecutive gaps fall below the threshold, cut at the
    # gaps of at least it; np.split would cost ~4x more.
    cuts = np.flatnonzero(np.diff(data.eigenvalues) >= data.gap_threshold) + 1
    bounds = [0, *cuts.tolist(), len(data.eigenvalues)]
    return {
        "eigenvalues": data.eigenvalues.tolist(),
        "eigenvectors_Hc": LazyDocs(matrix_to_json, data.vectors_weighted),
        "kernel_index": int(data.kernel_index),
        "degeneracy_groups": [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])],
        "t": float(t),
    }


def rayleigh_quotient(torus: FuzzyTorus, space, a) -> np.ndarray:
    """Eigenvalue via tr(a* La) / tr(c a* a) of each nonzero matrix in a stack ``(..., n, n)``.

    ``space`` and ``a`` must match the torus's size (``InvalidInput``); ``L`` is applied once.
    """
    space = metric_state(torus, space)
    a = np.asarray(a, dtype=complex)
    den = space.inner(a, a).real
    if np.any(den <= 0):
        raise InvalidInput("Rayleigh quotient of a null vector")
    num = np.sum(a.conj() * torus.laplacian_apply(a), axis=(-2, -1)).real
    return num / den

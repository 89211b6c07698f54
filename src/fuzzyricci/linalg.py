"""Dense complex linear algebra kernels.

Matrices are plain complex ``numpy`` arrays, and so is every dense operator
on them: an ``(n^2, n^2)`` array acting on flattened matrices. The module
provides the Hilbert-Schmidt structure ``<a,b> = tr(a* b)``, Hermitian
eigendecomposition with a fixed symmetrization policy, functional calculus
``f(a) = V f(L) V*``, an operator's ``hermiticity_defect``, the vectorization
of linear matrix maps by probing matrix units (``superop_from_map``), the
reference that the closed-form operators are checked against, and
``gaussian_matrices``, the one seeded draw of complex Gaussian matrices
behind every random input.

Flattening convention: an ``n x n`` matrix is flattened row-major (C order),
so the matrix unit ``E[j,k]`` maps to basis index ``j*n + k``. Under this
convention the Hilbert-Schmidt inner product of matrices equals the standard
complex dot product of their flattened vectors, so Hermiticity and positivity
of an operator can be read off its ``n^2 x n^2`` matrix directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInput, SpectrumOutOfDomain

# Hermiticity drift up to HERM_TOL_SCALE * ||a|| is silently symmetrized;
# anything larger is an error, not roundoff.
HERM_TOL_SCALE = 1e-10


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray or raise ``InvalidInput``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    return a


def as_int(value) -> int:
    """An integer read from outside input: an int, an integral float, or a numeral string.

    Raises ``TypeError`` for a bool (JSON ``true`` is not 1) and ``ValueError``
    for a non-integral value, instead of truncating it as ``int`` does.
    """
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def as_complex(re, im) -> complex:
    """A complex number read from an outside ``[re, im]`` pair of numbers.

    Raises ``TypeError`` for a bool part (JSON ``true`` is not 1), as
    ``as_int`` does.
    """
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError(f"expected numbers, got [{re!r}, {im!r}]")
    return complex(re, im)


def gaussian_matrices(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` complex ``n x n`` matrices ``X + iY`` of standard normals, ``X`` drawn first."""
    z = rng.standard_normal((count, 2, n, n))
    return z[:, 0] + 1j * z[:, 1]


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(a* b), conjugate-linear in ``a``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise InvalidInput(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(tr(a* a)), from one BLAS dot product."""
    a = np.asarray(a)
    return math.sqrt(np.vdot(a, a).real)


@dataclass(eq=False, slots=True)
class HermitianEig:
    """Eigendecomposition ``V diag(eigenvalues) V*`` of the Hermitian ``matrix``.

    Unpacks as ``eigenvalues, eigenvectors``.
    """

    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary, eigenvectors in columns
    matrix: np.ndarray  # the symmetrized input that was decomposed

    def __iter__(self):
        return iter((self.eigenvalues, self.eigenvectors))


def hermitian_eig(a) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a stack ``(..., n, n)``.

    The input may drift off Hermitian by up to ``HERM_TOL_SCALE * ||a||``
    (roundoff); it is symmetrized before decomposition, and the
    result keeps that symmetrized matrix. A larger defect, or a non-finite
    norm (a NaN or inf entry), raises ``InvalidInput``; a stack is checked
    one matrix at a time, in order, and decomposed by one ``eigh`` call,
    with the same bits as separate calls. A real input stays real, with
    real orthogonal eigenvectors. Output is deterministic for identical
    input: eigenvalues ascending, eigenvectors in the corresponding columns.
    """
    a = np.asarray(a)
    a = _symmetrized(np.asarray(a, dtype=float if a.dtype == float else complex))
    w, v = np.linalg.eigh(a)
    return HermitianEig(w, v, a)


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """``(a + a*)/2``, once each matrix of ``a`` is checked square, finite and Hermitian."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"matrix must be square, got shape {a.shape}")
    adjoint = a.conj().swapaxes(-1, -2)
    n = a.shape[-1]
    # vdot norms per matrix: np.vecdot costs ~2x per matrix at n=16
    for m, m_adjoint in zip(a.reshape(-1, n, n), adjoint.reshape(-1, n, n)):
        norm = hs_norm(m)
        # Against a NaN or inf norm the defect test below would pass.
        if not math.isfinite(norm):
            raise InvalidInput(f"matrix norm is not finite: ||a|| = {norm}")
        defect = hs_norm(m - m_adjoint)
        if defect > HERM_TOL_SCALE * norm:
            raise InvalidInput(
                f"matrix is not Hermitian: ||a - a*|| = {defect:.3e} "
                f"exceeds {HERM_TOL_SCALE:g} * ||a||"
            )
    return (a + adjoint) / 2


def matrix_function(a, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Computes ``V f(L) V*`` from the eigendecomposition ``a = V L V*``. ``f``
    is evaluated on the whole eigenvalue array (a numpy ufunc or an array
    expression). If ``f`` is undefined at some eigenvalue (non-finite result,
    e.g. ``log`` at a value <= 0) the offending eigenvalue is reported via
    ``SpectrumOutOfDomain``. The result is Hermitian whenever ``f`` is
    real-valued.
    """
    eig = hermitian_eig(a)
    w = eig.eigenvalues
    with np.errstate(all="ignore"):
        fw = np.asarray(f(w))
    bad = ~np.isfinite(fw)
    if np.any(bad):
        offending = float(w[np.argmax(bad)])
        raise SpectrumOutOfDomain(
            f"function undefined at eigenvalue {offending!r}", eigenvalue=offending
        )
    v = eig.eigenvectors
    return (v * fw) @ v.conj().T


def matrix_exp(a) -> np.ndarray:
    """Exponential of a Hermitian matrix."""
    return matrix_function(a, np.exp)


def hermiticity_defect(m: np.ndarray) -> float:
    """||M - M*|| relative to ||M|| (Hilbert-Schmidt norms)."""
    return hs_norm(m - m.conj().T) / hs_norm(m)


def superop_from_map(n: int, map_fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Vectorize a linear matrix map into its dense ``(n^2, n^2)`` matrix.

    Probes the map on each of the n^2 matrix units: column ``j*n + k`` holds
    the flattened image of ``E[j,k]``. The package builds its operators in
    closed form; this is the independent reference they are checked against.
    Linearity is checked probabilistically on a fixed pair of seeded random
    inputs before the columns are assembled; a nonlinear map or one
    returning the wrong shape raises ``InvalidInput``.
    """
    if n < 1:
        raise InvalidInput(f"dimension must be positive, got {n}")
    rng = np.random.default_rng(0)
    for _ in range(2):
        a, b = gaussian_matrices(rng, 2, n)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        fa, fb = map_fn(a), map_fn(b)
        fab = map_fn(alpha * a + b)
        scale = max(np.linalg.norm(fa), np.linalg.norm(fb), 1.0)
        if np.linalg.norm(fab - alpha * fa - fb) > 1e-10 * scale * (1 + abs(alpha)):
            raise InvalidInput("map is not linear")

    matrix = np.zeros((n * n, n * n), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            unit[j, k] = 1.0
            image = np.asarray(map_fn(unit), dtype=complex)
            if image.shape != (n, n):
                raise InvalidInput(
                    f"map returned shape {image.shape}, expected {(n, n)}"
                )
            matrix[:, j * n + k] = image.reshape(-1)
            unit[j, k] = 0.0
    return matrix


def matrix_to_json(a) -> dict:
    """Encode a square complex matrix as ``{"n": ..., "entries": [[re, im], ...]}``."""
    a = as_square_matrix(a)
    entries = np.ascontiguousarray(a).view(float).reshape(-1, 2).tolist()
    return {"n": int(a.shape[0]), "entries": entries}


def matrix_from_json(doc: dict) -> np.ndarray:
    """Decode a matrix from the JSON form produced by :func:`matrix_to_json`.

    Raises ``InvalidInput`` unless ``doc`` holds ``n`` and ``n*n`` numeric
    ``[re, im]`` pairs.
    """
    try:
        n = as_int(doc["n"])
        entries = list(doc["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed matrix document: {exc}") from exc
    if n < 1 or len(entries) != n * n:
        raise InvalidInput(
            f"matrix document has {len(entries)} entries, expected {n * n}"
        )
    try:
        flat = np.array([as_complex(re, im) for re, im in entries], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"matrix entries must be numeric [re, im] pairs: {exc}") from exc
    return flat.reshape(n, n)

"""Dense complex linear algebra kernels.

Matrices are plain complex ``numpy`` arrays, and so is every dense operator
on them: an ``(n^2, n^2)`` array acting on flattened matrices. The module
provides the Hilbert-Schmidt structure ``<a,b> = tr(a* b)``, the checked
Hermitian eigendecomposition of a matrix from outside the program, the
matrix that ``eigh`` decomposes (``lower_mirrored``), functional calculus
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
from collections.abc import Sequence
from typing import Callable

import numpy as np

from .errors import InvalidInput, SpectrumOutOfDomain

# Hermiticity drift up to HERM_TOL_SCALE * ||a|| is roundoff, and eigh reads
# only the lower triangle; anything larger is an error.
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


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of one Hermitian matrix from outside the program, once it is checked.

    The input may drift off Hermitian by up to ``HERM_TOL_SCALE * ||a||``
    (roundoff); ``eigh`` reads its lower triangle only, so what is decomposed
    is ``lower_mirrored(a, np.tri(n, dtype=bool))``. A non-square input, a
    larger defect, or a non-finite norm (a NaN or inf entry) raises
    ``InvalidInput``. Matrices the program builds itself go straight to
    ``eigh``. Unpacks as ``eigenvalues, eigenvectors``: ascending, with the
    eigenvectors in the corresponding columns.
    """
    a = as_square_matrix(a)
    norm = hs_norm(a)
    # Against a NaN or inf norm the defect test below would pass.
    if not math.isfinite(norm):
        raise InvalidInput(f"matrix norm is not finite: ||a|| = {norm}")
    defect = hs_norm(a - a.conj().T)
    if defect > HERM_TOL_SCALE * norm:
        raise InvalidInput(
            f"matrix is not Hermitian: ||a - a*|| = {defect:.3e} "
            f"exceeds {HERM_TOL_SCALE:g} * ||a||"
        )
    return np.linalg.eigh(a)


def lower_mirrored(a: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """What ``eigh`` decomposes for ``a``: its triangle ``lower``, mirrored, real diagonal."""
    a = np.where(lower, a, a.conj().T)
    np.fill_diagonal(a, a.diagonal().real)
    return a


def matrix_function(a, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Computes ``V f(L) V*`` from the eigendecomposition ``a = V L V*``. ``f``
    is evaluated on the whole eigenvalue array (a numpy ufunc or an array
    expression). If ``f`` is undefined at some eigenvalue (non-finite result,
    e.g. ``log`` at a value <= 0) the offending eigenvalue is reported via
    ``SpectrumOutOfDomain``. The result is Hermitian whenever ``f`` is
    real-valued.
    """
    w, v = hermitian_eig(a)
    with np.errstate(all="ignore"):
        fw = np.asarray(f(w))
    bad = ~np.isfinite(fw)
    if np.any(bad):
        offending = float(w[np.argmax(bad)])
        raise SpectrumOutOfDomain(
            f"function undefined at eigenvalue {offending!r}", eigenvalue=offending
        )
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


class LazyDocs(Sequence):
    """Read-only sequence of the JSON documents ``build(item)`` of ``items``.

    Each document is built when it is read, so encoding the sequence holds
    one item's Python lists at a time, not all of them: a stack ``(K, n, n)``
    with :func:`matrix_to_json`, say, or a trajectory's samples.
    """

    def __init__(self, build: Callable, items: Sequence):
        self._build = build
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int):
        return self._build(self._items[index])


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

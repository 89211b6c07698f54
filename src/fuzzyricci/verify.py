"""Cross-module invariant suite: algebra, flow conservation, spectra, curves.

Every check produces a row ``{check, params, tolerance, measured, passed}``
so the CLI can emit a machine-readable verdict table. Checks are grouped per
module and scaled to run in seconds: exhaustive over coprime pairs for the
pure algebra, seeded-sample based for flows and spectra.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import InvalidInput, InvalidParams
from .flow import DET_SLACK, FlowConfig, flow_invariants, random_metric, run_flow
from .laplace_beltrami import (
    COUNTEREXAMPLE_SEED,
    lb_conjugated_superop,
    lb_spectra,
    lb_spectrum,
    metric_state,
    rayleigh_quotient,
    rejected_operator_superop,
)
from .linalg import (
    as_complex,
    as_int,
    gaussian_matrices,
    hermiticity_defect,
    hs_inner,
    hs_norm,
    matrix_from_json,
    matrix_function,
)
from .torus import FuzzyTorus, commutant_dimension
from .tracking import (
    FORMS_BUDGET,
    RESIDUAL_BUDGET,
    first_variation_report,
    variation_rhs,
)

# Tolerances from the acceptance contract.
TOL_RELATION = 1e-12
TOL_UNITARITY = 1e-12
TOL_EXP_LOG = 1e-11
TOL_LAP_HERM = 1e-12
TOL_LAP_PSD = 1e-12
TOL_LAP_TRACE = 1e-12
# ||L(S a) - S(L a)|| / ||a|| in units of ||L||: about 45 roundoffs.
TOL_LAP_REFLECTION = 1e-14
KERNEL_THRESHOLD = 1e-8
MIN_SPECTRAL_GAP = 1e-6
TOL_TRACE_DRIFT = 1e-9
TOL_FLAT_LIMIT = 1e-6
TOL_LB_HERM = 1e-11
TOL_LB_PSD = 1e-10
TOL_UC = 1e-11
TOL_RAYLEIGH = 1e-9
TOL_STATE_ZERO = 1e-10
TOL_COUNTEREXAMPLE = 1e-6

# Sizes, seeds and sample counts of the suite; each row's params record the
# ones it ran with.
LINALG_N = 4
LINALG_SAMPLES = 100
LAPLACIAN_SAMPLES = 20
FLOW_T1 = 50.0
FLOW_SEEDS = (0, 1, 2)
LB_SEEDS = range(5)
TRACK_N, TRACK_M, TRACK_SEED = 2, 1, 7
TRACK_T1, TRACK_STRIDE = 0.1, 2e-3


def _hs_norms(a: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt norm of each matrix in a stack ``(..., n, n)``."""
    return np.linalg.norm(a, axis=(-2, -1))


def _check(name: str, params: str, tolerance, measured, passed: bool) -> dict:
    return {
        "check": name,
        "params": params,
        "tolerance": None if tolerance is None else float(tolerance),
        "measured": None if measured is None else float(measured),
        "passed": bool(passed),
    }


def _leq(name: str, params: str, measured: float, tolerance: float) -> dict:
    return _check(name, params, tolerance, measured, measured <= tolerance)


def _geq(name: str, params: str, measured: float, tolerance: float) -> dict:
    return _check(name, params, tolerance, measured, measured >= tolerance)


def _report(checks: list[dict], **head) -> dict:
    """The report document: ``head``, the verdict counts, then every row."""
    failures = sum(1 for c in checks if not c["passed"])
    return {
        **head,
        "total": len(checks),
        "failures": failures,
        "passed": failures == 0,
        "checks": checks,
    }


def coprime_pairs(n_max: int) -> Iterable[tuple[int, int]]:
    for n in range(2, n_max + 1):
        for m in range(1, n):
            if math.gcd(m, n) == 1:
                yield n, m


def geometry_checks(n: int, q: complex, u, v, x, y, params: str) -> list[dict]:
    """Relation, unitarity, exponential-consistency, and commutant checks.

    Operates on raw matrices so that externally supplied geometry dumps
    (possibly tampered) run through the identical battery.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    eye = np.eye(n)
    checks = [
        _leq("exchange_relation", params, hs_norm(v @ u - q * (u @ v)), TOL_RELATION),
        _leq("unitarity_u", params, hs_norm(u.conj().T @ u - eye), TOL_UNITARITY),
        _leq("unitarity_v", params, hs_norm(v.conj().T @ v - eye), TOL_UNITARITY),
    ]
    phase = 2j * np.pi / n
    exp_x = matrix_function(np.asarray(x, dtype=complex), lambda w: np.exp(phase * w))
    exp_y = matrix_function(np.asarray(y, dtype=complex), lambda w: np.exp(phase * w))
    checks.append(_leq("exp_x_is_u", params, hs_norm(exp_x - u), TOL_EXP_LOG))
    checks.append(_leq("exp_y_is_v", params, hs_norm(exp_y - v), TOL_EXP_LOG))

    powers = q ** np.arange(1, n + 1)
    primitive = abs(powers[-1] - 1) <= 1e-12 and np.all(np.abs(powers[:-1] - 1) > 1e-12)
    checks.append(_check("q_primitive_root", params, None, None, bool(primitive)))

    dim = commutant_dimension(u, v)
    checks.append(_check("commutant_dimension", params, 1.0, dim, dim == 1))
    return checks


def geometry_file_report(doc: dict, name: str) -> dict:
    """Report of the geometry battery on a JSON dump (the negative-control path)."""
    try:
        n = as_int(doc["n"])
        m = as_int(doc["m"])
        q = as_complex(doc["q"][0], doc["q"][1])
        u = matrix_from_json(doc["u"])
        v = matrix_from_json(doc["v"])
        x = matrix_from_json(doc["x"])
        y = matrix_from_json(doc["y"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InvalidInput(f"malformed geometry document: {exc}") from exc
    shapes = [a.shape for a in (u, v, x, y)]
    if n < 1 or any(shape != (n, n) for shape in shapes):
        raise InvalidInput(f"geometry document has n={n} but matrices of shapes {shapes}")
    return _report(geometry_checks(n, q, u, v, x, y, f"file:n={n},m={m}"), geometry=name)


def laplacian_checks(torus: FuzzyTorus) -> list[dict]:
    params = f"n={torus.n},m={torus.m}"
    # L's dense matrix is the closed form of a -> L(a S) S at S = I.
    mat = torus.conjugated_laplacians(np.eye(torus.n)[None])[0]
    checks = [_leq("laplacian_hermitian", params, hermiticity_defect(mat), TOL_LAP_HERM)]

    # The norm, spectrum, kernel and gap come from L's real form on Hermitian
    # matrices, the one the exponential tail uses; eigh lists it ascending.
    split = torus.laplacian_split
    w = split.eigenvalues
    norm = float(np.max(np.abs(w)))
    checks.append(_geq("laplacian_psd", params, float(w[0]), -TOL_LAP_PSD * norm))
    kernel = np.flatnonzero(np.abs(w) < KERNEL_THRESHOLD * max(norm, 1.0))
    checks.append(_check("laplacian_kernel_dim", params, 1.0, len(kernel), len(kernel) == 1))
    if len(kernel) == 1:
        idx = int(kernel[0])
        gap = float(w[idx + 1]) if idx + 1 < len(w) else np.inf
        checks.append(
            _check("laplacian_spectral_gap", params, MIN_SPECTRAL_GAP, gap, gap > MIN_SPECTRAL_GAP)
        )
        # The identity's eigen-coordinates are its overlaps with the eigenvectors.
        identity = split.to_eigen(np.eye(torus.n) / np.sqrt(torus.n))
        overlap = abs(identity[idx])
        checks.append(
            _check("laplacian_kernel_is_identity", params, 1e-10, 1 - overlap, 1 - overlap <= 1e-10)
        )

    a = gaussian_matrices(np.random.default_rng(2024), LAPLACIAN_SAMPLES, torus.n)
    image = torus.laplacian_apply(a)
    size = _hs_norms(a)
    worst_trace = np.max(np.abs(np.trace(image, axis1=-2, axis2=-1)) / size)
    adjoint = torus.laplacian_apply(a.conj().swapaxes(-1, -2))
    worst_herm = np.max(_hs_norms(image.conj().swapaxes(-1, -2) - adjoint) / size)
    # L commutes with S(a) = P a^T P (P the index reversal): P x P = m(n-1) I - x, P y P = y^T.
    reflected = torus.laplacian_apply(a.swapaxes(-1, -2)[:, ::-1, ::-1])
    worst_reflection = np.max(_hs_norms(reflected - image.swapaxes(-1, -2)[:, ::-1, ::-1]) / size)
    checks.append(_leq("laplacian_kills_trace", params, worst_trace, TOL_LAP_TRACE))
    checks.append(_leq("laplacian_respects_adjoint", params, worst_herm, TOL_LAP_TRACE))
    reflection_tol = TOL_LAP_REFLECTION * max(norm, 1.0)
    checks.append(_leq("laplacian_commutes_with_reflection", params, worst_reflection, reflection_tol))
    return checks


def linalg_checks() -> list[dict]:
    n = LINALG_N
    params = f"n={n}"
    rng = np.random.default_rng(7)
    g = gaussian_matrices(rng, 1, n)[0]
    h = (g + g.conj().T) / 2
    ident_res = hs_norm(matrix_function(h, lambda w: w) - h)
    checks = [_leq("functional_calculus_identity", params, ident_res, 1e-12 * n * hs_norm(h))]

    worst_pos = min(hs_inner(b, b).real for b in gaussian_matrices(rng, LINALG_SAMPLES, n))
    checks.append(_check("hs_inner_positive", params, 0.0, worst_pos, worst_pos > 0.0))
    return checks


def flow_checks(n: int) -> list[dict]:
    torus = FuzzyTorus(n)
    config = FlowConfig(t1=FLOW_T1, sample_stride=1.0)
    checks = []
    for seed in FLOW_SEEDS:
        params = f"n={n},m=1,seed={seed}"
        c0 = random_metric(n, seed)
        result = run_flow(torus, c0, config)
        drift, drop = flow_invariants(result)
        checks.append(_leq("flow_trace_drift", params, drift, TOL_TRACE_DRIFT))
        checks.append(_leq("flow_det_nondecreasing", params, drop, DET_SLACK))

        min_eig = min(s.min_eig for s in result.samples)
        checks.append(_check("flow_positivity", params, 0.0, min_eig, min_eig > 0.0))
        checks.append(
            _leq("flow_flat_limit", params, result.final.dist_to_flat, TOL_FLAT_LIMIT)
        )
    return checks


def lb_checks(torus: FuzzyTorus) -> list[dict]:
    checks = []
    rng = np.random.default_rng(11)
    for seed in LB_SEEDS:
        params = f"n={torus.n},m={torus.m},seed={seed}"
        c = random_metric(torus.n, seed)
        space = metric_state(torus, c)
        op = lb_conjugated_superop(torus, space)
        checks.append(_leq("lb_hermitian", params, hermiticity_defect(op), TOL_LB_HERM))

        data = lb_spectrum(torus, space)
        norm = max(data.operator_norm, 1.0)
        checks.append(_geq("lb_psd", params, float(data.eigenvalues[0]), -TOL_LB_PSD * norm))

        a, b = gaussian_matrices(rng, 2, torus.n)
        lhs = hs_inner(space.to_flat(a), space.to_flat(b))
        rhs = space.inner(a, b)
        uc_err = abs(lhs - rhs) / max(abs(rhs), 1.0)
        checks.append(_leq("uc_preserves_inner", params, uc_err, TOL_UC))

        vectors, lam = data.vectors_weighted, data.eigenvalues
        ray = rayleigh_quotient(torus, space, vectors)
        worst_ray = np.max(np.abs(ray - lam) / np.maximum(np.abs(lam), 1.0))
        others = vectors[np.arange(len(lam)) != data.kernel_index]
        worst_state = np.max(np.abs(space.state(others)) / (hs_norm(space.c) * space.norm(others)))
        checks.append(_leq("lb_rayleigh_identity", params, worst_ray, TOL_RAYLEIGH))
        checks.append(_leq("lb_state_vanishes", params, worst_state, TOL_STATE_ZERO))
    return checks


def counterexample_check() -> dict:
    """The rejected-operator negative control at n = 2: Hermiticity must fail."""
    c = random_metric(2, COUNTEREXAMPLE_SEED)
    defect = hermiticity_defect(rejected_operator_superop(FuzzyTorus(2), c))
    return _check(
        "rejected_operator_not_hermitian",
        f"n=2,seed={COUNTEREXAMPLE_SEED}",
        TOL_COUNTEREXAMPLE,
        defect,
        defect > TOL_COUNTEREXAMPLE,
    )


def tracking_checks() -> list[dict]:
    n = TRACK_N
    torus = FuzzyTorus(n, TRACK_M)
    config = FlowConfig(t1=TRACK_T1, sample_stride=TRACK_STRIDE)
    trajectory = run_flow(torus, random_metric(n, TRACK_SEED), config)
    report = first_variation_report(trajectory)
    params = f"n={n},m={TRACK_M},seed={TRACK_SEED},h={TRACK_STRIDE:g}"

    checks = [
        _leq("variation_residual_rel", params, report.max_rel_residual, RESIDUAL_BUDGET),
        _leq("variation_forms_agree", params, report.max_form_discrepancy, FORMS_BUDGET),
        _check(
            "tracking_no_flags", params, 0.0, report.flagged_samples, report.flagged_samples == 0
        ),
    ]

    # The eigenvectors the law consumed: each sample's spectrum, in spectral order.
    spectra = lb_spectra(torus, [s.space for s in trajectory.samples])
    c = np.stack([s.c for s in trajectory.samples])[:, None]
    vectors, kernels = spectra.vectors_weighted, spectra.kernel_indices
    # The literal tr(c a* a), not the formula lb_spectra normalizes with.
    norms = np.trace(c @ vectors.conj().swapaxes(-1, -2) @ vectors, axis1=-2, axis2=-1)
    worst_norm = np.max(np.abs(np.sqrt(norms.real) - 1.0))
    off_kernel = np.arange(n * n) != kernels[:, None]
    worst_state = np.max(np.abs(np.trace(c @ vectors, axis1=-2, axis2=-1))[off_kernel])
    # A kernel vector is I / sqrt(tr c) times a free phase: make its trace real positive.
    kernel = vectors[np.arange(len(vectors)), kernels]
    trace = np.trace(kernel, axis1=-2, axis2=-1)
    aligned = kernel * (trace.conj() / np.abs(trace))[:, None, None]
    target = np.eye(n) / np.sqrt(np.trace(c[:, 0], axis1=-2, axis2=-1).real)[:, None, None]
    kernel_ok = bool(np.all(_hs_norms(aligned - target) <= 1e-8))
    checks.append(_leq("curve_normalization", params, worst_norm, 1e-10))
    checks.append(_leq("curve_state_vanishes", params, worst_state, 1e-9))
    checks.append(_check("kernel_curve_is_identity", params, None, None, kernel_ok))

    # Phase invariance of the formula: rotating an eigenvector must not move it.
    vector = vectors[0, -1]
    phases = np.exp(1j * np.random.default_rng(5).uniform(0, 2 * np.pi, size=5))
    rotations = np.concatenate([vector[None], phases[:, None, None] * vector])
    values = np.full((1, len(rotations)), spectra.eigenvalues[0, -1])
    rhs = variation_rhs(trajectory.samples[:1], values, rotations[None])[0]
    worst_phase = np.max(np.abs(rhs[1:] - rhs[0]))
    checks.append(_leq("variation_phase_invariance", params, worst_phase, 1e-10))
    return checks


def run_suite(n_max: int = 8) -> dict:
    """Full invariant suite; returns the machine-readable report document."""
    if not 2 <= n_max <= 8:
        raise InvalidParams(f"n_max must be between 2 and 8, got {n_max}")
    checks: list[dict] = []
    checks += linalg_checks()
    for n, m in coprime_pairs(n_max):
        torus = FuzzyTorus(n, m)
        checks += geometry_checks(n, torus.q, torus.u, torus.v, torus.x, torus.y, f"n={n},m={m}")
        checks += laplacian_checks(torus)
    for n in (2, 3, 4):
        if n <= n_max:
            checks += flow_checks(n)
    for n in (2, 3):
        if n <= n_max:
            checks += lb_checks(FuzzyTorus(n))
    checks.append(counterexample_check())
    checks += tracking_checks()
    return _report(checks, n_max=n_max)

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
    WeightedSpace,
    lb_conjugated_superop,
    lb_spectrum,
    rayleigh_quotient,
    rejected_operator_superop,
)
from .linalg import (
    as_complex,
    as_int,
    gaussian_matrices,
    hs_inner,
    hs_norm,
    matrix_from_json,
    matrix_function,
    superop_from_map,
)
from .torus import FuzzyTorus, commutant_dimension
from .tracking import (
    FORMS_BUDGET,
    RESIDUAL_BUDGET,
    first_variation_report,
    track_spectrum,
    variation_rhs,
)

# Tolerances from the acceptance contract.
TOL_RELATION = 1e-12
TOL_UNITARITY = 1e-12
TOL_EXP_LOG = 1e-11
TOL_LAP_HERM = 1e-12
TOL_LAP_PSD = 1e-12
TOL_LAP_TRACE = 1e-12
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
    return _report(geometry_checks(n, q, u, v, x, y, f"file:n={n},m={m}"), geometry=name)


def laplacian_checks(torus: FuzzyTorus) -> list[dict]:
    params = f"n={torus.n},m={torus.m}"
    op = torus.laplacian
    mat = op.matrix
    norm = float(np.linalg.norm(mat, 2))
    checks = [_leq("laplacian_hermitian", params, op.hermiticity_defect(), TOL_LAP_HERM)]

    w, vecs = torus.laplacian_eig
    checks.append(_geq("laplacian_psd", params, float(w[0]), -TOL_LAP_PSD * norm))
    kernel = np.flatnonzero(np.abs(w) < KERNEL_THRESHOLD * max(norm, 1.0))
    checks.append(_check("laplacian_kernel_dim", params, 1.0, len(kernel), len(kernel) == 1))
    if len(kernel) == 1:
        idx = int(kernel[0])
        gap = float(w[idx + 1]) if idx + 1 < len(w) else np.inf
        checks.append(
            _check("laplacian_spectral_gap", params, MIN_SPECTRAL_GAP, gap, gap > MIN_SPECTRAL_GAP)
        )
        identity_flat = np.eye(torus.n, dtype=complex).reshape(-1) / np.sqrt(torus.n)
        overlap = abs(np.vdot(identity_flat, vecs[:, idx]))
        checks.append(
            _check("laplacian_kernel_is_identity", params, 1e-10, 1 - overlap, 1 - overlap <= 1e-10)
        )

    rng = np.random.default_rng(2024)
    worst_trace = 0.0
    worst_herm = 0.0
    for a in gaussian_matrices(rng, LAPLACIAN_SAMPLES, torus.n):
        image = torus.laplacian_apply(a)
        worst_trace = max(worst_trace, abs(np.trace(image)) / hs_norm(a))
        worst_herm = max(
            worst_herm,
            hs_norm(image.conj().T - torus.laplacian_apply(a.conj().T)) / hs_norm(a),
        )
    checks.append(_leq("laplacian_kills_trace", params, worst_trace, TOL_LAP_TRACE))
    checks.append(_leq("laplacian_respects_adjoint", params, worst_herm, TOL_LAP_TRACE))
    return checks


def linalg_checks() -> list[dict]:
    n = LINALG_N
    params = f"n={n}"
    rng = np.random.default_rng(7)
    g = gaussian_matrices(rng, 1, n)[0]
    h = (g + g.conj().T) / 2
    ident_res = hs_norm(matrix_function(h, lambda w: w) - h)
    checks = [_leq("functional_calculus_identity", params, ident_res, 1e-12 * n * hs_norm(h))]

    op = superop_from_map(n, lambda a: h @ a - a @ h)
    worst_apply = 0.0
    worst_pos = np.inf
    for b in gaussian_matrices(rng, LINALG_SAMPLES, n):
        direct = h @ b - b @ h
        worst_apply = max(worst_apply, hs_norm(op.apply(b) - direct) / hs_norm(b))
        worst_pos = min(worst_pos, hs_inner(b, b).real)
    checks.append(_leq("superop_matches_map", params, worst_apply, 1e-12))
    checks.append(
        _check("hs_inner_positive", params, 0.0, worst_pos, worst_pos > 0.0)
    )
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
        space = WeightedSpace.from_metric(c)
        op = lb_conjugated_superop(torus, space)
        checks.append(_leq("lb_hermitian", params, op.hermiticity_defect(), TOL_LB_HERM))

        data = lb_spectrum(torus, space)
        norm = max(data.operator_norm, 1.0)
        checks.append(_geq("lb_psd", params, float(data.eigenvalues[0]), -TOL_LB_PSD * norm))

        a, b = gaussian_matrices(rng, 2, torus.n)
        lhs = hs_inner(space.to_flat(a), space.to_flat(b))
        rhs = space.inner(a, b)
        uc_err = abs(lhs - rhs) / max(abs(rhs), 1.0)
        checks.append(_leq("uc_preserves_inner", params, uc_err, TOL_UC))

        worst_ray = 0.0
        worst_state = 0.0
        c_norm = hs_norm(space.c)
        for i, wv in enumerate(data.vectors_weighted):
            lam = float(data.eigenvalues[i])
            ray = rayleigh_quotient(torus, space, wv)
            worst_ray = max(worst_ray, abs(ray - lam) / max(abs(lam), 1.0))
            if i != data.kernel_index:
                worst_state = max(
                    worst_state, abs(space.state(wv)) / (c_norm * space.norm(wv))
                )
        checks.append(_leq("lb_rayleigh_identity", params, worst_ray, TOL_RAYLEIGH))
        checks.append(_leq("lb_state_vanishes", params, worst_state, TOL_STATE_ZERO))
    return checks


def counterexample_check() -> dict:
    """The rejected-operator negative control at n = 2: Hermiticity must fail."""
    c = random_metric(2, COUNTEREXAMPLE_SEED)
    defect = rejected_operator_superop(FuzzyTorus(2), c).hermiticity_defect()
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
    curves = track_spectrum(trajectory)
    report = first_variation_report(curves, trajectory)
    params = f"n={n},m={TRACK_M},seed={TRACK_SEED},h={TRACK_STRIDE:g}"

    checks = [
        _leq("variation_residual_rel", params, report.max_rel_residual, RESIDUAL_BUDGET),
        _leq("variation_forms_agree", params, report.max_form_discrepancy, FORMS_BUDGET),
        _check(
            "tracking_no_flags", params, 0.0, report.flagged_samples, report.flagged_samples == 0
        ),
    ]

    off_kernel = np.arange(n * n) != curves.kernel
    worst_norm = 0.0
    worst_state = 0.0
    kernel_ok = True
    for sample, vectors in zip(trajectory.samples, curves.vectors):
        space = sample.space
        worst_norm = max(worst_norm, float(np.max(np.abs(space.norm(vectors) - 1.0))))
        state = space.state(vectors[off_kernel])
        worst_state = max(worst_state, float(np.max(np.abs(state))))
        target = np.eye(n) / np.sqrt(space.trace)
        kernel_ok = kernel_ok and hs_norm(vectors[curves.kernel] - target) <= 1e-8
    checks.append(_leq("curve_normalization", params, worst_norm, 1e-10))
    checks.append(_leq("curve_state_vanishes", params, worst_state, 1e-9))
    checks.append(_check("kernel_curve_is_identity", params, None, None, kernel_ok))

    # Phase invariance of the formula: rotating an eigenvector must not move it.
    rng = np.random.default_rng(5)
    value, vector = curves.values[0, -1], curves.vectors[0, -1]
    sample = trajectory.samples[0]
    base = variation_rhs(sample, value, vector)
    worst_phase = 0.0
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi)
        rotated = np.exp(1j * theta) * vector
        worst_phase = max(
            worst_phase,
            abs(variation_rhs(sample, value, rotated) - base),
        )
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

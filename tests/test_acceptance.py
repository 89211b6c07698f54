"""End-to-end acceptance suite.

Each test below is one numbered acceptance criterion; the terminal summary
(see conftest.py) prints one PASS/FAIL line per criterion. Tolerances are
stated inline and are deliberately not shared with library code.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from fuzzyricci import (
    FlowConfig,
    FuzzyTorus,
    cli,
    first_variation_report,
    lb_spectrum,
    random_metric,
    run_flow,
)
from fuzzyricci.laplace_beltrami import (
    COUNTEREXAMPLE_SEED,
    WeightedSpace,
    lb_conjugated_superop,
    rayleigh_quotient,
    rejected_operator_superop,
)
from fuzzyricci.linalg import hermiticity_defect, hs_norm
from conftest import dense_laplacian

COPRIME_PAIRS = [
    (n, m)
    for n in range(2, 9)
    for m in range(1, n)
    if np.gcd(n, m) == 1
]

CONSERVATION_CASES = list(itertools.product((2, 3, 4), range(10)))


@pytest.fixture(scope="module")
def conservation_runs():
    """The 30 long flow integrations shared by criteria 3 and 4."""
    runs = {}
    config = FlowConfig(t0=0.0, t1=50.0, rel_tol=1e-10, abs_tol=1e-12, sample_stride=5.0)
    for n, seed in CONSERVATION_CASES:
        torus = FuzzyTorus(n)
        c0 = random_metric(n, seed)
        runs[(n, seed)] = (c0, run_flow(torus, c0, config))
    return runs


@pytest.fixture(scope="module")
def variation_runs():
    """Tracked first-variation reports for criterion 6, at h and h/2."""
    out = {}
    for n in (2, 3):
        torus = FuzzyTorus(n)
        c0 = random_metric(n, 7)
        for h in (1e-3, 5e-4):
            config = FlowConfig(
                t0=0.0, t1=0.2, rel_tol=1e-10, abs_tol=1e-12, sample_stride=h
            )
            out[(n, h)] = first_variation_report(run_flow(torus, c0, config))
    return out


def test_criterion_1_algebra():
    for n, m in COPRIME_PAIRS:
        torus = FuzzyTorus(n, m)
        u, v = torus.u, torus.v
        eye = np.eye(n)
        assert np.max(np.abs(v @ u - torus.q * (u @ v))) <= 1e-12, (n, m)
        assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12, (n, m)
        assert np.max(np.abs(v.conj().T @ v - eye)) <= 1e-12, (n, m)
        scale = 2j * np.pi / n
        assert np.max(np.abs(expm(scale * torus.x) - u)) <= 1e-11, (n, m)
        assert np.max(np.abs(expm(scale * torus.y) - v)) <= 1e-11, (n, m)
        from fuzzyricci.torus import commutant_dimension

        assert commutant_dimension(u, v) == 1, (n, m)


def test_criterion_2_laplacian():
    for n, m in COPRIME_PAIRS:
        torus = FuzzyTorus(n, m)
        mat = dense_laplacian(torus)
        norm = np.linalg.norm(mat, 2)
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12 * norm, (n, m)
        w = np.linalg.eigvalsh(mat)
        assert w[0] >= -1e-12 * norm, (n, m)
        # Kernel is exactly one-dimensional and spanned by the identity.
        kernel = w <= 1e-8 * norm
        assert int(kernel.sum()) == 1, (n, m)
        _, vecs = np.linalg.eigh(mat)
        flat_eye = np.eye(n).reshape(-1) / np.sqrt(n)
        overlap = abs(np.vdot(flat_eye, vecs[:, 0]))
        assert abs(overlap - 1.0) <= 1e-10, (n, m)
        rng = np.random.default_rng(1000 + 10 * n + m)
        for _ in range(100):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            la = torus.laplacian_apply(a)
            assert abs(np.trace(la)) <= 1e-12 * hs_norm(a), (n, m)


def test_criterion_3_conservation(conservation_runs):
    for (n, seed), (c0, result) in conservation_runs.items():
        trace0 = np.trace(c0).real
        dets = []
        for sample in result.samples:
            assert abs(sample.trace - trace0) <= 1e-9 * abs(trace0), (n, seed, sample.t)
            assert sample.min_eig > 0.0, (n, seed, sample.t)
            dets.append(sample.det)
        dets = np.array(dets)
        assert np.all(np.diff(dets) >= -1e-12 * np.abs(dets[:-1])), (n, seed)


def test_criterion_4_flat_limit(conservation_runs):
    for (n, seed), (c0, result) in conservation_runs.items():
        target = (np.trace(c0).real / n) * np.eye(n)
        assert hs_norm(result.final.c - target) <= 1e-6, (n, seed)


def test_criterion_5_weighted_laplacian():
    for n in (2, 3):
        torus = FuzzyTorus(n)
        for seed in range(10):
            c = random_metric(n, seed)
            space = WeightedSpace.from_metric(c)
            op = lb_conjugated_superop(torus, space)
            norm = np.linalg.norm(op, 2)
            assert np.max(np.abs(op - op.conj().T)) <= 1e-11 * norm, (n, seed)
            w = np.linalg.eigvalsh(op)
            assert w[0] >= -1e-10 * norm, (n, seed)
            rng = np.random.default_rng(5000 + 100 * n + seed)
            for _ in range(5):
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                before = space.inner(a, b)
                after = np.vdot(space.to_flat(a).reshape(-1), space.to_flat(b).reshape(-1))
                assert abs(before - after) <= 1e-11 * abs(before), (n, seed)
            data = lb_spectrum(torus, c)
            for i, (lam, a) in enumerate(zip(data.eigenvalues, data.vectors_weighted)):
                quotient = rayleigh_quotient(torus, space, a)
                assert abs(quotient - lam) <= 1e-9 * max(1.0, abs(lam)), (n, seed, i)
                if i != data.kernel_index:
                    assert abs(space.state(a)) <= 1e-10, (n, seed, i)


def test_criterion_6_first_variation(variation_runs):
    for n in (2, 3):
        coarse = variation_runs[(n, 1e-3)]
        fine = variation_runs[(n, 5e-4)]
        assert coarse.evaluated_samples > 0, n
        assert coarse.max_rel_residual <= 1e-4, (n, coarse.max_rel_residual)
        # Second-order stencil: halving h must shrink the residual by >= 3x.
        ratio = coarse.max_rel_residual / fine.max_rel_residual
        assert ratio >= 3.0, (n, ratio)
        assert coarse.max_form_discrepancy <= 1e-10, (n, coarse.max_form_discrepancy)
        assert fine.max_form_discrepancy <= 1e-10, (n, fine.max_form_discrepancy)


def test_criterion_7_ordering_counterexample():
    torus = FuzzyTorus(2)
    c = random_metric(2, COUNTEREXAMPLE_SEED)
    space = WeightedSpace.from_metric(c)
    alt = rejected_operator_superop(torus, space)
    assert hermiticity_defect(alt) > 1e-6
    # The retained ordering is Hermitian on the same metric.
    kept = lb_conjugated_superop(torus, space)
    assert hermiticity_defect(kept) <= 1e-10 * np.linalg.norm(kept, 2)


def test_criterion_8_determinism(tmp_path):
    args = ["track", "--n", "2", "--seed", "7", "--t1", "0.2", "--stride", "1e-3"]
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(args + ["--out", str(out)]) == 0
        outs.append(out)
    first = (outs[0] / "curves.csv").read_bytes()
    second = (outs[1] / "curves.csv").read_bytes()
    assert first == second
    assert (outs[0] / "variation.json").read_bytes() == (
        outs[1] / "variation.json"
    ).read_bytes()

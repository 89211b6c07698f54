"""The invariant suite's stacked rows against literal per-item loops.

``verify`` evaluates the per-item quantities of its rows (Gaussian draws,
eigenvectors, samples, rotations) as stacks. The references here walk the
items one at a time, as each row is defined, and the rows must agree with
them to 1e-13: they measure roundoff-sized relative errors.
"""

import numpy as np
import pytest

from fuzzyricci import FlowConfig, FuzzyTorus, random_metric, run_flow, verify
from fuzzyricci.laplace_beltrami import lb_spectrum, metric_state
from fuzzyricci.linalg import gaussian_matrices, hs_inner, hs_norm


def measured(rows, params):
    return {row["check"]: row["measured"] for row in rows if row["params"] == params}


def laplacian_reference(torus):
    worst = dict.fromkeys(
        ["laplacian_kills_trace", "laplacian_respects_adjoint", "laplacian_commutes_with_reflection"],
        0.0,
    )
    rng = np.random.default_rng(2024)
    for a in gaussian_matrices(rng, verify.LAPLACIAN_SAMPLES, torus.n):
        image = torus.laplacian_apply(a)
        errors = {
            "laplacian_kills_trace": abs(np.trace(image)),
            "laplacian_respects_adjoint": hs_norm(
                image.conj().T - torus.laplacian_apply(a.conj().T)
            ),
            # S(a) = P a^T P, with P the index reversal.
            "laplacian_commutes_with_reflection": hs_norm(
                torus.laplacian_apply(a.T[::-1, ::-1]) - image.T[::-1, ::-1]
            ),
        }
        for name, error in errors.items():
            worst[name] = max(worst[name], error / hs_norm(a))
    return worst


def lb_reference(torus, seed):
    space = metric_state(torus, random_metric(torus.n, seed))
    data = lb_spectrum(torus, space)
    worst_ray = worst_state = 0.0
    for i, a in enumerate(data.vectors_weighted):
        lam = float(data.eigenvalues[i])
        quotient = hs_inner(a, torus.laplacian_apply(a)).real / space.inner(a, a).real
        worst_ray = max(worst_ray, abs(quotient - lam) / max(abs(lam), 1.0))
        if i:
            state = abs(space.state(a)) / (hs_norm(space.c) * space.norm(a))
            worst_state = max(worst_state, state)
    return {"lb_rayleigh_identity": worst_ray, "lb_state_vanishes": worst_state}


def tracking_reference():
    n = verify.TRACK_N
    torus = FuzzyTorus(n, verify.TRACK_M)
    config = FlowConfig(t1=verify.TRACK_T1, sample_stride=verify.TRACK_STRIDE)
    trajectory = run_flow(torus, random_metric(n, verify.TRACK_SEED), config)
    # The eigenpairs the variation law consumed: each sample's own spectrum.
    spectra = [lb_spectrum(torus, sample.space) for sample in trajectory.samples]
    worst_norm = worst_state = 0.0
    for sample, data in zip(trajectory.samples, spectra):
        for i, a in enumerate(data.vectors_weighted):
            worst_norm = max(worst_norm, abs(sample.space.norm(a) - 1.0))
            if i:
                worst_state = max(worst_state, abs(sample.space.state(a)))

    # The law lambda tr(a* a (L log c)) at the first sample, literally.
    sample = trajectory.samples[0]
    value, vector = spectra[0].eigenvalues[-1], spectra[0].vectors_weighted[-1]

    def law(a):
        return (value * np.trace(a.conj().T @ a @ -sample.field)).real

    rng = np.random.default_rng(5)
    worst_phase = 0.0
    for _ in range(5):
        rotated = np.exp(1j * rng.uniform(0, 2 * np.pi)) * vector
        worst_phase = max(worst_phase, abs(law(rotated) - law(vector)))
    return {
        "curve_normalization": worst_norm,
        "curve_state_vanishes": worst_state,
        "variation_phase_invariance": worst_phase,
    }


def assert_rows_match(rows, reference):
    for name, value in reference.items():
        assert abs(rows[name] - value) <= 1e-13, (name, rows[name], value)


@pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (3, 2)])
class TestPerItemReference:
    def test_laplacian_rows(self, n, m):
        torus = FuzzyTorus(n, m)
        rows = measured(verify.laplacian_checks(torus), f"n={n},m={m}")
        assert_rows_match(rows, laplacian_reference(torus))

    def test_lb_rows(self, n, m):
        torus = FuzzyTorus(n, m)
        rows = verify.lb_checks(torus)
        for seed in verify.LB_SEEDS:
            assert_rows_match(measured(rows, f"n={n},m={m},seed={seed}"), lb_reference(torus, seed))


def test_tracking_rows():
    params = (
        f"n={verify.TRACK_N},m={verify.TRACK_M},seed={verify.TRACK_SEED},"
        f"h={verify.TRACK_STRIDE:g}"
    )
    assert_rows_match(measured(verify.tracking_checks(), params), tracking_reference())

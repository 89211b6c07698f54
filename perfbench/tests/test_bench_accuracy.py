"""The accuracy metric sees a looser tolerance; the artifact checks see broken outputs."""

import dataclasses
import json

import pytest

import workloads
from fuzzyricci import cli
from fuzzyricci.flow import FlowConfig, metric_from_spec, run_flow
from fuzzyricci.laplace_beltrami import lb_spectrum
from fuzzyricci.torus import FuzzyTorus
from workloads import WORKLOADS


def observed_at(w, seed, rel_tol, abs_tol):
    """What the job would compute at the given tolerances, through the library."""
    config = workloads.reference_config(w, seed)
    torus = FuzzyTorus(config["n"], config["m"])
    c0 = metric_from_spec(config["initial"], config["n"], seed_default=config["seed"])
    stride = config["stride"] if w.command == "simulate" else config["t1"] - config["t0"]
    flow = FlowConfig(t0=config["t0"], t1=config["t1"], rel_tol=rel_tol, abs_tol=abs_tol, sample_stride=stride)
    result = run_flow(torus, c0, flow)
    if w.command == "simulate":
        import numpy as np

        return {"c": np.stack([s.c for s in result.samples])}
    return {"eigenvalues": lb_spectrum(torus, result.final.c).eigenvalues}


# n=8 keeps the test fast; the CLI defaults are rel_tol 1e-10, abs_tol 1e-12.
@pytest.mark.parametrize("name", ["simulate_n16", "spectrum_n16"])
def test_looser_tolerance_reports_at_least_ten_times_the_error(name):
    w = dataclasses.replace(WORKLOADS[name], n=8)
    ref = workloads.compute_reference(w, 0)
    default = workloads.job_error(w, observed_at(w, 0, 1e-10, 1e-12), ref)
    loose = workloads.job_error(w, observed_at(w, 0, 1e-8, 1e-10), ref)
    assert 0 < default < 1e-9
    assert loose >= 10 * default
    assert workloads.digits(default) - workloads.digits(loose) >= 1


SMALL = {
    "simulate_n16": ["--n", "4"],
    "track_n4": ["--n", "3"],
    "spectrum_n16": ["--n", "4"],
}


def small_job(name, out):
    w = dataclasses.replace(WORKLOADS[name], n=int(SMALL[name][1]))
    argv = w.argv(2, out)
    assert cli.main(argv) in (0, 4)
    return w


@pytest.mark.parametrize("name", sorted(SMALL))
def test_artifacts_of_a_good_job_pass(tmp_path, name):
    w = small_job(name, tmp_path)
    observed, problems = workloads.read_artifacts(w, tmp_path)
    assert problems == []
    ref = workloads.compute_reference(w, 2)
    assert workloads.job_error(w, observed, ref) < workloads.ERROR_LIMIT


def tamper_json(path, **changes):
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc, indent=2))


def test_broken_simulate_summary_is_caught(tmp_path):
    w = small_job("simulate_n16", tmp_path)
    tamper_json(tmp_path / "summary.json", det_nondecreasing=False, trace_drift_rel=1e-6)
    _, problems = workloads.read_artifacts(w, tmp_path)
    assert len(problems) == 2


def test_track_without_kernel_curve_is_caught(tmp_path):
    w = small_job("track_n4", tmp_path)
    doc = json.loads((tmp_path / "variation.json").read_text())
    for curve in doc["curves"]:
        curve["is_kernel"] = False
    (tmp_path / "variation.json").write_text(json.dumps(doc))
    _, problems = workloads.read_artifacts(w, tmp_path)
    assert any("kernel" in p for p in problems)


def test_wrong_spectrum_kernel_index_is_caught(tmp_path):
    w = small_job("spectrum_n16", tmp_path)
    tamper_json(tmp_path / "spectrum.json", kernel_index=5)
    _, problems = workloads.read_artifacts(w, tmp_path)
    assert any("kernel index 5" in p for p in problems)


def test_missing_artifact_is_a_problem_not_a_crash(tmp_path):
    w = small_job("simulate_n16", tmp_path)
    (tmp_path / "trajectory.json").unlink()
    observed, problems = workloads.read_artifacts(w, tmp_path)
    assert observed == {} and problems[0].startswith("unreadable artifacts")

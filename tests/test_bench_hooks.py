"""The library surface that the benchmark in ``perfbench/`` reaches into.

The benchmark wraps the functions in ``tracer.TARGETS`` from outside the
program, and a target it cannot find only reads 0 in its per-layer metrics.
So a rename or move of a traced function, or of a call the reference
computation makes, fails here instead of going unnoticed.
"""

import importlib.util
from pathlib import Path

import numpy as np

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_the_reference_calls_work():
    tracer_module = load_tracer()
    with tracer_module.Tracer() as tracer:
        # Imported and called as perfbench/workloads.py's compute_reference
        # does, after the tracer has wrapped them.
        from fuzzyricci.flow import FlowConfig, metric_from_spec, run_flow
        from fuzzyricci.laplace_beltrami import lb_spectrum
        from fuzzyricci.torus import FuzzyTorus

        torus = FuzzyTorus(3, 1)
        c0 = metric_from_spec("random", 3, seed_default=1)
        flow = FlowConfig(t0=0.0, t1=0.01, rel_tol=1e-10, abs_tol=1e-12, sample_stride=0.01)
        result = run_flow(torus, c0, flow)
        eigenvalues = lb_spectrum(torus, result.final.c).eigenvalues

        # A small track, as the track workload's command runs it.
        from fuzzyricci.tracking import first_variation_report

        two = FuzzyTorus(2, 1)
        short = run_flow(two, metric_from_spec("random", 2, seed_default=7),
                         FlowConfig(t1=0.005, sample_stride=1e-3))
        first_variation_report(short)
    assert tracer.missing == []
    assert eigenvalues.shape == (9,) and np.all(np.isfinite(eigenvalues))
    spans = tracer.spans
    traced = {span[0] for span in spans}
    for name in ("flow.run_flow", "laplace_beltrami.lb_spectrum",
                 "laplace_beltrami.WeightedSpace.from_metric", "linalg.hermitian_eig"):
        assert name in traced, name

    # The report tracks once, and both forms of the law run inside that pass,
    # so the per-layer tracking spans hold the law's time.
    def parent_name(span):
        return spans[span[3]][0] if span[3] >= 0 else None

    named = {name: [s for s in spans if s[0] == f"tracking.{name}"]
             for name in ("track_spectrum", "variation_rhs", "variation_rhs_state_form")}
    assert [parent_name(s) for s in named["track_spectrum"]] == ["tracking.first_variation_report"]
    assert len(named["variation_rhs"]) == len(named["variation_rhs_state_form"]) > 0
    for form in ("variation_rhs", "variation_rhs_state_form"):
        assert {parent_name(s) for s in named[form]} == {"tracking.track_spectrum"}, form

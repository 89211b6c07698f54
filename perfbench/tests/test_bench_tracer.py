"""The tracer wraps every layer where its callers look it up, and restores it."""

import importlib
import json
import pkgutil

import pytest

import fuzzyricci
from fuzzyricci import cli
from tracer import SPAN_NAMES, TARGETS, Tracer, layer_metrics, span_stats

# Small versions of the three workloads: same commands, same code paths.
SMALL = {
    "simulate": ["simulate", "--n", "4", "--t1", "2"],
    "track": ["track", "--n", "3", "--t1", "0.01"],
    "spectrum": ["spectrum", "--n", "4", "--t1", "0.1"],
}


def traced_job(argv, out):
    with Tracer() as tracer:
        code = cli.main([*argv, "--seed", "1", "--out", str(out)])
    assert code in (0, 4)
    return tracer


def call_counts(tracer):
    return {name: entry["calls"] for name, entry in span_stats(tracer.spans).items()}


def fuzzyricci_modules():
    return [fuzzyricci] + [
        importlib.import_module(f"fuzzyricci.{m.name}") for m in pkgutil.iter_modules(fuzzyricci.__path__)
    ]


def bindings():
    """Every module and class attribute a target could be reached through."""
    found = {}
    for module in fuzzyricci_modules():
        for key, value in vars(module).items():
            if callable(value):
                found[(module.__name__, key)] = value
    for module_name, qualname in TARGETS:
        owner, _, attr = qualname.rpartition(".")
        if owner:
            cls = getattr(importlib.import_module(f"fuzzyricci.{module_name}"), owner)
            found[(cls.__qualname__, attr)] = vars(cls)[attr]
    return found


def test_every_wrapped_name_is_called_on_a_workload_that_uses_it(tmp_path):
    counts = {cmd: call_counts(traced_job(argv, tmp_path / cmd)) for cmd, argv in SMALL.items()}
    for name in SPAN_NAMES:
        assert max(c[name] for c in counts.values()) > 0, name
    assert counts["simulate"]["flow.trajectory_to_json"] == 1
    assert counts["spectrum"]["laplace_beltrami.spectrum_to_json"] == 1
    # Imported by name into flow, laplace_beltrami and tracking: those calls count too.
    assert counts["simulate"]["linalg.hermitian_eig"] > counts["simulate"]["linalg.matrix_function"]
    assert counts["track"]["tracking.variation_rhs"] == counts["track"]["tracking.variation_rhs_state_form"] > 0


@pytest.mark.parametrize("cmd", sorted(SMALL))
def test_counts_repeat_exactly(tmp_path, cmd):
    first = traced_job(SMALL[cmd], tmp_path / "a")
    second = traced_job(SMALL[cmd], tmp_path / "b")
    assert call_counts(first) == call_counts(second)
    assert first.flow_steps == second.flow_steps


def test_flow_steps_match_summary(tmp_path):
    tracer = traced_job(SMALL["simulate"], tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    metrics = layer_metrics(tracer.spans, tracer.flow_steps)
    assert metrics["flow.accepted_steps"] == summary["accepted_steps"] > 0
    assert metrics["flow.rejected_steps"] == summary["rejected_steps"]
    # One field per DP45 stage; a stage outside the cone ends its trial early.
    assert 6 < metrics["flow.fields_per_trial"] <= 7


def test_originals_restored_even_after_an_error():
    before = bindings()
    with pytest.raises(RuntimeError), Tracer():
        assert bindings() != before
        raise RuntimeError
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not Tracer().missing


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["flow.run_flow", 1.0, 7.0, 0],
        ["linalg.hermitian_eig", 2.0, 3.0, 1],
        ["torus.FuzzyTorus.laplacian_apply", 4.0, 6.0, 1],
        ["linalg.hermitian_eig", 8.0, 9.0, 0],
    ]
    st = span_stats(spans)
    assert st["cli.main"]["self_s"] == 10.0 - 6.0 - 1.0
    assert st["flow.run_flow"]["self_s"] == 6.0 - 1.0 - 2.0
    assert st["linalg.hermitian_eig"]["calls"] == 2
    assert st["linalg.hermitian_eig"]["in_flow"] == 1
    assert st["torus.FuzzyTorus.laplacian_apply"]["in_flow"] == 1

"""Span tracer that wraps fuzzyricci's layer functions from outside the program.

``Tracer`` replaces each function in ``TARGETS`` by a wrapper that records a
span (name, start, end, parent) in memory. Free functions are replaced in
every fuzzyricci module that binds them, because ``flow``, ``tracking`` and
the others import ``hermitian_eig`` and friends by name; methods are replaced
on their class. Leaving the ``with`` block restores every original binding.

The program is not edited: a layer that a later version removes or renames
is listed in ``Tracer.missing`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time

# (module, qualified name) of every wrapped function, relative to fuzzyricci.
TARGETS = (
    ("torus", "FuzzyTorus.laplacian_apply"),
    ("linalg", "hermitian_eig"),
    ("linalg", "matrix_function"),
    ("linalg", "superop_from_map"),
    ("flow", "run_flow"),
    ("flow", "trajectory_to_json"),
    ("laplace_beltrami", "WeightedSpace.from_metric"),
    ("laplace_beltrami", "lb_spectrum"),
    ("laplace_beltrami", "spectrum_to_json"),
    ("tracking", "track_spectrum"),
    ("tracking", "first_variation_report"),
    ("tracking", "variation_rhs"),
    ("tracking", "variation_rhs_state_form"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)
FLOW_SPAN = "flow.run_flow"


class Tracer:
    """Context manager that records spans of the wrapped functions.

    ``spans`` holds ``[name, start, end, parent]`` lists in start order;
    ``parent`` is the index of the enclosing span, -1 at top level.
    ``flow_steps`` holds ``(accepted, rejected)`` of each ``run_flow`` result.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.flow_steps: list[tuple[int, int]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        flow_steps = self.flow_steps if name == FLOW_SPAN else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if flow_steps is not None:
                flow_steps.append((result.accepted_steps, result.rejected_steps))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            self._patch()
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._unpatch()

    def _patch(self) -> None:
        package = importlib.import_module("fuzzyricci")
        modules = [package] + [
            importlib.import_module(f"fuzzyricci.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for (module_name, qualname), name in zip(TARGETS, SPAN_NAMES):
            module = importlib.import_module(f"fuzzyricci.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def span_stats(spans: list[list]) -> dict:
    """Per-name calls, total span time and self time, plus flow attribution.

    Self time is a span's duration minus the durations of its direct child
    spans. ``in_flow`` counts spans of each name that run inside
    ``flow.run_flow``.
    """
    child = [0.0] * len(spans)
    inside = [False] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            inside[i] = inside[parent] or spans[parent][0] == FLOW_SPAN
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "in_flow": 0} for name in SPAN_NAMES}
    for i, (name, start, end, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[i]
        entry["in_flow"] += inside[i]
    return stats


def layer_metrics(spans: list[list], flow_steps: list[tuple[int, int]]) -> dict[str, float]:
    """Per-layer metrics of one traced job (the names in BENCHMARK.json)."""
    st = span_stats(spans)
    accepted = sum(a for a, _ in flow_steps)
    rejected = sum(r for _, r in flow_steps)
    trials = accepted + rejected
    metrics = {
        "torus.laplacian_apply.calls": st["torus.FuzzyTorus.laplacian_apply"]["calls"],
        "torus.laplacian_apply.self_s": st["torus.FuzzyTorus.laplacian_apply"]["self_s"],
        "flow.run_flow.s": st[FLOW_SPAN]["s"],
        "flow.run_flow.self_s": st[FLOW_SPAN]["self_s"],
        "flow.accepted_steps": accepted,
        "flow.rejected_steps": rejected,
        "flow.step_acceptance": accepted / trials if trials else 0.0,
        "flow.eigs_per_trial": st["linalg.hermitian_eig"]["in_flow"] / trials if trials else 0.0,
        "flow.fields_per_trial": (
            st["torus.FuzzyTorus.laplacian_apply"]["in_flow"] / trials if trials else 0.0
        ),
        "flow.trajectory_to_json.s": st["flow.trajectory_to_json"]["s"],
        "laplace_beltrami.lb_spectrum.calls": st["laplace_beltrami.lb_spectrum"]["calls"],
        "laplace_beltrami.lb_spectrum.s": st["laplace_beltrami.lb_spectrum"]["s"],
        "laplace_beltrami.lb_spectrum.self_s": st["laplace_beltrami.lb_spectrum"]["self_s"],
        "laplace_beltrami.WeightedSpace.from_metric.calls": (
            st["laplace_beltrami.WeightedSpace.from_metric"]["calls"]
        ),
        "laplace_beltrami.spectrum_to_json.s": st["laplace_beltrami.spectrum_to_json"]["s"],
        "tracking.variation_rhs.calls": st["tracking.variation_rhs"]["calls"],
        "tracking.variation_rhs_state_form.calls": st["tracking.variation_rhs_state_form"]["calls"],
        "cli.self_s": st["cli.main"]["self_s"],
    }
    for name in ("hermitian_eig", "matrix_function", "superop_from_map"):
        metrics[f"linalg.{name}.calls"] = st[f"linalg.{name}"]["calls"]
        metrics[f"linalg.{name}.self_s"] = st[f"linalg.{name}"]["self_s"]
    for name in ("track_spectrum", "first_variation_report"):
        metrics[f"tracking.{name}.s"] = st[f"tracking.{name}"]["s"]
        metrics[f"tracking.{name}.self_s"] = st[f"tracking.{name}"]["self_s"]
    return metrics

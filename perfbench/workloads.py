"""Workloads, reference data and artifact checks of the fuzzyricci benchmark.

Each workload is one ``fuzzyricci`` CLI command at a fixed size. A job runs
that command in-process and writes its artifacts to a scratch directory; the
functions here read those artifacts back, check the invariants the program
guarantees, and measure their error against a tight-tolerance reference.

Nothing here imports the program at module import time: ``import_program``
puts the checkout's ``src`` first on ``sys.path`` and refuses to run without
it, so the benchmark never measures an installed copy by mistake.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
STORED_REFS = BENCH_DIR / "refs"
CACHED_REFS = WORK / "refs"

# Tolerances of the reference runs: three decades below the CLI defaults
# (rel 1e-10, abs 1e-12), so the reference error is negligible next to the
# error being measured.
REF_REL_TOL = 1e-13
REF_ABS_TOL = 1e-15

# A job whose relative error against the reference exceeds this is wrong,
# not merely less accurate, and counts as failed. At rel_tol 1e-8 the errors
# are still below 2e-7.
ERROR_LIMIT = 1e-6

# Artifact invariants the CLI guarantees for a completed simulate job.
TRACE_DRIFT_MAX = 1e-9
FINAL_DIST_MAX = 1e-6

# Job j of a run uses input seed + INPUT_STRIDE * (j % Workload.inputs).
INPUT_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    """One CLI command at a fixed size, plus the reason it is in the set.

    ``inputs`` is the number of distinct inputs a run cycles through; each
    needs its own reference, so only cheap workloads use more than one.
    """

    name: str
    command: str
    n: int
    flags: tuple[str, ...]
    warmup_flags: tuple[str, ...]
    inputs: int
    why: str

    def argv(self, seed: int, out: Path) -> list[str]:
        return [
            self.command, "--n", str(self.n), "--m", "1", *self.flags,
            "--seed", str(seed), "--out", str(out),
        ]

    def warmup_argv(self, out: Path) -> list[str]:
        return [self.command, *self.warmup_flags, "--seed", "0", "--out", str(out)]

    def input_seed(self, seed: int, job: int) -> int:
        return seed + INPUT_STRIDE * (job % self.inputs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate_n16", "simulate", 16, ("--t1", "20"), ("--n", "4", "--t1", "1"), 1,
            "explicit DP45 bound by stability (lambda_max(L)=342, ~2.5k steps) "
            "plus 1.5 MB of trajectory output",
        ),
        Workload(
            "track_n4", "track", 4, (), ("--n", "3", "--t1", "0.01"), 8,
            "steps clipped to the 1e-3 grid; 201 small probe-built spectra and "
            "the variation law; the control for integrator changes",
        ),
        Workload(
            "spectrum_n16", "spectrum", 16, ("--t1", "1"), ("--n", "4", "--t1", "0.1"), 4,
            "one probe-built 256x256 superoperator and eigh after a short "
            "stiff flow, then a 5.6 MB spectrum.json",
        ),
    )
}


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/fuzzyricci`` to benchmark."""


def import_program():
    """Import ``fuzzyricci`` from this checkout's ``src`` directory."""
    if not (SRC / "fuzzyricci" / "__init__.py").is_file():
        raise ProgramMissing(f"no fuzzyricci package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fuzzyricci

    if Path(fuzzyricci.__file__).resolve().parent != SRC / "fuzzyricci":
        raise ProgramMissing(f"fuzzyricci was imported from {fuzzyricci.__file__}, not {SRC}")
    return fuzzyricci


# ---------------------------------------------------------------- references


def reference_config(w: Workload, seed: int) -> dict:
    """The CLI's resolved configuration for the job, at reference tolerances."""
    from fuzzyricci import cli

    argv = w.argv(seed, WORK / "unused") + [
        "--rel-tol", repr(REF_REL_TOL), "--abs-tol", repr(REF_ABS_TOL),
    ]
    args = cli.build_parser().parse_args(argv)
    return cli.resolve_config(args, w.command)


def compute_reference(w: Workload, seed: int) -> dict[str, np.ndarray]:
    """Recompute, through the library, what the job's artifacts hold.

    The flow runs on the same sample grid as the CLI command, so sample k of
    the reference is at the time of sample k of the job.
    """
    from fuzzyricci.flow import FlowConfig, metric_from_spec, run_flow
    from fuzzyricci.laplace_beltrami import lb_spectrum
    from fuzzyricci.torus import FuzzyTorus

    config = reference_config(w, seed)
    torus = FuzzyTorus(config["n"], config["m"])
    c0 = metric_from_spec(config["initial"], config["n"], seed_default=config["seed"])
    stride = config["stride"] if w.command != "spectrum" else config["t1"] - config["t0"]
    flow = FlowConfig(
        t0=config["t0"], t1=config["t1"], rel_tol=config["rel_tol"],
        abs_tol=config["abs_tol"], sample_stride=stride,
    )
    result = run_flow(torus, c0, flow)
    if w.command == "simulate":
        return {"t": result.times, "c": np.stack([s.c for s in result.samples])}
    if w.command == "spectrum":
        return {"eigenvalues": lb_spectrum(torus, result.final.c).eigenvalues}
    spectra = [lb_spectrum(torus, s.c).eigenvalues for s in result.samples]
    return {"t": result.times, "eigenvalues": np.stack(spectra)}


def reference_file(directory: Path, w: Workload, seed: int) -> Path:
    return directory / f"{w.name}-seed{seed}.npz"


def load_reference(w: Workload, seed: int) -> dict[str, np.ndarray] | None:
    """Stored reference if there is one, else one cached by an earlier run."""
    for directory in (STORED_REFS, CACHED_REFS):
        path = reference_file(directory, w, seed)
        if path.is_file():
            with np.load(path) as data:
                return {k: data[k] for k in data.files}
    return None


# ------------------------------------------------------------------ errors


def digits(error: float) -> float:
    """Correct decimal digits, -log10 of a relative error (17 at most)."""
    return -math.log10(max(error, 1e-17))


def flow_rel_error(c: np.ndarray, c_ref: np.ndarray) -> float:
    """max_k ||c_k - c_ref_k|| / ||c_ref_k|| over a sampled trajectory."""
    axes = (-2, -1)
    num = np.linalg.norm(c - c_ref, axis=axes)
    return float(np.max(num / np.linalg.norm(c_ref, axis=axes)))


def spectrum_rel_error(w: np.ndarray, w_ref: np.ndarray) -> float:
    """max_k |lambda_k - lambda_k^ref| / max |lambda^ref|, per sample if 2-D.

    Each sample's eigenvalues are compared in ascending order, so the error
    does not depend on how the tracker assigned them to curves.
    """
    w = np.sort(np.atleast_2d(w), axis=-1)
    w_ref = np.sort(np.atleast_2d(w_ref), axis=-1)
    return float(np.max(np.abs(w - w_ref)) / np.max(np.abs(w_ref)))


def job_error(w: Workload, observed: dict, ref: dict) -> float:
    if w.command == "simulate":
        return flow_rel_error(observed["c"], ref["c"])
    return spectrum_rel_error(observed["eigenvalues"], ref["eigenvalues"])


# ---------------------------------------------------------------- artifacts


def _json(path: Path):
    return json.loads(path.read_text())


def _read_simulate(w: Workload, out: Path, problems: list[str]) -> dict:
    summary = _json(out / "summary.json")
    traj = _json(out / "trajectory.json")
    n = w.n
    c = np.array([s["c"]["entries"] for s in traj["samples"]], dtype=float)
    c = (c[..., 0] + 1j * c[..., 1]).reshape(-1, n, n)
    if summary["trace_drift_rel"] > TRACE_DRIFT_MAX:
        problems.append(f"trace drift {summary['trace_drift_rel']:.3e} > {TRACE_DRIFT_MAX:g}")
    if summary["det_nondecreasing"] is not True:
        problems.append("det decreased along the flow")
    if summary["final_dist_to_flat"] > FINAL_DIST_MAX:
        problems.append(f"final distance to flat {summary['final_dist_to_flat']:.3e} > {FINAL_DIST_MAX:g}")
    if summary["samples"] != len(c):
        problems.append(f"summary has {summary['samples']} samples, trajectory {len(c)}")
    for key in ("accepted_steps", "rejected_steps"):
        if summary[key] != traj[key]:
            problems.append(f"{key}: summary {summary[key]} != trajectory {traj[key]}")
    return {"c": c, "summary": summary}


def _read_track(w: Workload, out: Path, problems: list[str]) -> dict:
    variation = _json(out / "variation.json")
    config = _json(out / "config.json")
    samples = int(round((config["t1"] - config["t0"]) / config["stride"])) + 1
    curves = w.n * w.n
    with (out / "curves.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    values: dict[float, list[float]] = {}
    per_curve: dict[str, int] = {}
    for row in rows:
        values.setdefault(float(row[0]), []).append(float(row[2]))
        per_curve[row[1]] = per_curve.get(row[1], 0) + 1
    if len(per_curve) != curves or set(per_curve.values()) != {samples}:
        problems.append(f"curves.csv is not {curves} curves x {samples} samples")
    kernels = sum(1 for cv in variation["curves"] if cv["is_kernel"])
    if len(variation["curves"]) != curves or kernels != 1:
        problems.append(f"variation.json has {len(variation['curves'])} curves, {kernels} kernel curves")
    eigenvalues = np.array([values[t] for t in sorted(values)])
    return {"eigenvalues": eigenvalues, "variation": variation}


_EIGENVALUES = re.compile(rb'"eigenvalues":\s*(\[[^\]]*\])')
_KERNEL = re.compile(rb'"kernel_index":\s*(-?\d+)')


def _read_spectrum(w: Workload, out: Path, problems: list[str]) -> dict:
    # spectrum.json is ~89 MB at n=32, almost all eigenvectors; parse only
    # the eigenvalues and the kernel index, and count the eigenvectors.
    data = (out / "spectrum.json").read_bytes()
    dim = w.n * w.n
    eigenvalues = np.array(json.loads(_EIGENVALUES.search(data).group(1)))
    kernel = int(_KERNEL.search(data).group(1))
    vectors = len(re.findall(rb'"n":\s*' + str(w.n).encode() + rb"\b", data))
    if len(eigenvalues) != dim or np.any(np.diff(eigenvalues) < 0):
        problems.append(f"spectrum.json does not hold {dim} ascending eigenvalues")
    threshold = 1e-8 * max(float(np.max(np.abs(eigenvalues))), 1.0)
    zero_modes = np.flatnonzero(np.abs(eigenvalues) < threshold)
    if list(zero_modes) != [kernel]:
        problems.append(f"kernel index {kernel}, zero modes at {list(zero_modes)[:5]}")
    if vectors != dim:
        problems.append(f"spectrum.json holds {vectors} eigenvectors, expected {dim}")
    return {"eigenvalues": eigenvalues}


_READERS = {"simulate": _read_simulate, "track": _read_track, "spectrum": _read_spectrum}


def read_artifacts(w: Workload, out: Path) -> tuple[dict, list[str]]:
    """Parse a job's artifacts and list every broken invariant."""
    problems: list[str] = []
    try:
        observed = _READERS[w.command](w, out, problems)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return {}, [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
    return observed, problems

"""Benchmark of the fuzzyricci CLI, one workload per run.

Usage::

    python3 perfbench/run.py --workload simulate_n16 --seed 0 --seconds 20 --trace 0

An untraced run first measures set-up time in fresh processes. Every run
then runs one small warm-up job and runs CLI jobs in-process through
``cli.main`` for ``--seconds`` seconds: a closed loop with one client in one
process and BLAS pinned to ``BLAS_THREADS`` threads. Every job's artifacts are checked (see
``workloads.read_artifacts``). With ``--trace 0`` the run then measures each
input's error against a tight-tolerance reference and reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it alternates untraced and
traced jobs and reports the per-layer metrics. A table for people comes
first; the last line of standard output is one JSON object.
"""

import os

# Fixed before numpy loads OpenBLAS; set-up probes and reference processes
# inherit it. One thread was steadier than two on a 2-CPU machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import SPAN_NAMES, Tracer, layer_metrics  # noqa: E402
from workloads import BENCH_DIR, CACHED_REFS, ROOT, WORK, WORKLOADS, Workload  # noqa: E402

OUT = WORK / "out"
TRACES = WORK / "trace"
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 150

# Wall time of one calibration at reference speed (a Xeon vCPU with
# OpenBLAS on 1 thread). Timings are scaled by this over the calibration
# time measured next to them; see ``make_calibration``.
CALIBRATION_REF_S = 0.13


def make_calibration():
    """A fixed kernel whose wall time tracks the machine's current speed.

    On a shared host the speed of a vCPU drifts by +-30% over tens of
    seconds, in every kind of code alike. The kernel mixes what the jobs do
    (small complex eigendecompositions and products, one larger
    eigendecomposition, JSON encoding) and uses no program code, so a change
    to the program cannot move it. It allocates little, so it does not
    raise ``peak_rss_mb``. Returns a function that runs the kernel
    once and returns its wall time.
    """
    rng = np.random.default_rng(20170530)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    small = g + g.conj().T
    x = np.diag(np.arange(16.0)).astype(complex)
    g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    large = g + g.conj().T
    pairs = [[float(re), float(im)] for re, im in rng.standard_normal((20_000, 2))]

    def calibrate() -> float:
        start = time.perf_counter()
        for _ in range(500):
            w, v = np.linalg.eigh(small)
            log = (v * np.log(np.abs(w) + 1.0)) @ v.conj().T
            comm = x @ log - log @ x
            x @ comm - comm @ x
        np.linalg.eigh(large)
        json.dumps({"entries": pairs}, indent=2)
        return time.perf_counter() - start

    return calibrate


@dataclass
class Job:
    """One CLI invocation: its input, wall time and the checks of its artifacts."""

    seed: int
    wall_s: float
    problems: list[str]
    observed: dict
    artifact_bytes: int
    digest: str
    calibration_s: float = CALIBRATION_REF_S
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    untraced_layers: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def scaled_s(self) -> float:
        """Wall time at the calibration's reference speed."""
        return self.wall_s * CALIBRATION_REF_S / self.calibration_s


def _digest(files) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode())
        with path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def run_job(w: Workload, argv: list[str], seed: int, traced: bool = False) -> Job:
    """Run one CLI job in-process and check what it wrote."""
    from fuzzyricci import cli

    shutil.rmtree(OUT, ignore_errors=True)
    log = io.StringIO()
    tracer = Tracer() if traced else contextlib.nullcontext()
    with tracer, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = None
            log.write(traceback.format_exc())
        wall = time.perf_counter() - start

    # Exit 4 from track is the variation-law verdict (a known defect), which
    # variation_pass_rate reports; any other non-zero exit is a failure.
    if code == 0 or (code == 4 and w.command == "track"):
        observed, problems = workloads.read_artifacts(w, OUT)
        observed["passed"] = code == 0
    else:
        observed, problems = {}, [f"exit {code}: {log.getvalue().strip()[-400:]}"]
    files = sorted(p for p in OUT.rglob("*") if p.is_file()) if OUT.exists() else []
    job = Job(
        seed=seed,
        wall_s=wall,
        problems=problems,
        observed=observed,
        artifact_bytes=sum(p.stat().st_size for p in files),
        digest=_digest(files),
    )
    if traced:
        job.spans = tracer.spans
        job.layers = layer_metrics(tracer.spans, tracer.flow_steps)
        job.layers["cli.artifact_bytes"] = job.artifact_bytes
        variation = observed.get("variation")
        job.layers["tracking.flagged_share"] = (
            variation["flagged_samples"]
            / (variation["flagged_samples"] + variation["evaluated_samples"])
            if variation
            else 0.0
        )
        job.untraced_layers = tracer.missing
    return job


def setup_times(w: Workload, seed: int, calibrate) -> list[float]:
    """Time from process start to inputs ready, in fresh processes.

    Each time is scaled to reference speed by the calibrations run just
    before and after its process.
    """
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *w.argv(seed, OUT)]
    times = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            argv, capture_output=True, text=True, check=True, timeout=SUBPROCESS_TIMEOUT_S
        )
        wall = float(proc.stdout.split()[-1]) - start
        after = calibrate()
        times.append(wall * 2 * CALIBRATION_REF_S / (before + after))
        before = after
    return times


def run_loop(w: Workload, seed: int, seconds: float, trace: bool, calibrate) -> list[Job]:
    """Jobs until ``seconds`` have passed, at least one (a pair if tracing).

    Untraced, job j takes input ``w.input_seed(seed, j)``. Traced, jobs
    alternate untraced and traced on the run's first input, so the two
    medians differ only by the tracing. A calibration runs between jobs;
    each job keeps the mean of the two around it.
    """
    jobs: list[Job] = []
    before = calibrate()
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline or (trace and len(jobs) < 2):
        j = len(jobs)
        input_seed = seed if trace else w.input_seed(seed, j)
        job = run_job(w, w.argv(input_seed, OUT), input_seed, traced=trace and j % 2 == 1)
        after = calibrate()
        job.calibration_s = (before + after) / 2
        before = after
        jobs.append(job)
    return jobs


def check_repeats(jobs: list[Job]) -> None:
    """Artifacts are byte-identical across jobs with the same input."""
    first: dict[int, str] = {}
    for job in jobs:
        if job.failed:
            continue
        if first.setdefault(job.seed, job.digest) != job.digest:
            job.problems.append("artifacts differ from an earlier job with the same input")


def input_errors(w: Workload, jobs: list[Job]) -> dict[int, float]:
    """Relative error of each input's artifacts against its reference.

    Seeds with neither a stored nor a cached reference get one computed in
    a separate process, after the timed loop, so neither timing nor peak
    memory includes it.
    """
    seeds = sorted({job.seed for job in jobs if not job.failed})
    missing = [s for s in seeds if workloads.load_reference(w, s) is None]
    if missing:
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "make_refs.py"), "--workload", w.name,
             "--seeds", *map(str, missing), "--out", str(CACHED_REFS)],
            check=True, timeout=SUBPROCESS_TIMEOUT_S, capture_output=True,
        )
    errors = {}
    for job in jobs:
        if job.failed:
            continue
        if job.seed not in errors:
            errors[job.seed] = workloads.job_error(w, job.observed, workloads.load_reference(w, job.seed))
        if errors[job.seed] > workloads.ERROR_LIMIT:
            job.problems.append(f"relative error {errors[job.seed]:.3e} > {workloads.ERROR_LIMIT:g}")
    return errors


def environment(seed: int) -> dict:
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "load": "closed loop, 1 client, 1 process",
    }


def end_to_end(w: Workload, jobs: list[Job], setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics and the extra lines of the table."""
    errors = input_errors(w, jobs)
    walls = [job.wall_s for job in jobs]
    metrics = {
        "job_s": statistics.median(job.scaled_s for job in jobs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy_digits": (
            statistics.median(workloads.digits(e) for e in errors.values()) if errors else 0.0
        ),
    }
    failed = sum(job.failed for job in jobs)
    err_name = {"simulate": "flow_max_rel_err", "spectrum": "spectrum_max_rel_err",
                "track": "curve_max_rel_err"}[w.command]
    calibration = [job.calibration_s for job in jobs]
    notes = [
        f"job_s: median of {len(jobs)} jobs at reference speed; unscaled wall time median "
        f"{statistics.median(walls):.4f} s, min {min(walls):.4f} s, max {max(walls):.4f} s",
        f"calibration: median {statistics.median(calibration):.4f} s, reference {CALIBRATION_REF_S} s",
        f"setup_s: median of {len(setup)} fresh processes at reference speed",
        f"fail_rate {failed / len(jobs):.4g} ratio ({failed}/{len(jobs)} jobs)",
        f"{err_name} {max(errors.values(), default=float('nan')):.4g} ratio "
        f"(max over {len(errors)} inputs; accuracy_digits is the median over inputs)",
    ]
    if w.command == "track":
        checked = [job for job in jobs if not job.failed]
        residual = max((j.observed["variation"]["max_rel_residual"] for j in checked), default=float("nan"))
        forms = max((j.observed["variation"]["max_form_discrepancy"] for j in checked), default=float("nan"))
        passed = sum(j.observed["passed"] for j in checked)
        notes += [
            f"variation_max_rel_residual {residual:.4g} ratio (max over jobs; budget 1e-4)",
            f"variation_max_form_discrepancy {forms:.4g} (max over jobs; budget 1e-10)",
            f"variation_pass_rate {passed / max(len(checked), 1):.4g} ratio ({passed}/{len(checked)} jobs)",
        ]
    return metrics, notes


def per_layer(jobs: list[Job], names: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over traced jobs, plus tracing overhead."""
    traced = [job for job in jobs if job.layers]
    plain = [job for job in jobs if not job.layers]
    metrics = {name: statistics.median(job.layers[name] for job in traced)
               for name in names if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        statistics.median(j.scaled_s for j in traced) - statistics.median(j.scaled_s for j in plain)
    )
    notes = [f"{len(traced)} traced and {len(plain)} untraced jobs, input seed {jobs[0].seed}"]
    missing = traced[0].untraced_layers
    if missing:
        notes.append(f"not found in the program, so not traced: {', '.join(missing)}")
    return metrics, notes


def write_spans(w: Workload, seed: int, jobs: list[Job]) -> None:
    """Write the spans of every traced job, times relative to the job start."""
    index = {name: i for i, name in enumerate(SPAN_NAMES)}
    doc = {"workload": w.name, "seed": seed, "names": list(SPAN_NAMES),
           "fields": ["name", "start_s", "end_s", "parent"], "jobs": []}
    for k, job in enumerate(jobs):
        if job.spans:
            t0 = job.spans[0][1]
            doc["jobs"].append({
                "job": k,
                "spans": [[index[n], round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in job.spans],
            })
    TRACES.mkdir(parents=True, exist_ok=True)
    (TRACES / f"{w.name}-seed{seed}.json").write_text(json.dumps(doc))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="fuzzyricci CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads.import_program()
    except workloads.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    env = environment(args.seed)

    calibrate = make_calibration()
    setup = [] if args.trace else setup_times(w, args.seed, calibrate)
    run_job(w, w.warmup_argv(OUT), 0)
    jobs = run_loop(w, args.seed, args.seconds, bool(args.trace), calibrate)
    check_repeats(jobs)
    if args.trace:
        declared = spec["per_layer"]
        metrics, notes = per_layer(jobs, [m["name"] for m in declared])
        write_spans(w, args.seed, jobs)
    else:
        declared = spec["end_to_end"]
        metrics, notes = end_to_end(w, jobs, setup)
    shutil.rmtree(OUT, ignore_errors=True)

    failed = sum(job.failed for job in jobs)
    print(f"workload {w.name}: {w.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    for m in declared:
        print(f"  {m['name']:<50} {metrics[m['name']]:>14.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    for k, job in enumerate(jobs):
        for problem in job.problems:
            print(f"  FAILED job {k} (seed {job.seed}): {problem}")
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

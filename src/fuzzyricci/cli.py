"""Command-line front end.

Four subcommands over the library: ``simulate`` integrates the metric flow
and writes trajectory artifacts, ``spectrum`` computes the curved-Laplacian
eigendecomposition at a chosen time, ``track`` runs the full
flow-track-verify pipeline for the first variation law, and ``verify``
executes the cross-module invariant suite.

Configuration comes from an optional JSON document (``--config``) with
command-line flags overriding individual keys one-to-one; the resolved
configuration is written next to the outputs as ``config.json`` so a run is
reproducible from its artifacts alone. All outputs are deterministic:
identical configuration produces byte-identical files, for the same numpy,
BLAS and BLAS thread count. Every JSON document,
the error document on stderr included, is the stdlib encoder's text with
``sort_keys=True, indent=2`` plus a newline. ``json.dumps`` writes every
scalar and every list of scalars; ``_json_pieces`` writes the brackets and
keys around them, builds lazy lists as it goes, and writes a list of
equal-length float rows (a matrix) as one ``str.join``. The matrices of
``spectrum.json``'s eigenvectors and ``trajectory.json``'s samples are typed
rows (``linalg.FloatRows``), written from one ``tolist`` of the array's flat
float view with one ``repr`` per float and no ``[re, im]`` lists.

Artifacts are streamed: the text comes in pieces (one per list item, key,
scalar list or matrix) that go straight to a sibling file, renamed onto the
artifact's name once complete, so a failed write leaves no partial file.
``spectrum.json``'s eigenvectors and ``trajectory.json``'s samples are built
one matrix or sample at a time (``linalg.LazyDocs``), as they are written, so
the document never exists whole in memory. With both formats ``simulate``
writes ``trajectory.csv`` and ``trajectory.json`` in one pass over the
samples, both sibling files open: each sample's CSV row is rendered once, and
its entries' reprs are also the JSON sample's matrix.

Exit codes: 0 success; 2 invalid input or parameters, including an
unreadable ``--config``, ``--initial`` or ``--geometry`` file, a stride or
tolerance that is not finite and positive, an ``--out`` that cannot be a
directory (an existing file is refused before any work), ``track`` sample
times that are fewer than 3 or do not strictly increase (refused before the
flow), and ``verify --n-max`` given with ``--geometry``; 3 numerical
failure (positivity loss, step underflow, or a sample's ``L log c`` that is
not exactly Hermitian, ``NonRealVariation``); 4 acceptance failure in track/verify.
Every package error outside the numerical three exits 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import FuzzyRicciError, InvalidInput, InvalidParams, NonRealVariation
from .errors import PositivityLost, StepUnderflow
from .flow import (
    DET_SLACK,
    FlowConfig,
    flow_invariants,
    metric_from_spec,
    run_flow,
    sample_times,
    trajectory_csv_rows,
    trajectory_to_json,
)
from .laplace_beltrami import lb_spectrum, spectrum_to_json
from .linalg import FloatRows, LazyDocs, as_int
from .torus import FuzzyTorus
from .tracking import (
    RESIDUAL_BUDGET,
    check_sample_times,
    curves_csv_rows,
    first_variation_report,
    report_to_json,
)
from .verify import geometry_file_report, run_suite

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _real(value) -> float:
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


# Keys of the run configuration, each with the type its value converts to
# (None: kept as given) and the help of its flag. Flags mirror the keys
# one-to-one and in this order, and document values convert exactly as flag
# values do.
_CONFIG_KEYS = {
    "n": (as_int, "matrix size (default 2)"),
    "m": (as_int, "twist, coprime to n (default 1)"),
    "initial": (
        None,
        "initial metric: matrix JSON file, 'flat', 'diag:v1,v2,...', "
        "or 'random:seed=S,scale=X'",
    ),
    "t0": (_real, "start time (default 0)"),
    "t1": (_real, "end time (simulate: 50, track: 0.2)"),
    "rel_tol": (_real, "integrator relative tolerance"),
    "abs_tol": (_real, "integrator absolute tolerance"),
    "stride": (_real, "sample cadence (simulate: 0.5, track: 1e-3)"),
    "seed": (as_int, "seed for 'random' initial metrics"),
    "out": (_text, "output directory (default ./out)"),
    "format": (_text, "comma set of output formats: csv,json"),
}

_FORMATS = {"csv", "json"}

_SHARED = {
    "n": 2,
    "m": 1,
    "initial": "random",
    "t0": FlowConfig.t0,
    "rel_tol": FlowConfig.rel_tol,
    "abs_tol": FlowConfig.abs_tol,
    "seed": 0,
    "out": "out",
}

# The keys each command reads, with their defaults: simulate favors long
# horizons, track needs a dense grid for the derivative oracle, and spectrum
# writes one file at one time, so it has no cadence or format and its t1
# defaults to t0 (no integration).
_COMMANDS = {
    "simulate": {**_SHARED, "t1": 50.0, "stride": 0.5, "format": "csv,json"},
    "spectrum": {**_SHARED, "t1": None},
    "track": {**_SHARED, "t1": 0.2, "stride": 1e-3, "format": "csv,json"},
}


def _json_document(doc, reprs=None):
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, in pieces."""
    yield from _json_pieces(doc, "\n", reprs)
    yield "\n"


def _float_reprs(rows: FloatRows):
    # tolist gives exact floats, so repr is float.__repr__, and its call costs less.
    return map(repr, rows.floats.tolist())


def _json_pieces(obj, ind: str, reprs=None):
    """The stdlib encoder's text of ``obj`` at line prefix ``ind``, in pieces: one per
    key, closing bracket, scalar, list of scalars and list of equal-length float rows.

    A ``LazyDocs`` is a list whose items are built as they are encoded. A
    ``FloatRows`` is written from its floats' reprs, ``reprs(rows)`` in document
    order if given, else ``_float_reprs``; with a non-finite one, as its lists.
    """
    inner = ind + "  "
    if isinstance(obj, dict):  # a key that is not a str fails to sort or encode: TypeError
        if not obj:
            yield "{}"
            return
        prefix = "{" + inner
        for key, value in sorted(obj.items()):
            yield prefix + encode_basestring_ascii(key) + ": "
            yield from _json_pieces(value, inner, reprs)
            prefix = "," + inner
        yield ind + "}"
    elif isinstance(obj, (list, tuple, LazyDocs, FloatRows)):
        if not obj:
            yield "[]"
            return
        if isinstance(obj, LazyDocs):
            text = None
        elif isinstance(obj, FloatRows):
            text = _rows_text((reprs or _float_reprs)(obj), len(obj), 2, inner)
        elif not any(isinstance(item, (dict, list, tuple, LazyDocs, FloatRows)) for item in obj):
            text = json.dumps(obj, separators=("," + inner, ": "))[1:-1]  # a list of scalars
        else:
            text = _floats_text(obj, inner)
        if text is not None:
            yield "[" + inner + text + ind + "]"
            return
        prefix = "[" + inner
        for item in obj:
            yield prefix
            yield from _json_pieces(item, inner, reprs)
            prefix = "," + inner
        yield ind + "]"
    else:
        yield json.dumps(obj)


def _floats_text(items, inner: str) -> str | None:
    """A non-empty list's items at line prefix ``inner`` when they are equal-length
    rows of finite floats, by ``_rows_text`` over ``float.__repr__``; else None.

    The stdlib's ``indent`` path takes about twice as long over the same rows.
    """
    widths = set(map(len, items)) if set(map(type, items)) <= {list, tuple} else set()
    if len(widths) != 1 or 0 in widths:
        return None
    try:
        reprs = map(float.__repr__, itertools.chain.from_iterable(items))
        return _rows_text(reprs, len(items), widths.pop(), inner)
    except TypeError:  # an item that is not a float
        return None


def _rows_text(reprs, count: int, width: int, inner: str) -> str | None:
    """``count`` rows of ``width`` floats at line prefix ``inner``, by one ``str.join``
    over their reprs in row-major order; None when one is not finite.

    The join interleaves the reprs with the two separators: the one between a
    row's items, and the one that closes a row and opens the next (the last
    is the list's closing bracket instead).
    """
    deeper = inner + "  "
    parts = [("," + deeper)] * (2 * width * count)
    parts[0::2] = reprs
    parts[2 * width - 1 :: 2 * width] = [inner + "]," + inner + "[" + deeper] * count
    parts[-1] = inner + "]"
    text = "[" + deeper + "".join(parts)
    return text if "n" not in text else None  # a finite float never prints an "n"; nan and inf do


@contextmanager
def _partial_file(path: Path):
    """A text file open on a sibling of ``path``, renamed to ``path`` once the block ends.

    A failure in the block leaves no file at ``path`` (or the earlier one
    untouched) and removes the sibling.
    """
    partial = path.with_name(path.name + ".partial")
    try:
        with partial.open("w", newline="") as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _write_text(path: Path, pieces) -> None:
    """Stream ``pieces`` into ``path`` through its ``_partial_file``."""
    with _partial_file(path) as fh:
        for piece in pieces:  # fh.writelines took 0.5-1 ms longer on a 3217-row CSV
            fh.write(piece)


def _write_json(path: Path, doc) -> None:
    _write_text(path, _json_document(doc))


def _csv_line(row) -> str:
    # Every field is a float repr, an int or a plain column name: nothing to quote.
    return ",".join(row) + "\n"


def _write_csv(path: Path, rows) -> None:
    _write_text(path, map(_csv_line, rows))


def _write_trajectory(out: Path, result, formats) -> None:
    """Write ``trajectory.csv``, ``trajectory.json`` or both, the two in one pass:
    each sample's CSV row goes out as the JSON reaches its matrix, written from
    the row's reprs, so each float is rendered once.
    """
    if "json" not in formats:
        _write_csv(out / "trajectory.csv", trajectory_csv_rows(result))
        return
    if "csv" not in formats:
        _write_json(out / "trajectory.json", trajectory_to_json(result))
        return
    rows = trajectory_csv_rows(result)
    with _partial_file(out / "trajectory.csv") as csv_fh, \
            _partial_file(out / "trajectory.json") as json_fh:
        csv_fh.write(_csv_line(next(rows)))  # the header

        def row_reprs(_rows):  # the samples' matrices are the document's only FloatRows
            row = next(rows)
            csv_fh.write(_csv_line(row))
            return row[1:-4]  # trajectory_csv_rows' columns: t, the entries, four scalars

        for piece in _json_document(trajectory_to_json(result), row_reprs):
            json_fh.write(piece)


def _read_json(path, what: str):
    """Parse an outside JSON file; any failure to read it is invalid input."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read {what} {path}: {exc}") from exc


def resolve_config(args: argparse.Namespace, command: str) -> dict:
    """Merge defaults, the JSON config document, and flag overrides."""
    config = dict(_COMMANDS[command])
    if getattr(args, "config", None):
        doc = _read_json(args.config, "config")
        if not isinstance(doc, dict):
            raise InvalidInput("config document must be a JSON object")
        unknown = set(doc) - set(config)
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            convert = _CONFIG_KEYS[key][0]
            try:
                config[key] = value if convert is None else convert(value)
            except (TypeError, ValueError) as exc:
                raise InvalidInput(f"config key {key!r} has a bad value {value!r}: {exc}") from exc
    for key in config:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if config["t1"] is None:
        config["t1"] = config["t0"]

    if "format" in config:
        formats = set(config["format"].split(","))
        if not formats <= _FORMATS:
            raise InvalidParams(
                f"format must be a comma set of {sorted(_FORMATS)}, got {config['format']!r}"
            )
        config["format"] = ",".join(sorted(formats))
    return config


def _flow_config(config: dict) -> FlowConfig:
    return FlowConfig(
        t0=config["t0"],
        t1=config["t1"],
        rel_tol=config["rel_tol"],
        abs_tol=config["abs_tol"],
        sample_stride=config["stride"],
    )


def _prepare_run(config: dict):
    """Validate the output path, geometry and initial metric before any work."""
    _check_out(config["out"])
    torus = FuzzyTorus(config["n"], config["m"])
    initial = config["initial"]
    if isinstance(initial, str) and initial.endswith(".json") and Path(initial).exists():
        initial = _read_json(initial, "initial metric")
    c0 = metric_from_spec(initial, config["n"], seed_default=config["seed"])
    return torus, c0


def _check_out(path) -> None:
    """Reject an output path (if any) that exists as something other than a directory."""
    if path and Path(path).exists() and not Path(path).is_dir():
        raise InvalidInput(f"cannot make output directory {path}: it exists and is not a directory")


def _out_dir(path) -> Path:
    """Create the output directory; a path that cannot be one is invalid input."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidInput(f"cannot make output directory {path}: {exc}") from exc
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    config = resolve_config(args, "simulate")
    torus, c0 = _prepare_run(config)
    result = run_flow(torus, c0, _flow_config(config))

    formats = set(config["format"].split(","))
    out = _out_dir(config["out"])
    _write_json(out / "config.json", config)
    _write_json(out / "geometry.json", torus.to_json())
    _write_trajectory(out, result, formats)

    drift, det_drop = flow_invariants(result)
    nondecreasing = det_drop <= DET_SLACK
    summary = {
        "samples": len(result.samples),
        **result.counters,
        "trace_drift_rel": drift,
        "det_nondecreasing": nondecreasing,
        "min_eig_final": result.final.min_eig,
        "final_dist_to_flat": result.final.dist_to_flat,
    }
    _write_json(out / "summary.json", summary)
    switch = "never" if result.switch_time is None else f"from t={result.switch_time:.6g}"
    print(
        f"simulate: {len(result.samples)} samples on [{config['t0']}, {config['t1']}], "
        f"trace drift {drift:.3e}, det nondecreasing: {nondecreasing}, "
        f"final dist to flat {result.final.dist_to_flat:.3e}, "
        f"exponential tail {switch}"
    )
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = resolve_config(args, "spectrum")
    torus, c0 = _prepare_run(config)
    t = config["t1"]
    # One sample interval spanning the window, validated before any file is
    # written; t1 == t0 leaves the initial metric as the only sample.
    span = t - config["t0"]
    flow_config = _flow_config({**config, "stride": span if span > 0 else 1.0})
    data = lb_spectrum(torus, run_flow(torus, c0, flow_config).final.space)

    out = _out_dir(config["out"])
    _write_json(out / "config.json", config)
    _write_json(out / "spectrum.json", spectrum_to_json(data, t=t))
    print(f"spectrum at t={t}: {len(data.eigenvalues)} eigenvalues in [0, {data.eigenvalues[-1]:.6g}]")
    return EXIT_OK


def cmd_track(args: argparse.Namespace) -> int:
    config = resolve_config(args, "track")
    torus, c0 = _prepare_run(config)
    flow_config = _flow_config(config)
    check_sample_times(sample_times(flow_config))  # the derivative oracle's times, before the run
    result = run_flow(torus, c0, flow_config)
    report = first_variation_report(result)

    formats = set(config["format"].split(","))
    out = _out_dir(config["out"])
    _write_json(out / "config.json", config)
    if "csv" in formats:
        _write_csv(out / "curves.csv", curves_csv_rows(report))
    if "json" in formats:
        _write_json(out / "variation.json", report_to_json(report))

    passed = report.passed()
    print(
        f"track: {report.curves.values.shape[1]} curves x {len(result.samples)} samples, "
        f"max relative residual {report.max_rel_residual:.3e} "
        f"(budget {RESIDUAL_BUDGET:g}), forms agree to {report.max_form_discrepancy:.3e}, "
        f"{report.flagged_samples} flagged -> {'pass' if passed else 'FAIL'}"
    )
    return EXIT_OK if passed else EXIT_ACCEPTANCE


def cmd_verify(args: argparse.Namespace) -> int:
    # --n-max has no parser default, so an explicit one is told from an absent one.
    if args.geometry and args.n_max is not None:
        raise InvalidParams("--n-max does not apply to --geometry, which checks the file's own size")
    _check_out(args.out)
    if args.geometry:
        report = geometry_file_report(_read_json(args.geometry, "geometry"), args.geometry)
    else:
        report = run_suite() if args.n_max is None else run_suite(n_max=args.n_max)

    if args.out:
        _write_json(_out_dir(args.out) / "verify.json", report)
    for check in report["checks"]:
        if not check["passed"]:
            print(
                f"FAIL {check['check']} [{check['params']}] "
                f"measured={check['measured']} tolerance={check['tolerance']}"
            )
    print(
        f"verify: {report['total'] - report['failures']}/{report['total']} checks passed"
    )
    return EXIT_OK if report["passed"] else EXIT_ACCEPTANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyricci",
        description="Metric flow, curved Laplacian spectra, and eigenvalue-curve "
        "tracking for the finite (fuzzy) torus algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in (
        ("simulate", cmd_simulate, "integrate the metric flow and dump the trajectory"),
        ("spectrum", cmd_spectrum,
         "curved-Laplacian spectrum at time t1 (t1 == t0 means the initial metric)"),
        ("track", cmd_track, "track eigenvalue curves along the flow and check the variation law"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config document; flags override its keys")
        for key, (convert, key_help) in _CONFIG_KEYS.items():
            if key in _COMMANDS[command]:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=convert, help=key_help)
        p.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="run the cross-module invariant suite")
    p_verify.add_argument("--n-max", dest="n_max", type=int, help="largest matrix size (2..8)")
    p_verify.add_argument("--geometry", help="check a geometry JSON dump instead of the full suite")
    p_verify.add_argument("--out", help="directory for verify.json (default: stdout only)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _error_doc(exc: Exception) -> dict:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("time", "eigenvalue", "step"):
        value = getattr(exc, attr, None)
        if value is not None:
            doc[attr] = value
    return doc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FuzzyRicciError, FileNotFoundError) as exc:
        sys.stderr.write(json.dumps(_error_doc(exc), sort_keys=True, indent=2) + "\n")
        numerical = isinstance(exc, (PositivityLost, StepUnderflow, NonRealVariation))
        return EXIT_NUMERICAL if numerical else EXIT_INVALID


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

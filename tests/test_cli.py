import csv
import dataclasses
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzyricci
from fuzzyricci import (
    FuzzyRicciError,
    FuzzyTorus,
    PositivityLost,
    cli,
    flow,
    lb_spectrum,
    linalg,
    random_metric,
)
from fuzzyricci.laplace_beltrami import WeightedSpace, spectrum_to_json


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_import_leaves_scipy_optimize_unloaded():
    # No command needs scipy; loading scipy.optimize would dominate import time.
    src = str(Path(fuzzyricci.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, fuzzyricci.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_module_runs_from_a_checkout():
    # python -m fuzzyricci needs only src/ on the path, not an installed script.
    src = str(Path(fuzzyricci.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "fuzzyricci", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "track" in done.stdout


@pytest.mark.parametrize(
    "command, size",
    [
        ("simulate", ["--n", "3", "--t1", "0.1"]),
        ("spectrum", ["--n", "3", "--t1", "0.1"]),
        ("track", ["--n", "2", "--t1", "0.05"]),
        ("verify", ["--n-max", "2"]),
    ],
    ids=["simulate", "spectrum", "track", "verify"],
)
def test_command_leaves_scipy_unloaded(tmp_path, command, size):
    # Loading scipy costs set-up time and memory, and no command needs it:
    # eigencurve matching (track, verify) has its own assignment solver.
    src = str(Path(fuzzyricci.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    args = [command, *size, "--out", str(tmp_path / "run")]
    code = (
        "import sys\n"
        "from fuzzyricci import cli\n"
        f"assert cli.main({args!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "args, name, rows",
    [
        (["simulate", "--n", 3, "--t1", 0.5, "--stride", 0.1],
         "trajectory.csv", "trajectory_csv_rows"),
        (["track", "--n", 2, "--seed", 7, "--t1", 0.02], "curves.csv", "curves_csv_rows"),
    ],
)
def test_csv_bytes_are_the_csv_modules(tmp_path, monkeypatch, args, name, rows):
    # The CSV writer joins fields without quoting; the csv module writes the
    # same bytes for every row the package produces.
    written = []
    real_rows = getattr(cli, rows)

    def recording_rows(arg):
        written.extend(list(row) for row in real_rows(arg))
        return iter(written)

    monkeypatch.setattr(cli, rows, recording_rows)
    out = tmp_path / "run"
    assert run_cli([*args, "--out", out]) == 0
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(written)
    assert len(written) > 1
    assert (out / name).read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("command", ["simulate", "track"])
@pytest.mark.parametrize("fmt", ["xml", ""])
def test_unknown_format_exit_2_and_no_files(tmp_path, capsys, command, fmt):
    out = tmp_path / "run"
    code = run_cli([command, "--n", 2, "--t1", 0.01, "--format", fmt, "--out", out])
    assert code == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidParams"


def test_unknown_format_in_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--t1", 0.01, "--out", out]) == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidParams"


@pytest.mark.parametrize(
    "doc",
    [
        {"n": "x"}, {"m": "x"}, {"seed": "x"}, {"t1": "x"}, {"stride": "x"},
        {"rel_tol": "x"}, {"n": None}, {"n": [2]}, {"t1": None}, {"out": None},
        # Non-integral and bool values are rejected, not truncated to n=2, seed=1.
        {"n": 2.9, "seed": True}, {"seed": True}, {"m": 1.5}, {"seed": 0.5},
        {"t1": True}, {"stride": False},
    ],
)
def test_unconvertible_config_value_exit_2_and_no_files(tmp_path, monkeypatch, capsys, doc):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInput"
    assert repr(next(iter(doc))) in err["message"]


@pytest.mark.parametrize("command", ["simulate", "track", "spectrum"])
@pytest.mark.parametrize("initial", ["diag:nan,1", "diag:inf,1", "nan.json"])
def test_non_finite_initial_metric_exit_2_and_no_files(tmp_path, capsys, command, initial):
    if initial == "nan.json":
        initial = tmp_path / initial
        entries = [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        initial.write_text(json.dumps({"n": 2, "entries": entries}))
    out = tmp_path / "run"
    assert run_cli([command, "--n", 2, "--initial", initial, "--out", out]) == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInput"


@pytest.mark.parametrize(
    "setting",
    [
        # An infinite stride would take no step and label the initial metric t1.
        ["--stride", "inf"],
        ["--stride", "nan"],
        ["--rel-tol", "nan"],
        # An infinite tolerance would accept every trial step.
        ["--abs-tol", "inf"],
        ["--rel-tol", "inf"],
        # Sample counts past the largest array index.
        ["--stride", "1e-300"],
        ["--t1", "1e300"],
    ],
    ids="=".join,
)
def test_unusable_run_setting_exit_2_and_no_files(tmp_path, capsys, setting):
    out = tmp_path / "run"
    assert run_cli(["simulate", "--n", 2, "--t1", 1] + setting + ["--out", out]) == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidParams"


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["--seed", -1], None),
        (["--initial", "random:seed=-3"], None),
        ([], {"seed": -1}),
    ],
    ids=["flag", "spec", "config"],
)
def test_negative_seed_exit_2_and_no_files(tmp_path, capsys, argv, doc):
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = argv + ["--config", cfg]
    out = tmp_path / "run"
    assert run_cli(["simulate", "--n", 2, "--t1", 1, *argv, "--out", out]) == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidParams"


@pytest.mark.parametrize("scale", ["inf", "nan"])
def test_non_finite_random_scale_exit_2_and_no_files(tmp_path, capsys, scale):
    # stderr holds the error document only: no numpy warning precedes it.
    out = tmp_path / "run"
    argv = ["simulate", "--n", 2, "--initial", f"random:scale={scale}", "--out", out]
    assert run_cli(argv) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "InvalidParams", "message": f"scale must be finite, got scale={scale}"}


@pytest.mark.parametrize("scale", ["800", "1e10", "1e300"])
def test_random_scale_too_large_exit_2_and_no_files(tmp_path, capsys, scale):
    # The least eigenvalue rounds to zero, or exp overflows: one error
    # document naming the scale, and no numpy warning before it.
    out = tmp_path / "run"
    argv = ["simulate", "--n", 2, "--t1", 0.01, "--initial", f"random:scale={scale}", "--out", out]
    assert run_cli(argv) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidParams"
    assert f"got scale={float(scale)}:" in err["message"]


@pytest.mark.parametrize(
    "argv, what",
    [
        (["simulate", "--config", "{path}"], "config"),
        (["verify", "--geometry", "{path}"], "geometry"),
        (["simulate", "--n", 2, "--initial", "{path}"], "initial metric"),
    ],
    ids=["config", "geometry", "initial"],
)
def test_unreadable_file_exit_2_and_no_files(tmp_path, capsys, argv, what):
    # A file that is not UTF-8 is as unreadable as a missing one, whichever
    # option names it.
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    out = tmp_path / "run"
    argv = [str(path) if a == "{path}" else a for a in argv]
    assert run_cli(argv + ["--out", out]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInput"
    assert err["message"].startswith(f"cannot read {what} {path}")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", 2, "--t1", 0.1],
        ["spectrum", "--n", 2],
        ["track", "--n", 2, "--t1", 0.01],
        ["verify", "--n-max", 2],
    ],
    ids=lambda argv: argv[0],
)
def test_out_not_a_directory_exit_2(tmp_path, monkeypatch, capsys, argv):
    # The path is refused before any computation starts.
    def no_work(*args, **kwargs):
        raise AssertionError("the command computed before checking --out")

    monkeypatch.setattr(cli, "run_flow", no_work)
    monkeypatch.setattr(cli, "run_suite", no_work)
    out = tmp_path / "taken"
    out.write_text("keep\n")
    assert run_cli(argv + ["--out", out]) == 2
    assert out.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInput"
    assert str(out) in err["message"]


def test_base_error_exit_2(monkeypatch, capsys):
    # Any package error outside the numerical pair is invalid input, including
    # the base class itself.
    def fail(args):
        raise FuzzyRicciError("no such case")

    monkeypatch.setattr(cli, "cmd_track", fail)
    assert run_cli(["track"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "FuzzyRicciError", "message": "no such case"}


def test_no_command_probes_an_operator(tmp_path, monkeypatch):
    # Every operator is assembled in closed form from n x n pieces;
    # superop_from_map is only the tests' reference. Every module binding it
    # is patched, so no route can hide a call.
    calls = []
    real_probe = linalg.superop_from_map

    def counting_probe(*args, **kwargs):
        calls.append(args[0])
        return real_probe(*args, **kwargs)

    modules = [fuzzyricci] + [
        importlib.import_module(f"fuzzyricci.{info.name}")
        for info in pkgutil.iter_modules(fuzzyricci.__path__)
    ]
    patched = [m for m in modules if vars(m).get("superop_from_map") is real_probe]
    assert linalg in patched
    for module in patched:
        monkeypatch.setattr(module, "superop_from_map", counting_probe)

    for argv in (
        ["spectrum", "--n", 3, "--t1", 0.1],
        ["track", "--n", 2, "--t1", 0.01],
        ["simulate", "--n", 3, "--t1", 1],
    ):
        assert run_cli(argv + ["--out", tmp_path / argv[0]]) == 0, argv
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", 3, "--seed", 5, "--t1", 1],
        ["spectrum", "--n", 3, "--seed", 5, "--t1", 1],
        ["track", "--n", 2, "--seed", 7, "--t1", 0.02],
    ],
    ids=lambda argv: argv[0],
)
def test_config_round_trip(tmp_path, argv):
    first = tmp_path / "a"
    assert run_cli(argv + ["--out", first]) == 0
    second = tmp_path / "b"
    # Feed the emitted config back; only the output directory differs.
    assert run_cli([argv[0], "--config", first / "config.json", "--out", second]) == 0
    a = json.loads((first / "config.json").read_text())
    b = json.loads((second / "config.json").read_text())
    assert a.pop("out") == str(first) and b.pop("out") == str(second)
    assert a == b
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    assert len(names) > 1
    for name in names:
        if name != "config.json":
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", 4, "--t1", 1e6, "--stride", 1e6],
        ["spectrum", "--n", 3, "--seed", 2, "--t1", 1e12],
        # Ends only if the tail leaves out L's kernel, whose zero rate's weights grow like h.
        ["spectrum", "--n", 2, "--seed", 0, "--t1", 1e100],
    ],
)
def test_long_window_ends(tmp_path, monkeypatch, argv):
    # The explicit phase's step cap does not hold after the switch, so the
    # tail's steps grow with the window instead of needing t1 steps. Counting
    # trials makes a run that does not end fail fast.
    tails = []

    def counting(real, tail):
        def trial(*args, **kwargs):
            tails.append(tail)
            assert len(tails) <= 400
            return real(*args, **kwargs)
        return trial

    monkeypatch.setattr(flow, "_dp45_trial", counting(flow._dp45_trial, False))
    monkeypatch.setattr(flow, "_etd_trial", counting(flow._etd_trial, True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*argv, "--out", tmp_path / "run"]) == 0
    assert tails[-1]


class TestSimulate:
    def test_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            ["simulate", "--n", 2, "--initial", "diag:1,3", "--t1", 5, "--out", out]
        )
        assert code == 0
        for name in ("config.json", "geometry.json", "trajectory.csv",
                     "trajectory.json", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trace_drift_rel"] <= 1e-9
        assert summary["det_nondecreasing"] is True
        assert summary["min_eig_final"] > 0
        assert summary["samples"] == 11
        # The step telemetry: rejections by cause, and when the run switched
        # to the exponential tail.
        assert summary["rejected_error"] + summary["rejected_cone"] == summary["rejected_steps"]
        assert 0 < summary["switch_time"] < 5
        trajectory = json.loads((out / "trajectory.json").read_text())
        for key in ("accepted_steps", "rejected_steps", "rejected_error", "rejected_cone",
                    "switch_time"):
            assert trajectory[key] == summary[key], key
        assert f"exponential tail from t={summary['switch_time']:.6g}" in capsys.readouterr().out

    def test_counters_in_summary_and_trajectory(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        results = []
        real_run = cli.run_flow

        def recording_run(*args):
            results.append(real_run(*args))
            return results[-1]

        monkeypatch.setattr(cli, "run_flow", recording_run)
        assert run_cli(["simulate", "--n", 3, "--seed", 1, "--t1", 5, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        trajectory = json.loads((out / "trajectory.json").read_text())
        # Both documents spread the one counter table, keys and values.
        (result,) = results
        counters = result.counters
        assert len(counters) == 8
        assert {key: summary[key] for key in counters} == counters
        assert {key: trajectory[key] for key in counters} == counters
        assert set(summary) - set(counters) == {
            "samples", "trace_drift_rel", "det_nondecreasing", "min_eig_final", "final_dist_to_flat"
        }
        assert set(trajectory) - set(counters) == {"n", "m", "config", "samples"}
        # A sample's trace, det and min_eig are read off its metric state.
        assert len(trajectory["samples"]) == len(result.samples)
        for doc, sample in zip(trajectory["samples"], result.samples):
            space = sample.space
            assert doc["trace"] == sample.trace == space.trace
            assert doc["det"] == sample.det == float(np.prod(space.eigenvalues))
            assert doc["min_eig"] == sample.min_eig == float(space.eigenvalues[0])
        trials = summary["accepted_steps"] + summary["rejected_steps"]
        assert 0 < summary["tail_trials"] < trials
        # At most six fields per trial, plus one at the start.
        assert trials < summary["field_evaluations"] <= 6 * trials + 1
        for key in ("field_evaluations", "tail_trials"):
            assert trajectory[key] == summary[key], key

    def test_csv_only_format(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            ["simulate", "--n", 2, "--t1", 0.5, "--format", "csv", "--out", out]
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert not (out / "trajectory.json").exists()

    def test_invalid_params_exit_2_and_no_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(["simulate", "--n", 4, "--m", 2, "--out", out])
        assert code == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidParams"

    def test_bad_initial_spec_exit_2(self, tmp_path):
        code = run_cli(
            ["simulate", "--n", 2, "--initial", "nonsense", "--out", tmp_path / "x"]
        )
        assert code == 2

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "bogus": 1}))
        code = run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x"])
        assert code == 2

    def test_initial_from_file(self, tmp_path):
        from fuzzyricci.linalg import matrix_to_json

        c0 = np.diag([1.0, 3.0]).astype(complex)
        path = tmp_path / "c0.json"
        path.write_text(json.dumps(matrix_to_json(c0)))
        out = tmp_path / "run"
        code = run_cli(
            ["simulate", "--n", 2, "--initial", path, "--t1", 0.5, "--out", out]
        )
        assert code == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        first = rows[1].split(",")
        assert float(first[1]) == 1.0 and float(first[7]) == 3.0

    def test_non_hermitian_initial_file_exit_2_and_no_files(self, tmp_path, capsys):
        c0 = np.diag([1.0, 3.0]).astype(complex)
        c0[0, 1] = 100 * linalg.HERM_TOL_SCALE * linalg.hs_norm(c0)
        path = tmp_path / "c0.json"
        path.write_text(json.dumps(linalg.matrix_to_json(c0)))
        out = tmp_path / "run"
        assert run_cli(["simulate", "--n", 2, "--initial", path, "--out", out]) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput" and "not Hermitian" in err["message"]

    def test_drifted_initial_file_runs_from_its_lower_triangle(self, tmp_path):
        # Roundoff drift is accepted, and the first sample is the matrix eigh
        # decomposed: the lower triangle mirrored, with a real diagonal.
        c0 = flow.random_metric(3, 1)
        c0[2, 0] += 1e-13
        c0[1, 1] += 1e-13j
        path = tmp_path / "c0.json"
        path.write_text(json.dumps(linalg.matrix_to_json(c0)))
        out = tmp_path / "run"
        assert run_cli(["simulate", "--n", 3, "--initial", path, "--t1", 0.5, "--out", out]) == 0
        doc = json.loads((out / "trajectory.json").read_text())
        first = linalg.matrix_from_json(doc["samples"][0]["c"])
        mirrored = np.tril(c0) + np.tril(c0, -1).conj().T
        np.fill_diagonal(mirrored, c0.diagonal().real)
        np.testing.assert_array_equal(first, mirrored)
        np.testing.assert_array_equal(first, first.conj().T)

    @pytest.mark.parametrize(
        "text",
        [
            "{bad",
            "[1,2]",
            json.dumps({"n": 2, "entries": [[1, 0], [0, 0], [0, 0], [1]]}),
            json.dumps({"n": 2, "entries": [["x", 0], [0, 0], [0, 0], [1, 0]]}),
            json.dumps({"n": 2, "entries": [[True, 0], [0, 0], [0, 0], [2, False]]}),
        ],
        ids=["not-json", "not-a-document", "short-entry", "non-numeric-entry", "boolean-entry"],
    )
    def test_malformed_initial_file_exit_2_and_no_files(self, tmp_path, capsys, text):
        path = tmp_path / "c0.json"
        path.write_text(text)
        out = tmp_path / "run"
        code = run_cli(["simulate", "--n", 2, "--initial", path, "--out", out])
        assert code == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidInput"

    def test_numerical_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise PositivityLost("eigenvalue crossed zero", time=1.25)

        monkeypatch.setattr(cli, "run_flow", explode)
        code = run_cli(["simulate", "--n", 2, "--out", tmp_path / "x"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PositivityLost"
        assert err["time"] == 1.25

    def test_non_finite_field_exit_3_names_why(self, tmp_path, monkeypatch, capsys):
        # Every stage leaves the cone as "not finite"; the error says so and
        # gives the step at which the run gave up, and no file is written.
        monkeypatch.setattr(flow, "_field", lambda torus, space: np.full((2, 2), np.nan + 0j))
        out = tmp_path / "x"
        assert run_cli(["simulate", "--n", 2, "--out", out]) == 3
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PositivityLost" and err["time"] == 0.0
        assert "minimum step size, h = " in err["message"]
        assert "stage state is not finite" in err["message"]

    def test_step_underflow_exit_3_names_the_step(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(flow, "_MIN_STEP", 0.4)
        out = tmp_path / "x"
        tolerances = ["--rel-tol", 1e-14, "--abs-tol", 1e-16]
        argv = ["simulate", "--n", 2, "--t1", 1, "--stride", 1, *tolerances, "--out", out]
        assert run_cli(argv) == 3
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "StepUnderflow"
        assert 0 < err["step"] < 0.4
        assert f"h = {err['step']:.6e}" in err["message"]

    @pytest.mark.parametrize(
        "argv, artifact",
        [
            (["spectrum", "--n", 2, "--t1", 1e-13], "spectrum.json"),
            (["simulate", "--n", 2, "--t1", 1e-13, "--stride", 1e-13], "trajectory.json"),
        ],
        ids=["spectrum", "simulate"],
    )
    def test_window_below_min_step_exits_0(self, tmp_path, argv, artifact):
        out = tmp_path / "x"
        assert run_cli([*argv, "--out", out]) == 0
        assert json.loads((out / artifact).read_text())

    @pytest.mark.parametrize("command", ["simulate", "track"])
    def test_unallocatable_grid_exit_2(self, tmp_path, capsys, command):
        # 1e15 samples pass FlowConfig's intp guard, but their 7.1 PiB of
        # times fit no 64-bit address space: an invalid stride, before any file.
        out = tmp_path / "x"
        argv = [command, "--n", 2, "--t1", 1e12, "--stride", 1e-3, "--out", out]
        assert run_cli(argv) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidParams"
        assert err["message"].startswith("sample_stride 0.001 gives too many samples")


class TestSpectrum:
    def test_flat_spectrum(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            ["spectrum", "--n", 2, "--initial", "flat", "--out", out]
        )
        assert code == 0
        doc = json.loads((out / "spectrum.json").read_text())
        np.testing.assert_allclose(doc["eigenvalues"], [0, 1, 1, 2], atol=1e-12)
        assert len(doc["eigenvectors_Hc"]) == 4
        assert doc["kernel_index"] == 0
        assert doc["t"] == 0.0

    def test_spectrum_after_flow(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            ["spectrum", "--n", 2, "--seed", 5, "--t1", 50, "--out", out]
        )
        assert code == 0
        doc = json.loads((out / "spectrum.json").read_text())
        # By t=50 the flow has reached the flat fixed point.
        np.testing.assert_allclose(doc["eigenvalues"], [0, 1, 1, 2], atol=1e-5)

    @pytest.mark.parametrize("n", [20, 24])
    def test_large_n_kernel_by_construction(self, tmp_path, n):
        # At n = 20, 1e-8 ||M|| = 1.3 exceeds the least physical eigenvalues,
        # so a threshold search counted 4 zero modes and exited 2. The kernel
        # is deflated instead: lambda_0 is 0.0 and its vector I / sqrt(tr c) = I / sqrt(n).
        out = tmp_path / "run"
        assert run_cli(["spectrum", "--n", n, "--seed", 0, "--t1", 0, "--out", out]) == 0
        doc = json.loads((out / "spectrum.json").read_text())
        assert doc["kernel_index"] == 0 and doc["eigenvalues"][0] == 0.0
        assert min(doc["eigenvalues"][1:]) > 0.5
        kernel = linalg.matrix_from_json(doc["eigenvectors_Hc"][0])
        trace = np.trace(kernel)
        aligned = kernel * trace.conj() / abs(trace)
        assert linalg.hs_norm(aligned - np.eye(n) / np.sqrt(n)) <= 1e-8

    def test_bad_time_window_exit_2_and_no_files(self, tmp_path, capsys):
        # A window ending before it starts, or at NaN, is rejected exactly as
        # simulate rejects it, before the output directory is created.
        for name, t1 in (("backward", "0"), ("nan", "nan")):
            out = tmp_path / name
            code = run_cli(["spectrum", "--n", 2, "--t0", 1, "--t1", t1, "--out", out])
            assert code == 2
            assert not out.exists()
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "InvalidParams"

    def test_takes_no_cadence_or_format(self, tmp_path, capsys):
        # spectrum writes one file at one time: a cadence or a format would be
        # ignored, so neither is a flag, a config key or a config.json entry.
        for flag, value in (("--stride", 7), ("--format", "csv")):
            out = tmp_path / flag[2:]
            with pytest.raises(SystemExit) as exc:
                run_cli(["spectrum", "--n", 2, "--t1", 0.5, flag, value, "--out", out])
            assert exc.value.code == 2
            assert not out.exists()
        for doc in ({"format": "csv"}, {"stride": 7}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            out = tmp_path / "config"
            capsys.readouterr()
            assert run_cli(["spectrum", "--config", cfg, "--n", 2, "--out", out]) == 2
            assert not out.exists()
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "InvalidInput"
            assert "unknown config keys" in err["message"]
        out = tmp_path / "run"
        assert run_cli(["spectrum", "--n", 2, "--t1", 0.5, "--out", out]) == 0
        config = json.loads((out / "config.json").read_text())
        assert "format" not in config and "stride" not in config
        assert sorted(p.name for p in out.iterdir()) == ["config.json", "spectrum.json"]

    def test_wrong_size_initial_exit_2_and_no_files(self, tmp_path, capsys):
        from fuzzyricci.linalg import matrix_to_json

        path = tmp_path / "c0.json"
        path.write_text(json.dumps(matrix_to_json(np.diag([1.0, 2.0]))))
        out = tmp_path / "run"
        code = run_cli(["spectrum", "--n", 3, "--initial", path, "--out", out])
        assert code == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidInput"


class TestTrack:
    def test_passes_and_writes(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            ["track", "--n", 2, "--seed", 7, "--t1", 0.05, "--out", out]
        )
        assert code == 0
        assert (out / "curves.csv").exists()
        doc = json.loads((out / "variation.json").read_text())
        assert doc["passed"] is True
        assert doc["max_rel_residual"] <= 1e-4

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                ["track", "--n", 2, "--seed", 7, "--t1", 0.02, "--out", out]
            ) == 0
            outs.append(out)
        assert (outs[0] / "curves.csv").read_bytes() == (outs[1] / "curves.csv").read_bytes()
        assert (outs[0] / "variation.json").read_bytes() == (
            outs[1] / "variation.json"
        ).read_bytes()

    @pytest.mark.parametrize("n, seed, code", [(2, 7, 0), (4, 0, 4)])
    def test_json_verdict_is_the_exit_verdict(self, tmp_path, n, seed, code):
        out = tmp_path / "run"
        assert run_cli(["track", "--n", n, "--seed", seed, "--out", out]) == code
        doc = json.loads((out / "variation.json").read_text())
        assert doc["passed"] is (code == 0)

    def test_near_floor_metric_keeps_its_kernel_at_curve_0(self, tmp_path):
        # A metric near the positivity floor: its spectrum is ~0, 1.333, 5e10
        # and 1.5e11, so 1e-8 ||M|| would take 1.333 for a second zero mode.
        # The kernel is deflated, not searched for: the run reaches its verdict
        # with curve 0 the only kernel curve, at 0.0 in every sample.
        out = tmp_path / "run"
        code = run_cli(["track", "--n", 2, "--initial", "diag:1,1e-11", "--t1", 0.01, "--out", out])
        assert code == 4
        doc = json.loads((out / "variation.json").read_text())
        assert [curve["is_kernel"] for curve in doc["curves"]] == [True, False, False, False]
        with open(out / "curves.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        kernel = [float(row[2]) for row in rows if row[1] == "0"]
        assert len(kernel) == 11 and all(value == 0.0 for value in kernel)

    def test_non_hermitian_field_exit_3_and_no_files(self, tmp_path, monkeypatch, capsys):
        # A 1e-6 anti-Hermitian part in the third sample's field makes the law
        # non-real: a numerical failure, raised before any file is written.
        real, times = cli.run_flow, []

        def broken_flow(*args, **kwargs):
            result = real(*args, **kwargs)
            s = result.samples[2]
            result.samples[2] = dataclasses.replace(s, field=s.field + 1e-6j * np.eye(len(s.c)))
            times.append(s.t)
            return result

        monkeypatch.setattr(cli, "run_flow", broken_flow)
        out = tmp_path / "run"
        code = run_cli(["track", "--n", 3, "--seed", 0, "--t1", 0.05, "--out", out])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonRealVariation"
        assert err["time"] == times[0] > 0
        assert not out.exists()

    def test_n12_field_is_hermitian_and_the_verdict_decides(self, tmp_path):
        # Every field of the flow is exactly Hermitian, so the law runs at n = 12;
        # the finite-difference and forms budgets then fail it (exit 4).
        out = tmp_path / "run"
        code = run_cli(["track", "--n", 12, "--seed", 0, "--t1", 0.05, "--out", out])
        assert code == 4
        assert (out / "curves.csv").exists()
        assert json.loads((out / "variation.json").read_text())["passed"] is False

    def test_too_coarse_stride_exit_2(self, tmp_path):
        code = run_cli(
            ["track", "--n", 2, "--t1", 0.05, "--stride", 0.05,
             "--out", tmp_path / "x"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "grid, error",
        [
            (["--t1", 0.001], "InsufficientData"),  # 0, 1e-3
            # 1e10 + k * 1e-6 rounds to multiples of the 1.9e-6 ulp: half the spacings are 0.
            (["--t0", 1e10, "--t1", 10000000000.0001, "--stride", 1e-6], "InvalidInput"),
        ],
        ids=["two-samples", "zero-spacing"],
    )
    def test_unusable_grid_exit_2_before_the_flow(self, tmp_path, monkeypatch, capsys, grid, error):
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran on a grid the derivative oracle cannot use")

        monkeypatch.setattr(cli, "run_flow", no_flow)
        out = tmp_path / "run"
        assert run_cli(["track", "--n", 2, *grid, "--out", out]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == error

    @pytest.mark.parametrize(
        "grid, code",
        [
            (["--t1", 0.2, "--stride", 0.07], 4),  # 0, 0.07, 0.14, 0.2: too coarse for the budget
            (["--t1", 0.0015], 0),  # 0, 1e-3, 1.5e-3
            (["--t1", 2.9e-9, "--stride", 1e-9], 0),  # 0, 1e-9, 2e-9, 2.9e-9
            (["--t0", 1e4, "--t1", 10000.2], 0),  # spacings uneven by the rounding of the times
            (["--t0", 1e10, "--t1", 10000000000.2], 0),
            (["--t1", 0.200000000002], 0),  # the 2e-12 remainder moves the last sample onto t1
        ],
        ids=[
            "uneven-stride", "uneven-end", "uneven-end-at-1e-9", "t0-1e4", "t0-1e10", "sliver-end"
        ],
    )
    def test_uneven_grid_runs(self, tmp_path, grid, code):
        # The derivative oracle differentiates on the sample times, whatever their spacing.
        out = tmp_path / "run"
        assert run_cli(["track", "--n", 2, *grid, "--out", out]) == code
        doc = json.loads((out / "variation.json").read_text())
        assert doc["passed"] is (code == 0)


class TestVerify:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(["verify", "--n-max", 2, "--out", out])
        assert code == 0
        captured = capsys.readouterr().out
        assert "checks passed" in captured
        doc = json.loads((out / "verify.json").read_text())
        assert doc["failures"] == 0
        assert doc["passed"] is True

    def test_full_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["verify", "--n-max", 8, "--out", out]) == 0
        assert capsys.readouterr().out == "verify: 411/411 checks passed\n"
        doc = json.loads((out / "verify.json").read_text())
        assert (doc["total"], doc["failures"], doc["passed"]) == (411, 0, True)
        # 21 coprime pairs (n, m) with n <= 8; 5 seeds at n = 2, 3; 3 seeds at n = 2, 3, 4.
        geometry = [
            "exchange_relation", "unitarity_u", "unitarity_v", "exp_x_is_u", "exp_y_is_v",
            "q_primitive_root", "commutant_dimension", "laplacian_hermitian", "laplacian_psd",
            "laplacian_kernel_dim", "laplacian_spectral_gap", "laplacian_kernel_is_identity",
            "laplacian_kills_trace", "laplacian_respects_adjoint",
            "laplacian_commutes_with_reflection",
        ]
        curved = [
            "lb_hermitian", "lb_psd", "uc_preserves_inner", "lb_rayleigh_identity",
            "lb_state_vanishes",
        ]
        flows = ["flow_trace_drift", "flow_det_nondecreasing", "flow_positivity", "flow_flat_limit"]
        single = [
            "functional_calculus_identity", "hs_inner_positive",
            "rejected_operator_not_hermitian", "variation_residual_rel", "variation_forms_agree",
            "tracking_no_flags", "curve_normalization", "curve_state_vanishes",
            "kernel_curve_is_identity", "variation_phase_invariance",
        ]
        expected = {
            **dict.fromkeys(geometry, 21), **dict.fromkeys(curved, 10),
            **dict.fromkeys(flows, 9), **dict.fromkeys(single, 1),
        }
        assert Counter(c["check"] for c in doc["checks"]) == expected

    def test_failing_row_exit_4(self, tmp_path, monkeypatch, capsys):
        # A broken unitary onto the flat space must show up as failed rows.
        monkeypatch.setattr(WeightedSpace, "to_flat", lambda self, a: a @ self.c)
        out = tmp_path / "run"
        assert run_cli(["verify", "--n-max", 2, "--out", out]) == 4
        printed = capsys.readouterr().out
        assert printed.count("FAIL uc_preserves_inner [n=") == 5
        doc = json.loads((out / "verify.json").read_text())
        assert (doc["failures"], doc["passed"]) == (5, False)
        failed = {c["check"] for c in doc["checks"] if not c["passed"]}
        assert failed == {"uc_preserves_inner"}

    def test_geometry_file_clean(self, tmp_path):
        out = tmp_path / "geom"
        assert run_cli(["simulate", "--n", 3, "--t1", 0, "--out", out]) == 0
        code = run_cli(["verify", "--geometry", out / "geometry.json"])
        assert code == 0

    def test_geometry_file_tampered(self, tmp_path, capsys):
        out = tmp_path / "geom"
        assert run_cli(["simulate", "--n", 3, "--t1", 0, "--out", out]) == 0
        path = out / "geometry.json"
        doc = json.loads(path.read_text())
        doc["u"]["entries"][0] = [0.25, 0.125]
        path.write_text(json.dumps(doc))
        code = run_cli(["verify", "--geometry", path])
        assert code == 4
        assert "FAIL" in capsys.readouterr().out

    def test_geometry_file_malformed(self, tmp_path, capsys):
        path = tmp_path / "geom.json"
        path.write_text(json.dumps({"n": 2}))
        assert run_cli(["verify", "--geometry", path]) == 2

        # Sizes that are not integers, and booleans where numbers belong, are
        # malformed, not converted to a valid dump that then passes every check.
        assert run_cli(["simulate", "--n", 2, "--t1", 0, "--out", tmp_path / "sim"]) == 0
        clean = json.loads((tmp_path / "sim" / "geometry.json").read_text())
        bool_entry = [[True, False]] + clean["u"]["entries"][1:]
        # Matrices that are not n x n, or n < 1, are malformed too.
        assert run_cli(["simulate", "--n", 3, "--t1", 0, "--out", tmp_path / "sim3"]) == 0
        clean3 = json.loads((tmp_path / "sim3" / "geometry.json").read_text())
        for base, key, value in [
            (clean, "n", 2.9),
            (clean, "m", True),
            (clean, "u", {**clean["u"], "n": 2.5}),
            (clean, "q", [clean["q"][0], False]),
            (clean, "u", {**clean["u"], "entries": bool_entry}),
            (clean3, "u", clean["u"]),
            (clean3, "n", 2),
            (clean3, "n", 0),
        ]:
            path.write_text(json.dumps({**base, key: value}))
            out = tmp_path / "verify"
            capsys.readouterr()
            assert run_cli(["verify", "--geometry", path, "--out", out]) == 2, key
            assert not out.exists()
            assert json.loads(capsys.readouterr().err)["error"] == "InvalidInput"

    def test_geometry_file_short_entry_exit_2(self, tmp_path, capsys):
        out = tmp_path / "geom"
        assert run_cli(["simulate", "--n", 3, "--t1", 0, "--out", out]) == 0
        path = out / "geometry.json"
        doc = json.loads(path.read_text())
        doc["u"]["entries"][0] = [1.0]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["verify", "--geometry", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidInput"

    def test_missing_file_exit_2(self, tmp_path):
        assert run_cli(["verify", "--geometry", tmp_path / "nope.json"]) == 2

    @pytest.mark.parametrize("n_max", [8, 99])
    def test_geometry_file_refuses_n_max(self, tmp_path, monkeypatch, capsys, n_max):
        # Any explicit --n-max, the suite's own default included, is refused
        # before the file is read.
        out = tmp_path / "geom"
        assert run_cli(["simulate", "--n", 3, "--t1", 0, "--out", out]) == 0
        def no_work(*args, **kwargs):
            raise AssertionError("the file was checked despite --n-max")

        monkeypatch.setattr(cli, "geometry_file_report", no_work)
        capsys.readouterr()
        argv = ["verify", "--geometry", out / "geometry.json", "--n-max", n_max]
        assert run_cli(argv + ["--out", tmp_path / "verify"]) == 2
        assert not (tmp_path / "verify").exists()
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidParams"


def _stdlib_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", 3],
        ["spectrum", "--n", 3],
        ["track", "--n", 2],
        ["verify", "--n-max", 2],
    ],
    ids=lambda argv: argv[0],
)
def test_every_json_artifact_is_in_the_stdlib_format(tmp_path, argv):
    # float.__repr__ round-trips, so re-encoding a parsed file reproduces it
    # exactly when it was written in json.dumps(sort_keys=True, indent=2) form.
    out = tmp_path / "run"
    assert run_cli([*argv, "--out", out]) == 0
    paths = sorted(out.glob("*.json"))
    assert paths
    for path in paths:
        text = path.read_text()
        assert text == _stdlib_text(json.loads(text)), path.name


def test_spectrum_is_streamed_one_matrix_at_a_time(tmp_path):
    # Writing spectrum.json at n=8 (345 kB) peaks at 47 kB of traced memory,
    # 0.14 of the file's size. Building every matrix's lists and the whole
    # text before writing peaked at 1.22 MB, 3.5 times the file's size.
    data = lb_spectrum(FuzzyTorus(8, 1), random_metric(8, 0))
    cli._write_json(tmp_path / "warm.json", spectrum_to_json(data, t=0.0))
    path = tmp_path / "spectrum.json"
    tracemalloc.start()
    try:
        cli._write_json(path, spectrum_to_json(data, t=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == (tmp_path / "warm.json").read_bytes()
    assert peak < path.stat().st_size / 4


def test_trajectory_is_streamed_one_sample_at_a_time(tmp_path):
    # Writing trajectory.json for 1001 samples at n=8 (6.0 MB) peaks at 50 kB
    # of traced memory, 0.008 of the file's size. Building every sample's
    # lists before writing peaked at 8.8 MB, 1.46 times the file's size.
    result = flow.run_flow(
        FuzzyTorus(8, 1), random_metric(8, 0), flow.FlowConfig(t1=1.0, sample_stride=1e-3)
    )
    assert len(result.samples) == 1001
    cli._write_json(tmp_path / "warm.json", flow.trajectory_to_json(result))
    path = tmp_path / "trajectory.json"
    tracemalloc.start()
    try:
        cli._write_json(path, flow.trajectory_to_json(result))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == (tmp_path / "warm.json").read_bytes()
    assert peak < path.stat().st_size / 20


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over_an_earlier_run"])
def test_failed_write_leaves_no_partial_artifact(tmp_path, monkeypatch, earlier):
    # The document's pieces stop after the first; the artifact is either
    # absent or the earlier run's, and its sibling temporary file is gone.
    out = tmp_path / "run"
    if earlier:
        assert run_cli(["spectrum", "--n", 2, "--out", out]) == 0
        earlier_bytes = (out / "spectrum.json").read_bytes()
    real = cli._json_document

    def failing(doc):
        pieces = real(doc)
        yield next(pieces)
        if "eigenvectors_Hc" in doc:
            raise RuntimeError("write failed")
        yield from pieces

    monkeypatch.setattr(cli, "_json_document", failing)
    with pytest.raises(RuntimeError, match="write failed"):
        run_cli(["spectrum", "--n", 2, "--t1", 0.1, "--out", out])
    names = sorted(path.name for path in out.iterdir())
    if earlier:
        assert names == ["config.json", "spectrum.json"]
        assert (out / "spectrum.json").read_bytes() == earlier_bytes
    else:
        assert names == ["config.json"]


def test_error_document_is_in_the_stdlib_format(tmp_path, capsys):
    assert run_cli(["simulate", "--n", 4, "--m", 2, "--out", tmp_path / "run"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "InvalidParams"
    assert err == _stdlib_text(json.loads(err))


_SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e22, 1e-5]
_FLOATS = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | _FLOATS
    | _FLOATS.map(np.float64)
    | st.text(max_size=6)
)


def _float_rows(equal: bool):
    if not equal:
        return st.lists(st.lists(_FLOATS, max_size=4), min_size=1, max_size=4)
    return st.integers(1, 3).flatmap(
        lambda k: st.lists(st.lists(_FLOATS, min_size=k, max_size=k), min_size=1, max_size=4)
    )


@st.composite
def _rows_with_one_other_entry(draw):
    rows = draw(_float_rows(equal=True))
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    rows[i][j] = draw(_LEAVES)
    return rows


_DOCS = st.recursive(
    _LEAVES
    | st.lists(_FLOATS, max_size=6)
    | _float_rows(equal=True)
    | _float_rows(equal=False)
    | _float_rows(equal=True).map(lambda rows: [tuple(r) for r in rows])
    | _rows_with_one_other_entry(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=8,
)


@settings(max_examples=2000, deadline=None)
@given(_DOCS)
def test_encoder_equals_stdlib_indent_encoder(doc):
    assert "".join(cli._json_document(doc)) == _stdlib_text(doc)


def test_a_list_of_scalars_is_one_piece():
    doc = [0, None, True, "a", 1.5, float("nan")]
    assert list(cli._json_pieces(doc, "\n")) == [json.dumps(doc, indent=2)]
    pieces = ["[\n  ", "[\n    0\n  ]", ",\n  ", "[\n    1,\n    2\n  ]", "\n]"]
    assert list(cli._json_pieces([[0], [1, 2]], "\n")) == pieces


@pytest.mark.parametrize("value", [np.int64(1), 1j, {1.0}], ids=["int64", "complex", "set"])
def test_encoder_refuses_what_stdlib_refuses(value):
    for doc in (value, [1.0, value], {"a": [[1.0, 2.0], [value, 3.0]]}):
        with pytest.raises(TypeError):
            _stdlib_text(doc)
        with pytest.raises(TypeError):
            "".join(cli._json_document(doc))


@pytest.mark.parametrize(
    "doc", [{1: 2.0}, {"a": 1, 2: 3}, {None: 1}, {(1, 2): 3}], ids=["int", "mixed", "none", "tuple"]
)
def test_encoder_refuses_a_key_that_is_not_a_string(doc):
    with pytest.raises(TypeError):
        "".join(cli._json_document(doc))

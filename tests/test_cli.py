import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuzzyricci
from fuzzyricci import PositivityLost, cli, linalg


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_import_leaves_scipy_optimize_unloaded():
    # Only eigencurve matching needs scipy.optimize, which dominates import time.
    src = str(Path(fuzzyricci.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, fuzzyricci.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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


def test_no_command_probes_an_operator(tmp_path, monkeypatch):
    # Every operator is built in closed form; superop_from_map is only the
    # tests' reference. Every module binding it is patched, so no route can
    # hide a call.
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


class TestSimulate:
    def test_writes_artifacts(self, tmp_path):
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

    def test_config_round_trip(self, tmp_path):
        first = tmp_path / "a"
        run_cli(["simulate", "--n", 3, "--seed", 5, "--t1", 1, "--out", first])
        second = tmp_path / "b"
        # Feed the emitted config back; only the output directory differs.
        code = run_cli(
            ["simulate", "--config", first / "config.json", "--out", second]
        )
        assert code == 0
        a = json.loads((first / "config.json").read_text())
        b = json.loads((second / "config.json").read_text())
        a.pop("out"), b.pop("out")
        assert a == b
        assert (first / "trajectory.csv").read_bytes() == (
            second / "trajectory.csv"
        ).read_bytes()

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

    @pytest.mark.parametrize(
        "text",
        [
            "{bad",
            "[1,2]",
            json.dumps({"n": 2, "entries": [[1, 0], [0, 0], [0, 0], [1]]}),
            json.dumps({"n": 2, "entries": [["x", 0], [0, 0], [0, 0], [1, 0]]}),
        ],
        ids=["not-json", "not-a-document", "short-entry", "non-numeric-entry"],
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

    def test_too_coarse_stride_exit_2(self, tmp_path):
        code = run_cli(
            ["track", "--n", 2, "--t1", 0.05, "--stride", 0.05,
             "--out", tmp_path / "x"]
        )
        assert code == 2


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

        # Sizes that are not integers are malformed, not truncated to a valid
        # dump that then passes every check.
        assert run_cli(["simulate", "--n", 2, "--t1", 0, "--out", tmp_path / "sim"]) == 0
        clean = json.loads((tmp_path / "sim" / "geometry.json").read_text())
        for key, value in [("n", 2.9), ("m", True), ("u", {**clean["u"], "n": 2.5})]:
            path.write_text(json.dumps({**clean, key: value}))
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

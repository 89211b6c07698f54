import importlib
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fuzzyricci
from fuzzyricci import FuzzyRicciError, PositivityLost, cli, linalg
from fuzzyricci.laplace_beltrami import WeightedSpace


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
        # to the integrating factor.
        assert summary["rejected_error"] + summary["rejected_cone"] == summary["rejected_steps"]
        assert 0 < summary["switch_time"] < 5
        trajectory = json.loads((out / "trajectory.json").read_text())
        for key in ("accepted_steps", "rejected_steps", "rejected_error", "rejected_cone",
                    "switch_time"):
            assert trajectory[key] == summary[key], key
        assert f"integrating factor at t={summary['switch_time']:.6g}" in capsys.readouterr().out

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

    def test_full_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["verify", "--n-max", 8, "--out", out]) == 0
        assert capsys.readouterr().out == "verify: 391/391 checks passed\n"
        doc = json.loads((out / "verify.json").read_text())
        assert (doc["total"], doc["failures"], doc["passed"]) == (391, 0, True)
        # 21 coprime pairs (n, m) with n <= 8; 5 seeds at n = 2, 3; 3 seeds at n = 2, 3, 4.
        geometry = [
            "exchange_relation", "unitarity_u", "unitarity_v", "exp_x_is_u", "exp_y_is_v",
            "q_primitive_root", "commutant_dimension", "laplacian_hermitian", "laplacian_psd",
            "laplacian_kernel_dim", "laplacian_spectral_gap", "laplacian_kernel_is_identity",
            "laplacian_kills_trace", "laplacian_respects_adjoint",
        ]
        curved = [
            "lb_hermitian", "lb_psd", "uc_preserves_inner", "lb_rayleigh_identity",
            "lb_state_vanishes",
        ]
        flows = ["flow_trace_drift", "flow_det_nondecreasing", "flow_positivity", "flow_flat_limit"]
        single = [
            "functional_calculus_identity", "superop_matches_map", "hs_inner_positive",
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
        for key, value in [
            ("n", 2.9),
            ("m", True),
            ("u", {**clean["u"], "n": 2.5}),
            ("q", [clean["q"][0], False]),
            ("u", {**clean["u"], "entries": bool_entry}),
        ]:
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

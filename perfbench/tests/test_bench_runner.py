"""The runner's contract: a JSON result as the last line, and no result without the program."""

import json
import shutil
import subprocess
import sys

import pytest

from workloads import BENCH_DIR, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_is_the_result(trace, key):
    proc = run(ROOT, "--workload", "track_n4", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + int(trace)  # a traced run makes a pair at least
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "track_n4", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

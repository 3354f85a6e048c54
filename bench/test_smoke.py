"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_smoke.py

Runs every workload with `--tiny`, traced and untraced, and checks the
result line against BENCHMARK.json.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


def run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line(workload, trace):
    out = run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert f"failed_ratio = 0/{result['attempted']} = 0" in out.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        assert got["value"] >= 0
        if not trace:
            assert got["value"] > 0, m["name"]


def test_names_and_units():
    groups = [SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"]]
    names = [m["name"] for group in groups for m in group]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.per_layer_names()


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

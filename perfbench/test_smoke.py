"""Smoke tests of the benchmark itself: python3 -m pytest perfbench

Each test runs `run.py --smoke` (small inputs, one batch) as a child
process, the way the benchmark is run for real.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().with_name("run.py")
ROOT = RUN.parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
COUNT_UNITS = ("count", "bits")


def smoke(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest(lines):
    return next(line for line in lines if line.startswith("digest "))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    lines, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    for extra in ("error_rate", "wrong_outputs"):
        assert any(line.startswith(f"metric {extra} ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_identical_counts_and_digest(workload):
    (lines_a, a), (lines_b, b) = smoke(workload, 1), smoke(workload, 1)
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    for m in DECLARED["per_layer"]:
        if m["unit"] in COUNT_UNITS:
            assert a["metrics"][m["name"]]["value"] == b["metrics"][m["name"]]["value"], m["name"]
    assert digest(lines_a) == digest(lines_b)


def test_traced_and_untraced_runs_compute_the_same_outputs():
    lines_untraced, _ = smoke("ealg-orders", 0)
    lines_traced, _ = smoke("ealg-orders", 1)
    assert digest(lines_untraced) == digest(lines_traced)


def test_the_seed_changes_the_inputs():
    assert digest(smoke("cli-readme", 0, seed=3)[0]) != digest(smoke("cli-readme", 0, seed=4)[0])


def test_refuses_to_run_without_the_package():
    """With only BENCHMARK.json and perfbench/ present it fails and prints no result."""
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(RUN.parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

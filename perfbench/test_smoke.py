"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "7", "--seconds", "1", "--tiny"]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, float) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    elif workload == "ensemble-annulus":  # roots is the largest share
        assert result["metrics"]["zerocount.roots.busy_share"]["value"] > 0.5
    elif workload == "formulas-grid":
        assert result["metrics"]["zerocount.roots.calls"]["value"] == 0
        assert result["metrics"]["opuc.values_at.calls"]["value"] > 0


def test_wrong_expected_value_is_a_failed_check(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads

    for var in ("PYTHONPATH", "OPUCZ_THREADS", *run.BLAS_THREAD_VARS):
        monkeypatch.setenv(var, "1")  # main() rewrites them; restored after

    monkeypatch.setattr(workloads, "expected_variance", lambda: 10.0)
    code = run.main(["--workload", "ensemble-annulus", "--trace", "0", *TINY])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"] == {}
    assert any(line.startswith("CHECK FAILED: variance") for line in lines)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench")
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--trace", "0",
                  *TINY)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["ensemble-annulus", "convergence-sector"])
def test_no_process_outlives_a_run(workload):
    """The workloads with spawn pools leave nothing running: a wrapper that
    adopts orphans finds no child of its own once the benchmark has ended."""
    wrapper = (
        "import os, subprocess, sys\n"
        "from procs import become_subreaper, processes\n"
        "assert become_subreaper()\n"
        "subprocess.run(sys.argv[1:], check=True, capture_output=True)\n"
        "me = os.getpid()\n"
        "print([p for p, v in processes().items() if v[0] == me])\n")
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, sys.executable, "perfbench/run.py",
         "--workload", workload, "--trace", "0", *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONPATH": str(HERE)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

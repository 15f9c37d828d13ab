"""Smoke test of the perf ledger (tiny sizes; not collected by tier-1).

    pytest benchmarks/ledger/test_ledger_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_ledger(*args: str) -> list[dict]:
    """Run ``run.py --smoke`` and return each workload's result object."""
    out = HERE / "output" / "smoke.json"
    out.parent.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json", str(out),
         *args], cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    (results,) = json.loads(out.read_text())["sets"]
    out.unlink()
    return list(results.values())


def check(results: list[dict], wanted: list[dict]) -> None:
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for m in wanted:
            assert NAME.match(m["name"])
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)), m["name"]


def test_every_end_to_end_metric_from_every_workload():
    results = run_ledger()
    assert len(results) == len(SPEC["workloads"])
    check(results, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert all(r["metrics"][m["name"]]["value"] > 0 for r in results)


def test_every_per_layer_metric_from_a_traced_run():
    check(run_ledger("--traced", "--workload", "wave_adaptive"),
          SPEC["per_layer"])
    assert (HERE / "output" / "trace-wave_adaptive.json").exists()

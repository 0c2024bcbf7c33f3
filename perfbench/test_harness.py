"""Smoke test of the benchmark harness at tiny radii.

Run from the repository root: ``python3 -m pytest perfbench/test_harness.py``.
Every workload runs once untraced and once traced; each run must check its
outputs, fail nothing, and print every metric BENCHMARK.json names with its
unit, in the human-readable lines and in the closing JSON object.  The
untraced run also prints ``wall_s`` and ``fail_frac``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_names_the_harness_workloads():
    assert sorted(WORKLOAD_NAMES) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    result = run.benchmark(name, seed=3, seconds=0.1, trace=bool(trace), scale="smoke")
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_frac 0.0 ") for line in lines)

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    printed_only = [] if trace else [{"name": "wall_s", "unit": "s"}]
    for metric in wanted + printed_only:
        assert any(line.startswith(f"{metric['name']} ") and f" {metric['unit']} (n=" in line
                   for line in lines), metric["name"]


def test_a_wrong_output_counts_as_a_failed_operation(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "bicombing.csv").write_text("# seed: 1\nkind,M_emp,scan\nshortlex,7,exhaustive\n")
    problems = run.check_outputs("surface-area", "full", out, [0])
    assert any("digest" in p for p in problems)
    assert any("M_emp" in p for p in problems)
    assert run.check_outputs("surface-area", "full", out, [1]) == [
        "exit codes [1] for ['bicombing-stats']"]

"""Committed benchmark records: every run is correct and reports the declared metrics."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_record_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_every_run_is_correct_with_the_declared_metrics(path):
    record = json.loads(path.read_text())
    assert record["runs"]
    for run in record["runs"] + record.get("superseded", {}).get("runs", []):
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0, run
        assert set(result["metrics"]) == END_TO_END, run

"""Every benchmark record at the repository root keeps the shared layout.

A ``BENCH_*.json`` file quotes parent and change runs of the bench
harness side by side; these checks keep new records comparable with the
old ones.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {
    "change", "claim", "command", "env", "machine", "method", "name", "parent_commit", "workloads",
}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_layout(path):
    record = json.loads(path.read_text())
    assert KEYS <= record.keys()
    claim = record["claim"]
    assert claim is None or {"metric", "workload", "met"} <= claim.keys()
    assert record["workloads"]
    for workload, result in record["workloads"].items():
        for metric, sides in result["metrics"].items():
            parent, change = sides["parent"]["runs"], sides["change"]["runs"]
            assert parent and len(parent) == len(change), f"{workload} {metric}"

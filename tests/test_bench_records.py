"""Every measurement record at the repository root (``BENCH_*.json``)
parses and says what changed, how it was measured, on what, and the sets
of runs it holds."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_carries_its_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert {"change", "command", "environment", "sets"} <= set(record)
    assert isinstance(record["sets"], list) and record["sets"]

"""Every ``BENCH_*.json`` record at the repository root parses and names
what it measured: the change, its parent commit, the machine, and the
end-to-end figures that back the change's speed claim."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("change", "parent", "machine", "end_to_end")


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_what_it_measured(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict), path.name
    missing = [key for key in REQUIRED if not record.get(key)]
    assert not missing, f"{path.name} lacks {missing}"

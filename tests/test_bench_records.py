"""Every benchmark record at the repository root says where and against what
it was measured: it parses as JSON and has a `machine`, a `parent` and a
`perfbench` key."""

import glob
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_names_its_machine_parent_and_perfbench_runs(path):
    with open(path) as f:
        record = json.load(f)
    assert isinstance(record, dict)
    assert [k for k in ("machine", "parent", "perfbench") if k not in record] == []

"""The committed benchmark records, ``BENCH_*.json`` at the repository
root, each hold ``perfbench/run.py``'s result and detail lines for the runs of
a parent tree and a changed tree, in alternating pairs.  A record is only
evidence when every run in it was correct, timed the tree it names, and
belongs to a complete pair."""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.fixture(params=RECORDS, ids=[path.name for path in RECORDS])
def record(request):
    return json.loads(request.param.read_text())


def test_every_run_is_correct(record):
    for run in record["runs"]:
        assert run["result"]["correct"] is True, (run["workload"], run["pair"], run["side"])
        assert run["result"]["failed"] == 0, (run["workload"], run["pair"], run["side"])


def test_every_run_timed_the_tree_of_its_side(record):
    for run in record["runs"]:
        tree, detail = record["trees"][run["side"]], run["detail"]["detail"]
        assert detail["src_sha256"] == tree["src_sha256"], (run["workload"], run["pair"])
        if detail["git_sha"] is not None:
            assert detail["git_sha"] == tree["commit"], (run["workload"], run["pair"])


def test_each_workload_has_complete_pairs(record):
    sides = {}
    for run in record["runs"]:
        sides.setdefault(run["workload"], Counter())[run["pair"], run["side"]] += 1
    assert sides
    for workload, count in sides.items():
        pairs = len(count) // 2
        expected = {(k, side): 1 for k in range(pairs) for side in ("parent", "change")}
        assert count == expected, workload

"""Seeded outputs pinned across versions of the library.

``test_verify`` replays each suite twice in one process, which cannot see
a change in the kernel that alters what a seed samples.  These tests
compare against ``golden_reports.json``, written by running this file as
a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from glnz.exactmat import random_unimodular
from glnz.verify import run_suite

from test_verify import SMOKE, report_key

GOLDEN = Path(__file__).with_name("golden_reports.json")
SUITE_SEED = 2024
UNIMODULAR_GRID = [
    (n, word_length, entry_bound, seed)
    for n in (1, 2, 3, 6)
    for word_length in (0, 1, 5, 12)
    for entry_bound in (1, 4)
    for seed in (0, 7)
]


def _key(args) -> str:
    return ",".join(str(a) for a in args)


def _suite_reports() -> dict:
    return {
        _key(config): json.loads(report_key(run_suite(*config, seed=SUITE_SEED)))
        for config in SMOKE
    }


def _unimodular_rows(args) -> list:
    return [list(r) for r in random_unimodular(*args).rows]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("suite,n,trials", SMOKE)
def test_suite_report_matches_golden(golden, suite, n, trials):
    assert golden["suite_seed"] == SUITE_SEED
    report = run_suite(suite, n, trials, seed=SUITE_SEED)
    assert json.loads(report_key(report)) == golden["suites"][_key((suite, n, trials))]


def test_random_unimodular_matches_golden(golden):
    expected = golden["random_unimodular"]
    assert sorted(expected) == sorted(_key(args) for args in UNIMODULAR_GRID)
    for args in UNIMODULAR_GRID:
        assert _unimodular_rows(args) == expected[_key(args)], args


if __name__ == "__main__":
    doc = {
        "suite_seed": SUITE_SEED,
        "suites": _suite_reports(),
        "random_unimodular": {_key(a): _unimodular_rows(a) for a in UNIMODULAR_GRID},
    }
    # one line per pinned value, so a changed value shows as one changed line
    sections = []
    for name, value in sorted(doc.items()):
        if isinstance(value, dict):
            entries = ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(value.items())
            )
            value_text = "{\n" + entries + "\n }"
        else:
            value_text = json.dumps(value)
        sections.append(f" {json.dumps(name)}: {value_text}")
    GOLDEN.write_text("{\n" + ",\n".join(sections) + "\n}\n")

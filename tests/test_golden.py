"""Seeded outputs pinned across versions of the library.

``test_verify`` replays each suite twice in one process, which cannot see
a change in the kernel that alters what a seed samples.  These tests
compare against ``golden_reports.json``: the seeded suite reports, the
``random_unimodular`` words, the shear triples of
``elementary_factorization``, the ``U`` of ``canonical_form`` on seeded
conjugates, a hash of each suite rng's final state and a hash of every
value each suite samples.  A passing report shows neither: the state
changes whenever a seed draws anything else, the sample hash whenever the
same draws build other values.
The file is written by running this file as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from glnz.congruence import elementary_factorization
from glnz.exactmat import random_elementary_word, random_unimodular
from glnz.involution import canonical_block, canonical_form
from glnz.verify import _SUITES, _jsonable, run_suite

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
# L1_7 and P1_8 build their samples from n: n = 3 leaves L1_7 two
# coefficients and P1_8's base-1 pair its first one; SMOKE pins only n = 4
SAMPLE_CONFIGS = SMOKE + [
    (suite, n, trials) for suite, trials in (("L1_7", 20), ("P1_8", 5)) for n in (3, 5, 7)
]
# (n, word_length, entry_bound, seed) of determinant-1 shear words
FACTOR_GRID = [(2 + k % 5, 3 + k % 7, 1 + k % 4, 100 + k) for k in range(40)]
# (a, b, p, seed): every involution shape with n <= 6, conjugated twice
CANON_GRID = [
    (a, n - a - 2 * p, p, seed)
    for n in range(1, 7)
    for p in range(n // 2 + 1)
    for a in range(n - 2 * p + 1)
    for seed in (3, 41)
]


def _key(args) -> str:
    return ",".join(str(a) for a in args)


def _suite_reports() -> dict:
    return {
        _key(config): json.loads(report_key(run_suite(*config, seed=SUITE_SEED)))
        for config in SMOKE
    }


def _suite_rng_state(config) -> str:
    """sha256 of the suite rng's getstate() after run_suite(*config): every
    random.Random made during the run is recorded, and the suite's own is
    the first."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    with mock.patch.object(random, "Random", Recorded):
        run_suite(*config, seed=SUITE_SEED)
    return hashlib.sha256(repr(made[0].getstate()).encode()).hexdigest()


def _suite_samples(config) -> str:
    """sha256 of every sample drawn by run_suite(*config), written as a
    failure record writes it; checkers draw nothing, so sampling alone
    makes the same draws."""
    suite, n, trials = config
    build, indices = _SUITES[suite][:2]
    sample, _ = build(n, random.Random(SUITE_SEED))
    drawn = [{k: _jsonable(v) for k, v in sample(t).items()} for t in indices(trials)]
    return hashlib.sha256(json.dumps(drawn, sort_keys=True).encode()).hexdigest()


def _unimodular_rows(args) -> list:
    return [list(r) for r in random_unimodular(*args).rows]


def _factor_triples(args) -> list:
    factors = elementary_factorization(random_elementary_word(*args)).factors
    return [[f.i, f.j, f.c] for f in factors]


def _canonical_U_rows(args) -> list:
    a, b, p, seed = args
    U = random_unimodular(a + b + 2 * p, 8, 3, seed)
    P = U * canonical_block(a, b, p) * U.inverse()
    return [list(r) for r in canonical_form(P).U.rows]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("suite,n,trials", SMOKE)
def test_suite_report_matches_golden(golden, suite, n, trials):
    assert golden["suite_seed"] == SUITE_SEED
    report = run_suite(suite, n, trials, seed=SUITE_SEED)
    assert json.loads(report_key(report)) == golden["suites"][_key((suite, n, trials))]


@pytest.mark.parametrize("suite,n,trials", SMOKE)
def test_suite_rng_state_matches_golden(golden, suite, n, trials):
    # a passing report holds no sampled value; the final rng state pins
    # every draw the suite made
    config = (suite, n, trials)
    assert _suite_rng_state(config) == golden["suite_rng_state"][_key(config)]


@pytest.mark.parametrize("suite,n,trials", SAMPLE_CONFIGS)
def test_suite_samples_match_golden(golden, suite, n, trials):
    # the rng state pins the draws; this pins the values built from them
    config = (suite, n, trials)
    assert _suite_samples(config) == golden["suite_samples"][_key(config)]


def test_random_unimodular_matches_golden(golden):
    expected = golden["random_unimodular"]
    assert sorted(expected) == sorted(_key(args) for args in UNIMODULAR_GRID)
    for args in UNIMODULAR_GRID:
        assert _unimodular_rows(args) == expected[_key(args)], args


def test_elementary_factorization_matches_golden(golden):
    expected = golden["elementary_factorization"]
    assert sorted(expected) == sorted(_key(args) for args in FACTOR_GRID)
    for args in FACTOR_GRID:
        assert _factor_triples(args) == expected[_key(args)], args


def test_canonical_form_matches_golden(golden):
    expected = golden["canonical_form_U"]
    assert sorted(expected) == sorted(_key(args) for args in CANON_GRID)
    for args in CANON_GRID:
        assert _canonical_U_rows(args) == expected[_key(args)], args


if __name__ == "__main__":
    doc = {
        "suite_seed": SUITE_SEED,
        "suites": _suite_reports(),
        "suite_rng_state": {_key(c): _suite_rng_state(c) for c in SMOKE},
        "suite_samples": {_key(c): _suite_samples(c) for c in SAMPLE_CONFIGS},
        "random_unimodular": {_key(a): _unimodular_rows(a) for a in UNIMODULAR_GRID},
        "elementary_factorization": {_key(a): _factor_triples(a) for a in FACTOR_GRID},
        "canonical_form_U": {_key(a): _canonical_U_rows(a) for a in CANON_GRID},
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

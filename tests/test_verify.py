import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glnz.verify import SUITE_IDS, _random_gamma2, run_suite


def report_key(report):
    d = report.to_jsonable()
    d.pop("elapsed_ms")
    return json.dumps(d, sort_keys=True)


SMOKE = [
    ("L1_3", 4, 10),
    ("L1_4_partial", 5, 10),
    ("L1_5", 9, 5),
    ("L1_6", 5, 20),
    ("L1_7", 4, 20),
    ("P1_8", 4, 5),
    ("P1_9", 5, 10),
    ("C2_1_claim1", 3, 1),
    ("C2_1_claim3", 3, 5),
    ("MU_SURJ", 4, 20),
]


@pytest.mark.parametrize("suite,n,trials", SMOKE)
def test_suite_passes(suite, n, trials):
    report = run_suite(suite, n, trials, seed=1234)
    assert report.passed, report.failures[:2]
    assert report.suite == suite and report.n == n and report.trials == trials


@pytest.mark.parametrize("suite,n,trials", SMOKE)
def test_replay_determinism(suite, n, trials):
    first = run_suite(suite, n, trials, seed=77)
    second = run_suite(suite, n, trials, seed=77)
    assert report_key(first) == report_key(second)


def test_all_suite_ids_registered():
    assert set(SUITE_IDS) == {
        "L1_3",
        "L1_4_partial",
        "L1_5",
        "L1_6",
        "L1_7",
        "P1_8",
        "P1_9",
        "C2_1_claim1",
        "C2_1_claim3",
        "MU_SURJ",
    }


def test_shared_summand_suite_at_documented_seed():
    assert run_suite("L1_7", 4, 1000, 42).passed


def test_summand_predicate_agreement_on_five_hundred_pair_pairs():
    # every P1_8 trial compares at least three pair-pairs semantically and
    # syntactically, so 170 trials cover more than 500 comparisons
    assert run_suite("P1_8", 4, 170, seed=3).passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("NOT_A_SUITE", 3, 1, 0)


def test_out_of_range_rank_rejected():
    with pytest.raises(ValueError, match="out of range"):
        run_suite("L1_5", 5, 10, 1)
    with pytest.raises(ValueError, match="out of range"):
        run_suite("L1_6", 4, 10, 1)
    with pytest.raises(ValueError, match="out of range"):
        run_suite("P1_9", 30, 1, 1)


def test_report_schema_fields():
    report = run_suite("MU_SURJ", 3, 5, 9)
    doc = report.to_jsonable()
    assert list(doc) == [
        "suite",
        "n",
        "trials",
        "seed",
        "window",
        "passed",
        "failures",
        "elapsed_ms",
    ]
    assert doc["passed"] is True and doc["failures"] == []
    assert isinstance(doc["elapsed_ms"], int)
    json.dumps(doc)  # serializable


def test_window_documented_per_suite():
    for suite in SUITE_IDS:
        n = {"L1_4_partial": 5, "L1_5": 9, "L1_6": 5}.get(suite, 3)
        report = run_suite(suite, n, 1, 0)
        assert report.window


def test_failures_carry_inputs(monkeypatch):
    # force a failure by breaking an internal check through a tiny trials
    # run against a suite body wrapped to always fail
    import glnz.verify as verify_module

    def broken(n, trials, rng):
        from glnz.exactmat import IntMatrix

        return [
            verify_module._failure(
                t, "synthetic failure", {"M": IntMatrix.identity(n)}
            )
            for t in range(trials)
        ]

    monkeypatch.setitem(
        verify_module._SUITES, "L1_3", (broken, 2, None, "test window")
    )
    report = run_suite("L1_3", 3, 2, 0)
    assert not report.passed
    assert report.failures[0]["inputs"]["M"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert report.failures[0]["trial"] == 0


@given(st.integers(2, 8), st.integers(0, 2**32), st.integers(0, 20))
@settings(max_examples=100, deadline=None)
def test_random_gamma2_carries_its_inverse(n, seed, length):
    sigma, sigma_inv = _random_gamma2(random.Random(seed), n, length)
    assert sigma_inv == sigma.inverse()

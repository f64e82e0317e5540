import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glnz.congruence import lift_row_to_sl3
from glnz.exactmat import IntMatrix, basis_completion, content_and_primitive
from glnz.verify import SUITE_IDS, _SUITES, _embed2, _line_mover, _random_gamma2, run_suite


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


def test_shared_summand_suite_squares_each_sample_once(monkeypatch):
    # mutual_subgroup's own involution check is the only square of P and Q
    from collections import Counter

    from glnz.exactmat import IntMatrix

    squares = Counter()
    original = IntMatrix.__mul__

    def mul(self, other):
        if isinstance(other, IntMatrix) and other == self:
            squares[self.rows] += 1
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "__mul__", mul)
    assert run_suite("L1_7", 4, 30, 42).passed
    assert len(squares) == 60  # P and Q of every trial
    assert set(squares.values()) == {1}


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_shared_summand_U_conjugates_the_sampled_involutions(n):
    # the checker reads the expected summands off the columns of U, so U
    # must be the matrix that conjugated diag(-1, 1, ..., 1) into P
    base = IntMatrix.diagonal([-1] + [1] * (n - 1))
    for seed in range(4):
        sample, _ = _SUITES["L1_7"][0](n, random.Random(seed))
        for t in range(6):
            drawn = sample(t)
            assert drawn["P"] * drawn["U"] == drawn["U"] * base, (seed, t)


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


def test_rank_trials_and_seed_must_be_integers():
    # a float n used to pass the range check and crash every trial
    for args in (("MU_SURJ", 2.0, 3, 0), ("MU_SURJ", 2, 2.0, 0), ("MU_SURJ", 2, 3, 0.5),
                 ("MU_SURJ", 2, 3, None), ("MU_SURJ", "2", 3, 0)):
        with pytest.raises(TypeError):
            run_suite(*args)
    report = run_suite("MU_SURJ", True, True, False)
    assert (report.n, report.trials, report.seed) == (1, 1, 0)
    assert type(report.n) is int and report.passed


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
    # force a failure with a suite whose checker always fails: the record
    # holds every sampled value, a matrix as its rows and a sequence element
    # by element
    import glnz.verify as verify_module
    from glnz.exactmat import IntMatrix

    def broken(n, rng):
        def sample(t):
            return {"M": IntMatrix.identity(n), "pair": (IntMatrix.identity(1), [t, -t])}

        def check(t, M, pair):
            raise verify_module._TrialFailure("synthetic failure")

        return sample, check

    monkeypatch.setitem(
        verify_module._SUITES, "L1_3", (broken, range, 2, None, "test window")
    )
    report = run_suite("L1_3", 3, 2, 0)
    assert not report.passed
    assert report.failures[0]["inputs"]["M"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert report.failures[1]["inputs"]["pair"] == [[[1]], [1, -1]]
    assert report.failures[0]["trial"] == 0


def test_failures_are_typed_and_trials_continue(monkeypatch):
    import glnz.verify as verify_module
    from glnz.exactmat import IntMatrix

    raised = [
        verify_module._TrialFailure("claim fails"),
        RuntimeError("self-check fails"),
        TypeError("bad operand"),
    ]
    ran = []

    def body(n, rng):
        def sample(t):
            return {"M": IntMatrix.diagonal([t + 1] * n)}

        def check(t, M):
            ran.append(t)
            if t < len(raised):
                raise raised[t]

        return sample, check

    monkeypatch.setitem(verify_module._SUITES, "L1_3", (body, range, 2, None, "test window"))
    report = run_suite("L1_3", 2, 4, 0)
    assert ran == [0, 1, 2, 3]
    assert [(f["trial"], f["category"], f["reason"]) for f in report.failures] == [
        (0, "counterexample", "claim fails"),
        (1, "postcondition", "self-check fails"),
        (2, "crash", "bad operand"),
    ]
    assert [f["inputs"] for f in report.failures] == [
        {"M": [[t + 1, 0], [0, t + 1]]} for t in range(3)
    ]
    assert list(report.failures[0]) == ["trial", "reason", "category", "inputs"]


def test_library_type_error_is_a_crash(monkeypatch):
    import glnz.verify as verify_module

    def broken(P):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(verify_module, "order3_witness", broken)
    report = run_suite("L1_3", 4, 3, seed=1)
    assert [f["trial"] for f in report.failures] == [0, 1, 2]
    assert {f["category"] for f in report.failures} == {"crash"}
    # the record is the whole sample: P and the five diagonalizable pairs
    for f in report.failures:
        assert list(f["inputs"]) == ["P", "pairs"]
        assert len(f["inputs"]["P"]) == 4
        assert len(f["inputs"]["pairs"]) == 5
        assert all(len(phi) == 4 for pair in f["inputs"]["pairs"] for phi in pair)


def test_sampler_fault_is_a_postcondition(monkeypatch):
    # a sample that leaves its class is a broken library invariant, not a
    # counterexample; the sampler returned nothing, so the record is empty
    import glnz.verify as verify_module
    from glnz.exactmat import IntMatrix

    real_profile = verify_module.profile
    monkeypatch.setattr(
        verify_module, "profile", lambda P: real_profile(IntMatrix.identity(P.n))
    )
    report = run_suite("L1_3", 4, 3, seed=1)
    assert [(f["trial"], f["category"], f["reason"], f["inputs"]) for f in report.failures] == [
        (t, "postcondition", "conjugation did not preserve the profile", {}) for t in range(3)
    ]


class CountingRandom(random.Random):
    """random.Random counting its draws; every draw of the module goes
    through random() or getrandbits()."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("suite,n,trials", SMOKE)
def test_checkers_draw_nothing(suite, n, trials):
    import glnz.verify as verify_module

    build, indices = verify_module._SUITES[suite][:2]
    rng = CountingRandom(5)
    sample, check = build(n, rng)
    assert rng.calls == 0  # fixed data draws nothing either
    for t in indices(trials):
        drawn = sample(t)
        calls, state = rng.calls, rng.getstate()
        check(t, **drawn)
        assert (rng.calls, rng.getstate()) == (calls, state), (suite, t)
    assert rng.calls > 0 or suite == "C2_1_claim1"


def test_failure_record_replays_by_hand(monkeypatch):
    # decode the inputs of a recorded failure and call the suite's check:
    # it fails for the same reason, and passes once the fault is gone
    import glnz.verify as verify_module
    from glnz.exactmat import IntMatrix

    monkeypatch.setattr(verify_module, "mutual_subgroup", lambda P, Q: None)
    report = run_suite("L1_7", 4, 3, seed=11)
    assert [(f["trial"], f["reason"]) for f in report.failures] == [
        (0, "shared summand missed"), (1, "shared summand missed")
    ]
    _, check = verify_module._SUITES["L1_7"][0](4, random.Random(0))
    for record in json.loads(json.dumps(report.to_jsonable()))["failures"]:
        inputs = {
            k: IntMatrix(tuple(map(tuple, v))) if isinstance(v[0], list) else v
            for k, v in record["inputs"].items()
        }
        assert sorted(inputs) == ["P", "Q", "U", "coeffs"]
        with pytest.raises(verify_module._TrialFailure, match=f"^{record['reason']}$"):
            check(record["trial"], **inputs)
    monkeypatch.undo()
    check(record["trial"], **inputs)


def test_commuting_family_pass_is_trial_minus_one(monkeypatch):
    # the exhaustive sign-matrix pass runs once, before the trials, and a
    # failure there is recorded as trial -1 without stopping the trials
    import glnz.verify as verify_module

    n, trials = 4, 3
    short = verify_module.standard_commuting_family(n)[:-1]
    monkeypatch.setattr(verify_module, "standard_commuting_family", lambda n: short)
    sampled = []
    real_sample = verify_module._sample_involution

    def counting_sample(*args):
        sampled.append(args[1:])
        return real_sample(*args)

    monkeypatch.setattr(verify_module, "_sample_involution", counting_sample)
    report = run_suite("P1_9", n, trials, seed=5)
    assert not report.passed
    assert report.failures[0]["trial"] == -1
    assert report.failures[0]["reason"] == "family has the wrong size"
    assert report.failures[0]["category"] == "counterexample"
    assert report.failures[0]["inputs"] == {}
    assert [f["trial"] for f in report.failures].count(-1) == 1
    assert len(sampled) == trials


def test_rank3_identities_run_once_as_trial_zero(monkeypatch):
    import glnz.verify as verify_module

    def failing():
        raise RuntimeError("commutator identity does not hold")

    monkeypatch.setattr(verify_module, "commutator_identities", failing)
    report = run_suite("C2_1_claim1", 3, 5, seed=0)
    assert len(report.failures) == 1
    assert report.failures[0]["trial"] == 0
    assert report.failures[0]["reason"] == "commutator identity does not hold"
    assert report.failures[0]["category"] == "postcondition"
    assert report.failures[0]["inputs"] == {}


@given(st.integers(2, 8), st.integers(0, 2**32), st.integers(0, 20))
@settings(max_examples=100, deadline=None)
def test_random_gamma2_carries_its_inverse(n, seed, length):
    sigma, sigma_inv = _random_gamma2(random.Random(seed), n, length)
    assert sigma_inv == sigma.inverse()


def reference_line_mover(target, i, n):
    """The line mover as V C V^-1, by two dense products and an HNF
    inverse: the construction the rank-2 update replaces."""
    rest = [x if t != i else 0 for t, x in enumerate(target)]
    if not any(rest):
        partner = (i + 1) % n
        return IntMatrix.diagonal([target[i] if r in (i, partner) else 1 for r in range(n)])
    c2, g = content_and_primitive(rest)
    V = basis_completion([IntMatrix.identity(n).column(i), g])
    return V * _embed2(lift_row_to_sl3(target[i], c2), n) * V.inverse()


@given(st.integers(3, 7), st.integers(0, 2**32), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_line_mover_is_the_conjugated_row_completion(n, seed, length):
    # level-2 targets: the columns of a level-2 element, the rows of its
    # inverse, and +-e_i
    sigma, sigma_inv = _random_gamma2(random.Random(seed), n, length)
    for i in range(n):
        e_i = IntMatrix.identity(n).column(i)
        for target in (sigma.column(i), sigma_inv.rows[i], e_i, tuple(-x for x in e_i)):
            mover, mover_inv = _line_mover(target, i, n, 1), _line_mover(target, i, n, -1)
            assert mover == reference_line_mover(target, i, n)
            assert mover_inv == reference_line_mover(target, i, n).inverse()
            assert mover.column(i) == tuple(target)
            assert (mover * mover_inv).is_identity()


def test_congruence_summands_invert_nothing_and_take_each_det_once(monkeypatch):
    # per trial: the two sampled memberships, then per coordinate one det
    # for each row completion, the mover and the hyperplane mover
    import glnz.verify as verify_module

    calls = {"inverse": 0, "det": 0}
    for name in calls:
        def counted(self, _real=getattr(IntMatrix, name), _name=name):
            calls[_name] += 1
            return _real(self)

        monkeypatch.setattr(IntMatrix, name, counted)
    starts = []  # det calls before each trial's sample
    real_gamma2 = verify_module._random_gamma2

    def gamma2(*args):
        starts.append(calls["det"])
        return real_gamma2(*args)

    monkeypatch.setattr(verify_module, "_random_gamma2", gamma2)
    n, trials = 5, 20
    assert run_suite("C2_1_claim3", n, trials, 42).passed
    assert calls["inverse"] == 0
    per_trial = [b - a for a, b in zip(starts, starts[1:] + [calls["det"]])]
    assert len(per_trial) == trials and max(per_trial) <= 2 + 4 * n

import contextlib
import io
import json
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glnz import cli, congruence, involution, transvection, verify
from glnz.cli import _encode_int, main, matrix_payload, parse_matrix_document
from glnz.exactmat import IntMatrix
from test_congruence import determinant_not_one_inputs, refuse_det  # noqa: F401 (a fixture)
from test_involution import shear_conjugate
from test_scripts import child_env

SWAP_DOC = '{"n": 2, "rows": [[0, 1], [1, 0]]}'


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seeded_shear_word(rng, n, digits):
    """A product of shears I + c E_ij, c in +-[1, 99], grown until an entry
    has at least the given number of digits."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    while max(len(str(abs(x))) for r in rows for x in r) < digits:
        i, j = rng.sample(range(n), 2)
        c = rng.randint(1, 99) * rng.choice((1, -1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix(rows)


def shear_product(n, word):
    """The product of the shears I + c E_ij over word, left to right, by
    column operations on plain lists."""
    prod = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in word:
        for row in prod:
            row[j] += c * row[i]
    return prod


class TestMatrixDocuments:
    def test_round_trip_small(self):
        M = IntMatrix(((0, 1), (1, 0)))
        assert parse_matrix_document(matrix_payload(M)) == M

    def test_big_entries_become_strings(self):
        big = 2**80
        M = IntMatrix(((1, big), (0, 1)))
        doc = matrix_payload(M)
        assert doc["rows"][0][1] == str(big)
        assert parse_matrix_document(doc) == M
        # and the document survives JSON text round-trip losslessly
        assert parse_matrix_document(json.loads(json.dumps(doc))) == M

    def test_rejects_malformed(self):
        from glnz.cli import ParseError

        for doc in (
            [],
            {"n": 2},
            {"n": 0, "rows": []},
            {"n": 2, "rows": [[1, 0]]},
            {"n": 2, "rows": [[1, 0], [0, "x"]]},
            {"n": 2, "rows": [[1, 0], [0, 1.5]]},
        ):
            with pytest.raises(ParseError):
                parse_matrix_document(doc)


class TestClassifyCommand:
    def test_swap(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["classify"], SWAP_DOC, monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["is_involution"] is True
        assert doc["profile"] == [0, 0, 1]
        assert doc["kind"] == "one_permutation"
        assert doc["residue"] == 1

    def test_double_shear(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["classify"], '{"n":2,"rows":[[1,2],[0,1]]}', monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_transvection"] is True
        assert doc["transvection"]["m"] == 2
        assert doc["gamma_levels"] == [2]

    def test_transvection_invariant_outside_int64_is_a_string(self, capsys, monkeypatch):
        doc = json.dumps({"n": 2, "rows": [[1, str(2 * 10**20)], [0, 1]]})
        code, out, _ = run_cli(capsys, ["classify"], doc, monkeypatch)
        assert code == 0
        assert json.loads(out)["transvection"]["m"] == str(2 * 10**20)

    def test_non_automorphism_exits_3(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys, ["classify"], '{"n":2,"rows":[[2,0],[0,2]]}', monkeypatch
        )
        assert code == 3
        assert out == ""
        assert "automorphism" in err

    def test_bad_json_exits_2(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, ["classify"], "not json", monkeypatch)
        assert code == 2
        assert "parse error" in err

    def test_deeply_nested_json_exits_2(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, ["classify"], "[" * 100000, monkeypatch)
        assert code == 2
        assert out == ""
        assert err == "parse error: invalid JSON input: nested too deeply\n"

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_entry_over_digit_limit_exits_2(self, capsys, monkeypatch, quote):
        # Python caps int <-> str conversion at 4300 digits; bare and quoted
        # entries over the cap are both parse errors
        entry = quote + "7" * 5001 + quote
        doc = '{"n": 2, "rows": [[1, %s], [0, 1]]}' % entry
        code, out, err = run_cli(capsys, ["classify"], doc, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize("literal", ["1_000", " 5 ", "+7", "\u0661\u0662", "5\n", "-", ""])
    def test_lax_integer_literal_exits_2(self, capsys, monkeypatch, literal):
        # README: entries are JSON integers or decimal strings, an optional
        # "-" and ASCII digits; int() alone also takes these
        doc = json.dumps({"n": 2, "rows": [["1", literal], ["0", "1"]]})
        code, out, err = run_cli(capsys, ["classify"], doc, monkeypatch)
        assert code == 2
        assert out == ""
        assert err == f"parse error: bad integer literal: {literal!r}\n"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 0], [0, True]], "matrix entries must be integers"),
            ([[False, 0], [0, 1]], "matrix entries must be integers"),
            ([[1, 0], [0]], "every row must have 2 entries"),
            ([[1, 0, 0], [0, 1, 0, 0], [0, 0, 1]], "every row must have 3 entries"),
        ],
    )
    def test_boolean_entry_or_wrong_row_length_exits_2(self, capsys, monkeypatch, rows, message):
        # JSON true and false decode to Python bools, which are ints; a bad
        # row length is caught even when the row count is right
        from glnz.cli import ParseError

        doc = {"n": len(rows), "rows": rows}
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_matrix_document(doc)
        code, out, err = run_cli(capsys, ["classify"], json.dumps(doc), monkeypatch)
        assert code == 2
        assert out == ""
        assert err == f"parse error: {message}\n"

    def test_decimal_strings_accepted(self, capsys, monkeypatch):
        doc = json.dumps({"n": 2, "rows": [["-1", "-0"], ["007", "1"]]})
        code, out, _ = run_cli(capsys, ["classify"], doc, monkeypatch)
        assert code == 0
        assert json.loads(out)["det"] == -1

    def test_squares_input_once(self, capsys, monkeypatch):
        squared = []
        original = involution.is_involution
        monkeypatch.setattr(
            involution, "is_involution", lambda M: squared.append(M) or original(M)
        )
        code, _, _ = run_cli(capsys, ["classify"], SWAP_DOC, monkeypatch)
        assert code == 0
        assert len(squared) == 1

    def test_matches_library(self, capsys, monkeypatch):
        M = IntMatrix(((1, 0, 0), (0, 0, 1), (0, 1, 0)))
        code, out, _ = run_cli(
            capsys, ["classify"], json.dumps(matrix_payload(M)), monkeypatch
        )
        doc = json.loads(out)
        prof = involution.profile(M)
        assert doc["profile"] == [prof.a, prof.b, prof.p]
        assert doc["kind"] == involution.classify(M).name
        assert doc["is_transvection"] == (
            transvection.recognize_transvection(M) is not None
        )
        assert doc["gamma_levels"] == [
            m for m in range(2, 13) if congruence.in_gamma(M, m)
        ]

    @pytest.mark.parametrize(
        "M,levels",
        [
            (IntMatrix.identity(3), list(range(2, 13))),
            (-IntMatrix.identity(3), [2]),
            (IntMatrix.elementary(3, 0, 1, 12), [2, 3, 4, 6, 12]),
            # 27720 = lcm(1, ..., 12)
            (IntMatrix.elementary(3, 0, 1, 27720 * 2**80), list(range(2, 13))),
        ],
        ids=["I", "-I", "I+12E01", "I+27720*2^80*E01"],
    )
    def test_gamma_levels_edge_cases(self, capsys, monkeypatch, M, levels):
        code, out, _ = run_cli(
            capsys, ["classify"], json.dumps(matrix_payload(M)), monkeypatch
        )
        assert code == 0
        assert json.loads(out)["gamma_levels"] == levels
        assert levels == [m for m in range(2, 13) if congruence.in_gamma(M, m)]

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 12])
    def test_gamma_levels_of_seeded_level_words(self, capsys, monkeypatch, m):
        # shear words with coefficients in mZ lie in Gamma(m); at level 2 a
        # sign change of one coordinate is also congruent to I, so det -1
        rng = random.Random(m)
        for trial in range(4):
            n = rng.randint(2, 5)
            M = IntMatrix.identity(n)
            for _ in range(rng.randint(1, 6)):
                i, j = rng.sample(range(n), 2)
                M = M * IntMatrix.elementary(n, i, j, m * rng.randint(-4, 4))
            if m == 2 and trial % 2:
                M = M * IntMatrix.diagonal([-1] + [1] * (n - 1))
            code, out, _ = run_cli(
                capsys, ["classify"], json.dumps(matrix_payload(M)), monkeypatch
            )
            assert code == 0
            levels = json.loads(out)["gamma_levels"]
            assert m in levels
            assert levels == [k for k in range(2, 13) if congruence.in_gamma(M, k)]


class TestCanonCommand:
    def test_swap_layout(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["canon"], SWAP_DOC, monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["profile"] == [0, 0, 1]
        assert doc["U"]["rows"] == [[1, 0], [0, 1]]
        assert doc["block"]["rows"] == [[0, 1], [1, 0]]
        assert doc["layout"]["pairs"] == [[0, 2]]

    def test_golden_vs_library(self, capsys, monkeypatch):
        M = IntMatrix(((1, 0), (-1, -1)))
        code, out, _ = run_cli(
            capsys, ["canon"], json.dumps(matrix_payload(M)), monkeypatch
        )
        doc = json.loads(out)
        cb = involution.canonical_form(M)
        assert doc["U"] == matrix_payload(cb.U)

    def test_non_involution_exits_3(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, ["canon"], '{"n":2,"rows":[[1,1],[0,1]]}', monkeypatch
        )
        assert code == 3
        assert "involution" in err


class TestFactorCommand:
    def test_quarter_turn(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["factor"], '{"n":2,"rows":[[0,-1],[1,0]]}', monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["length"] == 3
        assert doc["round_trip"] is True

    def test_golden_vs_library(self, capsys, monkeypatch):
        from glnz.exactmat import random_elementary_word

        M = random_elementary_word(3, 12, 2, 99)
        code, out, _ = run_cli(
            capsys, ["factor"], json.dumps(matrix_payload(M)), monkeypatch
        )
        doc = json.loads(out)
        F = congruence.elementary_factorization(M)
        assert doc["length"] == len(F)
        assert [(f["i"], f["j"], f["c"]) for f in doc["factors"]] == list(F.factors)

    ORACLE_INPUTS = [(2, 8, 0), (3, 15, 1), (4, 22, 2), (5, 30, 3), (6, 37, 4)]  # n, digits, seed

    def test_oracle_inputs_have_odd_even_and_negative_c(self):
        signs = {
            (c % 2, c < 0)
            for n, digits, seed in self.ORACLE_INPUTS
            for _, _, c in congruence.elementary_factorization(
                seeded_shear_word(random.Random(seed), n, digits)
            ).factors
        }
        assert signs == {(0, False), (0, True), (1, False), (1, True)}

    @pytest.mark.parametrize(("n", "digits", "seed"), ORACLE_INPUTS)
    def test_output_equals_library_payload(self, capsys, monkeypatch, n, digits, seed):
        M = seeded_shear_word(random.Random(seed), n, digits)
        assert max(len(str(abs(x))) for r in M.rows for x in r) >= digits
        doc = json.dumps(matrix_payload(M))
        F = congruence.elementary_factorization(M)
        expected = json.dumps({
            "n": F.n,
            "length": len(F),
            "round_trip": True,
            "factors": [
                {"i": i, "j": j, "c": _encode_int(c), "trivial_mod2": c % 2 == 0,
                 "square_root_c": None if c % 2 else _encode_int(c // 2)}
                for i, j, c in F.factors
            ],
        }) + "\n"
        assert run_cli(capsys, ["factor"], doc, monkeypatch) == (0, expected, "")

    def test_determinant_minus_one_exits_3(self, capsys, monkeypatch):
        code, _, _ = run_cli(capsys, ["factor"], SWAP_DOC, monkeypatch)
        assert code == 3

    def test_determinant_not_one_exits_3_without_computing_it(
        self, capsys, monkeypatch, refuse_det
    ):
        for M in determinant_not_one_inputs():
            doc = json.dumps(matrix_payload(M))
            code, out, err = run_cli(capsys, ["factor"], doc, monkeypatch)
            assert (code, out, err) == (3, "", "error: determinant must be 1\n")


class TestFactorMod2Classes:
    """Each input is a single shear I + c E_ij at n = 3, which factors as
    itself; an even one is the square of its half shear."""

    def factor_of(self, capsys, monkeypatch, i, j, c):
        doc = json.dumps(matrix_payload(IntMatrix.elementary(3, i, j, c)))
        code, out, err = run_cli(capsys, ["factor"], doc, monkeypatch)
        assert (code, err) == (0, "")
        (f,) = json.loads(out)["factors"]
        assert (f["i"], f["j"], f["c"]) == (i, j, c)
        return f

    def test_even_factor_has_square_root(self, capsys, monkeypatch):
        f = self.factor_of(capsys, monkeypatch, 0, 1, 2)
        assert f["trivial_mod2"] is True and f["square_root_c"] == 1
        root = IntMatrix.elementary(3, 0, 1, f["square_root_c"])
        assert root**2 == IntMatrix.elementary(3, 0, 1, 2)

    def test_odd_factor(self, capsys, monkeypatch):
        f = self.factor_of(capsys, monkeypatch, 0, 1, 1)
        assert f["trivial_mod2"] is False and f["square_root_c"] is None

    def test_negative_even(self, capsys, monkeypatch):
        f = self.factor_of(capsys, monkeypatch, 1, 2, -4)
        assert f["trivial_mod2"] is True and f["square_root_c"] == -2
        root = IntMatrix.elementary(3, 1, 2, f["square_root_c"])
        assert root**2 == IntMatrix.elementary(3, 1, 2, -4)


class TestLiftCommand:
    def test_row_mode(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["lift", "--row", "3", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"]["rows"] == [[3, 4, 0], [2, 3, 0], [0, 0, 1]]

    def test_row_mode_bad_parity_exits_3(self, capsys):
        code, _, err = run_cli(capsys, ["lift", "--row", "2", "2"])
        assert code == 3
        assert "odd" in err

    def test_mod2_mode(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["lift", "--mod2"], SWAP_DOC, monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["det"] == 1
        assert doc["reduction"]["rows"] == [[0, 1], [1, 0]]

    def test_mod2_singular_exits_3(self, capsys, monkeypatch):
        code, _, _ = run_cli(
            capsys, ["lift", "--mod2"], '{"n":2,"rows":[[1,1],[1,1]]}', monkeypatch
        )
        assert code == 3

    @pytest.mark.parametrize(
        "row, echo",
        [
            (("100000000000000000001", "2"), {"a": "100000000000000000001", "c": 2}),
            (("3", "200000000000000000000"), {"a": 3, "c": "200000000000000000000"}),
            (("-9223372036854775809", "2"), {"a": "-9223372036854775809", "c": 2}),
        ],
    )
    def test_row_echo_outside_int64_is_a_string(self, capsys, row, echo):
        # a and c travel like matrix entries: decimal strings outside int64
        code, out, _ = run_cli(capsys, ["lift", "--row", *row])
        assert code == 0
        doc = json.loads(out)
        assert {"a": doc["a"], "c": doc["c"]} == echo
        assert doc["matrix"]["rows"][0][0] == echo["a"]
        assert doc["matrix"]["rows"][1][0] == echo["c"]


class TestWitnessCommand:
    def test_order3(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["witness", "--order3"], SWAP_DOC, monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["witness"]["rows"] == [[1, -1], [0, -1]]
        assert doc["product_order"] == 3

    def test_four(self, capsys, monkeypatch):
        M = involution.canonical_block(5, 0, 2)
        code, out, _ = run_cli(
            capsys, ["witness", "--four"], json.dumps(matrix_payload(M)), monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["product_kind"] == "gamma_involution"
        assert doc["product_gamma"] == 4
        witness = parse_matrix_document(doc["witness"])
        product = parse_matrix_document(doc["product"])
        assert product == M * witness
        kind = involution.classify(product)
        assert (doc["product_kind"], doc["product_gamma"]) == (kind.name, kind.gamma)

    def test_four_on_single_swap_exits_3(self, capsys, monkeypatch):
        M = involution.canonical_block(7, 0, 1)
        code, _, _ = run_cli(
            capsys, ["witness", "--four"], json.dumps(matrix_payload(M)), monkeypatch
        )
        assert code == 3


class TestGammaCommand:
    def test_member(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["gamma", "--m", "2"], '{"n":2,"rows":[[3,4],[2,3]]}', monkeypatch
        )
        assert code == 0
        assert json.loads(out) == {"level": 2, "member": True}

    def test_non_member(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["gamma", "--m", "2"], '{"n":2,"rows":[[1,1],[0,1]]}', monkeypatch
        )
        assert json.loads(out) == {"level": 2, "member": False}

    def test_level_outside_int64_is_a_string(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["gamma", "--m", str(10**20)], '{"n":2,"rows":[[3,4],[2,3]]}', monkeypatch
        )
        assert code == 0
        assert json.loads(out) == {"level": str(10**20), "member": False}


class TestArgvIntegers:
    """Integer arguments follow the rule for entries: an optional "-" and
    ASCII digits; int() alone also takes these spellings."""

    LAX = ["1_001", "+7", " 5", "\u0663"]
    ARGVS = [
        ["lift", "--row", "{}", "2"],
        ["lift", "--row", "3", "{}"],
        ["gamma", "--m", "{}"],
        ["verify", "--suite", "MU_SURJ", "--n", "{}", "--trials", "1", "--seed", "0"],
        ["verify", "--suite", "MU_SURJ", "--n", "2", "--trials", "{}", "--seed", "0"],
        ["verify", "--suite", "MU_SURJ", "--n", "2", "--trials", "1", "--seed", "{}"],
    ]

    @pytest.mark.parametrize("literal", LAX)
    @pytest.mark.parametrize("argv", ARGVS)
    def test_lax_integer_argument_exits_2(self, capsys, monkeypatch, argv, literal):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"n":2,"rows":[[3,4],[2,3]]}'))
        with pytest.raises(SystemExit) as exc:
            main([literal if a == "{}" else a for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"bad integer literal: {literal!r}\n")

    def test_strict_spellings_are_accepted(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["lift", "--row", "-0003", "002"])
        assert code == 0
        assert (json.loads(out)["a"], json.loads(out)["c"]) == (-3, 2)
        code, out, _ = run_cli(
            capsys, ["gamma", "--m", "02"], '{"n":2,"rows":[[3,4],[2,3]]}', monkeypatch
        )
        assert json.loads(out) == {"level": 2, "member": True}


class TestIdentitiesCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, ["identities"])
        assert code == 0
        doc = json.loads(out)
        assert doc["commutators"][0]["rows"] == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
        assert doc["commutators"][2]["rows"] == [[1, 2, -3], [0, 1, -2], [0, 0, 1]]
        assert len(doc["braid_involutions"]) == 4
        assert doc["shear_index"] == 0


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--suite", "L1_7", "--n", "4", "--trials", "25", "--seed", "42"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        lib = verify.run_suite("L1_7", 4, 25, 42).to_jsonable()
        doc.pop("elapsed_ms"), lib.pop("elapsed_ms")
        assert doc == lib

    def test_out_of_range_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["verify", "--suite", "L1_5", "--n", "5", "--trials", "5", "--seed", "1"],
        )
        assert code == 3
        assert "out of range" in err

    def test_failing_suite_exits_4(self, capsys, monkeypatch):
        import glnz.verify as verify_module

        def broken(n, rng):
            def check(t):
                raise verify_module._TrialFailure("synthetic")

            return (lambda t: {}), check

        monkeypatch.setitem(
            verify_module._SUITES, "MU_SURJ", (broken, range, 1, None, "test")
        )
        code, out, _ = run_cli(
            capsys,
            ["verify", "--suite", "MU_SURJ", "--n", "2", "--trials", "1", "--seed", "0"],
        )
        assert code == 4
        assert json.loads(out)["passed"] is False


    @pytest.mark.parametrize(
        "error,category", [(RuntimeError, "postcondition"), (TypeError, "crash")]
    )
    def test_postcondition_or_crash_exits_5(self, capsys, monkeypatch, error, category):
        import glnz.verify as verify_module

        def broken(n, rng):
            def check(t):
                if t == 0:
                    raise verify_module._TrialFailure("synthetic")
                raise error("broken library call")

            return (lambda t: {}), check

        monkeypatch.setitem(
            verify_module._SUITES, "MU_SURJ", (broken, range, 1, None, "test")
        )
        code, out, _ = run_cli(
            capsys,
            ["verify", "--suite", "MU_SURJ", "--n", "2", "--trials", "2", "--seed", "0"],
        )
        assert code == 5
        doc = json.loads(out)
        assert doc["passed"] is False
        assert [f["category"] for f in doc["failures"]] == ["counterexample", category]

    @pytest.mark.parametrize("seed", [2**63 - 1, 2**63, 10**20, -(2**63) - 1])
    def test_seed_outside_int64_is_a_string(self, capsys, seed):
        argv = ["verify", "--suite", "MU_SURJ", "--n", "2", "--trials", "1", "--seed", str(seed)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == (seed if -(2**63) <= seed < 2**63 else str(seed))
        lib = verify.run_suite("MU_SURJ", 2, 1, seed).to_jsonable()
        doc.pop("elapsed_ms"), lib.pop("elapsed_ms")
        assert doc == {**lib, "seed": doc["seed"]}

    @pytest.mark.parametrize("error,expected", [(verify._TrialFailure, 4), (TypeError, 5)])
    def test_sampled_integers_outside_int64_are_strings(self, capsys, monkeypatch, error,
                                                        expected):
        big = 2**70
        M = IntMatrix(((big, 1), (-big, 3)))

        def broken(n, rng):
            def check(t, M, pairs, coeffs):
                raise error("synthetic")

            return (lambda t: {"M": M, "pairs": [(M, M)], "coeffs": [big, 2**63 - 1]}), check

        monkeypatch.setitem(verify._SUITES, "MU_SURJ", (broken, range, 1, None, "test"))
        code, out, _ = run_cli(
            capsys,
            ["verify", "--suite", "MU_SURJ", "--n", "2", "--trials", "1", "--seed", "0"],
        )
        assert code == expected
        rows = [[str(big), 1], [str(-big), 3]]
        [record] = json.loads(out)["failures"]
        assert record["inputs"] == {
            "M": rows, "pairs": [[rows, rows]], "coeffs": [str(big), 2**63 - 1]
        }


class TestInternalError:
    def test_postcondition_failure_exits_5(self, capsys, monkeypatch):
        def broken(M):
            raise RuntimeError("factorization does not reproduce the input")

        monkeypatch.setattr(congruence, "elementary_factorization", broken)
        code, out, err = run_cli(capsys, ["factor"], SWAP_DOC, monkeypatch)
        assert code == 5
        assert out == ""
        assert err == "internal error: factorization does not reproduce the input\n"


    def test_wrong_product_exits_5_with_empty_stdout(self, capsys, monkeypatch):
        # round_trip in the output rests on this postcondition of the library
        monkeypatch.setattr(congruence, "_shear_word", lambda n, word: IntMatrix.identity(n))
        code, out, err = run_cli(
            capsys, ["factor"], '{"n":2,"rows":[[0,-1],[1,0]]}', monkeypatch
        )
        assert code == 5
        assert out == ""
        assert err == "internal error: factorization does not reproduce the input\n"

    def test_unrecorded_euclid_step_exits_5(self, capsys, monkeypatch):
        # a row step applied to the matrix but missing from the word is
        # caught by the product check, though the reduction reaches I
        euclid = congruence._euclid_column

        def forgetful(A, col, start, word):
            recorded = len(word)
            i0 = euclid(A, col, start, word)
            if len(word) > recorded:
                word.pop()
            return i0

        monkeypatch.setattr(congruence, "_euclid_column", forgetful)
        code, out, err = run_cli(
            capsys, ["factor"], '{"n": 2, "rows": [[2, 1], [1, 1]]}', monkeypatch
        )
        assert code == 5
        assert out == ""
        assert err == "internal error: factorization does not reproduce the input\n"

    def test_canonical_form_internal_failure_exits_5(self, capsys, monkeypatch):
        # a broken invariant on an involution is an internal error (exit 5);
        # on a non-involution the input is still what is reported (exit 3)
        def broken(L, residues):
            raise RuntimeError("swap-pair residues are dependent mod 2")

        involution._canonical_form.cache_clear()
        monkeypatch.setattr(involution, "_lifted_basis", broken)
        with pytest.raises(RuntimeError, match="swap-pair residues are dependent mod 2"):
            involution.canonical_form(IntMatrix(((0, 1), (1, 0))))
        for argv in (["canon"], ["witness", "--order3"]):
            code, out, err = run_cli(capsys, argv, SWAP_DOC, monkeypatch)
            assert (code, out) == (5, "")
            assert err == "internal error: swap-pair residues are dependent mod 2\n"
            code, out, err = run_cli(
                capsys, argv, '{"n": 2, "rows": [[0, -1], [1, 0]]}', monkeypatch
            )
            assert (code, out) == (3, "")
            assert err == "error: not an involution\n"

    def test_involutive_wrong_four_witness_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr(involution, "_modified_conjugate", shear_conjugate)
        doc = json.dumps(matrix_payload(involution.canonical_block(4, 3, 1)))
        code, out, err = run_cli(capsys, ["witness", "--four"], doc, monkeypatch)
        assert code == 5
        assert out == ""
        assert err == "internal error: four-involution witness postcondition violated\n"


class TestResourceCaps:
    """Over a cap the CLI exits 3 before any matrix is built; only the
    error path is run."""

    @pytest.mark.parametrize(
        "n,trials",
        [(cli._MAX_VERIFY_N + 1, 1), (3, cli._MAX_VERIFY_TRIALS + 1), (10**30, 10**30)],
    )
    def test_verify_over_cap_exits_3(self, capsys, monkeypatch, n, trials):
        monkeypatch.setattr(verify, "run_suite", pytest.fail)
        code, out, err = run_cli(
            capsys,
            ["verify", "--suite", "MU_SURJ", "--n", str(n), "--trials", str(trials), "--seed", "0"],
        )
        assert code == 3
        assert out == ""
        assert err == (
            f"error: --n is capped at {cli._MAX_VERIFY_N}"
            f" and --trials at {cli._MAX_VERIFY_TRIALS}\n"
        )

    @pytest.mark.parametrize(
        "command", [["classify"], ["canon"], ["factor"], ["gamma", "--m", "2"]]
    )
    def test_document_over_cap_exits_3(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "_trusted", pytest.fail)
        doc = json.dumps({"n": cli._MAX_DOCUMENT_N + 1, "rows": [[0]]})
        code, out, err = run_cli(capsys, command, doc, monkeypatch)
        assert code == 3
        assert out == ""
        assert err == f'error: "n" is capped at {cli._MAX_DOCUMENT_N}\n'


@contextlib.contextmanager
def no_digit_limit():
    """Lift the int <-> str digit limit for decoding; restored on exit, so
    the CLI itself always runs under the default limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def run_in_process(argv, doc):
    """main(argv) on the document doc, with stdin and both streams
    redirected: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(sys, "stdin", io.StringIO(doc)),
        contextlib.redirect_stdout(stdout),
        contextlib.redirect_stderr(stderr),
    ):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def rank3_involution(c):
    """U (1 + swap) U^-1 with U = E01(c) E12(c + 2) E20(c + 4)."""
    E = IntMatrix.elementary
    U = E(3, 0, 1, c) * E(3, 1, 2, c + 2) * E(3, 2, 0, c + 4)
    return U * involution.canonical_block(1, 0, 1) * U.inverse()


class TestResultsOverDigitLimit:
    """A result entry over the int <-> str digit limit is written out
    exactly; the limit itself is left as it is."""

    @pytest.mark.parametrize(
        "x",
        [10**4300, 10**4300 - 1, -(10**9000) - 1, 7 * 10**5000 + 3, -(2**40000)],
        ids=["10^4300", "10^4300-1", "-10^9000-1", "7*10^5000+3", "-2^40000"],
    )
    def test_encode_int_is_exact(self, x):
        text = _encode_int(x)
        with no_digit_limit():
            assert text == str(x)

    def test_order3_witness_of_3489_digit_input(self, capsys, monkeypatch):
        # the witness is a conjugate of P, about 1.5 times P's digits
        P = rank3_involution(10**872 + 7)
        doc = json.dumps(matrix_payload(P))
        code, out, err = run_cli(capsys, ["witness", "--order3"], doc, monkeypatch)
        assert (code, err) == (0, "")
        with no_digit_limit():
            result = json.loads(out)
            W = parse_matrix_document(result["witness"])
            product = parse_matrix_document(result["product"])
        assert max(len(str(abs(x))) for r in P.rows for x in r) == 3489
        assert max(abs(x) for r in W.rows for x in r) >= 10**sys.get_int_max_str_digits()
        assert (W * W).is_identity()
        assert product == P * W
        assert (product**3).is_identity()

    @given(st.integers(-(10**1000), 10**1000))
    @example(10**1000)
    @settings(max_examples=4, deadline=None)
    def test_round_trip_of_rank3_involutions(self, c):
        # the input entries stay under the digit limit; for c of about 800
        # digits or more the witness entries cross it
        P = rank3_involution(c)
        doc = json.dumps(matrix_payload(P))
        out = {}
        for argv in (["classify"], ["canon"], ["witness", "--order3"], ["gamma", "--m", "2"]):
            code, stdout, stderr = run_in_process(argv, doc)
            assert (code, stderr) == (0, ""), argv
            with no_digit_limit():
                out[argv[0]] = json.loads(stdout)
        with no_digit_limit():
            U = parse_matrix_document(out["canon"]["U"])
            W = parse_matrix_document(out["witness"]["witness"])
            product = parse_matrix_document(out["witness"]["product"])
        assert out["classify"]["profile"] == out["canon"]["profile"] == [1, 0, 1]
        assert abs(U.det()) == 1 and P * U == U * involution.canonical_block(1, 0, 1)
        assert (W * W).is_identity() and product == P * W and (product**3).is_identity()
        assert out["gamma"]["member"] == P.mod(2).is_identity()

    @given(st.integers(-(10**1000), 10**1000))
    @example(10**1000)
    @settings(max_examples=4, deadline=None)
    def test_factor_round_trip_of_rank3_shear_words(self, c):
        # E01(c) E12(c + 2) E20(c + 4): entries of about three times c's digits
        E = IntMatrix.elementary
        M = E(3, 0, 1, c) * E(3, 1, 2, c + 2) * E(3, 2, 0, c + 4)
        code, stdout, stderr = run_in_process(["factor"], json.dumps(matrix_payload(M)))
        assert (code, stderr) == (0, "")
        with no_digit_limit():
            result = json.loads(stdout)
            factors = result["factors"]
            word = [(f["i"], f["j"], int(f["c"])) for f in factors]
            roots = [None if f["square_root_c"] is None else int(f["square_root_c"])
                     for f in factors]
        assert result["n"] == 3 and result["length"] == len(word)
        assert result["round_trip"] is True
        assert shear_product(3, word) == [list(r) for r in M.rows]
        for f, (_, _, cf), root in zip(factors, word, roots):
            assert f["trivial_mod2"] == (cf % 2 == 0)
            assert (root is None) == (cf % 2 == 1)
            assert root is None or 2 * root == cf

    @given(st.integers(-(10**1000), 10**1000))
    @example(10**1000)
    @settings(max_examples=4, deadline=None)
    def test_lift_mod2_round_trip(self, c):
        E = IntMatrix.elementary
        M = E(4, 0, 1, c) * E(4, 1, 3, c + 1) * E(4, 3, 0, c + 2)
        code, stdout, stderr = run_in_process(["lift", "--mod2"], json.dumps(matrix_payload(M)))
        assert (code, stderr) == (0, "")
        with no_digit_limit():
            result = json.loads(stdout)
            lift = parse_matrix_document(result["matrix"])
            reduction = parse_matrix_document(result["reduction"])
        assert result["det"] == 1 and lift.det() == 1
        assert reduction == lift.mod(2) == M.mod(2)

    @given(st.integers(-(10**1000), 10**1000), st.sampled_from([(3, 2, 2), (2, 5, 1), (1, 2, 3)]))
    @example(10**1000, (3, 2, 2))
    @settings(max_examples=4, deadline=None)
    def test_four_witness_round_trip(self, c, shape):
        # P = U B U^-1 for U = E08(c) E84(c + 2) E40(c + 4), entries of
        # about four times c's digits
        E = IntMatrix.elementary
        U = E(9, 0, 8, c) * E(9, 8, 4, c + 2) * E(9, 4, 0, c + 4)
        U_inv = E(9, 4, 0, -c - 4) * E(9, 8, 4, -c - 2) * E(9, 0, 8, -c)
        P = U * involution.canonical_block(*shape) * U_inv
        code, stdout, stderr = run_in_process(["witness", "--four"], json.dumps(matrix_payload(P)))
        assert (code, stderr) == (0, "")
        with no_digit_limit():
            result = json.loads(stdout)
            W = parse_matrix_document(result["witness"])
            product = parse_matrix_document(result["product"])
        assert (W * W).is_identity() and product == P * W
        kind = involution.classify(product)
        assert kind == involution.InvolutionKind(involution.GAMMA_INVOLUTION, 4)
        assert (result["product_kind"], result["product_gamma"]) == (kind.name, kind.gamma)


class TestFileInput:
    def test_file_flag(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(SWAP_DOC)
        code, out, _ = run_cli(capsys, ["classify", "--file", str(path)])
        assert code == 0
        assert json.loads(out)["profile"] == [0, 0, 1]

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_non_utf8_input_is_a_parse_error(self, capsys, monkeypatch, tmp_path, via):
        data = SWAP_DOC.encode() + b"\xff"
        if via == "file":
            path = tmp_path / "m.json"
            path.write_bytes(data)
            argv = ["classify", "--file", str(path)]
        else:  # strict decoding, as stdin reads under a UTF-8 locale
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            argv = ["classify"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: input is not UTF-8 text")

    def test_missing_file_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, ["classify", "--file", "/no/such/file.json"])
        assert code == 3


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "glnz.cli", "lift", "--row", "3", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["matrix"]["rows"] == [[3, 4, 0], [2, 3, 0], [0, 0, 1]]


def test_output_bit_stable_given_inputs(capsys, monkeypatch):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["classify"], SWAP_DOC, monkeypatch)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


FOUR_DOC = json.dumps(matrix_payload(involution.canonical_block(3, 2, 2)))


def fresh_process(argv, stdin_text=""):
    proc = subprocess.run(
        [sys.executable, "-m", "glnz.cli", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=child_env(),
    )
    return proc.returncode, proc.stdout


def without_elapsed(argv, out):
    if argv[0] != "verify":
        return out
    doc = json.loads(out)
    doc.pop("elapsed_ms")
    return doc


class TestParserReuse:
    """Many main calls in one process give what one process per call gives."""

    CALLS = [
        (["lift", "--row", "3", "2"], ""),
        (["lift", "--mod2"], SWAP_DOC),
        (["witness", "--order3"], SWAP_DOC),
        (["witness", "--four"], FOUR_DOC),
        (["gamma", "--m", "2"], '{"n":2,"rows":[[3,4],[2,3]]}'),
        (["gamma", "--m", "3"], '{"n":2,"rows":[[3,4],[2,3]]}'),
        (["verify", "--suite", "L1_7", "--n", "4", "--trials", "5", "--seed", "3"], ""),
        (["verify", "--suite", "MU_SURJ", "--n", "4", "--trials", "5", "--seed", "3"], ""),
    ]

    def test_sequence_matches_fresh_processes(self, capsys, monkeypatch):
        for argv, text in self.CALLS:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code = main(argv)
            out = capsys.readouterr().out
            expected_code, expected_out = fresh_process(argv, text)
            assert code == expected_code == 0, argv
            assert without_elapsed(argv, out) == without_elapsed(argv, expected_out), argv

    def test_usage_error_then_valid_call(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["gamma"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--m" in captured.err
        code, out, _ = run_cli(
            capsys, ["gamma", "--m", "2"], '{"n":2,"rows":[[3,4],[2,3]]}', monkeypatch
        )
        assert code == 0
        assert json.loads(out) == {"level": 2, "member": True}

    def test_parser_is_built_once(self):
        from glnz.cli import build_parser

        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv", [["--help"], ["gamma", "--help"]])
    def test_help_text_is_stable(self, capsys, argv):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: glnz")


def load_output_dump():
    """scripts/output_dump.py as a module: its documents and argv lists."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "output_dump.py"
    spec = importlib.util.spec_from_file_location("output_dump", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def numbers_outside_int64(value, path="$"):
    """(path, value) of every JSON number in value that is not an int in
    int64; a bool is not a number."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from numbers_outside_int64(v, f"{path}.{k}")
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from numbers_outside_int64(v, f"{path}[{k}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if type(value) is not int or not -(2**63) <= value < 2**63:
            yield path, value


def test_every_integer_written_is_in_int64_or_a_string():
    # every CLI run of the output dump: each document under each command,
    # the 2489- and 3489-digit involutions among them, and the commands
    # that read no document
    dump = load_output_dump()
    runs = [(argv, text) for _, text, argvs in dump.document_runs() for argv in argvs]
    runs += [(argv, "") for argv in dump.fixed_runs()] + dump.argv_runs()
    written = 0
    for argv, text in runs:
        code, out, _ = dump.run_cli(argv, text)
        if not out:
            continue
        with no_digit_limit():  # a bare integer over the limit must still decode
            value = json.loads(out)
        assert list(numbers_outside_int64(value)) == [], (argv, code)
        written += 1
    assert written > 500


# the matrix subcommands the contract fuzz drives; verify and identities
# read no document
FUZZ_COMMANDS = [
    ["classify"], ["canon"], ["factor"], ["lift", "--mod2"], ["witness", "--order3"],
    ["witness", "--four"], ["gamma", "--m", "2"], ["gamma", "--m", "3"],
]
FUZZ_BIG = 10**31 - 1  # entries of up to 31 digits
FUZZ_JUNK = [True, False, 1.0, 0.5, None, [], [1], {}, "", "+1", "1e3", " 2", "0x1", "--1"]


@st.composite
def fuzz_matrix(draw, n):
    """A dense integer matrix, a product of shears, or a near-involution:
    a shear conjugate of diag(+-1) with a swap block, maybe off by one."""
    kind = draw(st.sampled_from(["dense", "shears", "involution"]))
    coefficient = st.one_of(st.integers(-9, 9), st.integers(-FUZZ_BIG, FUZZ_BIG))
    if kind == "dense":
        return [[draw(coefficient) for _ in range(n)] for _ in range(n)]
    if kind == "shears":
        M = IntMatrix.identity(n)
    else:
        rows = [list(r) for r in IntMatrix.diagonal(
            draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))).rows]
        if n > 1 and draw(st.booleans()):
            rows[0][:2], rows[1][:2] = [0, 1], [1, 0]
        M = IntMatrix(rows)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-99, 99))
        E = IntMatrix.elementary(n, i, j, c)
        M = E * M if kind == "shears" else E * M * IntMatrix.elementary(n, i, j, -c)
    rows = [list(r) for r in M.rows]
    if kind == "involution" and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += draw(
            st.sampled_from((1, -1)))
    return rows


@st.composite
def fuzz_document(draw):
    """The text of a matrix document: well formed with int or string
    entries, or broken in one place, or not JSON at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(st.text(max_size=30), st.just('{"n": 2, "rows": [[1, 0], [0, 1]]')))
    n = draw(st.integers(1, 5))
    rows = [[str(x) if draw(st.booleans()) else x for x in row]
            for row in draw(fuzz_matrix(n))]
    doc = {"n": n, "rows": rows}
    flaw = draw(st.sampled_from(["none"] * 6 + ["entry", "nested", "n", "row", "shape"]))
    if flaw == "entry":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            st.sampled_from(FUZZ_JUNK))
    elif flaw == "nested":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = [rows[i][j]]
    elif flaw == "n":
        doc["n"] = draw(st.sampled_from([0, -1, True, 2.5, "3", None, n + 1, 10**40]))
    elif flaw == "row":
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from([None, 7, "row", rows[0][:-1]]))
    elif flaw == "shape":
        doc = draw(st.sampled_from([rows, {"n": n}, {"rows": rows}, n]))
    return json.dumps(doc)


@given(st.sampled_from(FUZZ_COMMANDS), fuzz_document())
@settings(max_examples=300, deadline=None)
def test_matrix_commands_keep_the_exit_code_contract(argv, doc):
    # 0 with one JSON value on stdout, or 2 (parse) / 3 (precondition)
    # with nothing on stdout; never an internal error or a crash
    code, out, err = run_in_process(argv, doc)
    assert code in (0, 2, 3), (argv, doc, err)
    if code:
        assert out == "" and err, (argv, doc)
    else:
        assert err == ""
        json.loads(out)

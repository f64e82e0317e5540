"""JSON-in/JSON-out command line interface.

Matrices travel as documents {"n": k, "rows": [[...], ...]}; entries that
do not fit in 64 bits are serialized as decimal strings so nothing is ever
rounded.  All results go to stdout as a single JSON value, diagnostics to
stderr.  Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 verification suite found counterexamples and nothing else, 5 internal
error (a postcondition of the library failed, or a suite trial failed a
postcondition or crashed; verify still prints its report, whose failure
records carry a category: counterexample, postcondition or crash).
Integers are JSON integers or strings of an optional "-" and ASCII digits;
integer arguments on the command line follow the same rule.
An input entry over Python's int <-> str digit limit (4300 digits by
default) is a parse error; a result entry over it is written out exactly,
in parts under the limit.  The process-wide limit is never changed.
In-process callers of main share one parser, built on the first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import congruence, involution, transvection, verify
from .exactmat import IntMatrix, _trusted, content_and_primitive

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_DECIMAL = re.compile(r"-?[0-9]+")


class ParseError(Exception):
    pass


def _encode_int(x: int):
    if _INT64_MIN <= x <= _INT64_MAX:
        return x
    try:
        return str(x)
    except ValueError:  # over the int <-> str digit limit: split by a power of ten
        k = abs(x).bit_length() * 3 // 20  # about half the digits, as log10(2) > 0.3
        high, low = divmod(abs(x), 10**k)
        return "-" * (x < 0) + str(_encode_int(high)) + str(_encode_int(low)).rjust(k, "0")


def _decode_int(value) -> int:
    if isinstance(value, bool):
        raise ParseError("matrix entries must be integers")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if _DECIMAL.fullmatch(value):
            try:
                return int(value)
            except ValueError:  # over the int <-> str digit limit
                pass
        raise ParseError(f"bad integer literal: {value!r}")
    raise ParseError(f"bad matrix entry: {value!r}")


def _argv_int(text: str) -> int:
    """An integer command-line argument, under the rule for entries."""
    try:
        return _decode_int(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def matrix_payload(M: IntMatrix) -> dict:
    return {"n": M.n, "rows": [[_encode_int(x) for x in row] for row in M.rows]}


def parse_matrix_document(doc) -> IntMatrix:
    if not isinstance(doc, dict):
        raise ParseError("matrix document must be a JSON object")
    if "n" not in doc or "rows" not in doc:
        raise ParseError('matrix document needs "n" and "rows"')
    n = doc["n"]
    rows = doc["rows"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError('"n" must be a positive integer')
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f'"rows" must be a list of {n} rows')
    parsed = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"every row must have {n} entries")
        parsed.append(tuple(_decode_int(x) for x in row))
    return _trusted(tuple(parsed))


def _read_document(path: str | None) -> IntMatrix:
    try:
        if path is None:
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer over the digit limit
        raise ParseError(f"invalid JSON input: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON input: nested too deeply") from exc
    return parse_matrix_document(doc)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _encode_ints(value):
    """value with every int in it, not a bool, through _encode_int; a
    sequence becomes a list."""
    if isinstance(value, dict):
        return {k: _encode_ints(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_ints(v) for v in value]
    return _encode_int(value) if type(value) is int else value


def cmd_classify(args) -> int:
    M = _read_document(args.file)
    det = M.det()
    if abs(det) != 1:
        print("input is not an automorphism of Z^n", file=sys.stderr)
        return 3
    report: dict = {"n": M.n, "det": _encode_int(det)}
    if involution.is_involution(M):
        prof = involution._rank_profile(M)
        report.update(is_involution=True, profile=[prof.a, prof.b, prof.p],
                      diagonalizable=prof.diagonalizable, residue=prof.p,
                      kind=prof.kind.name, gamma=prof.kind.gamma)
    else:
        report.update(is_involution=False, profile=None, kind=None)
    data = transvection.recognize_transvection(M)
    report["is_transvection"] = data is not None
    report["transvection"] = None if data is None else {
        "x": _encode_ints(data.x), "delta": _encode_ints(data.delta),
        "m": _encode_int(data.m),
    }
    # M is in Gamma(m) exactly when m divides every entry of M - I
    g, _ = content_and_primitive([x for row in M.shifted(-1).rows for x in row])
    report["gamma_levels"] = [m for m in range(2, 13) if g % m == 0]
    _emit(report)
    return 0


def cmd_canon(args) -> int:
    M = _read_document(args.file)
    cb = involution.canonical_form(M)
    _emit(
        {
            "profile": [cb.profile.a, cb.profile.b, cb.profile.p],
            "diagonalizable": cb.profile.diagonalizable,
            "U": matrix_payload(cb.U),
            "block": matrix_payload(cb.block_matrix()),
            "layout": {
                "fixed": list(cb.layout.fixed),
                "negated": list(cb.layout.negated),
                "pairs": [list(p) for p in cb.layout.pairs],
            },
        }
    )
    return 0


def cmd_factor(args) -> int:
    M = _read_document(args.file)
    factorization = congruence.elementary_factorization(M)
    classes = congruence.factor_mod2_classes(factorization)
    _emit(
        {
            "n": factorization.n,
            "length": len(factorization),
            "round_trip": True,  # elementary_factorization checked the product
            "factors": [
                {
                    "i": f.i,
                    "j": f.j,
                    "c": _encode_int(f.c),
                    "trivial_mod2": cls.trivial_mod2,
                    "square_root_c": (
                        _encode_int(cls.square_root.c) if cls.square_root else None
                    ),
                }
                for f, cls in zip(factorization.factors, classes)
            ],
        }
    )
    return 0


def cmd_lift(args) -> int:
    if args.row is not None:
        a, c = args.row
        M = congruence.lift_row_to_sl3(a, c)
        _emit({"mode": "row", "a": _encode_int(a), "c": _encode_int(c),
               "matrix": matrix_payload(M)})
        return 0
    Mbar = _read_document(args.file)
    M = congruence.lift_mod2(Mbar)
    _emit(
        {
            "mode": "mod2",
            "matrix": matrix_payload(M),
            "det": 1,  # lift_mod2 checked det 1 and the reduction
            "reduction": matrix_payload(M.mod(2)),
        }
    )
    return 0


def cmd_witness(args) -> int:
    M = _read_document(args.file)
    # the witness postcondition has already formed M * witness
    if args.order3:
        witness, product = involution._order3_witness(M)
        mode, claim = "order3", {"product_order": 3}
    else:
        witness, product = involution._four_involution_witness(M)
        mode, claim = "four", {"product_kind": involution.GAMMA_INVOLUTION, "product_gamma": 4}
    _emit(
        {
            "mode": mode,
            "witness": matrix_payload(witness),
            "product": matrix_payload(product),
            **claim,
        }
    )
    return 0


def cmd_gamma(args) -> int:
    M = _read_document(args.file)
    member = congruence.in_gamma(M, args.m)
    _emit({"level": _encode_int(args.m), "member": member})
    return 0


def cmd_identities(args) -> int:
    del args
    report = congruence.commutator_identities()
    solutions = congruence.braid_involution_solutions()
    roots = congruence.unipotent_sqrt_sl2(IntMatrix(((1, 2), (0, 1))))
    _emit(
        {
            "commutators": [matrix_payload(m) for m in report.commutators],
            "candidates": [matrix_payload(m) for m in report.candidates],
            "candidate_has_minus_one": list(report.candidate_has_minus_one),
            "commutator_has_minus_one": list(report.commutator_has_minus_one),
            "shear_index": report.shear_index,
            "braid_involutions": [matrix_payload(m) for m in solutions],
            "double_shear_roots": [matrix_payload(m) for m in roots],
        }
    )
    return 0


def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, args.n, args.trials, args.seed)
    _emit(_encode_ints(report.to_jsonable()))
    if any(f["category"] != "counterexample" for f in report.failures):
        return 5
    return 0 if report.passed else 4


def _add_matrix_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--file", help="read the matrix document from a file instead of stdin")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once and shared by all main
    calls; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="glnz",
        description="exact computations with automorphisms of Z^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="involution/transvection/congruence report")
    _add_matrix_input(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("canon", help="canonical basis of an involution")
    _add_matrix_input(p)
    p.set_defaults(handler=cmd_canon)

    p = sub.add_parser("factor", help="shear factorization of a determinant-1 matrix")
    _add_matrix_input(p)
    p.set_defaults(handler=cmd_factor)

    p = sub.add_parser("lift", help="lift mod-2 matrices or (odd, even) rows")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mod2", action="store_true", help="lift an invertible mod-2 matrix")
    group.add_argument("--row", nargs=2, type=_argv_int, metavar=("A", "C"),
                       help="complete a coprime odd/even column in rank 3")
    _add_matrix_input(p)
    p.set_defaults(handler=cmd_lift)

    p = sub.add_parser("witness", help="order-3 or 4-involution witness conjugates")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order3", action="store_true")
    group.add_argument("--four", action="store_true")
    _add_matrix_input(p)
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("gamma", help="principal congruence subgroup membership")
    p.add_argument("--m", type=_argv_int, required=True, help="congruence level (>= 2)")
    _add_matrix_input(p)
    p.set_defaults(handler=cmd_gamma)

    p = sub.add_parser("identities", help="rank-2/rank-3 identity report")
    p.set_defaults(handler=cmd_identities)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", required=True, choices=list(verify.SUITE_IDS))
    p.add_argument("--n", type=_argv_int, required=True)
    p.add_argument("--trials", type=_argv_int, required=True)
    p.add_argument("--seed", type=_argv_int, required=True)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

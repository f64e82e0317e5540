#!/usr/bin/env python3
"""Dump the program's observable outputs in a stable text form.

Several sections, one line per output:

* the public API: the sorted public names of the ``glnz`` package, less
  its submodules, then the sorted ``__all__`` of each submodule that
  declares one;
* every SMOKE suite configuration of ``tests/helpers.py`` at three
  seeds, as the report JSON without ``elapsed_ms``;
* the exit code, stdout and stderr of each CLI subcommand on a fixed set of
  documents: canonical blocks, diagonalizable and swap-pair (p > 0)
  conjugates, non-involutions, matrices singular mod 2, gamma-level edge
  cases and a few malformed or rejected inputs (among them integer strings
  with "_", spaces, "+" or non-ASCII digits, and matrices of determinant
  0, -1 and +-2 that ``factor`` rejects), then ``canon`` and
  ``witness --order3`` on seeded involutions of rank 6 to 10 with 15- to
  40-digit entries, where the Hermite steps of the kernel run long,
  and ``classify``, ``canon``, ``witness --order3`` and ``gamma`` on two
  rank-3 involutions with 2489- and 3489-digit entries, whose witness
  entries fall under and over the int <-> str digit limit.
  Each ``canon`` and ``witness`` result that exits 0 is followed by a line
  saying whether it checks out;
* the same for the commands that read no document: ``identities``,
  ``lift --row`` on a grid of (a, c) pairs (valid and rejected, small and
  40-digit, of every sign, c = 0 among them) and ``verify`` on each SMOKE
  configuration;
* integer arguments: ``lift --row``, ``gamma --m`` and ``verify --n``,
  ``--trials`` and ``--seed`` with spellings that ``int()`` takes but an
  entry may not have ("+3", " 3", "0_3", non-ASCII digits), and
  ``gamma --m`` and ``verify --seed`` at and beyond the int64 bounds;
* every SMOKE configuration at one seed under each of three injected
  faults, one per failure category: ``verify.order3_witness`` raising
  ``TypeError``, ``verify.profile`` returning the profile of the
  identity, and ``verify.mutual_subgroup`` returning ``None``.

Run it on two checkouts and diff the files:

    PYTHONPATH=src python scripts/output_dump.py > dump.txt

Standard library only, apart from the glnz package under test.
"""

import argparse
import ast
import contextlib
import io
import itertools
import json
import random
import sys
import types
from pathlib import Path

SEEDS = (11, 2024, 777)
TEST_HELPERS = Path(__file__).resolve().parents[1] / "tests" / "helpers.py"


def smoke_configs() -> list:
    """The SMOKE list of tests/helpers.py, read without importing the
    test helpers."""
    tree = ast.parse(TEST_HELPERS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SMOKE" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SMOKE list in {TEST_HELPERS}")


def documents() -> list:
    """(name, JSON text) of every matrix document fed to the CLI."""
    from glnz.exactmat import IntMatrix, random_elementary_word, random_unimodular
    from glnz.involution import canonical_block

    def doc(M):
        return json.dumps({"n": M.n, "rows": [[str(x) for x in r] for r in M.rows]})

    out = []
    shapes = [(a, n - 2 * p - a, p) for n in range(1, 6) for p in range(n // 2 + 1)
              for a in range(n - 2 * p + 1)]
    shapes += [(5, 0, 2), (4, 3, 1), (7, 0, 1), (1, 0, 4), (3, 2, 2), (0, 9, 0)]
    for shape in shapes:
        out.append((f"block{shape}", doc(canonical_block(*shape))))
    rng = random.Random(5)
    for shape in shapes:
        n = sum(shape) + shape[2]
        for k in range(2):
            U = random_unimodular(n, 10, 3, rng.randrange(1 << 30))
            P = U * canonical_block(*shape) * U.inverse()
            out.append((f"conj{shape}#{k}", doc(P)))
    for n in (2, 3, 4, 6):
        out.append((f"word{n}", doc(random_elementary_word(n, 12, 3, n))))
        out.append((f"unimodular{n}", doc(random_unimodular(n, 12, 3, n))))
    out.append(("singular", doc(IntMatrix.diagonal((2, 1)))))
    # singular over GF(2), found at the first, a middle and the last column
    # of the mod-2 reduction
    out.append(("mod2-singular-first", doc(IntMatrix(((2, 1, 0), (4, 3, 0), (0, 0, 1))))))
    out.append(("mod2-singular-middle", doc(IntMatrix(((1, 3, 0), (0, 2, 1), (2, 4, -1))))))
    out.append(("mod2-singular-last", doc(IntMatrix(((1, 0, 1), (0, 1, 1), (2, 2, 4))))))
    # gamma levels at the edges: every level, level 2 only, the divisors of
    # 12, lcm(1..12) times a huge factor, and shear words built in Gamma(m)
    edges = [("I3", IntMatrix.identity(3)), ("-I3", -IntMatrix.identity(3)),
             ("I+12E01", IntMatrix.elementary(3, 0, 1, 12)),
             ("I+27720*2^80*E01", IntMatrix.elementary(3, 0, 1, 27720 * 2**80))]
    for m in (2, 3, 5, 12):
        W = IntMatrix.identity(4)
        for _ in range(5):
            i, j = rng.sample(range(4), 2)
            W = W * IntMatrix.elementary(4, i, j, m * rng.randint(-4, 4))
        edges.append((f"gamma{m}-word", W))
    out += [(f"gamma-edge-{name}", doc(M)) for name, M in edges]
    # strings int() takes but that are not an optional "-" and ASCII digits
    for k, literal in enumerate(["1_0", " 1 ", "+1", "\u0661\u0662"]):
        text = json.dumps({"n": 2, "rows": [["1", literal], ["0", "1"]]})
        out.append((f"lax-literal#{k}", text))
    out.append(("not-json", "{"))
    out.append(("ragged", '{"n": 2, "rows": [[1, 0], [0]]}'))
    # determinant 0, -1, 2 and -2 at n = 2..6, dense from shear words on
    # both sides, and a determinant -1 word with 30-digit entries
    det_rng = random.Random(15)
    for n in range(2, 7):
        for d in (0, -1, 2, -2):
            left, right = (random_elementary_word(n, 8, 3, det_rng.randrange(1 << 30))
                           for _ in "lr")
            M = left * IntMatrix.diagonal([d] + [1] * (n - 1)) * right
            out.append((f"det{d}-n{n}", doc(M)))
    M = random_elementary_word(4, 12, 10**30, 17) * IntMatrix.diagonal((1, 1, 1, -1))
    out.append(("det-1-30-digit-word", doc(M)))
    return out


def big_involutions() -> list:
    """(name, JSON text) of seeded conjugates U B U^-1 of canonical blocks
    at n = 6..10, U grown shear by shear until the largest entry of the
    conjugate has at least 15, 25 or 40 digits.  The 25-digit ones are
    diagonalizable and not central, the others have p > 0."""
    from glnz.exactmat import random_unimodular
    from glnz.involution import canonical_block

    rng = random.Random(6)
    out = []
    for n in range(6, 11):
        for digits in (15, 25, 40):
            p = 0 if digits == 25 else rng.randint(1, n // 2)
            a = rng.randint(1, n - 1) if digits == 25 else rng.randint(0, n - 2 * p)
            B = canonical_block(a, n - 2 * p - a, p)
            seed = rng.randrange(1 << 30)
            for length in itertools.count(n):
                U = random_unimodular(n, length, 9, seed)
                P = U * B * U.inverse()
                if max(len(str(abs(x))) for r in P.rows for x in r) >= digits:
                    break
            text = json.dumps({"n": n, "rows": [[str(x) for x in r] for r in P.rows]})
            out.append((f"big{(a, n - 2 * p - a, p)}-{digits}", text))
    return out


def over_limit_involutions() -> list:
    """(name, JSON text) of U (1 + swap) U^-1 with U = E01(c) E12(c + 2)
    E20(c + 4): c = 10^622 + 7 gives 2489-digit entries, c = 10^872 + 7
    3489-digit ones and an order-three witness over the digit limit."""
    from glnz.exactmat import IntMatrix
    from glnz.involution import canonical_block

    E = IntMatrix.elementary
    out = []
    for k in (622, 872):
        c = 10**k + 7
        U = E(3, 0, 1, c) * E(3, 1, 2, c + 2) * E(3, 2, 0, c + 4)
        P = U * canonical_block(1, 0, 1) * U.inverse()
        text = json.dumps({"n": 3, "rows": [[str(x) for x in r] for r in P.rows]})
        out.append((f"rank3-c=10^{k}+7", text))
    return out


def row_pairs() -> list:
    """(a, c) inputs of ``lift --row``: a small grid with zero, negative,
    even a, odd c and non-coprime entries, then 40-digit pairs of each
    sign and a few rejected ones."""
    grid = [(a, c) for a in (-9, -3, -1, 1, 2, 3, 7, 15) for c in (-12, -4, -2, 0, 2, 3, 6, 10)]
    rng = random.Random(40)
    big = []
    for _ in range(6):
        a, c = 2 * rng.randrange(10**39, 10**40) + 1, 2 * rng.randrange(10**39, 10**40)
        big += [(a, c), (-a, c), (a, -c), (-a, -c)]
    big += [(big[0][0] * 3, big[0][1] * 3), (big[0][1], big[0][0]), (big[0][0], 0)]
    return grid + big


def lax_spellings(value: int) -> list:
    """Strings int() reads as value that are not an optional "-" and ASCII
    digits."""
    arabic = "".join(chr(0x660 + int(d)) for d in str(value))
    return [f"+{value}", f" {value}", f"{value} ", f"0_{value}", arabic]


def argv_runs() -> list:
    """(argv, stdin text) of integer arguments: lax spellings of values
    every version runs quickly, and levels and seeds at the int64 bounds."""
    member = '{"n": 2, "rows": [[3, 4], [2, 3]]}'
    runs = []
    for lax in lax_spellings(3):
        runs += [(["lift", "--row", lax, "2"], ""), (["lift", "--row", "5", lax], ""),
                 (["gamma", "--m", lax], member)]
        for k in range(3):  # --n, --trials, --seed
            args = ["3", "2", "9"]
            args[k] = lax
            runs.append((["verify", "--suite", "MU_SURJ", "--n", args[0], "--trials", args[1],
                          "--seed", args[2]], ""))
    for m in (2**63 - 1, 2**63, 10**20, 2 * 10**40):
        runs.append((["gamma", "--m", str(m)], member))
    for seed in (2**63 - 1, 2**63, 10**20):
        runs.append((["verify", "--suite", "MU_SURJ", "--n", "2", "--trials", "1",
                      "--seed", str(seed)], ""))
    return runs


FAULTS = ("order3_witness", "profile", "mutual_subgroup")


def faulty(name: str):
    """The replacement of glnz.verify.<name> for an injected fault."""
    from glnz import verify
    from glnz.exactmat import IntMatrix

    if name == "order3_witness":
        def order3_witness(P):
            raise TypeError("injected: unsupported operand")
        return order3_witness
    if name == "profile":
        real = verify.profile
        return lambda P: real(IntMatrix.identity(P.n))
    return lambda P, Q: None


def check(argv: list, text: str, stdout: str) -> str:
    """Whether a canon or witness result holds for its input."""
    from glnz.cli import parse_matrix_document
    from glnz.exactmat import element_order
    from glnz.involution import canonical_block, is_involution, profile

    # results may exceed the int <-> str digit limit; lifted only to decode
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        M = parse_matrix_document(json.loads(text))
        out = json.loads(stdout)
        decoded = {k: parse_matrix_document(v) for k, v in out.items()
                   if k in ("U", "witness", "product")}
    finally:
        sys.set_int_max_str_digits(limit)
    if argv[0] == "canon":
        U = decoded["U"]
        ok = abs(U.det()) == 1 and M * U == U * canonical_block(*out["profile"])
    else:
        W, product = decoded["witness"], decoded["product"]
        ok = is_involution(W) and profile(W) == profile(M) and product == M * W
        if argv[1] == "--order3":
            ok = ok and element_order(product, 3) == 3
        else:
            ok = ok and profile(product) == profile(canonical_block(M.n - 4, 4, 0))
    return f"check {'ok' if ok else 'FAILED'}"


def without_elapsed(argv: list, code: int, out: str) -> str:
    """stdout, with elapsed_ms dropped from a verify report."""
    if argv[0] != "verify" or code not in (0, 4, 5):
        return out
    report = json.loads(out)
    report.pop("elapsed_ms")
    return json.dumps(report, sort_keys=True)


def run_cli(argv: list, text: str = "") -> tuple[int, str, str]:
    from glnz import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    finally:
        sys.stdin = saved
    return code, stdout.getvalue().strip(), stderr.getvalue().strip()


def document_runs() -> list:
    """(name, JSON text, argvs) of every CLI run that reads a document."""
    commands = (["classify"], ["canon"], ["factor"], ["lift", "--mod2"],
                ["witness", "--order3"], ["witness", "--four"],
                ["gamma", "--m", "2"], ["gamma", "--m", "3"])
    runs = [(name, text, commands) for name, text in documents()]
    runs += [(name, text, (["canon"], ["witness", "--order3"])) for name, text in big_involutions()]
    runs += [(name, text, (["classify"], ["canon"], ["witness", "--order3"], ["gamma", "--m", "2"]))
             for name, text in over_limit_involutions()]
    return runs


def fixed_runs() -> list:
    """argv of every CLI run that reads no document."""
    fixed = [["identities"]] + [["lift", "--row", str(a), str(c)] for a, c in row_pairs()]
    fixed += [["verify", "--suite", s, "--n", str(n), "--trials", str(t), "--seed", "9"]
              for s, n, t in smoke_configs()]
    return fixed


def api_lines() -> list:
    """One line per namespace: the glnz package, then each submodule with
    an ``__all__``."""
    import glnz

    modules = {k: v for k, v in sorted(vars(glnz).items()) if isinstance(v, types.ModuleType)}
    names = sorted(k for k in vars(glnz) if not k.startswith("_") and k not in modules)
    out = [f"api glnz {json.dumps(names)}"]
    out += [f"api glnz.{k} {json.dumps(sorted(m.__all__))}"
            for k, m in modules.items() if hasattr(m, "__all__")]
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    from glnz import verify
    from glnz.verify import run_suite

    for line in api_lines():
        print(line)
    configs = smoke_configs()
    for seed in SEEDS:
        for suite, n, trials in configs:
            report = run_suite(suite, n, trials, seed).to_jsonable()
            report.pop("elapsed_ms")
            print(f"suite {suite} n={n} trials={trials} seed={seed} "
                  f"{json.dumps(report, sort_keys=True)}")

    for name, text, argvs in document_runs():
        for argv in argvs:
            code, out, err = run_cli(argv, text)
            print(f"cli {' '.join(argv)} {name} exit={code} stdout={out} stderr={err}")
            if code == 0 and argv[0] in ("canon", "witness"):
                print(f"cli {' '.join(argv)} {name} {check(argv, text, out)}")
    for argv in fixed_runs():
        code, out, err = run_cli(argv)
        out = without_elapsed(argv, code, out)
        print(f"cli {' '.join(argv)} exit={code} stdout={out} stderr={err}")
    for argv, text in argv_runs():
        code, out, err = run_cli(argv, text)
        out = without_elapsed(argv, code, out)
        print(f"argv {json.dumps(argv)} exit={code} stdout={out} stderr={json.dumps(err)}")

    for name in FAULTS:
        real = getattr(verify, name)
        setattr(verify, name, faulty(name))
        try:
            for suite, n, trials in configs:
                report = run_suite(suite, n, trials, 9).to_jsonable()
                report.pop("elapsed_ms")
                print(f"fault {name} suite {suite} n={n} trials={trials} seed=9 "
                      f"{json.dumps(report, sort_keys=True)}")
        finally:
            setattr(verify, name, real)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads.  Each build function turns a seed into a pool of ops.

An op is a ``call`` that hands generated inputs to the program (the only
part that is timed) and a ``check`` that judges the returned value with
the benchmark's own integer code in ``ints``; ``check`` returns None when
the output is right and a reason otherwise.

Op costs are shaped on purpose.  Within a workload every op draws its
size from a fixed schedule and only the content comes from the seed, so
the cost distribution, and with it throughput and the latency
percentiles, does not move from seed to seed.

Calls look glnz entry points up on their module at call time, so that the
tracer's wrappers, which replace module attributes, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

import ints


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    inputs: Any  # what the program receives, for the input digest


# ---------------------------------------------------------------------------
# suites: one op is one verify.run_suite(suite, n, trials, seed) call
# ---------------------------------------------------------------------------

# (n, trials) per suite.  Ranks go up to the scripts/run_suites.py
# defaults; P1_9 stops at n = 6 because its exhaustive pass over 2^n sign
# matrices alone costs about 0.3 s at n = 7.  Trial counts make each call
# cost about 75 ms on a 2-CPU x86 box with Python 3.11, the fixed cost of
# C2_1_claim1, because a latency percentile over calls of unequal cost is
# dominated by which calls happen to land near it.
SUITE_CONFIGS = {
    "L1_3": ((2, 17), (3, 13), (4, 8), (5, 6), (6, 4)),
    "L1_4_partial": ((5, 26), (6, 20)),
    "L1_5": ((9, 5),),
    "L1_6": ((5, 55),),
    "L1_7": ((3, 37), (4, 34), (5, 30)),
    "P1_8": ((3, 7), (4, 6)),
    "P1_9": ((3, 88), (4, 82), (5, 38), (6, 3)),
    "C2_1_claim1": ((3, 1),),
    "C2_1_claim3": ((3, 32), (4, 18)),
    "MU_SURJ": ((2, 600), (3, 314), (4, 123), (5, 60), (6, 39)),
}


def build_suites(rng: random.Random, glnz) -> list[Op]:
    configs = [(s, n, t) for s in sorted(SUITE_CONFIGS) for n, t in SUITE_CONFIGS[s]]
    ops = []
    for _ in range(12):
        rng.shuffle(configs)
        for suite, n, trials in configs:
            seed = rng.randrange(1 << 31)

            def check(report, args=(suite, n, trials, seed)):
                if (report.suite, report.n, report.trials, report.seed) != args:
                    return "report does not echo its arguments"
                if not report.passed:
                    return f"suite reported {len(report.failures)} failures"
                return None

            ops.append(Op(
                kind=suite,
                call=lambda a=(suite, n, trials, seed): glnz.verify.run_suite(*a),
                check=check,
                inputs=(suite, n, trials, seed),
            ))
    return ops


# ---------------------------------------------------------------------------
# involutions: classify, canonical_form and (p > 0) order3_witness
# ---------------------------------------------------------------------------


def _shapes(n_lo: int, n_hi: int):
    for n in range(n_lo, n_hi + 1):
        for p in range(n // 2 + 1):
            for a in range(n - 2 * p + 1):
                yield a, n - 2 * p - a, p


def _check_canonical(P, U, a, b, p) -> str | None:
    if abs(ints.det(U)) != 1:
        return "canonical basis is not unimodular"
    if ints.matmul(P, U) != ints.matmul(U, ints.canonical_block(a, b, p)):
        return "P U != U B"
    return None


def _check_involution_op(P, shape, out) -> str | None:
    kind, cb, W = out
    a, b, p = shape
    if (kind.name, kind.gamma) != ints.involution_kind(a, b, p):
        return f"classify gave {kind} for profile {shape}"
    prof = cb.profile
    if (prof.a, prof.b, prof.p) != shape:
        return "canonical form has the wrong profile"
    reason = _check_canonical(P, [list(r) for r in cb.U.rows], a, b, p)
    if reason or not p:
        return reason
    W = [list(r) for r in W.rows]
    if not ints.is_identity(ints.matmul(W, W)):
        return "order-3 witness is not an involution"
    PW = ints.matmul(P, W)
    if ints.is_identity(PW) or not ints.is_identity(ints.matmul(PW, ints.matmul(PW, PW))):
        return "P W does not have order three"
    return None


def build_involutions(rng: random.Random, glnz) -> list[Op]:
    IntMatrix = glnz.exactmat.IntMatrix
    shapes = list(_shapes(4, 12))
    rng.shuffle(shapes)
    ops = []
    for a, b, p in shapes:
        n = a + b + 2 * p
        u = ints.Unimodular(n)
        for _ in range(2 * n):
            u.random_step(rng, 3)
        P = u.conjugate(ints.canonical_block(a, b, p))
        M = IntMatrix(tuple(map(tuple, P)))

        def call(M=M, p=p, inv=glnz.involution):
            return inv.classify(M), inv.canonical_form(M), inv.order3_witness(M) if p else None

        ops.append(Op(
            kind=f"n{n}",
            call=call,
            check=lambda out, P=P, s=(a, b, p): _check_involution_op(P, s, out),
            inputs=P,
        ))
    return ops


# ---------------------------------------------------------------------------
# bigint-cli: one in-process glnz.cli.main(argv) call, document on stdin
# ---------------------------------------------------------------------------


def _encode(x: int):
    return x if -(2**63) <= x < 2**63 else str(x)


def _document(M) -> str:
    return json.dumps({"n": len(M), "rows": [[_encode(x) for x in r] for r in M]})


def _cli_call(glnz, argv, text):
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = glnz.cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _check_factor(M, report) -> str | None:
    n = len(M)
    prod = ints.identity(n)
    for f in report["factors"]:
        i, j, c = f["i"], f["j"], int(f["c"])
        for row in prod:  # prod <- prod (I + c E_ij)
            row[j] += c * row[i]
    if prod != M:
        return "factors do not multiply back to the input"
    if report["length"] != len(report["factors"]) or report["round_trip"] is not True:
        return "factor report is inconsistent"
    return None


def _check_classify_word(M, level, report) -> str | None:
    if int(report["det"]) != 1:
        return "determinant of a shear word is not 1"
    if report["is_involution"] != ints.is_identity(ints.matmul(M, M)):
        return "involution flag is wrong"
    if report["is_transvection"] != ints.is_transvection_matrix(M):
        return "transvection flag is wrong"
    levels = report["gamma_levels"]
    if levels != ints.gamma_levels(M) or level not in levels:
        return f"gamma levels {levels} do not contain the built level {level}"
    return None


def _check_classify_transvection(x, delta, report) -> str | None:
    if int(report["det"]) != 1 or report["is_involution"] is not False:
        return "transvection misreported as non-unimodular or involution"
    if report["is_transvection"] is not True:
        return "transvection not recognized"
    lead = next(d for d in delta if d)
    sign = 1 if lead > 0 else -1
    data = report["transvection"]
    m = ints.content(delta)
    if int(data["m"]) != m:
        return f"invariant m = {data['m']}, built with {m}"
    if [int(e) for e in data["x"]] != [sign * e for e in x] or [
        int(e) for e in data["delta"]
    ] != [sign * e for e in delta]:
        return "direction or covector differs from the construction"
    if report["gamma_levels"] != [k for k in range(2, 13) if m % k == 0]:
        return "gamma levels differ from the construction"
    return None


def _check_canon(P, shape, report) -> str | None:
    if report["profile"] != list(shape):
        return f"profile {report['profile']}, built with {list(shape)}"
    U = [[int(e) for e in row] for row in report["U"]["rows"]]
    return _check_canonical(P, U, *shape)


def _check_gamma(level, member, report) -> str | None:
    if report != {"level": level, "member": member}:
        return f"gamma report {report}, built as level {level} member={member}"
    return None


# a 30 s run makes about 1200 ops, so each input recurs about twice
BIGINT_POOL = 600


def _bigint_specs(rng: random.Random):
    """Endless (kind, params) schedule; every size comes from a fixed
    cycle, only the content from rng."""
    word_sizes = [(n, d) for n in (4, 5, 6) for d in (20, 26, 32, 37)]
    canon_sizes = [(n, d) for n in range(6, 11) for d in (15, 18, 21)]
    tv_sizes = [(n, d) for n in (4, 5, 6) for d in (8, 10, 12, 14)]
    k = 0
    while True:
        yield "factor", word_sizes[k % len(word_sizes)]
        yield "classify", word_sizes[(k + 5) % len(word_sizes)]
        yield "canon", canon_sizes[k % len(canon_sizes)]
        yield "classify-tv", tv_sizes[k % len(tv_sizes)]
        yield "gamma", word_sizes[(k + 7) % len(word_sizes)]
        k += 1


def _big_involution(rng: random.Random, n: int, target: int):
    """Non-central involution whose largest entry has at least target
    digits (central ones stay +-I however U grows)."""
    while True:
        p = rng.randint(0, n // 2)
        a = rng.randint(0, n - 2 * p)
        if p or 0 < a < n:
            break
    shape = (a, n - 2 * p - a, p)
    B = ints.canonical_block(*shape)
    u = ints.Unimodular(n)
    while True:
        # the entries of U B U^-1 have at most about as many digits as
        # those of U and U^-1 together, so conjugate only once they can
        # reach the target
        if ints.digits(u.U) + ints.digits(u.Uinv) >= target:
            P = u.conjugate(B)
            if ints.digits(P) >= target:
                return P, shape
        u.random_step(rng, 9)


def build_bigint_cli(rng: random.Random, glnz) -> list[Op]:
    ops = []
    specs = _bigint_specs(rng)
    for _ in range(BIGINT_POOL):
        kind, (n, d) = next(specs)
        if kind == "factor":
            M = ints.shear_word(rng, n, d)
            argv, check = ["factor"], (lambda r, M=M: _check_factor(M, r))
        elif kind == "classify":
            level = rng.randint(2, 6)
            M = ints.shear_word(rng, n, d, level)
            argv = ["classify"]
            check = lambda r, M=M, level=level: _check_classify_word(M, level, r)
        elif kind == "classify-tv":
            M, x, delta = ints.random_transvection(rng, n, d, rng.randint(1, 12))
            argv = ["classify"]
            check = lambda r, x=x, delta=delta: _check_classify_transvection(x, delta, r)
        elif kind == "canon":
            M, shape = _big_involution(rng, n, d)
            argv, check = ["canon"], (lambda r, M=M, s=shape: _check_canon(M, s, r))
        else:
            level = rng.randint(2, 16)
            M = ints.shear_word(rng, n, d, level)
            member = rng.random() < 0.5
            if not member:
                # one shear whose coefficient is a unit mod level breaks
                # the congruence to I
                i, j = rng.sample(range(n), 2)
                M[i] = [a + b for a, b in zip(M[i], M[j])]
            argv = ["gamma", "--m", str(level)]
            check = lambda r, level=level, member=member: _check_gamma(level, member, r)
        text = _document(M)

        def run_check(out, check=check):
            code, stdout = out
            if code != 0:
                return f"exit code {code}"
            return check(json.loads(stdout))

        ops.append(Op(
            kind=kind,
            call=lambda argv=argv, text=text: _cli_call(glnz, argv, text),
            check=run_check,
            inputs=(argv, text),
        ))
    return ops


WORKLOADS = {
    "suites": build_suites,
    "involutions": build_involutions,
    "bigint-cli": build_bigint_cli,
}

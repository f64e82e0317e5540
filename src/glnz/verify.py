"""Seeded randomized verification suites.

Each suite binds one structural claim about involutions, transvections or
congruence subgroups of GL(n, Z) to an executable, replayable check.
Reports are deterministic functions of (suite, n, trials, seed) apart from
the wall-clock field; failures carry the trial's whole sample and a
category: counterexample, postcondition (a library self-check) or crash.

Every suite is a sampler, which makes all of a trial's rng draws and
returns the sample by name, and a checker, which draws nothing and raises
on failure; one trial loop runs them.  Sampling never leaves the intended
conjugacy class: every random element is a seeded unimodular conjugate of
an explicit canonical matrix, and the sampler asserts the preserved
profile.
"""

from __future__ import annotations

import operator
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .congruence import in_gamma, lift_mod2, lift_row_to_sl3
from .congruence import braid_involution_solutions, commutator_identities, unipotent_sqrt_sl2
from .exactmat import (
    IntMatrix,
    Lattice,
    Vector,
    _conjugates,
    _draws,
    _identity_rows,
    _mod2_echelon,
    _random_word,
    _rank_update,
    _shear_word,
    _trusted,
    _xgcd,
    content_and_primitive,
    element_order,
    random_unimodular,
    rational_rank,
)
from .involution import (
    EXTREMAL,
    GAMMA_INVOLUTION,
    ONE_PERMUTATION,
    InvolutionKind,
    _involution_profile,
    canonical_block,
    classify,
    four_involution_witness,
    order3_witness,
    profile,
    standard_commuting_family,
)
from .transvection import _is_even_transvection, mutual_subgroup, recognize_transvection
from .transvection import shared_summand_predicate

__all__ = ["SUITE_IDS", "SuiteReport", "run_suite"]


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    n: int
    trials: int
    seed: int
    window: str
    failures: tuple[dict, ...]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "window": self.window,
            "passed": self.passed,
            "failures": list(self.failures),
            "elapsed_ms": self.elapsed_ms,
        }


class _TrialFailure(Exception):
    """The claim under test failed on the trial's sample: a counterexample.
    Only checkers raise it; a sampler's self-check raises RuntimeError."""


def _jsonable(value):
    """A sampled value as JSON: a matrix as its rows, a sequence element by
    element."""
    if isinstance(value, IntMatrix):
        return [list(r) for r in value.rows]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _run_trials(indices: Iterable[int], sample: Callable, check: Callable) -> list[dict]:
    """Run check(t, **sample(t)) for every trial index t.  A failure record
    keeps the whole sample and a category; later trials still run."""
    failures = []
    for t in indices:
        drawn: dict = {}
        try:
            drawn = sample(t)
            check(t, **drawn)
            continue
        except _TrialFailure as exc:
            category, reason = "counterexample", str(exc)
        except RuntimeError as exc:  # a library or sampler self-check failed
            category, reason = "postcondition", str(exc)
        except Exception as exc:
            category, reason = "crash", str(exc)
        failures.append({
            "trial": t,
            "reason": reason,
            "category": category,
            "inputs": {k: _jsonable(v) for k, v in drawn.items()},
        })
    return failures


def _rand_word(below: Callable[[int], int], n: int, word_length: int = 8) -> list[tuple]:
    """The word of a seeded random unimodular U: one draw, its seed."""
    return _random_word(n, word_length, 2, below(1 << 30))


def _sample_involution(
    below: Callable[[int], int], n: int, a: int, b: int, p: int, word_length: int = 8
) -> IntMatrix:
    """Seeded unimodular conjugate of the canonical (a, b, p) involution;
    the preserved profile is asserted."""
    (P,) = _conjugates(_rand_word(below, n, word_length), [canonical_block(a, b, p)])
    prof = profile(P)
    if (prof.a, prof.b, prof.p) != (a, b, p):
        raise RuntimeError("conjugation did not preserve the profile")
    return P


def _embed2(block: IntMatrix, n: int) -> IntMatrix:
    """The top-left 2x2 block of block, (+) identity on the remaining
    n - 2 coordinates."""
    identity = _identity_rows(n)
    return _trusted(tuple(block.rows[i][:2] + identity[i][2:] for i in range(2)) + identity[2:])


def _reflection(line, covector) -> IntMatrix:
    """I - 2 line covector: the extremal involution negating line and
    fixing ker covector.  covector . line == 1 is checked; it gives Q^2 = I
    and Z^n = Z line (+) ker covector."""
    if sum(map(operator.mul, line, covector)) != 1:
        raise RuntimeError("reflection covector does not take 1 on its line")
    return _rank_update(IntMatrix.identity(len(line)), tuple(zip(line)), ((-2,),), (covector,))


# --------------------------------------------------------------------------
# suites: each takes (n, rng), computes its fixed data once and
# returns (sample, check)
# --------------------------------------------------------------------------


def _suite_order3(n: int, rng: random.Random) -> tuple[Callable, Callable]:
    """Order-three products: constructive witness for non-diagonalizable
    involutions; never order three for products of two conjugates of a
    sign-diagonalizable involution (each trial samples five such pairs)."""
    below, _ = _draws(rng)

    def sample(t: int) -> dict:
        p = 1 + below(n // 2)
        rem = n - 2 * p
        a = below(rem + 1)
        P = _sample_involution(below, n, a, rem - a, p)
        pairs = []
        for _ in range(5):
            D = IntMatrix.diagonal([(1, -1)[below(2)] for _ in range(n)])
            pairs.append(tuple(_conjugates(_rand_word(below, n), [D])[0] for _ in range(2)))
        return {"P": P, "pairs": pairs}

    def check(t: int, P: IntMatrix, pairs) -> None:
        # the witness's postcondition checks that P * witness has order three
        order3_witness(P)
        for phi1, phi2 in pairs:
            if element_order(phi1 * phi2, 3) == 3:
                raise _TrialFailure("product of diagonalizable conjugates has order three")

    return sample, check


def _suite_two_involution_products(n: int, rng: random.Random) -> tuple[Callable, Callable]:
    """Products of two conjugates of an extremal involution: whenever the
    product is an involution it negates exactly two basis directions.
    Constructive half: an involution fixing a minimal-rank summand and
    negating an even-rank one is a square (rotation blocks)."""
    # square-root branch: even negated rank, smallest fixed rank
    a = 1 if (n - 1) % 2 == 0 else 2
    b = n - a
    rho0 = IntMatrix.diagonal([1] * a + [-1] * b)
    # each swap block times diag(1, -1) is the rotation [[0, -1], [1, 0]]
    sigma0 = canonical_block(a, 0, b // 2) * IntMatrix.diagonal([1] * a + [1, -1] * (b // 2))

    flips = standard_commuting_family(n)
    below, pick = _draws(rng)

    def sample(t: int) -> dict:
        # U (I - 2 e_k e_k^T) U^-1: coordinate reflections conjugated by U
        if t % 2 == 0:  # two coordinates, one basis
            word = _rand_word(below, n)
            phi1, phi2 = _conjugates(word, [flips[k] for k in pick(n, 2)])
        else:  # the last coordinate, two bases
            phi1, phi2 = (_conjugates(_rand_word(below, n), [flips[-1]])[0] for _ in range(2))
        for phi in (phi1, phi2):
            if classify(phi).name != EXTREMAL:
                raise RuntimeError("sample left the extremal class")
        rho, sigma = _conjugates(_rand_word(below, n), [rho0, sigma0])
        return {"phi1": phi1, "phi2": phi2, "rho": rho, "sigma": sigma}

    def check(t: int, phi1: IntMatrix, phi2: IntMatrix, rho: IntMatrix, sigma: IntMatrix) -> None:
        prod = phi1 * phi2
        prof = None if prod.is_identity() else _involution_profile(prod)
        if prof is not None and prof.kind != InvolutionKind(GAMMA_INVOLUTION, 2):
            raise _TrialFailure("involution in the product set is not a 2-involution")
        if sigma * sigma != rho:
            raise _TrialFailure("rotation construction is not a square root")

    return sample, check


def _suite_four_involutions(n: int, rng: random.Random) -> tuple[Callable, Callable]:
    """Products of two conjugates of a single-swap involution with a rank-1
    eigen-summand never negate four independent directions (the defect of
    the product has rational rank at most 2); for every other
    non-diagonalizable involution the constructive witness does produce a
    4-involution."""
    identity = IntMatrix.identity(n)
    below, _ = _draws(rng)

    def sample(t: int) -> dict:
        # negated rank 1 on even trials, fixed rank 1 on odd ones
        shape = (n - 2, 0, 1) if t % 2 == 0 else (0, n - 2, 1)
        pi1 = _sample_involution(below, n, *shape, word_length=6)
        pi2 = _sample_involution(below, n, *shape, word_length=6)
        # an involution eligible for the constructive witness
        p = 1 + below(3)
        rem = n - 2 * p
        a = 1 + below(rem - 1) if p == 1 else below(rem + 1)
        return {"pi1": pi1, "pi2": pi2, "P": _sample_involution(below, n, a, rem - a, p)}

    def check(t: int, pi1: IntMatrix, pi2: IntMatrix, P: IntMatrix) -> None:
        prod = pi1 * pi2
        if rational_rank(identity - prod) > 2:
            raise _TrialFailure("defect of the product exceeds rank two")
        prof = None if prod.is_identity() else _involution_profile(prod)
        if prof is not None and prof.kind == InvolutionKind(GAMMA_INVOLUTION, 4):
            raise _TrialFailure("product of single-swap conjugates is a 4-involution")
        # the witness's postcondition checks that P * witness is a 4-involution
        four_involution_witness(P)
        if t % 10 == 0:
            try:
                four_involution_witness(pi1)
            except ValueError:
                pass
            else:
                raise _TrialFailure("witness accepted a single-swap involution")

    return sample, check


def _random_2x2_involution(rng: random.Random) -> IntMatrix:
    below, _ = _draws(rng)
    a = below(9) - 4
    rest = 1 - a * a
    if rest == 0:
        # rng.random() < 0.5 as an exact draw (see exactmat._random_word)
        if rng.getrandbits(64) & 0xFFFFFFFF < 1 << 31:
            b, c = 0, below(11) - 5
        else:
            b, c = below(11) - 5, 0
    else:
        divisors = [d for d in range(1, abs(rest) + 1) if rest % d == 0]
        b = divisors[below(len(divisors))] * (1, -1)[below(2)]
        c = rest // b
    return IntMatrix(((a, b), (c, -a)))


def _suite_commutant_shape(n: int, rng: random.Random) -> tuple[Callable, Callable]:
    """Commutant of a fixed 2-transvection inside the products of the base
    extremal involution with involutions preserving the negated plane:
    exactly the elements whose 2x2 block is [[e, b], [0, e]], whose squares
    [[1, 2b], [0, 1]] realize every even transvection invariant."""
    phi = _embed2(IntMatrix.diagonal((1, -1)), n)
    theta = _embed2(IntMatrix.diagonal((-1, -1)), n)
    tau = _embed2(IntMatrix(((1, 2), (0, 1))), n)
    below, _ = _draws(rng)

    def sample(t: int) -> dict:
        if t % 2 == 0:
            e = (1, -1)[below(2)]
            block = IntMatrix(((e, below(13) - 6), (0, -e)))
        else:
            block = _random_2x2_involution(rng)
        return {"rho": _embed2(block, n)}

    def check(t: int, rho: IntMatrix) -> None:
        prof = profile(rho)
        if rho * theta != theta * rho or prof != profile(theta * rho):
            raise _TrialFailure("sample does not properly commute with the base")
        if prof.kind.name not in (EXTREMAL, ONE_PERMUTATION):
            raise _TrialFailure("sample is neither extremal nor a single swap")
        s = phi * rho
        commutes = s * tau == tau * s
        upper = (
            s.rows[1][0] == 0
            and s.rows[0][0] == s.rows[1][1]
            and abs(s.rows[0][0]) == 1
        )
        if commutes != upper:
            raise _TrialFailure("commutant shape criterion failed")
        if commutes:
            e, bb = s.rows[0][0], s.rows[0][1]
            square = s * s
            if square != _embed2(IntMatrix(((1, 2 * e * bb), (0, 1))), n):
                raise _TrialFailure("square of a commutant element has the wrong form")
            if bb:
                data = recognize_transvection(square)
                if data is None or data.m != 2 * abs(bb):
                    raise _TrialFailure("square is not an even transvection")

    return sample, check


def _suite_shared_summand(n: int, rng: random.Random) -> tuple[Callable, Callable]:
    """Two distinct extremal involutions share an eigen-summand exactly
    when their product is a transvection of even invariant; the invariant
    is twice the content of the connecting coefficient vector."""
    e0, zero = _identity_rows(n)[0], (0,) * (n - 2)
    reflect_e0 = _reflection(e0, e0)
    below, _ = _draws(rng)

    def sample(t: int) -> dict:
        word = _rand_word(below, n)
        coeffs = [below(7) - 3 for _ in range(n - 1)]
        if not any(coeffs):
            coeffs[below(n - 1)] = 1 + below(3)
        kind = t % 3
        if kind == 0:  # shared fixed hyperplane, distinct negated lines
            R = _reflection((1, *coeffs), e0)
        elif kind == 1:  # shared negated line, distinct fixed hyperplanes
            R = _reflection(e0, (1, *(-c for c in coeffs)))
        else:  # neither side shared: line e0 + e1, covector 2 e1 - e0
            R = _reflection((1, 1, *zero), (-1, 2, *zero))
        P, Q = _conjugates(word, [reflect_e0, R])
        return {"U": _shear_word(n, word), "coeffs": coeffs, "P": P, "Q": Q}

    def check(t: int, U: IntMatrix, coeffs, P: IntMatrix, Q: IntMatrix) -> None:
        # mutual_subgroup checks that P and Q are extremal, and for a shared
        # summand that Q P is a transvection of even invariant, product_m
        result = mutual_subgroup(P, Q)
        if t % 3 == 2:
            if result is not None:
                raise _TrialFailure("summand reported for a disjoint pair")
            if _is_even_transvection(Q * P):
                raise _TrialFailure("disjoint pair with an even-transvection product")
            return
        if result is None:
            raise _TrialFailure("shared summand missed")
        cols = U.columns()
        expected = ("plus", Lattice(n, cols[1:])) if t % 3 == 0 else ("minus", Lattice(n, cols[:1]))
        if (result.side, result.shared) != expected:
            raise _TrialFailure("wrong shared summand")
        if result.product_m != 2 * content_and_primitive(coeffs)[0]:
            raise _TrialFailure("product invariant differs from construction")

    return sample, check


def _suite_summand_encoding(n: int, rng: random.Random) -> tuple[Callable, Callable]:
    """Pairs of extremal involutions encode direct summands: two pairs
    determine the same summand exactly when every cross product is an
    equality or an even transvection."""
    identity = _identity_rows(n)
    below, _ = _draws(rng)

    def sample(t: int) -> dict:
        word = _rand_word(below, n)

        def distinct_coeffs():
            seen: dict = {}
            while len(seen) < 4:
                seen.setdefault(tuple(below(5) - 2 for _ in range(n - 1)))
            return list(seen)

        c1, c2, c3, c4 = distinct_coeffs()
        s1, s2, s3, s4 = distinct_coeffs()
        # hyperplane side: line e_base + c on the other coordinates, fixed
        # hyperplane ker e_base; line side: line e0, covector e0 - s
        lines = ((0, c1), (0, c2), (0, c3), (0, c4), (1, c1), (1, c2))
        reflections = [_reflection((*c[:base], 1, *c[base:]), identity[base]) for base, c in lines]
        reflections += [_reflection(identity[0], (1, *(-x for x in s))) for s in (s1, s2, s3, s4)]
        conj = iter(_conjugates(word, reflections))
        return dict(zip(("pair_a", "pair_b", "pair_c", "pair_d", "pair_e"), zip(conj, conj)))

    def check(t: int, pair_a, pair_b, pair_c, pair_d, pair_e) -> None:
        if not shared_summand_predicate(pair_a, pair_b):
            raise _TrialFailure("pairs encoding one hyperplane were separated")
        if shared_summand_predicate(pair_a, pair_c):
            raise _TrialFailure("pairs encoding different hyperplanes were identified")
        # line-side encodings
        if not shared_summand_predicate(pair_d, pair_e):
            raise _TrialFailure("pairs encoding one line were separated")
        if t % 7 == 0:
            try:
                shared_summand_predicate(pair_a, pair_d)
            except ValueError:
                pass
            else:
                raise _TrialFailure("side mismatch was not rejected")

    return sample, check


def _suite_commuting_family(n: int, rng: random.Random) -> tuple[Callable, Callable]:
    """The n coordinate-negating involutions form a maximal commuting
    family of extremal involutions: exhaustively over sign matrices, and
    by rejection of random conjugates, its extremal centralizer is itself.
    The exhaustive pass is trial -1 and samples nothing."""
    family = standard_commuting_family(n)
    below, _ = _draws(rng)

    def sample(t: int) -> dict:
        if t < 0:
            return {}
        p = below(n // 2 + 1)
        rem = n - 2 * p
        a = below(rem + 1)
        return {"P": _sample_involution(below, n, a, rem - a, p)}

    def check(t: int, P: IntMatrix | None = None) -> None:
        if t >= 0:
            if all(P * f == f * P for f in family) and classify(P).name == EXTREMAL:
                if P not in family:
                    raise _TrialFailure(
                        "extremal involution commutes with the family but is not in it"
                    )
            return
        if len(family) != n:
            raise _TrialFailure("family has the wrong size")
        # a member commutes with every sign matrix exactly when it is diagonal
        if any(f != IntMatrix.diagonal([f.rows[i][i] for i in range(f.n)]) for f in family):
            raise _TrialFailure("sign matrix fails to commute with the family")
        members = 0
        for mask in range(1 << n):
            D = IntMatrix.diagonal([(-1 if (mask >> i) & 1 else 1) for i in range(n)])
            if classify(D).name == EXTREMAL:
                members += 1
                if D not in family:
                    raise _TrialFailure("extremal sign matrix outside the family")
        if members != n:
            raise _TrialFailure("wrong number of extremal sign matrices")

    return sample, check


def _suite_rank3_identities(n: int, rng: random.Random) -> tuple[Callable, Callable]:
    """Exact rank-2 and rank-3 identities: braid-relation involutions and
    their transvection squares, unipotent square roots, and the commutator
    discrimination of the unit shear."""

    def check(t: int) -> None:
        commutator_identities()
        roots = unipotent_sqrt_sl2(IntMatrix(((1, 2), (0, 1))))
        shear = IntMatrix(((1, 1), (0, 1)))
        if set(roots) != {shear, -shear}:
            raise _TrialFailure("unexpected square roots of the double shear")
        D = IntMatrix.diagonal((1, -1))
        for R in braid_involution_solutions():
            data = recognize_transvection((D * R) ** 2)
            if data is None or data.m != 2:
                raise _TrialFailure("braid solution square is not a 2-transvection")
            if profile(R) != profile(IntMatrix(((0, 1), (1, 0)))):
                raise _TrialFailure("braid solution is not swap-conjugate")

    return lambda t: {}, check


def _random_gamma2(rng: random.Random, n: int, length: int = 10) -> tuple[IntMatrix, IntMatrix]:
    """A level-2 element as a word of even shears, and its inverse: the
    reversed word with negated coefficients."""
    below, pick = _draws(rng)
    word = [(*pick(n, 2), 2 * (1 + below(2)) * (1, -1)[below(2)]) for _ in range(length)]
    return _shear_word(n, word), _shear_word(n, [(i, j, -c) for i, j, c in reversed(word)])


def _line_mover(target: Vector, i: int, n: int, power: int) -> IntMatrix:
    """For power 1 a level-2 element of determinant 1 sending e_i to the
    primitive vector target = e_i mod 2, for power -1 its inverse: V C^power
    V^-1 = I + [e_i, g] (C^power - I) R, for g the even remainder direction,
    C the row completion in the plane of e_i and g, and R the rows e_i and
    w, with w g = 1 and w_i = 0 from a running xgcd.  R [e_i, g] = I_2, so
    R is the top of V^-1 for V = [e_i, g, a basis of ker R]."""
    a = target[i]
    rest = [x if t != i else 0 for t, x in enumerate(target)]
    if not any(rest):
        # target = a e_i with a = +-1; the same sign on e_{i+1} keeps det 1
        return IntMatrix.diagonal([a if r in (i, (i + 1) % n) else 1 for r in range(n)])
    c2, g = content_and_primitive(rest)
    w, h = [], 0  # w g[:len(w)] = h; w_i = 0 as g_i = 0
    for x in g:
        h, s, t = _xgcd(h, x)
        w = [s * v for v in w] + [t]
    e_i = _identity_rows(n)[i]
    (a, b, _), (c, d, _), _ = lift_row_to_sl3(a, c2).rows
    core = ((a - 1, b), (c, d - 1)) if power == 1 else ((d - 1, -b), (-c, a - 1))
    return _rank_update(IntMatrix.identity(n), tuple(zip(e_i, g)), core, (e_i, w))


def _suite_congruence_summands(n: int, rng: random.Random) -> tuple[Callable, Callable]:
    """Level-2 congruence membership through rank-1 and corank-1 summands:
    a member moves every coordinate line and hyperplane exactly like a
    constructed level-2 element; a non-member breaks the parity pattern of
    the coefficients on some coordinate pair."""
    below, _ = _draws(rng)

    def sample(t: int) -> dict:
        sigma, sigma_inv = _random_gamma2(rng, n)
        if not in_gamma(sigma, 2):
            raise RuntimeError("sampled element is not a level-2 member")
        outside = random_unimodular(n, 8, 2, below(1 << 30))
        if in_gamma(outside, 2):
            outside = outside * IntMatrix.elementary(n, 0, 1, 1)
        return {"sigma": sigma, "sigma_inv": sigma_inv, "outside": outside}

    def check(t: int, sigma: IntMatrix, sigma_inv: IntMatrix, outside: IntMatrix) -> None:
        w_sigma = (sigma_inv * sigma).rows  # row i is w sigma for w = sigma_inv.rows[i]
        for i in range(n):
            mover = _line_mover(sigma.column(i), i, n, 1)
            if mover.column(i) != sigma.column(i):
                raise _TrialFailure("line mover misses the image vector")
            if mover.det() != 1 or not mover.mod(2).is_identity():
                raise _TrialFailure("line mover leaves the congruence subgroup")
            # rho, the transpose of rho_t, moves the hyperplane H_i = ker e_i^T
            w = sigma_inv.rows[i]
            rho_t = _line_mover(w, i, n, -1)
            if rho_t.det() != 1 or not rho_t.mod(2).is_identity():
                raise _TrialFailure("hyperplane mover leaves the congruence subgroup")
            # sigma and rho are unimodular, so sigma H_i and rho H_i are
            # saturated of rank n - 1, and equal once both lie in ker w, w != 0
            w_rho = rho_t.apply(w)
            if not any(w) or any(w_sigma[i][j] or w_rho[j] for j in range(n) if j != i):
                raise _TrialFailure("hyperplane images differ")
        if outside.mod(2).is_identity():
            raise _TrialFailure("non-member shows no parity violation")

    return sample, check


def _suite_mod2_lifting(n: int, rng: random.Random) -> tuple[Callable, Callable]:
    """Every invertible matrix over GF(2) lifts to SL(n, Z) with the exact
    mod-2 reduction."""

    below, _ = _draws(rng)

    def sample(t: int) -> dict:
        while True:  # only the accepted rows are wrapped
            rows = tuple(tuple([below(2) for _ in range(n)]) for _ in range(n))
            if len(_mod2_echelon(rows)[0]) == n:
                return {"Mbar": _trusted(rows)}

    def check(t: int, Mbar: IntMatrix) -> None:
        # the postcondition of lift_mod2 checks det 1 and the mod-2 reduction
        lift_mod2(Mbar)

    return sample, check


# suite id -> (suite, trial indices from the trial count, n_min, n_max, window)
_SUITES: dict[str, tuple[Callable, Callable[[int], range], int, int | None, str]] = {
    "L1_3": (_suite_order3, range, 2, None,
             "n >= 2; order-three products are impossible for sign-diagonalizable involutions"),
    "L1_4_partial": (_suite_two_involution_products, range, 5, None,
                     "n >= 5; 2-involutions need negated rank 2 below fixed rank; "
                     "square-root branch uses the smallest fixed rank of matching parity"),
    "L1_5": (_suite_four_involutions, range, 9, None,
             "n >= 9; a 4-involution needs negated rank 4 below fixed rank"),
    "L1_6": (_suite_commutant_shape, range, 5, None,
             "n >= 5; the rank-2 negated base involution needs fixed rank above 2"),
    "L1_7": (_suite_shared_summand, range, 3, None,
             "n >= 3; extremal involutions need negated rank 1 below fixed rank"),
    "P1_8": (_suite_summand_encoding, range, 3, None, "n >= 3"),
    # the exhaustive pass runs once, before the trials, as trial -1
    "P1_9": (_suite_commuting_family, lambda trials: range(-1, trials), 3, 16,
             "3 <= n <= 16; exhaustive pass over all sign matrices"),
    # fixed identities: one trial, whatever the trial count
    "C2_1_claim1": (_suite_rank3_identities, lambda trials: range(1), 3, 3,
                    "n == 3; fixed rank-2 and rank-3 identity checks"),
    "C2_1_claim3": (_suite_congruence_summands, range, 3, None, "n >= 3"),
    "MU_SURJ": (_suite_mod2_lifting, range, 1, None, "n >= 1"),
}

SUITE_IDS = tuple(sorted(_SUITES))


def run_suite(suite_id: str, n: int, trials: int, seed: int) -> SuiteReport:
    """Run one verification suite; deterministic apart from elapsed_ms."""
    if suite_id not in _SUITES:
        raise ValueError(f"unknown suite id: {suite_id!r}")
    build, indices, n_min, n_max, window = _SUITES[suite_id]
    n, trials, seed = operator.index(n), operator.index(trials), operator.index(seed)
    if n < n_min or (n_max is not None and n > n_max):
        raise ValueError(f"n out of range for suite {suite_id}: {window}")
    if trials < 1:
        raise ValueError("trials must be positive")
    start = time.perf_counter()
    failures = _run_trials(indices(trials), *build(n, random.Random(seed)))
    elapsed = int((time.perf_counter() - start) * 1000)
    return SuiteReport(
        suite=suite_id,
        n=n,
        trials=trials,
        seed=seed,
        window=window,
        failures=tuple(failures),
        elapsed_ms=elapsed,
    )

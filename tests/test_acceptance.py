"""Acceptance gate: every advertised guarantee checked at its stated
budget, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured times.
"""

import random
import time
from contextlib import contextmanager

from glnz.congruence import (
    braid_involution_solutions,
    commutator_identities,
    elementary_factorization,
    in_gamma,
    lift_mod2,
    lift_row_to_sl3,
    unipotent_sqrt_sl2,
)
from glnz.exactmat import (
    IntMatrix,
    random_elementary_word,
    random_unimodular,
    rank_mod2,
    summand_index,
)
from glnz.involution import (
    EXTREMAL,
    canonical_block,
    canonical_form,
    classify,
    eigen_lattices,
    profile,
    standard_commuting_family,
)
from glnz.transvection import recognize_transvection
from glnz.verify import run_suite

SEED = 20250810


@contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"{name}: PASS ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{name} exceeded its time budget: {elapsed:.2f}s"


def test_c01_braid_involution_solutions_exact_and_complete():
    with criterion("C01 braid-relation involutions", 1.0):
        expected = {
            IntMatrix(((1, 0), (-1, -1))),
            IntMatrix(((-1, 0), (-1, 1))),
            IntMatrix(((1, -1), (0, -1))),
            IntMatrix(((-1, -1), (0, 1))),
        }
        assert set(braid_involution_solutions()) == expected
        # independent bounded search: trace 0 and determinant -1 pin
        # c = (1 - a^2)/b, so the box [-50, 50] is covered exactly
        swap = IntMatrix(((0, 1), (1, 0)))
        found = set()
        for a in range(-50, 51):
            rest = 1 - a * a
            pairs = []
            if rest == 0:
                pairs += [(0, c) for c in range(-50, 51)]
                pairs += [(b, 0) for b in range(-50, 51)]
            else:
                for b in range(-50, 51):
                    if b and rest % b == 0 and abs(rest // b) <= 50:
                        pairs.append((b, rest // b))
            for b, c in pairs:
                R = IntMatrix(((a, b), (c, -a)))
                if R != swap and swap * R * swap == R * swap * R and R.det() == -1:
                    found.add(R)
        assert found == expected


def test_c02_braid_squares_are_two_transvections():
    with criterion("C02 braid squares", 1.0):
        D = IntMatrix.diagonal((1, -1))
        for R in braid_involution_solutions():
            e = R.rows[0][0]
            square = (D * R) ** 2
            if R.rows[1][0] != 0:  # lower family [[e, 0], [-1, -e]]
                assert square == IntMatrix(((1, 0), (2 * e, 1)))
            else:  # upper family [[e, -1], [0, -e]]
                assert square == IntMatrix(((1, -2 * e), (0, 1)))
            data = recognize_transvection(square)
            assert data is not None and data.m == 2


def test_c03_unipotent_square_roots_complete():
    with criterion("C03 unipotent square roots", 5.0):
        T = IntMatrix(((1, 2), (0, 1)))
        shear = IntMatrix(((1, 1), (0, 1)))
        assert set(unipotent_sqrt_sl2(T)) == {shear, -shear}
        # bounded completeness: X^2 = T forces b(a+d) = 2 and a^2 + bc = 1,
        # so (a, b) sweep the box and (c, d) are derived then reverified
        found = set()
        for a in range(-100, 101):
            for b in range(-100, 101):
                if b == 0:
                    for c in range(-100, 101):
                        X = IntMatrix(((a, 0), (c, a)))
                        if abs(a) <= 100 and X * X == T:
                            found.add(X)
                    continue
                if 2 % b:
                    continue
                d = 2 // b - a
                if abs(d) > 100 or (1 - a * a) % b:
                    continue
                c = (1 - a * a) // b
                if abs(c) > 100:
                    continue
                X = IntMatrix(((a, b), (c, d)))
                if X * X == T:
                    found.add(X)
        assert found == {shear, -shear}


def test_c04_commutator_identities():
    with criterion("C04 rank-3 commutator identities", 1.0):
        report = commutator_identities()
        first = IntMatrix(((1, 0, 1), (0, 1, 0), (0, 0, 1)))
        second = IntMatrix(((1, 2, -3), (0, 1, -2), (0, 0, 1)))
        assert report.commutators[0] == first and report.commutators[1] == first
        assert report.commutators[2] == second and report.commutators[3] == second
        assert report.candidate_has_minus_one == (False, True, True, True)
        assert report.commutator_has_minus_one == (False, False, False, False)


def test_c05_shared_summand_suite_all_ranks():
    with criterion("C05 shared eigen-summand suite, n = 3..6 x 1000", 30.0):
        for n in (3, 4, 5, 6):
            report = run_suite("L1_7", n, 1000, SEED + n)
            assert report.passed, report.failures[:1]


def test_c06_order_three_suite():
    with criterion("C06 order-three products suite", 30.0):
        # each trial runs one witness construction and five sampled
        # diagonalizable conjugate products: 200 witnesses, 1000 products
        for n, trials in ((5, 100), (8, 100)):
            report = run_suite("L1_3", n, trials, SEED + n)
            assert report.passed, report.failures[:1]


def test_c07_four_involution_suite():
    with criterion("C07 four-involution suite, n = 9, 10", 60.0):
        # each trial checks one sampled single-swap conjugate pair and one
        # constructive witness: 1000 pairs and 1000 witnesses in total
        for n in (9, 10):
            report = run_suite("L1_5", n, 500, SEED + n)
            assert report.passed, report.failures[:1]


def test_c08_factorization_round_trip_with_length_report():
    with criterion("C08 shear factorization round trip x 1000", 60.0):
        rng = random.Random(SEED)
        lengths = []
        for _ in range(1000):
            n = rng.randint(2, 5)
            word_length = rng.randint(1, 30)
            M = random_elementary_word(n, word_length, 3, rng.randrange(1 << 30))
            F = elementary_factorization(M)
            assert F.product() == M
            lengths.append(len(F))
        lengths.sort()
        print(
            "    factor lengths: min={} median={} mean={:.1f} max={}".format(
                lengths[0],
                lengths[len(lengths) // 2],
                sum(lengths) / len(lengths),
                lengths[-1],
            )
        )


def test_c09_mod2_lift_exhaustive():
    with criterion("C09 exhaustive mod-2 lifting", 5.0):
        import itertools

        for n, expected in ((2, 6), (3, 168)):
            count = 0
            for bits in itertools.product((0, 1), repeat=n * n):
                rows = tuple(tuple(bits[i * n : (i + 1) * n]) for i in range(n))
                Mbar = IntMatrix(rows)
                if rank_mod2(Mbar) != n:
                    continue
                count += 1
                lifted = lift_mod2(rows)
                assert lifted.det() == 1 and lifted.mod(2) == Mbar
            assert count == expected


def test_c10_row_lift_and_congruence_suite():
    with criterion("C10 odd/even row lifts and congruence suite", 30.0):
        from math import gcd

        rng = random.Random(SEED)
        done = 0
        while done < 1000:
            a = 2 * rng.randint(-500, 500) + 1
            c = 2 * rng.randint(-500, 500)
            if gcd(a, c) != 1:
                continue
            M = lift_row_to_sl3(a, c)
            assert M.det() == 1 and in_gamma(M, 2)
            assert M.rows[0][0] == a and M.rows[1][0] == c
            done += 1
        report = run_suite("C2_1_claim3", 4, 200, SEED)
        assert report.passed, report.failures[:1]


def test_c11_canonical_form_random_conjugates():
    with criterion("C11 canonical form x 1000, n <= 8", 60.0):
        rng = random.Random(SEED)
        for _ in range(1000):
            n = rng.randint(2, 8)
            p = rng.randint(0, n // 2)
            rem = n - 2 * p
            a = rng.randint(0, rem)
            seed_matrix = canonical_block(a, rem - a, p)
            U = random_unimodular(n, 8, 2, rng.randrange(1 << 30))
            P = U * seed_matrix * U.inverse()
            cb = canonical_form(P)
            assert abs(cb.U.det()) == 1
            assert cb.U.inverse() * P * cb.U == cb.block_matrix()
            prof = cb.profile
            assert (prof.a, prof.b, prof.p) == (a, rem - a, p)
            assert profile(P) == prof  # conjugation invariance
            plus, minus = eigen_lattices(P)
            assert plus.rank == prof.a + prof.p
            assert minus.rank == prof.b + prof.p
            assert profile(P).p == prof.p
            if plus.rank and minus.rank:
                assert summand_index(plus, minus) == 2**prof.p


def test_c12_commuting_family_exhaustive():
    with criterion("C12 coordinate-negating family, n <= 10", 10.0):
        for n in range(3, 11):
            family = standard_commuting_family(n)
            assert len(family) == n
            extremal_members = 0
            for mask in range(1 << n):
                signs = [(-1 if (mask >> i) & 1 else 1) for i in range(n)]
                D = IntMatrix.diagonal(signs)
                assert all(D * f == f * D for f in family)
                if classify(D).name == EXTREMAL:
                    extremal_members += 1
                    assert D in family
            assert extremal_members == n
        report = run_suite("P1_9", 10, 100, SEED)
        assert report.passed, report.failures[:1]

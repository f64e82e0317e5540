import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glnz import exactmat
from glnz.congruence import (
    Factorization,
    braid_involution_solutions,
    commutator_identities,
    elementary_factorization,
    in_gamma,
    lift_mod2,
    lift_row_to_sl3,
    unipotent_sqrt_sl2,
)
from glnz.exactmat import IntMatrix, _mod2_reduction, random_elementary_word, rank_mod2
from glnz.involution import profile
from glnz.transvection import recognize_transvection

from helpers import determinant_not_one_inputs


class TestInGamma:
    def test_identity_in_every_level(self):
        for m in range(2, 8):
            assert in_gamma(IntMatrix.identity(3), m)

    def test_level_two_examples(self):
        assert in_gamma(IntMatrix(((3, 4), (2, 3))), 2)
        assert not in_gamma(IntMatrix(((1, 1), (0, 1))), 2)

    def test_rejects_non_automorphism(self):
        with pytest.raises(ValueError):
            in_gamma(IntMatrix(((2, 0), (0, 1))), 2)

    def test_level_must_be_integral(self):
        with pytest.raises(TypeError):
            in_gamma(IntMatrix.identity(2), 2.5)
        with pytest.raises(TypeError):
            in_gamma(IntMatrix.identity(2), 2.0)
        with pytest.raises(ValueError, match="level"):
            in_gamma(IntMatrix.identity(2), True)

    def test_subgroup_closure_under_sampling(self):
        rng = random.Random(31)
        members = []
        for _ in range(40):
            M = IntMatrix.identity(3)
            for _ in range(8):
                i, j = rng.sample(range(3), 2)
                M = M * IntMatrix.elementary(3, i, j, 2 * rng.randint(-2, 2) or 2)
            members.append(M)
        for _ in range(500):
            A, B = rng.choice(members), rng.choice(members)
            assert in_gamma(A * B, 2)
            assert in_gamma(A.inverse(), 2)


class TestElementaryFactorization:
    def test_single_shear(self):
        F = elementary_factorization(IntMatrix.elementary(2, 0, 1, 2))
        assert F.factors == ((0, 1, 2),)

    def test_quarter_turn(self):
        M = IntMatrix(((0, -1), (1, 0)))
        F = elementary_factorization(M)
        assert len(F) == 3
        assert F.product() == M

    def test_round_trip_on_random_words(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(2, 5)
            M = random_elementary_word(n, 30, 3, rng.randrange(1 << 30))
            F = elementary_factorization(M)
            assert F.product() == M
            assert all(c != 0 and i != j for i, j, c in F.factors)

    def test_euclid_steps_only(self, monkeypatch):
        # the factors are the Euclid steps themselves; the extended-gcd
        # step of the Hermite reduction has no place in them
        def refuse(a, b):
            raise AssertionError("extended-gcd step in the factorization")

        monkeypatch.setattr(exactmat, "_xgcd", refuse)
        rng = random.Random(14)
        for n in (2, 4, 6):
            M = random_elementary_word(n, 40, 10**6, rng.randrange(1 << 30))
            assert elementary_factorization(M).product() == M

    def test_product_rejects_float_coefficient(self):
        F = Factorization(3, ((0, 1, 2), (1, 2, 1.5)))
        with pytest.raises(TypeError):
            F.product()

    def test_product_rejects_indices_outside_range(self):
        # -1 used to wrap around to the last coordinate
        for i, j in ((0, -1), (-1, 0), (0, 3), (3, 1)):
            with pytest.raises(ValueError, match="out of range"):
                Factorization(3, ((i, j, 2),)).product()

    def test_identity_factorization_is_empty(self):
        assert len(elementary_factorization(IntMatrix.identity(3))) == 0

    def test_rejects_determinant_minus_one(self):
        with pytest.raises(ValueError, match="determinant"):
            elementary_factorization(IntMatrix(((0, 1), (1, 0))))

    def test_rejects_every_determinant_but_one_without_computing_it(self, refuse_det):
        # the reduction decides det M = 1: a column zero from the diagonal
        # down, a pivot other than +-1, or a trailing pivot -1
        for M in determinant_not_one_inputs():
            with pytest.raises(ValueError, match="^determinant must be 1$"):
                elementary_factorization(M)

    def test_determinant_one_computes_no_determinant(self, refuse_det):
        rng = random.Random(16)
        for n in range(2, 7):
            M = random_elementary_word(n, 20, 10**30, rng.randrange(1 << 30))
            assert elementary_factorization(M).product() == M

    def test_level_two_membership_matches_mod2_factor_product(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 4)
            M = random_elementary_word(n, 12, 2, rng.randrange(1 << 30))
            F = elementary_factorization(M)
            prod = IntMatrix.identity(n)
            for f in F.factors:
                prod = prod * IntMatrix.elementary(n, *f).mod(2)
                prod = prod.mod(2)
            assert in_gamma(M, 2) == prod.is_identity()


class TestShearFactorsMod2:
    """A shear factor (i, j, c) lies in the level-2 congruence subgroup
    exactly when c is even, and then it is the square of (i, j, c / 2)."""

    def factor_of(self, i, j, c):
        E = IntMatrix.elementary(3, i, j, c)
        assert elementary_factorization(E).factors == ((i, j, c),)
        return E

    def test_even_factor_has_square_root(self):
        E = self.factor_of(0, 1, 2)
        assert in_gamma(E, 2)
        assert IntMatrix.elementary(3, 0, 1, 1) ** 2 == E

    def test_odd_factor(self):
        assert not in_gamma(self.factor_of(0, 1, 1), 2)

    def test_negative_even(self):
        E = self.factor_of(1, 2, -4)
        assert in_gamma(E, 2)
        assert IntMatrix.elementary(3, 1, 2, -2) ** 2 == E


def _bounded_sqrt_search(T, bound):
    """All X with entries in [-bound, bound] and X*X = T, enumerated through
    the necessary equations b(a+d) = T[0][1] and a^2 + bc = 1."""
    t = T.rows[0][1]
    found = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if b == 0 or t % b:
                continue
            d = t // b - a
            if abs(d) > bound:
                continue
            num = 1 - a * a
            if num % b:
                continue
            c = num // b
            if abs(c) > bound:
                continue
            X = IntMatrix(((a, b), (c, d)))
            if X * X == T and X.det() == 1:
                found.append(X)
    # b = 0 candidates: X diagonal-ish with c free
    for a in (-1, 1):
        for c in range(-bound, bound + 1):
            X = IntMatrix(((a, 0), (c, a)))
            if X * X == T and X.det() == 1:
                found.append(X)
    return sorted(set(found), key=lambda m: m.rows)


def _bounded_braid_search(bound):
    """All R other than the swap S with entries in [-bound, bound], trace 0,
    determinant -1 and S R S = R S R.  Trace 0 makes R = [[a, b], [c, -a]]
    and determinant -1 pins b c = 1 - a^2, so only divisor pairs are
    enumerated."""
    S = IntMatrix(((0, 1), (1, 0)))
    found = []
    for a in range(-bound, bound + 1):
        rest = 1 - a * a
        if rest == 0:
            pairs = [(0, c) for c in range(-bound, bound + 1)]
            pairs += [(b, 0) for b in range(-bound, bound + 1)]
        else:
            pairs = [
                (b, rest // b)
                for b in range(-bound, bound + 1)
                if b and rest % b == 0 and abs(rest // b) <= bound
            ]
        for b, c in pairs:
            R = IntMatrix(((a, b), (c, -a)))
            if R != S and R.det() == -1 and S * R * S == R * S * R:
                found.append(R)
    return sorted(set(found), key=lambda m: m.rows)


class TestUnipotentSqrt:
    def test_double_shear(self):
        T = IntMatrix(((1, 2), (0, 1)))
        shear = IntMatrix(((1, 1), (0, 1)))
        assert set(unipotent_sqrt_sl2(T)) == {shear, -shear}

    def test_identity(self):
        I = IntMatrix.identity(2)
        assert set(unipotent_sqrt_sl2(I)) == {I, -I}

    def test_odd_shear_has_no_root(self):
        assert unipotent_sqrt_sl2(IntMatrix(((1, 3), (0, 1)))) == ()

    def test_rejects_non_unipotent(self):
        with pytest.raises(ValueError, match="unipotent"):
            unipotent_sqrt_sl2(IntMatrix(((0, -1), (1, 0))))

    def test_completeness_against_bounded_search(self):
        for k in range(-5, 6):
            T = IntMatrix(((1, 2 * k), (0, 1)))
            assert list(unipotent_sqrt_sl2(T)) == _bounded_sqrt_search(T, 100)


class TestBraidInvolutions:
    EXPECTED = {
        IntMatrix(((1, 0), (-1, -1))),
        IntMatrix(((-1, 0), (-1, 1))),
        IntMatrix(((1, -1), (0, -1))),
        IntMatrix(((-1, -1), (0, 1))),
    }

    def test_exact_solution_set(self):
        assert set(braid_involution_solutions()) == self.EXPECTED

    def test_completeness_against_bounded_search(self):
        assert list(braid_involution_solutions()) == _bounded_braid_search(100)

    def test_solutions_are_swap_like_involutions(self):
        swap = IntMatrix(((0, 1), (1, 0)))
        for R in braid_involution_solutions():
            assert R.det() == -1 and R.trace() == 0
            assert profile(R) == profile(swap)

    def test_squares_with_sign_flip_are_two_transvections(self):
        D = IntMatrix.diagonal((1, -1))
        for R in braid_involution_solutions():
            square = (D * R) ** 2
            e = R.rows[0][0]
            assert square in (
                IntMatrix(((1, 0), (2 * e, 1))),
                IntMatrix(((1, -2 * e), (0, 1))),
            )
            data = recognize_transvection(square)
            assert data is not None and data.m == 2


class TestCommutatorIdentities:
    def test_displayed_matrices(self):
        report = commutator_identities()
        first = IntMatrix(((1, 0, 1), (0, 1, 0), (0, 0, 1)))
        second = IntMatrix(((1, 2, -3), (0, 1, -2), (0, 0, 1)))
        assert report.commutators[0] == first
        assert report.commutators[1] == first
        assert report.commutators[2] == second
        assert report.commutators[3] == second

    def test_eigenvalue_discrimination(self):
        report = commutator_identities()
        assert report.candidate_has_minus_one == (False, True, True, True)
        assert report.commutator_has_minus_one == (False, False, False, False)
        assert report.shear_index == 0

    def test_steinberg_commutator(self):
        E = IntMatrix.elementary
        s1, s2 = E(3, 0, 1, 1), E(3, 1, 2, 1)
        assert s1 * s2 * s1.inverse() * s2.inverse() == E(3, 0, 2, 1)


class TestLiftRow:
    def test_example_three_two(self):
        assert lift_row_to_sl3(3, 2).rows == ((3, 4, 0), (2, 3, 0), (0, 0, 1))

    def test_degenerate_column(self):
        assert lift_row_to_sl3(1, 0).is_identity()
        M = lift_row_to_sl3(-1, 0)
        assert M.det() == 1 and in_gamma(M, 2)

    def test_negative_odd(self):
        M = lift_row_to_sl3(-1, 2)
        assert M.det() == 1 and in_gamma(M, 2)
        assert M.rows[0][0] == -1 and M.rows[1][0] == 2

    def test_random_valid_pairs(self):
        rng = random.Random(14)
        done = 0
        while done < 200:
            a = 2 * rng.randint(-40, 40) + 1
            c = 2 * rng.randint(-40, 40)
            from math import gcd

            if gcd(a, c) != 1:
                continue
            M = lift_row_to_sl3(a, c)
            assert M.det() == 1
            assert in_gamma(M, 2)
            assert M.rows[0][0] == a and M.rows[1][0] == c
            assert M.rows[0][1] % 2 == 0 and M.rows[1][1] % 2 == 1
            done += 1

    def test_normal_form(self):
        # a d - b c = 1 with b even has exactly one solution with d in
        # [1, 2|c|), so these checks pin every output
        from math import gcd

        rng = random.Random(15)
        big = [(2 * rng.randrange(10**39, 10**40) + 1, 2 * rng.randrange(10**39, 10**40))
               for _ in range(50)]
        big += [(sa * a, sc * c) for a, c in big[:10] for sa in (1, -1) for sc in (1, -1)]
        small = [(a, c) for a in range(-199, 200, 2) for c in range(-200, 201, 2) if c]
        for a, c in small + big:
            if gcd(a, c) != 1:
                continue
            (a0, b, z0), (c0, d, z1), last = lift_row_to_sl3(a, c).rows
            assert (a0, c0, z0, z1, last) == (a, c, 0, 0, (0, 0, 1))
            assert 1 <= d < 2 * abs(c) and b % 2 == 0 and a * d - b * c == 1
        assert lift_row_to_sl3(1, 0).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert lift_row_to_sl3(-1, 0).rows == ((-1, 0, 0), (0, -1, 0), (0, 0, 1))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="odd"):
            lift_row_to_sl3(2, 4)
        with pytest.raises(ValueError, match="even"):
            lift_row_to_sl3(3, 5)
        with pytest.raises(ValueError, match="coprime"):
            lift_row_to_sl3(3, 6)

    def test_float_entries_rejected(self):
        # int() would truncate 3.5 to 3 and return the lift of (3, 2)
        with pytest.raises(TypeError):
            lift_row_to_sl3(3.5, 2)
        with pytest.raises(TypeError):
            lift_row_to_sl3(3, 2.0)
        assert lift_row_to_sl3(True, False).is_identity()


def _all_invertible_mod2(n):
    for bits in itertools.product((0, 1), repeat=n * n):
        rows = tuple(tuple(bits[i * n : (i + 1) * n]) for i in range(n))
        M = IntMatrix(rows)
        if rank_mod2(M) == n:
            yield M


def reference_lift_mod2_ops(rows) -> list:
    """The shear word of lift_mod2 by elimination on lists of residues, one
    entrywise pass per row addition: the loop the bit-mask one replaces."""
    A = [[x % 2 for x in r] for r in rows]
    n = len(A)
    ops = []

    def add_row(i, j):
        A[i] = [(x + y) % 2 for x, y in zip(A[i], A[j])]
        ops.append((i, j))

    for col in range(n):
        if A[col][col] == 0:
            pivot = next((i for i in range(col + 1, n) if A[i][col]), None)
            if pivot is None:
                raise ValueError("matrix is singular over GF(2)")
            add_row(col, pivot)
        for i in range(n):
            if i != col and A[i][col]:
                add_row(i, col)
    return ops


class TestLiftMod2:
    def test_identity(self):
        assert lift_mod2(IntMatrix.identity(3)).is_identity()

    def test_swap(self):
        M = lift_mod2([[0, 1], [1, 0]])
        assert M.det() == 1
        assert M.mod(2) == IntMatrix(((0, 1), (1, 0)))

    def test_exhaustive_rank_two(self):
        count = 0
        for Mbar in _all_invertible_mod2(2):
            M = lift_mod2(Mbar)
            assert M.det() == 1 and M.mod(2) == Mbar
            count += 1
        assert count == 6

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            lift_mod2([[1, 1], [1, 1]])

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            lift_mod2([[1.0, 0], [0, 1]])
        with pytest.raises(TypeError):
            lift_mod2([[1, 0.5], [0, 1]])
        assert lift_mod2([[True, False], [False, True]]).is_identity()

    def test_exhaustive_singularity_up_to_rank_3(self):
        # singularity over GF(2) read off the integer determinant, not
        # from the GF(2) eliminators under test
        for n in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=n * n):
                rows = [list(bits[i * n : (i + 1) * n]) for i in range(n)]
                if IntMatrix(tuple(map(tuple, rows))).det() % 2 == 0:
                    with pytest.raises(ValueError, match="singular"):
                        lift_mod2(rows)
                else:
                    M = lift_mod2(rows)
                    assert M.det() == 1
                    assert [[x % 2 for x in r] for r in M.rows] == rows

    @given(st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    @settings(max_examples=300, deadline=None)
    def test_op_word_equals_the_list_elimination(self, rows):
        try:
            expected = reference_lift_mod2_ops(rows)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                lift_mod2(rows)
            return
        ops = _mod2_reduction(rows)
        assert ops == expected
        assert lift_mod2(rows) == exactmat._shear_word(len(rows), ((i, j, 1) for i, j in ops))

    def test_random_large(self):
        rng = random.Random(15)
        for _ in range(50):
            n = rng.randint(2, 6)
            while True:
                rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
                if rank_mod2(IntMatrix(tuple(tuple(r) for r in rows))) == n:
                    break
            M = lift_mod2(rows)
            assert M.det() == 1
            assert [[x % 2 for x in r] for r in M.rows] == rows

    def test_mod2_reduction_is_the_lift_word(self):
        # the canonical basis lifts its change of basis by these row
        # additions alone, without forming the lift
        rng = random.Random(24)
        for _ in range(60):
            n = rng.randint(1, 8)
            while True:
                rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
                if rank_mod2(IntMatrix(tuple(tuple(r) for r in rows))) == n:
                    break
            n = len(rows)
            assert lift_mod2(rows) == exactmat._shear_word(
                n, ((i, j, 1) for i, j in _mod2_reduction(rows))
            )

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glnz.exactmat import (
    IntMatrix,
    Lattice,
    element_order,
    random_unimodular,
    summand_index,
)
from glnz.involution import (
    CENTRAL,
    DIAGONALIZABLE_OTHER,
    EXTREMAL,
    GAMMA_INVOLUTION,
    NONDIAGONALIZABLE_OTHER,
    ONE_PERMUTATION,
    InvolutionKind,
    InvolutionProfile,
    canonical_block,
    canonical_form,
    classify,
    eigen_lattices,
    four_involution_witness,
    involution_from_splitting,
    is_involution,
    order3_witness,
    profile,
    standard_commuting_family,
)

from helpers import shear_conjugate

SWAP = IntMatrix(((0, 1), (1, 0)))
SHEARED = IntMatrix(((1, 0), (-1, -1)))


def conj(M, U):
    return U * M * U.inverse()


def random_involution(rng, n, p=None):
    if p is None:
        p = rng.randint(0, n // 2)
    rem = n - 2 * p
    a = rng.randint(0, rem)
    seed_matrix = canonical_block(a, rem - a, p)
    return conj(seed_matrix, random_unimodular(n, 8, 2, rng.randrange(1 << 30)))


class TestEigenLattices:
    def test_diagonal(self):
        plus, minus = eigen_lattices(IntMatrix.diagonal((1, -1)))
        assert plus == Lattice(2, ((1, 0),)) and minus == Lattice(2, ((0, 1),))

    def test_swap(self):
        plus, minus = eigen_lattices(SWAP)
        assert plus == Lattice(2, ((1, 1),)) and minus == Lattice(2, ((1, -1),))

    def test_sheared(self):
        plus, minus = eigen_lattices(SHEARED)
        assert plus == Lattice(2, ((-2, 1),)) and minus == Lattice(2, ((0, 1),))

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError, match="not an involution"):
            eigen_lattices(IntMatrix(((1, 1), (0, 1))))


class TestResidue:
    def test_examples(self):
        assert profile(IntMatrix.diagonal((1, -1, 1))).p == 0
        assert profile(canonical_block(2, 0, 1)).p == 1  # swap plus fixed plane
        assert profile(SHEARED).p == 1

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError, match="not an involution"):
            profile(IntMatrix(((1, 1), (0, 1))))


class TestCanonicalForm:
    def test_identity(self):
        cb = canonical_form(IntMatrix.identity(3))
        assert (cb.profile.a, cb.profile.b, cb.profile.p) == (3, 0, 0)
        assert cb.U.is_identity()

    def test_swap(self):
        cb = canonical_form(SWAP)
        assert (cb.profile.a, cb.profile.b, cb.profile.p) == (0, 0, 1)
        assert cb.U.is_identity()

    def test_sheared_is_swap_conjugate(self):
        cb = canonical_form(SHEARED)
        assert (cb.profile.a, cb.profile.b, cb.profile.p) == (0, 0, 1)
        assert cb.U.inverse() * SHEARED * cb.U == SWAP
        assert summand_index(*eigen_lattices(SHEARED)) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30), st.integers(2, 7))
    def test_random_conjugates_soundness(self, seed, n):
        rng = random.Random(seed)
        P = random_involution(rng, n)
        cb = canonical_form(P)
        assert abs(cb.U.det()) == 1
        assert cb.U.inverse() * P * cb.U == cb.block_matrix()
        prof = cb.profile
        plus, minus = eigen_lattices(P)
        assert plus.rank == prof.a + prof.p
        assert minus.rank == prof.b + prof.p
        assert profile(P).p == prof.p
        if 0 < plus.rank and 0 < minus.rank:
            assert summand_index(plus, minus) == 2**prof.p
        assert prof.diagonalizable == (prof.p == 0)

    def test_canonical_block_sizes(self):
        # negative sizes used to give a 1x1 matrix, a swap or an IndexError
        for a, b, p in ((-1, 2, 0), (-2, 0, 2), (3, -1, 0), (1, 2, -1)):
            with pytest.raises(ValueError, match="non-negative"):
                canonical_block(a, b, p)
        for a, b, p in ((2.0, 1, 0), (1, 1.5, 0), (1, 0, "1")):
            with pytest.raises(TypeError):
                canonical_block(a, b, p)
        assert canonical_block(True, True, False) == IntMatrix.diagonal((1, -1))

    def test_canonical_blocks_map_to_the_identity(self):
        # a block already in canonical form needs no change of basis, and a
        # diagonalizable one keeps the kernel bases of its eigen lattices
        for n in range(1, 11):
            for p in range(n // 2 + 1):
                for a in range(n - 2 * p + 1):
                    B = canonical_block(a, n - 2 * p - a, p)
                    cb = canonical_form(B)
                    assert cb.U.is_identity(), (a, n - 2 * p - a, p)
                    if p == 0:
                        plus, minus = eigen_lattices(B)
                        assert cb.U == IntMatrix.from_columns(plus.basis + minus.basis)


class TestClassify:
    def test_extremal(self):
        assert classify(IntMatrix.diagonal((-1, 1, 1, 1))) == InvolutionKind(EXTREMAL, 1)

    def test_one_permutation(self):
        assert classify(canonical_block(2, 0, 1)).name == ONE_PERMUTATION
        assert classify(canonical_block(0, 2, 1)).name == ONE_PERMUTATION
        assert classify(SWAP).name == ONE_PERMUTATION

    def test_two_involution(self):
        assert classify(IntMatrix.diagonal((-1, -1, 1, 1, 1))) == InvolutionKind(
            GAMMA_INVOLUTION, 2
        )

    def test_central_and_other(self):
        assert classify(IntMatrix.identity(4)).name == CENTRAL
        assert classify(-IntMatrix.identity(4)).name == CENTRAL
        assert classify(IntMatrix.diagonal((1, -1))).name == DIAGONALIZABLE_OTHER
        assert classify(IntMatrix.diagonal((1, -1, -1))).name == DIAGONALIZABLE_OTHER
        assert classify(canonical_block(2, 1, 1)).name == NONDIAGONALIZABLE_OTHER
        assert classify(canonical_block(3, 0, 2)).name == NONDIAGONALIZABLE_OTHER

    def test_every_shape_up_to_rank_10_matches_readme(self):
        for n in range(1, 11):
            for shape, kind in readme_kinds(n).items():
                assert classify(canonical_block(*shape)) == kind, shape


def readme_kinds(n):
    """The kind of every shape (a, b, p) of rank n, written out from the
    class definitions in the README: central is +-I; extremal negates one
    direction and fixes the other n - 1 >= 2; gamma_involution(g) negates
    g >= 2 directions and fixes more than g; one_permutation is one swap
    pair with every other basis vector fixed, or every other one negated;
    the rest is diagonalizable_other without swap pairs and
    nondiagonalizable_other with them."""
    table = {}
    for p in range(n // 2 + 1):
        other = InvolutionKind(NONDIAGONALIZABLE_OTHER if p else DIAGONALIZABLE_OTHER)
        for a in range(n - 2 * p + 1):
            table[(a, n - 2 * p - a, p)] = other
    table[(n, 0, 0)] = table[(0, n, 0)] = InvolutionKind(CENTRAL)
    if n >= 3:
        table[(n - 1, 1, 0)] = InvolutionKind(EXTREMAL, 1)
    for g in range(2, n):
        if n - g > g:
            table[(n - g, g, 0)] = InvolutionKind(GAMMA_INVOLUTION, g)
    if n >= 2:
        table[(n - 2, 0, 1)] = table[(0, n - 2, 1)] = InvolutionKind(ONE_PERMUTATION)
    return table


class TestConjugacy:
    def test_swap_conjugate_to_sheared(self):
        assert profile(SWAP) == profile(SHEARED)

    def test_diagonal_not_conjugate_to_swap(self):
        assert profile(IntMatrix.diagonal((1, -1))) != profile(SWAP)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30), st.integers(2, 6))
    def test_conjugation_invariance(self, seed, n):
        rng = random.Random(seed)
        P = random_involution(rng, n)
        U = random_unimodular(n, 8, 2, rng.randrange(1 << 30))
        assert profile(conj(P, U)) == profile(P)


class TestOrder3Witness:
    def test_swap(self):
        W = order3_witness(SWAP)
        assert W == IntMatrix(((1, -1), (0, -1)))
        assert SWAP * W == IntMatrix(((0, -1), (1, -1)))
        assert element_order(SWAP * W, 3) == 3

    def test_swap_plus_fixed(self):
        P = canonical_block(1, 0, 1)
        W = order3_witness(P)
        assert element_order(P * W, 3) == 3
        assert profile(P) == profile(W)

    def test_swap_block_first_layout(self):
        P = IntMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
        W = order3_witness(P)
        assert element_order(P * W, 3) == 3

    def test_conjugation_equivariance(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(2, 6)
            P = random_involution(rng, n, p=rng.randint(1, n // 2))
            W = order3_witness(P)
            assert element_order(P * W, 3) == 3
            assert profile(P) == profile(W)

    def test_diagonalizable_rejected(self):
        with pytest.raises(ValueError, match="diagonalizable"):
            order3_witness(IntMatrix.diagonal((1, -1)))

    def test_non_involution_rejected(self):
        with pytest.raises(ValueError, match="not an involution"):
            order3_witness(IntMatrix(((1, 1), (0, 1))))


class TestWitnessPostconditions:
    @pytest.mark.parametrize(
        "witness,P",
        [
            (order3_witness, canonical_block(1, 1, 2)),
            (four_involution_witness, canonical_block(4, 3, 1)),
        ],
    )
    def test_each_matrix_squared_once(self, monkeypatch, witness, P):
        import glnz.involution as involution

        squared = []
        original = involution.is_involution
        monkeypatch.setattr(
            involution, "is_involution", lambda M: squared.append(M.rows) or original(M)
        )
        witness(P)
        assert len(squared) == len(set(squared))

    @pytest.mark.parametrize(
        "witness,P,message",
        [
            (order3_witness, canonical_block(1, 1, 2), "order-three"),
            (four_involution_witness, canonical_block(4, 3, 1), "four-involution"),
        ],
    )
    def test_non_involution_witness_is_a_postcondition_failure(
        self, monkeypatch, witness, P, message
    ):
        import glnz.involution as involution

        monkeypatch.setattr(involution, "_rank_update", lambda M, left, delta, right: M + M)
        with pytest.raises(RuntimeError, match=f"{message} witness postcondition violated"):
            witness(P)


def old_modified_conjugate(cb, changes):
    """U B' U^-1 formed densely, with a fresh inverse of U."""
    rows = [list(r) for r in cb.block_matrix().rows]
    for (i, j), x in changes.items():
        rows[i][j] = x
    return cb.U * IntMatrix(tuple(map(tuple, rows))) * cb.U.inverse()


SWAP_SHAPES = [
    (a, n - 2 * p - a, p)
    for n in range(2, 11)
    for p in range(1, n // 2 + 1)
    for a in range(n - 2 * p + 1)
]


class TestLowRankWitnessOracle:
    """The witnesses are P plus a rank-2 or rank-4 update built from rows
    of U^-1 that canonical_form's own coordinates give; checked against
    the dense product with a fresh inverse, on every shape with p > 0."""

    @pytest.mark.parametrize("shape", SWAP_SHAPES, ids=str)
    def test_matches_dense_conjugate(self, shape):
        import glnz.involution as involution

        a, b, p = shape
        n = a + b + 2 * p
        P = conj(canonical_block(a, b, p), random_unimodular(n, 8, 3, 1000 * n + 10 * a + p))
        cb, inverse_rows = involution._canonical_form(P)
        assert cb == canonical_form(P)
        U_inv = cb.U.inverse()
        assert tuple(inverse_rows(list(range(n)))) == U_inv.rows
        assert inverse_rows([n - 1, 0]) == [U_inv.rows[n - 1], U_inv.rows[0]]

        lo = a + b
        changes = {(lo, lo): 1, (lo, lo + 1): -1, (lo + 1, lo): 0, (lo + 1, lo + 1): -1}
        assert order3_witness(P) == old_modified_conjugate(cb, changes)
        if n < 9 or (p == 1 and 0 in (a, b)):
            return
        changes = {}
        for lo, _ in cb.layout.pairs[:2]:
            changes[lo, lo + 1] = changes[lo + 1, lo] = -1
        if p == 1:
            changes[0, 0], changes[a, a] = -1, 1
        assert four_involution_witness(P) == old_modified_conjugate(cb, changes)


def non_involutions():
    yield IntMatrix(((0, -1), (1, 0)))  # order 4
    yield IntMatrix(((0, -1), (1, -1)))  # order 3
    yield IntMatrix(((0, 0), (0, 0)))
    yield IntMatrix.diagonal((2, 1))
    yield IntMatrix(((1, 1), (0, 1)))  # unit shear
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 6)
        M = IntMatrix(tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)))
        if not is_involution(M):
            yield M


class TestNonInvolutionsRejected:
    """canonical_form squares P only when its construction or postcondition
    fails, so every non-involution still ends in that check."""

    @pytest.mark.parametrize("build", [canonical_form, order3_witness, four_involution_witness])
    def test_rejected_after_failed_construction(self, monkeypatch, build):
        import glnz.involution as involution

        demanded = []
        original = involution._demand_involution
        monkeypatch.setattr(
            involution, "_demand_involution", lambda M: demanded.append(M) or original(M)
        )
        for M in non_involutions():
            demanded.clear()
            with pytest.raises(ValueError, match="not an involution"):
                build(M)
            assert demanded == [M]

    def test_involution_profile_is_none(self):
        import glnz.involution as involution

        for M in non_involutions():
            assert involution._involution_profile(M) is None

    def test_involutions_are_not_squared(self, monkeypatch):
        import glnz.involution as involution

        monkeypatch.setattr(involution, "_demand_involution", pytest.fail)
        for a, b, p in SWAP_SHAPES[:40]:
            P = canonical_block(a, b, p)
            assert canonical_form(P).profile == InvolutionProfile(a, b, p)


class TestCanonicalFormMemo:
    """_canonical_form keeps its last result only, so back-to-back analyses
    of one matrix build its canonical basis once."""

    @pytest.fixture(autouse=True)
    def constructions(self, monkeypatch):
        import glnz.involution as involution

        involution._canonical_form.cache_clear()
        built = []
        original = involution._construct_canonical
        monkeypatch.setattr(
            involution, "_construct_canonical", lambda M: built.append(M) or original(M)
        )
        yield built
        involution._canonical_form.cache_clear()

    @pytest.mark.parametrize(
        "witness,P",
        [
            (order3_witness, conj(canonical_block(2, 1, 2), random_unimodular(7, 12, 3, 5))),
            (four_involution_witness, conj(canonical_block(4, 1, 2), random_unimodular(9, 12, 3, 6))),
        ],
    )
    def test_witness_after_canonical_form_reuses_it(self, constructions, witness, P):
        cb = canonical_form(P)
        W = witness(P)
        assert constructions == [P]
        assert canonical_form(P) == cb and witness(P) == W
        assert constructions == [P]

    def test_one_entry_only(self, constructions):
        P, Q = canonical_block(1, 1, 1), canonical_block(0, 1, 1)
        canonical_form(P)
        canonical_form(Q)
        order3_witness(P)
        assert constructions == [P, Q, P]

    def test_equal_values_share_the_entry(self, constructions):
        P = canonical_block(1, 0, 1)
        canonical_form(P)
        canonical_form(IntMatrix(tuple(map(list, P.rows))))
        assert constructions == [P]

    def test_non_involution_raises_on_every_repeat(self, constructions):
        M = IntMatrix(((0, -1), (1, 0)))
        for build in (canonical_form, canonical_form, order3_witness, canonical_form):
            with pytest.raises(ValueError, match="not an involution"):
                build(M)
        assert constructions == [M] * 4


class TestFourInvolutionWitness:
    def test_two_swaps(self):
        P = canonical_block(5, 0, 2)  # two swap pairs and five fixed vectors
        W = four_involution_witness(P)
        assert P * W == IntMatrix.diagonal((1,) * 5 + (-1,) * 4)
        assert classify(P * W) == InvolutionKind(GAMMA_INVOLUTION, 4)

    def test_two_swaps_leading_layout(self):
        # swap, swap, then five fixed vectors: the product negates the
        # four swapped directions and fixes the rest
        rows = [[0] * 9 for _ in range(9)]
        rows[0][1] = rows[1][0] = rows[2][3] = rows[3][2] = 1
        for i in range(4, 9):
            rows[i][i] = 1
        P = IntMatrix(tuple(tuple(r) for r in rows))
        W = four_involution_witness(P)
        assert P * W == IntMatrix.diagonal((-1,) * 4 + (1,) * 5)

    def test_single_swap_with_mixed_blocks(self):
        P = canonical_block(4, 3, 1)
        W = four_involution_witness(P)
        assert classify(P * W) == InvolutionKind(GAMMA_INVOLUTION, 4)
        assert profile(P) == profile(W)

    def test_one_permutation_rejected(self):
        with pytest.raises(ValueError, match="one-permutation"):
            four_involution_witness(canonical_block(7, 0, 1))

    def test_diagonalizable_rejected(self):
        P = conj(canonical_block(5, 4, 0), random_unimodular(9, 10, 2, 8))
        with pytest.raises(ValueError, match="^involution must be non-diagonalizable$"):
            four_involution_witness(P)

    def test_small_rank_rejected(self):
        with pytest.raises(ValueError, match="rank too small"):
            four_involution_witness(canonical_block(3, 2, 1))

    def test_conjugated_inputs(self):
        rng = random.Random(23)
        for _ in range(10):
            P = random_involution(rng, 9, p=2)
            W = four_involution_witness(P)
            assert classify(P * W) == InvolutionKind(GAMMA_INVOLUTION, 4)


class TestStandardCommutingFamily:
    def test_rank_three(self):
        fam = standard_commuting_family(3)
        assert fam[0] == IntMatrix.diagonal((-1, 1, 1))
        assert fam[1] == IntMatrix.diagonal((1, -1, 1))
        assert fam[2] == IntMatrix.diagonal((1, 1, -1))

    def test_pairwise_commuting_and_extremal(self):
        fam = standard_commuting_family(5)
        for f in fam:
            assert classify(f) == InvolutionKind(EXTREMAL, 1)
        for f in fam:
            for g in fam:
                assert f * g == g * f

    def test_products_are_two_involutions_at_large_rank(self):
        # negated rank 2 must stay below fixed rank, so rank five or more
        fam = standard_commuting_family(5)
        assert classify(fam[0] * fam[1]) == InvolutionKind(GAMMA_INVOLUTION, 2)

    def test_small_rank_rejected(self):
        with pytest.raises(ValueError):
            standard_commuting_family(2)


class TestInvolutionFromSplitting:
    def test_matches_eigen_data(self):
        Q = involution_from_splitting([(0, 1, 0), (0, 0, 1)], [(1, 2, 0)])
        assert is_involution(Q)
        plus, minus = eigen_lattices(Q)
        assert plus == Lattice(3, ((0, 1, 0), (0, 0, 1)))
        assert minus == Lattice(3, ((1, 2, 0),))

    def test_rejects_non_basis(self):
        with pytest.raises(ValueError, match="do not split"):
            involution_from_splitting([(1, 0), (0, 2)], [])
        with pytest.raises(ValueError, match="do not split"):
            involution_from_splitting([(1, 1)], [(1, -1)])


ALL_SHAPES = [
    (a, n - 2 * p - a, p)
    for n in range(1, 9)
    for p in range(n // 2 + 1)
    for a in range(n - 2 * p + 1)
]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**30))
def test_profile_matches_eigen_lattice_ranks(seed):
    # the profile comes from the trace and the GF(2) rank of P - I; the
    # eigen lattices it does not build must still have ranks a + p and b + p
    rng = random.Random(seed)
    for a, b, p in ALL_SHAPES:
        n = a + b + 2 * p
        P = conj(canonical_block(a, b, p), random_unimodular(n, 8, 2, rng.randrange(1 << 30)))
        plus, minus = eigen_lattices(P)
        assert (plus.rank, minus.rank) == (a + p, b + p)
        assert profile(P) == InvolutionProfile(a, b, p)


def test_involution_profile_is_the_profile_on_every_shape():
    import glnz.involution as involution

    for a, b, p in ALL_SHAPES:
        n = a + b + 2 * p
        P = conj(canonical_block(a, b, p), random_unimodular(n, 8, 3, 1000 * n + 10 * a + p))
        assert involution._involution_profile(P) == profile(P) == InvolutionProfile(a, b, p)


SHAPES_TO_10 = [
    (a, n - 2 * p - a, p)
    for n in range(1, 11)
    for p in range(n // 2 + 1)
    for a in range(n - 2 * p + 1)
]


def big_conjugate(B, seed, digits=20):
    """A conjugate of B by a seeded unimodular word, the word grown until
    the largest entry has at least the given number of digits."""
    if B.is_identity() or (-B).is_identity():
        return B
    length = 10
    while True:
        P = conj(B, random_unimodular(B.n, length, 9, seed))
        if max(len(str(abs(x))) for r in P.rows for x in r) >= digits:
            return P
        length += 5


class TestEigenPairOracle:
    """_eigen_pair reads L+ and L- off one echelon of (P - I)^T, L- by
    halving the even sums of the image rows; kernel_lattice of P -+ I is
    the reference."""

    def test_table_has_rank_one_and_central_shapes(self):
        assert {(1, 0, 0), (0, 1, 0), (10, 0, 0), (0, 10, 0)} <= set(SHAPES_TO_10)

    @pytest.mark.parametrize("shape", SHAPES_TO_10, ids=str)
    def test_matches_kernel_lattices(self, shape):
        import glnz.involution as involution
        from glnz.exactmat import kernel_lattice

        a, b, p = shape
        n = a + b + 2 * p
        B = canonical_block(a, b, p)
        seed = 1000 * n + 10 * a + p
        for P in (B, conj(B, random_unimodular(n, 8, 3, seed)), big_conjugate(B, seed)):
            expected = (kernel_lattice(P.shifted(-1)), kernel_lattice(P.shifted(1)))
            assert involution._eigen_pair(P) == expected == eigen_lattices(P)
            assert (expected[0].rank, expected[1].rank) == (a + p, b + p)

    def test_big_conjugates_have_20_to_40_digits(self):
        for a, b, p in [(2, 1, 2), (0, 3, 3), (4, 4, 1)]:
            P = big_conjugate(canonical_block(a, b, p), 7)
            assert 20 <= max(len(str(abs(x))) for r in P.rows for x in r) <= 40


def witness_updates(monkeypatch, witness, P):
    """The (canonical basis, update) pairs the witness passes on."""
    import glnz.involution as involution

    seen = []
    real = involution._certified_witness

    def spy(P, cb, rows, update, *rest):
        seen.append((cb, update))
        return real(P, cb, rows, update, *rest)

    monkeypatch.setattr(involution, "_certified_witness", spy)
    witness(P)
    return seen


class TestWitnessBlockFacts:
    """Each update changes B only on a set S of indices that B maps to
    itself, and on S the k x k blocks give the claims: B'_S^2 = I, B'_S
    has the profile of B_S, and B_S B'_S has order 3 (order-three
    witness) or is -I_4 (four-involution witness)."""

    @pytest.mark.parametrize(
        "witness,shape",
        [
            (order3_witness, (1, 2, 1)),
            (order3_witness, (0, 0, 3)),
            (four_involution_witness, (3, 2, 2)),
            (four_involution_witness, (0, 1, 4)),
            (four_involution_witness, (4, 3, 1)),
            (four_involution_witness, (1, 6, 1)),
        ],
        ids=lambda v: v.__name__ if callable(v) else str(v),
    )
    def test_block_facts(self, monkeypatch, witness, shape):
        B = canonical_block(*shape)
        P = conj(B, random_unimodular(B.n, 8, 3, 5))
        ((cb, update),) = witness_updates(monkeypatch, witness, P)
        assert cb.block_matrix() == B
        S = sorted({k for ij in update for k in ij})
        assert len(S) == (2 if witness is order3_witness else 4)
        assert all(B.rows[i][j] == 0 for i in S for j in range(B.n) if j not in S)
        B_S = IntMatrix(tuple(tuple(B.rows[i][j] for j in S) for i in S))
        B2_S = IntMatrix(
            tuple(tuple(B.rows[i][j] + update.get((i, j), 0) for j in S) for i in S)
        )
        assert (B2_S * B2_S).is_identity()
        assert profile(B2_S) == profile(B_S)
        if witness is order3_witness:
            assert element_order(B_S * B2_S, 3) == 3
        else:
            assert B_S * B2_S == -IntMatrix.identity(4)

    @pytest.mark.parametrize(
        "witness,P,message",
        [
            (order3_witness, canonical_block(1, 1, 2), "order-three"),
            (four_involution_witness, canonical_block(4, 3, 1), "four-involution"),
        ],
    )
    def test_witness_plus_e00_fails_the_certificate(self, monkeypatch, witness, P, message):
        import glnz.involution as involution

        real = involution._rank_update
        e00 = IntMatrix.diagonal([1] + [0] * (P.n - 1))
        monkeypatch.setattr(involution, "_rank_update", lambda *args: real(*args) + e00)
        with pytest.raises(RuntimeError, match=f"{message} witness postcondition violated"):
            witness(P)


def test_involutive_wrong_four_witness_is_a_postcondition_failure(monkeypatch):
    import glnz.involution as involution

    monkeypatch.setattr(involution, "_rank_update", shear_conjugate)
    with pytest.raises(RuntimeError, match="four-involution witness postcondition violated"):
        four_involution_witness(canonical_block(4, 3, 1))

import random

import pytest

from glnz.exactmat import (
    IntMatrix,
    Lattice,
    basis_completion,
    content_and_primitive,
    random_unimodular,
)
from glnz.involution import (
    EXTREMAL,
    canonical_block,
    eigen_lattices,
    involution_from_splitting,
    profile,
)
from glnz.transvection import (
    MutualSubgroup,
    make_transvection,
    mutual_subgroup,
    recognize_transvection,
    shared_summand_predicate,
    transvections_conjugate,
)


def random_valid_pair(rng, n):
    """A covector/direction pair: x primitive, delta nonzero, delta(x) = 0."""
    while True:
        raw = [rng.randint(-5, 5) for _ in range(n)]
        if any(raw):
            break
    _, x = content_and_primitive(raw)
    V = basis_completion([x])
    dual = V.inverse()
    while True:
        coeffs = [rng.randint(-4, 4) for _ in range(n - 1)]
        if any(coeffs):
            break
    delta = tuple(
        sum(c * dual.rows[i + 1][j] for i, c in enumerate(coeffs))
        for j in range(n)
    )
    return delta, x


class TestMakeTransvection:
    def test_double_shear(self):
        assert make_transvection((0, 2, 0), (1, 0, 0)).rows == (
            (1, 2, 0),
            (0, 1, 0),
            (0, 0, 1),
        )

    def test_outer_product(self):
        assert make_transvection((1, 0, 0), (0, 2, 3)).rows == (
            (1, 0, 0),
            (2, 1, 0),
            (3, 0, 1),
        )

    def test_unit_shear(self):
        assert make_transvection((0, 1), (1, 0)).rows == ((1, 1), (0, 1))

    def test_always_determinant_one(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(2, 6)
            delta, x = random_valid_pair(rng, n)
            assert make_transvection(delta, x).det() == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="primitive"):
            make_transvection((0, 1), (2, 0))
        with pytest.raises(ValueError, match="nonzero"):
            make_transvection((0, 0), (1, 0))
        with pytest.raises(ValueError, match="vanish"):
            make_transvection((1, 0), (1, 0))

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            make_transvection((0, 2.5), (1, 0))
        with pytest.raises(TypeError):
            make_transvection((0, 1), (1.0, 0))
        assert make_transvection((False, True), (True, False)).rows == ((1, 1), (0, 1))


class TestRecognizeTransvection:
    def test_double_shear(self):
        data = recognize_transvection(IntMatrix(((1, 2, 0), (0, 1, 0), (0, 0, 1))))
        assert data.m == 2

    def test_identity_is_not_a_transvection(self):
        assert recognize_transvection(IntMatrix.identity(3)) is None

    def test_lower_triangular_example(self):
        data = recognize_transvection(IntMatrix(((1, 0, 0), (2, 1, 0), (3, 0, 1))))
        assert data.x == (0, 2, 3)
        assert data.delta == (1, 0, 0)
        assert data.m == 1

    def test_negative_leading_covector_entry_is_normalized(self):
        # delta = (0, -2, 3): the sign moves into x, and M is rebuilt exactly
        M = make_transvection((0, -2, 3), (1, 0, 0))
        data = recognize_transvection(M)
        assert data.delta == (0, 2, -3)
        assert data.x == (-1, 0, 0)
        assert data.m == 1
        assert make_transvection(data.delta, data.x) == M

    def test_rejects_involutions_and_higher_defect(self):
        assert recognize_transvection(IntMatrix(((0, 1), (1, 0)))) is None
        assert recognize_transvection(IntMatrix(((1, 1), (1, 2)))) is None
        two_shears = IntMatrix(((1, 1, 0), (0, 1, 0), (0, 0, 1))) * IntMatrix(
            ((1, 0, 0), (0, 1, 1), (0, 0, 1))
        )
        assert recognize_transvection(two_shears) is None

    def test_round_trip_thousand_pairs(self):
        rng = random.Random(9)
        for _ in range(1000):
            n = rng.randint(2, 6)
            delta, x = random_valid_pair(rng, n)
            M = make_transvection(delta, x)
            data = recognize_transvection(M)
            assert data is not None
            assert make_transvection(data.delta, data.x) == M
            neg = tuple(-e for e in x), tuple(-d for d in delta)
            assert (data.x, data.delta) in ((x, tuple(delta)), neg)
            assert data.m == content_and_primitive(delta)[0]


class TestTransvectionsConjugate:
    def test_equal_invariant(self):
        E = IntMatrix.elementary
        assert transvections_conjugate(E(2, 0, 1, 2), E(2, 1, 0, 2))
        assert not transvections_conjugate(E(2, 0, 1, 1), E(2, 0, 1, 2))

    def test_conjugation_invariance_of_m(self):
        rng = random.Random(4)
        for _ in range(1000):
            n = rng.randint(2, 5)
            delta, x = random_valid_pair(rng, n)
            M = make_transvection(delta, x)
            U = random_unimodular(n, 6, 2, rng.randrange(1 << 30))
            assert transvections_conjugate(M, U * M * U.inverse())

    def test_rejects_non_transvections(self):
        with pytest.raises(ValueError, match="not a transvection"):
            transvections_conjugate(IntMatrix.identity(2), IntMatrix(((1, 1), (0, 1))))


class TestMutualSubgroup:
    def test_shared_hyperplane_example(self):
        P = IntMatrix.diagonal((-1, 1, 1))
        Q = involution_from_splitting([(0, 1, 0), (0, 0, 1)], [(1, 2, 0)])
        result = mutual_subgroup(P, Q)
        assert result is not None
        assert result.side == "plus"
        assert result.shared == Lattice(3, ((0, 1, 0), (0, 0, 1)))
        assert result.product_m == 4
        data = recognize_transvection(Q * P)
        assert data is not None and data.m == 4

    def test_shared_line(self):
        P = involution_from_splitting([(0, 1, 0), (0, 0, 1)], [(1, 0, 0)])
        Q = involution_from_splitting([(3, 1, 0), (0, 0, 1)], [(1, 0, 0)])
        result = mutual_subgroup(P, Q)
        assert result is not None
        assert result.side == "minus"
        assert result.shared == Lattice(3, ((1, 0, 0),))
        assert result.product_m % 2 == 0

    def test_disjoint_pair(self):
        P = IntMatrix.diagonal((-1, 1, 1))
        Q = IntMatrix.diagonal((1, -1, 1))
        assert mutual_subgroup(P, Q) is None
        assert recognize_transvection(Q * P) is None

    def test_preconditions(self):
        P = IntMatrix.diagonal((-1, 1, 1))
        with pytest.raises(ValueError, match="distinct"):
            mutual_subgroup(P, P)
        with pytest.raises(ValueError, match="extremal"):
            mutual_subgroup(IntMatrix.diagonal((-1, -1, 1)), P)
        # the first input is checked in full before the second
        shear = IntMatrix.elementary(3, 0, 1, 1)
        with pytest.raises(ValueError, match="extremal"):
            mutual_subgroup(IntMatrix.diagonal((-1, -1, 1)), shear)
        with pytest.raises(ValueError, match="not an involution"):
            mutual_subgroup(P, shear)
        with pytest.raises(ValueError, match="not an involution"):
            mutual_subgroup(shear, IntMatrix.diagonal((-1, -1, 1)))

    @pytest.mark.parametrize("shared", [True, False])
    def test_squares_each_input_once(self, monkeypatch, shared):
        P = IntMatrix.diagonal((-1, 1, 1))
        if shared:
            Q = involution_from_splitting([(0, 1, 0), (0, 0, 1)], [(1, 2, 0)])
        else:
            Q = IntMatrix.diagonal((1, -1, 1))
        squared = []
        original = IntMatrix.__mul__

        def mul(self, other):
            if isinstance(other, IntMatrix) and other == self:
                squared.append(self.rows)
            return original(self, other)

        monkeypatch.setattr(IntMatrix, "__mul__", mul)
        assert (mutual_subgroup(P, Q) is not None) == shared
        # an extremal input is a reflection with delta(x) = -2, never squared
        assert squared == []

    @pytest.mark.parametrize(
        "M",
        [
            IntMatrix.diagonal((2, 1, 1)),  # I + e0 (x) e0: delta odd, delta(x) = 1
            IntMatrix.diagonal((3, 1, 1)),  # delta = 2 e0 even, delta(x) = 2
            IntMatrix.diagonal((-3, 1, 1)),  # delta even, delta(x) = -4
            IntMatrix.elementary(3, 0, 1, 2),  # a transvection: delta(x) = 0
            IntMatrix.diagonal((2, 1)),  # n = 2
        ],
        ids=["diag(2,1,1)", "diag(3,1,1)", "diag(-3,1,1)", "E01(2)", "diag(2,1)"],
    )
    def test_rank_one_non_involution_is_refused_before_extremality(self, M):
        # M - I has rank one but delta(x) != -2, so M^2 != I: "not an
        # involution" comes before "not extremal", for either input
        other = IntMatrix.diagonal([-1, -1] + [1] * (M.n - 2))  # not extremal
        with pytest.raises(ValueError, match="not an involution"):
            mutual_subgroup(M, other)
        if M.n >= 3:
            with pytest.raises(ValueError, match="not an involution"):
                mutual_subgroup(IntMatrix.diagonal((-1, 1, 1)), M)


class TestSharedSummandPredicate:
    def _pair_on_hyperplane(self, coeff_pairs):
        plus = [(0, 1, 0), (0, 0, 1)]
        return tuple(
            involution_from_splitting(plus, [(1, c1, c2)]) for c1, c2 in coeff_pairs
        )

    def test_identical_pairs(self):
        pair = self._pair_on_hyperplane([(0, 0), (2, 0)])
        assert shared_summand_predicate(pair, pair)

    def test_different_lines_same_hyperplane(self):
        pair1 = self._pair_on_hyperplane([(0, 0), (2, 0)])
        pair2 = self._pair_on_hyperplane([(1, 1), (0, 3)])
        assert shared_summand_predicate(pair1, pair2)

    def test_different_hyperplanes(self):
        pair1 = self._pair_on_hyperplane([(0, 0), (2, 0)])
        plus2 = [(1, 0, 0), (0, 0, 1)]
        pair2 = (
            involution_from_splitting(plus2, [(0, 1, 0)]),
            involution_from_splitting(plus2, [(2, 1, 0)]),
        )
        assert not shared_summand_predicate(pair1, pair2)

    def test_side_mismatch_rejected(self):
        pair1 = self._pair_on_hyperplane([(0, 0), (2, 0)])
        line_pair = (
            involution_from_splitting([(0, 1, 0), (0, 0, 1)], [(1, 0, 0)]),
            involution_from_splitting([(1, 1, 0), (0, 0, 1)], [(1, 0, 0)]),
        )
        with pytest.raises(ValueError, match="side"):
            shared_summand_predicate(pair1, line_pair)

    @pytest.mark.parametrize("shared", [True, False])
    def test_profiles_come_from_the_eigen_lattices(self, monkeypatch, shared):
        # extremality is read from the rank-1 factorisation of P - I, not
        # from the trace and GF(2) rank that profile reads (a, b, p) from
        import glnz.involution as involution

        def involution_profile(M):
            raise AssertionError("_involution_profile called")

        monkeypatch.setattr(involution, "_involution_profile", involution_profile)
        P = IntMatrix.diagonal((-1, 1, 1))
        if shared:
            Q = involution_from_splitting([(0, 1, 0), (0, 0, 1)], [(1, 2, 0)])
        else:
            Q = IntMatrix.diagonal((1, -1, 1))
        assert (mutual_subgroup(P, Q) is not None) == shared
        with pytest.raises(ValueError, match="extremal"):
            mutual_subgroup(IntMatrix.diagonal((-1, -1, 1)), P)


def reference_mutual_subgroup(P, Q):
    """mutual_subgroup by the eigen lattices and the trace/GF(2) profile of
    each input, with no rank-1 shortcut."""
    if P == Q:
        raise ValueError("involutions must be distinct")
    summands = []
    for M in (P, Q):
        plus, minus = eigen_lattices(M)
        if profile(M).kind.name != EXTREMAL:
            raise ValueError("inputs must be extremal involutions")
        summands.append((plus, minus))
    (p_plus, p_minus), (q_plus, q_minus) = summands
    if p_plus == q_plus:
        shared, side = p_plus, "plus"
    elif p_minus == q_minus:
        shared, side = p_minus, "minus"
    else:
        return None
    return MutualSubgroup(shared=shared, side=side, product_m=recognize_transvection(Q * P).m)


def _outcome(f, P, Q):
    try:
        return f(P, Q)
    except ValueError as exc:
        return "ValueError", str(exc)


def _conjugate(B, seed):
    U = random_unimodular(B.n, 8, 2, seed)
    return U * B * U.inverse()


class TestMutualSubgroupOracle:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_reflection_pairs_on_every_side(self, n):
        # L1_7's conjugated reflection pairs: shared hyperplane, shared line
        # and disjoint, in turn
        from glnz.verify import _SUITES

        sides = set()
        for seed in range(4):
            sample, _ = _SUITES["L1_7"][0](n, random.Random(seed))
            for t in range(12):
                drawn = sample(t)
                P, Q = drawn["P"], drawn["Q"]
                result = mutual_subgroup(P, Q)
                assert result == reference_mutual_subgroup(P, Q)
                assert mutual_subgroup(Q, P) == reference_mutual_subgroup(Q, P)
                sides.add(None if result is None else result.side)
        assert sides == {"plus", "minus", None}

    @pytest.mark.parametrize("n", range(3, 8))
    def test_independent_conjugates(self, n):
        base = IntMatrix.diagonal([-1] + [1] * (n - 1))
        for seed in range(10):
            P, Q = _conjugate(base, 2 * seed), _conjugate(base, 2 * seed + 1)
            assert _outcome(mutual_subgroup, P, Q) == _outcome(reference_mutual_subgroup, P, Q)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_other_profile_is_rejected_alike(self, n):
        shapes = [(a, n - a - 2 * p, p) for p in range(n // 2 + 1) for a in range(n - 2 * p + 1)]
        others = [
            _conjugate(canonical_block(*shape), 100 * n + k)
            for k, shape in enumerate(shapes)
            if shape != (n - 1, 1, 0)
        ]
        # non-involutions: a unit and a double shear, a transvection of
        # rank-1 defect, and a rank-1 update with delta(x) = -3
        others += [
            IntMatrix.elementary(n, 0, 1, 1),
            IntMatrix.elementary(n, 1, 0, 2),
            make_transvection([0] * (n - 1) + [2], [1] + [0] * (n - 1)),
            IntMatrix.diagonal([-2] + [1] * (n - 1)),
        ]
        reflections = [_conjugate(IntMatrix.diagonal([-1] + [1] * (n - 1)), s) for s in (1, 2)]
        for M in others:
            for N in others + reflections:
                for pair in ((M, N), (N, M)):
                    expected = _outcome(reference_mutual_subgroup, *pair)
                    assert expected[0] == "ValueError"
                    assert _outcome(mutual_subgroup, *pair) == expected

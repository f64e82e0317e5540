import itertools
import random
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glnz.exactmat import (
    IntMatrix,
    Lattice,
    _conjugates,
    _draws,
    _kernel_vectors,
    _matmul,
    _random_word,
    _shear_word,
    _xgcd,
    basis_completion,
    content_and_primitive,
    element_order,
    kernel_lattice,
    random_elementary_word,
    random_unimodular,
    rank_mod2,
    rational_rank,
    restriction_matrix,
    row_hermite,
    summand_index,
)

small_entries = st.integers(min_value=-9, max_value=9)


def columns_strategy(max_n=4, max_k=5):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(
            st.lists(small_entries, min_size=n, max_size=n), min_size=1, max_size=max_k
        )
    )


def square_matrix_strategy(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    ).map(lambda rows: IntMatrix(tuple(tuple(r) for r in rows)))


class TestHnf:
    def test_diagonal_already_canonical(self):
        assert Lattice(2, ((2, 0), (0, 3))).basis == ((2, 0), (0, 3))

    def test_duplicate_column_collapse(self):
        assert Lattice(2, ((1, 0), (1, 0))).basis == ((1, 0),)

    def test_gcd_reduction_matches_enumeration(self):
        # oracle: all small integer combinations of the generators
        gens = [(2, 1), (4, 2)]
        span = {
            (a * gens[0][0] + b * gens[1][0], a * gens[0][1] + b * gens[1][1])
            for a in range(-6, 7)
            for b in range(-6, 7)
        }
        lattice = Lattice(2, tuple(gens))
        assert lattice.rank == 1
        (basis,) = lattice.basis
        # every small combination is a multiple of the basis vector and
        # the basis vector itself is a combination
        assert basis in span
        for v in span:
            assert lattice.contains(v)

    def test_zero_columns_permitted(self):
        assert Lattice(2, ((0, 0), (1, 2))).basis == ((1, 2),)
        assert Lattice(3).rank == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Lattice(2, ((1, 0), (1, 0, 0)))

    @given(columns_strategy())
    @settings(max_examples=150)
    def test_idempotent(self, cols):
        lattice = Lattice(len(cols[0]), tuple(cols))
        assert Lattice(lattice.ambient_rank, lattice.basis) == lattice

    @given(columns_strategy())
    @settings(max_examples=100)
    def test_span_is_preserved(self, cols):
        n = len(cols[0])
        lattice = Lattice(n, tuple(cols))
        for c in cols:
            assert lattice.contains(c)
        for b in lattice.basis:
            assert Lattice(n, tuple(cols)) == Lattice(n, tuple(cols) + (b,))


def _big_entry(rng, lo=20, hi=60):
    return rng.choice((1, -1)) * rng.randrange(10 ** (rng.randint(lo, hi) - 1), 10 ** hi)


def _hermite_inputs():
    """Seeded m x n inputs with 20- to 60-digit entries: full rank square
    and non-square, rank-deficient products of thin factors, and rows
    with zero columns and repeated rows mixed in."""
    rng = random.Random(60)
    out = []
    for m, n in ((4, 4), (6, 6), (3, 6), (6, 3), (2, 7), (7, 2)):
        out.append([[_big_entry(rng) for _ in range(n)] for _ in range(m)])
    for m, n, k in ((5, 5, 2), (6, 4, 3), (4, 6, 1), (7, 7, 5)):
        A = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(m)]
        B = [[_big_entry(rng, 15, 30) for _ in range(n)] for _ in range(k)]
        out.append([list(r) for r in _matmul(A, B)])
    rows = [[_big_entry(rng) if j % 3 else 0 for j in range(6)] for _ in range(3)]
    out.append(rows + [rows[1], [0] * 6, rows[0]])
    return out


class TestHermiteContract:
    @pytest.mark.parametrize("rows", _hermite_inputs())
    def test_unique_hnf_and_unimodular_transform(self, rows):
        H, U, r = row_hermite(rows, transform=True)
        pivots = [next(j for j, x in enumerate(H[i]) if x) for i in range(r)]
        assert pivots == sorted(set(pivots))
        assert not any(any(row) for row in H[r:])
        for i, piv in enumerate(pivots):
            assert H[i][piv] > 0
            assert all(0 <= H[k][piv] < H[i][piv] for k in range(i))
        assert row_hermite(rows) == (H, None, r)
        assert abs(IntMatrix(U).det()) == 1
        assert _matmul(U, rows) == tuple(map(tuple, H))

    @given(st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40))
    @example(5, 5)
    @example(-5, 5)
    @example(7, -14)
    @example(-14, -7)
    @example(1, -(10**50))
    @example(3, 0)
    @example(0, -4)
    @settings(max_examples=300)
    def test_xgcd_bezout_with_bounded_coefficients(self, a, b):
        g, s, t = _xgcd(a, b)
        assert g == gcd(a, b)
        assert s * a + t * b == g
        if a and b:
            assert abs(s) <= abs(b) // g and abs(t) <= abs(a) // g


class TestKernel:
    def test_zero_matrix_gives_full_lattice(self):
        K = kernel_lattice(IntMatrix(((0, 0), (0, 0))))
        assert K.rank == 2 and K.basis == ((1, 0), (0, 1))

    def test_line_kernels_match_brute_force(self):
        for rows, expected in [
            (((0, 0), (-1, -2)), (-2, 1)),
            (((2, 0), (-1, 0)), (0, 1)),
        ]:
            M = IntMatrix(rows)
            K = kernel_lattice(M)
            assert K == Lattice(2, (expected,))
            brute = {
                (x, y)
                for x in range(-5, 6)
                for y in range(-5, 6)
                if M.apply((x, y)) == (0, 0)
            }
            assert all(K.contains(v) for v in brute)
            assert all(v in brute for v in K.basis)

    @given(square_matrix_strategy())
    @settings(max_examples=150)
    def test_rank_additivity_and_annihilation(self, M):
        K = kernel_lattice(M)
        assert K.rank + rational_rank(M) == M.n
        for v in K.basis:
            assert M.apply(v) == (0,) * M.n
        assert K.saturate() == K

    def test_involution_eigen_ranks_sum(self):
        for seed in range(20):
            U = random_unimodular(4, 8, 2, seed)
            P = U * IntMatrix.diagonal((1, 1, -1, -1)) * U.inverse()
            I = IntMatrix.identity(4)
            assert kernel_lattice(P - I).rank + kernel_lattice(P + I).rank == 4


class TestSummandIndex:
    def test_unit_vectors(self):
        assert summand_index(Lattice(2, ((1, 0),)), Lattice(2, ((0, 1),))) == 1

    def test_index_two_examples(self):
        assert summand_index(Lattice(2, ((-2, 1),)), Lattice(2, ((0, 1),))) == 2
        assert summand_index(Lattice(2, ((1, 1),)), Lattice(2, ((1, -1),))) == 2

    def test_rank_violation_reported(self):
        with pytest.raises(ValueError, match="ranks"):
            summand_index(Lattice(2, ((1, 0),)), Lattice(2, ((1, 0), (0, 1))))

    def test_intersection_reported(self):
        with pytest.raises(ValueError, match="intersect"):
            summand_index(Lattice(3, ((1, 0, 0),)), Lattice(3, ((1, 0, 0), (0, 1, 0))))

    def test_index_one_iff_sum_covers_basis(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 4)
            U = random_unimodular(n, 6, 2, rng.randrange(1 << 30))
            k = rng.randint(1, n - 1)
            scale = rng.choice((1, 2, 3))
            cols = [list(c) for c in U.columns()]
            L1 = Lattice(n, tuple([[scale * x for x in cols[0]]] + cols[1:k]))
            L2 = Lattice(n, tuple(cols[k:]))
            idx = summand_index(L1, L2)
            # brute-force membership of every standard basis vector in L1 + L2
            sum_lattice = Lattice(n, L1.basis + L2.basis)
            unit_all_in = all(
                sum_lattice.contains(tuple(int(i == j) for j in range(n)))
                for i in range(n)
            )
            assert (idx == 1) == unit_all_in


class TestContentPrimitive:
    def test_examples(self):
        assert content_and_primitive((0, 2, 3)) == (1, (0, 2, 3))
        assert content_and_primitive((4, 6)) == (2, (2, 3))
        assert content_and_primitive((0, 0)) == (0, (0, 0))

    @given(st.lists(small_entries, min_size=1, max_size=6))
    def test_reconstruction(self, v):
        c, prim = content_and_primitive(v)
        assert tuple(c * x for x in prim) == tuple(v)
        if c:
            assert content_and_primitive(prim)[0] == 1


class TestRankMod2:
    def test_examples(self):
        assert rank_mod2(IntMatrix.identity(3)) == 3
        assert rank_mod2(IntMatrix(((1, 1), (1, 1)))) == 1
        assert rank_mod2(IntMatrix(((-1, 1), (1, -1)))) == 1

    @given(square_matrix_strategy())
    def test_agrees_with_exhaustive_row_space(self, M):
        rows = [tuple(x % 2 for x in r) for r in M.rows]
        span = {(0,) * M.n}
        for r in rows:
            span |= {tuple((a + b) % 2 for a, b in zip(r, s)) for s in span}
        assert 2 ** rank_mod2(M) == len(span)


class TestElementOrder:
    def test_examples(self):
        assert element_order(IntMatrix.identity(2), 5) == 1
        assert element_order(IntMatrix(((0, -1), (1, -1))), 10) == 3
        assert element_order(IntMatrix(((1, 1), (0, 1))), 100) is None

    def test_rejects_non_automorphism(self):
        with pytest.raises(ValueError):
            element_order(IntMatrix(((2, 0), (0, 1))), 5)

    def test_determinant_checked_only_when_no_power_is_identity(self):
        # M^k = I already proves M invertible; a miss still checks det
        swap = IntMatrix(((0, 1), (1, 0)))
        assert element_order(swap, 1) is None
        assert element_order(swap, 2) == 2
        for bound in (1, 2, 3):
            with pytest.raises(ValueError, match="not an automorphism"):
                element_order(IntMatrix(((0, 0), (0, 0))), bound)


class TestConstructors:
    def test_kernel_built_matrices_match_the_validating_constructor(self):
        for n in range(1, 7):
            eye = IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
            assert IntMatrix.identity(n) == eye and eye.is_identity()
            entries = list(range(-3, n - 3))
            assert IntMatrix.diagonal(entries) == IntMatrix(
                tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))
            )
            assert not IntMatrix.diagonal([1] * (n - 1) + [-1]).is_identity()
            cols = [tuple(range(j, j + n)) for j in range(n)]
            assert IntMatrix.from_columns(cols) == IntMatrix(tuple(zip(*cols)))
            assert IntMatrix.from_columns(cols).mod(3) == IntMatrix(
                tuple(tuple(x % 3 for x in r) for r in zip(*cols))
            )

    def test_bad_sizes_and_entries(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="non-empty"):
                IntMatrix.identity(n)
        with pytest.raises(ValueError, match="non-empty"):
            IntMatrix.diagonal(())
        with pytest.raises(TypeError):
            IntMatrix.identity(2.0)
        with pytest.raises(TypeError):
            IntMatrix.diagonal((1, 2.0))
        with pytest.raises(ValueError, match="non-empty"):
            IntMatrix.from_columns([])
        with pytest.raises(ValueError, match="square"):
            IntMatrix.from_columns([(1, 2)])
        with pytest.raises(TypeError):
            IntMatrix.from_columns([(1, 0), (0, 1.0)])
        with pytest.raises(TypeError):
            IntMatrix.identity(2).mod(2.0)


class TestRandomUnimodular:
    def test_zero_word_is_identity(self):
        assert random_unimodular(3, 0, 2, 123).is_identity()

    def test_always_unimodular(self):
        for seed in range(40):
            M = random_unimodular(4, 12, 3, seed)
            assert abs(M.det()) == 1

    def test_deterministic(self):
        for seed in (0, 7, 99):
            assert random_unimodular(5, 10, 2, seed) == random_unimodular(5, 10, 2, seed)

    def test_elementary_word_has_det_one(self):
        for seed in range(20):
            assert random_elementary_word(3, 20, 3, seed).det() == 1


class TestMatrixBasics:
    def test_inverse_round_trip(self):
        for seed in range(25):
            U = random_unimodular(4, 10, 2, seed)
            assert (U * U.inverse()).is_identity()
            assert (U.inverse() * U).is_identity()

    def test_inverse_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="not invertible"):
            IntMatrix(((2, 0), (0, 1))).inverse()
        with pytest.raises(ValueError, match="not invertible"):
            IntMatrix(((1, 2), (2, 4))).inverse()

    def test_det_matches_permanent_expansion(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 4)
            M = IntMatrix(
                tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
            )
            expansion = sum(
                (-1 if _parity(p) else 1)
                * _product(M.rows[i][p[i]] for i in range(n))
                for p in itertools.permutations(range(n))
            )
            assert M.det() == expansion

    def test_power(self):
        M = IntMatrix(((1, 1), (0, 1)))
        assert (M**5).rows == ((1, 5), (0, 1))
        assert (M**-2).rows == ((1, -2), (0, 1))
        assert (M**0).is_identity()


def _parity(p):
    seen = [False] * len(p)
    odd = False
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        odd ^= (length % 2 == 0)
    return odd


def _product(xs):
    out = 1
    for x in xs:
        out *= x
    return out


class TestSaturationAndRestriction:
    def test_saturate_scaled_line(self):
        L = Lattice(2, ((2, 4),))
        assert L.saturate() == Lattice(2, ((1, 2),))
        assert L.saturate() != L
        assert L.saturate().saturate() == L.saturate()

    def test_full_rank_saturates_to_everything(self):
        assert Lattice(2, ((2, 0), (0, 3))).saturate().rank == 2
        assert Lattice(2, ((2, 0), (0, 3))).saturate() == Lattice(2, ((1, 0), (0, 1)))

    def test_restriction_reproduces_action(self):
        P = IntMatrix(((1, 0), (-1, -1)))
        plus = kernel_lattice(P - IntMatrix.identity(2))
        assert restriction_matrix(P, plus).rows == ((1,),)

    def test_restriction_requires_invariance(self):
        swap = IntMatrix(((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="invariant"):
            restriction_matrix(swap, Lattice(2, ((1, 0),)))

    def test_restriction_requires_saturation(self):
        # the line through (2, 2) is swap-invariant but not saturated
        swap = IntMatrix(((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="saturated"):
            restriction_matrix(swap, Lattice(2, ((2, 2),)))

    def test_restriction_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            restriction_matrix(IntMatrix.identity(3), Lattice(2, ((1, 0),)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_contains_matches_span_equality(self, data):
        cols = data.draw(columns_strategy())
        n = len(cols[0])
        L = Lattice(n, tuple(map(tuple, cols)))
        coeffs = data.draw(st.lists(small_entries, min_size=len(cols), max_size=len(cols)))
        member = tuple(sum(c * v[i] for c, v in zip(coeffs, cols)) for i in range(n))
        j = data.draw(st.integers(0, n - 1))
        shifted = tuple(x + (i == j) for i, x in enumerate(member))
        other = tuple(data.draw(st.lists(small_entries, min_size=n, max_size=n)))
        assert L.contains(member)
        for x in (member, shifted, other):
            assert L.contains(x) == (Lattice(n, L.basis + (x,)) == L), x

    def test_basis_completion(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 5)
            U = random_unimodular(n, 8, 2, rng.randrange(1 << 30))
            k = rng.randint(1, n - 1)
            cols = [U.column(j) for j in range(k)]
            V = basis_completion(cols)
            assert abs(V.det()) == 1
            for j in range(k):
                assert V.column(j) == cols[j]


def _reference_product(A, B):
    """A @ B by the dot-product definition."""
    n = len(A)
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(n)) for j in range(n)) for i in range(n)
    )


def _signed_permutation(n, perm, signs):
    """The matrix with entry signs[j] at (perm[j], j), zero elsewhere."""
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j]][j] = signs[j]
    return IntMatrix(tuple(tuple(r) for r in rows))


def _unimodular_by_factors(n, word_length, entry_bound, seed):
    """random_unimodular as an explicit product of its factor matrices."""
    rng = random.Random(seed)
    M = IntMatrix.identity(n)
    for _ in range(word_length):
        if n >= 2 and rng.random() < 0.75:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(1, entry_bound) * rng.choice((1, -1))
            factor = IntMatrix.elementary(n, i, j, c)
        else:
            perm = rng.sample(range(n), n)
            factor = _signed_permutation(n, perm, [rng.choice((1, -1)) for _ in range(n)])
        M = IntMatrix(_reference_product(M.rows, factor.rows))
    return M


def _elementary_word_by_factors(n, word_length, entry_bound, seed):
    rng = random.Random(seed)
    M = IntMatrix.identity(n)
    for _ in range(word_length):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(1, entry_bound) * rng.choice((1, -1))
        M = IntMatrix(_reference_product(M.rows, IntMatrix.elementary(n, i, j, c).rows))
    return M


# zeros and +-1 take their own branches in the product; the wide range
# goes past 2^64
kernel_entries = st.one_of(
    st.sampled_from((0, 0, 0, 1, -1)),
    st.integers(-9, 9),
    st.integers(-(2**80), 2**80),
)


def _kernel_matrices(n, count):
    row = st.tuples(*[kernel_entries] * n)
    return st.tuples(*[st.tuples(*[row] * n)] * count)


class TestKernelDifferential:
    @given(st.integers(1, 8).flatmap(lambda n: _kernel_matrices(n, 2)), kernel_entries)
    @settings(max_examples=120, deadline=None)
    def test_arithmetic_matches_reference(self, pair, c):
        a, b = pair
        A, B = IntMatrix(a), IntMatrix(b)
        n = A.n
        product = (A * B).rows
        assert product == _reference_product(a, b)
        assert all(type(r) is tuple for r in product)
        assert A * B == IntMatrix(_reference_product(a, b))
        assert (A + B).rows == tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))
        assert (A - B).rows == tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))
        assert (-A).rows == tuple(tuple(-x for x in r) for r in a)
        assert A.shifted(c) == A + IntMatrix.diagonal([c] * n)

    @given(st.integers(1, 8), st.integers(0, 30), st.integers(1, 5), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_random_unimodular_matches_factor_product(self, n, word_length, bound, seed):
        expected = _unimodular_by_factors(n, word_length, bound, seed)
        assert random_unimodular(n, word_length, bound, seed) == expected
        if n >= 2:
            assert random_elementary_word(n, word_length, bound, seed) == (
                _elementary_word_by_factors(n, word_length, bound, seed)
            )


def _words(n):
    """Words of shears and signed permutations (perm, signs)."""
    index = st.integers(0, n - 1)
    shear = st.tuples(index, index, kernel_entries).filter(lambda s: s[0] != s[1])
    signs = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    return st.lists(st.one_of(shear, st.tuples(st.permutations(range(n)), signs)), max_size=12)


class TestShearWord:
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), _words(n))))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_product_of_elementary_factors(self, case):
        n, word = case
        expected = IntMatrix.identity(n)
        for f in word:
            factor = IntMatrix.elementary(n, *f) if len(f) == 3 else _signed_permutation(n, *f)
            expected = IntMatrix(_reference_product(expected.rows, factor.rows))
        assert _shear_word(n, word) == expected
        assert _shear_word(n, iter(word)) == expected

    def test_empty_word_is_identity(self):
        for n in range(1, 9):
            assert _shear_word(n, ()) == IntMatrix.identity(n)

    def test_single_shear_is_elementary(self):
        assert _shear_word(3, [(2, 0, 5)]).rows == ((1, 0, 0), (0, 1, 0), (5, 0, 1))

    def test_indices_outside_range_rejected(self):
        for i, j in ((-1, 0), (0, -1), (3, 0), (0, 3), (-3, 1)):
            with pytest.raises(ValueError, match="out of range"):
                _shear_word(3, [(0, 1, 1), (i, j, 5)])
            with pytest.raises(ValueError, match="out of range"):
                IntMatrix.elementary(3, i, j, 5)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            _shear_word(3, [(1, 1, 2)])
        with pytest.raises(ValueError, match="differ"):
            IntMatrix.elementary(3, 1, 1, 2)

    def test_non_integral_entries_rejected(self):
        with pytest.raises(TypeError):
            _shear_word(3, [(0, 1, 1.5)])
        with pytest.raises(TypeError):
            _shear_word(3, [(0, 1.0, 1)])
        with pytest.raises(ValueError):
            _shear_word(0, ())


class TestCarriedInverses:
    @given(st.integers(2, 6), st.integers(0, 2**32), st.data())
    @settings(max_examples=100, deadline=None)
    def test_basis_completion_pair(self, n, seed, data):
        # the completion and the inverse its callers would carry: the first
        # k columns are the given ones and V is unimodular
        U = random_unimodular(n, 8, 3, seed)
        k = data.draw(st.integers(1, n))
        cols = U.columns()[:k]
        V = basis_completion(cols)
        assert V.columns()[:k] == cols
        assert (V * V.inverse()).is_identity()


class TestDraws:
    @given(st.integers(0, 2**64), st.lists(st.integers(1, 2**40), min_size=1, max_size=6),
           st.integers(1, 25), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_draws_equal_the_stdlib_calls(self, seed, bounds, n, whole):
        # value for value and state for state, against a twin generator
        ours, twin = random.Random(seed), random.Random(seed)
        below, pick = _draws(ours)
        for m in bounds:
            assert below(m) == twin.randrange(m)
            assert 1 + below(m) == twin.randint(1, m)
        assert (1, -1)[below(2)] == twin.choice((1, -1))
        k = n if whole else 2
        if k <= n:
            for _ in range(32):
                assert pick(n, k) == twin.sample(range(n), k)
        else:
            with pytest.raises(ValueError):
                pick(n, k)
        assert ours.getstate() == twin.getstate()


class TestRandomConjugates:
    @given(st.integers(1, 9), st.integers(0, 12), st.integers(1, 3), st.integers(0, 2**32),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_equal_the_dense_conjugates(self, n, word_length, bound, seed, data):
        word = _random_word(n, word_length, bound, seed)
        U = random_unimodular(n, word_length, bound, seed)
        rows = st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)
        mats = [IntMatrix(r) for r in data.draw(st.lists(rows, min_size=1, max_size=3))]
        assert _conjugates(word, mats) == [U * M * U.inverse() for M in mats]


class TestEchelonPass:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_kernel_and_rank_equal_the_hermite_ones(self, m, k, r, data):
        # rows C B of rank at most r, B with up to 20-digit entries, so
        # that kernels are often nonzero
        big = st.integers(-(10**20), 10**20)
        B = data.draw(st.lists(st.lists(big, min_size=k, max_size=k), min_size=r, max_size=r))
        C = data.draw(st.lists(st.lists(small_entries, min_size=r, max_size=r),
                               min_size=m, max_size=m))
        rows = [[sum(c * b[j] for c, b in zip(crow, B)) for j in range(k)] for crow in C]
        _, U, rank = row_hermite([list(col) for col in zip(*rows)], transform=True)
        assert _kernel_vectors(rows) == [tuple(U[i]) for i in range(rank, k)]
        square = [row + [0] * (m - k) if k < m else row[:m] for row in rows]
        assert rational_rank(IntMatrix(square)) == row_hermite(square)[2]


class TestBoundaryValidation:
    def test_non_integral_entries_rejected(self):
        with pytest.raises(TypeError):
            IntMatrix(((1.7, 0), (0, 1)))
        with pytest.raises(TypeError):
            IntMatrix(((1.0, 0), (0, 1)))
        with pytest.raises(TypeError):
            IntMatrix.diagonal((1.5, 1))
        with pytest.raises(TypeError):
            IntMatrix.elementary(2, 0, 1, 2.5)
        with pytest.raises(TypeError):
            Lattice(2, ((0.5, 1),))
        with pytest.raises(TypeError):
            IntMatrix.identity(2).shifted(0.5)

    def test_bools_read_as_ints(self):
        M = IntMatrix(((True, False), (False, True)))
        assert M == IntMatrix.identity(2)
        assert all(type(x) is int for row in M.rows for x in row)
        assert IntMatrix.diagonal((True, -1)).rows == ((1, 0), (0, -1))

    def test_sum_and_difference_demand_equal_sizes(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            IntMatrix.identity(2) + IntMatrix.identity(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            IntMatrix.identity(3) - IntMatrix.identity(2)

    def test_sum_and_difference_with_a_non_matrix_raise_type_error(self):
        M = IntMatrix.identity(2)
        for other in (1, 0.5, (1, 0), [[1, 0], [0, 1]]):
            with pytest.raises(TypeError, match="unsupported operand"):
                M + other
            with pytest.raises(TypeError, match="unsupported operand"):
                M - other
            with pytest.raises(TypeError, match="unsupported operand"):
                other - M

    def test_product_with_a_vector_reads_integers(self):
        M = IntMatrix(((2, 1), (0, 1)))
        assert M.apply([True, 2]) == M.apply((1, 2)) == (4, 2)
        assert all(type(x) is int for x in M.apply([True, 2]))
        for v in ((1.5, 2), (1, 2.0), ("1", 2)):
            with pytest.raises(TypeError):
                M.apply(v)
        # apply is the one spelling of a matrix-vector product, and * is
        # the one spelling of a matrix product
        for v in ((1, 2), [1, 2]):
            with pytest.raises(TypeError):
                M * v
            with pytest.raises(TypeError):
                M @ v
        with pytest.raises(TypeError):
            M @ M

"""Differential checks against sympy, an implementation independent of
this library.  sympy is not a dependency; without it the module skips.

For an involution P of profile (a, b, p), the image of I + P is 2L+ plus
p further directions, so the Smith form of I + P over Z is 1^p 2^a 0^(b+p),
and symmetrically that of I - P is 1^p 2^b 0^(a+p).

The integer kernel is checked the same way: ``det``, ``inverse`` and
``rational_rank`` on 1- to 40-digit entries against sympy's exact
rational linear algebra, ``rank_mod2`` and the GF(2) echelon
``_mod2_echelon`` against sympy's GF(2) rank, and ``row_hermite`` against
sympy's Hermite normal form.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from glnz.exactmat import (  # noqa: E402
    IntMatrix,
    _mod2_echelon,
    random_unimodular,
    rank_mod2,
    rational_rank,
    row_hermite,
)
from glnz.involution import (  # noqa: E402
    InvolutionProfile,
    _involution_profile,
    canonical_block,
    canonical_form,
    profile,
)

SHAPES = [
    (a, n - 2 * p - a, p)
    for n in range(1, 9)
    for p in range(n // 2 + 1)
    for a in range(n - 2 * p + 1)
]


def invariant_factors(M):
    """Diagonal of the Smith form, made non-negative and sorted with the
    zeros last."""
    D = smith_normal_form(sympy.Matrix([list(r) for r in M.rows]), domain=sympy.ZZ)
    diag = [abs(int(D[i, i])) for i in range(M.n)]
    return sorted(x for x in diag if x) + [0] * diag.count(0)


def random_conjugate(rng, a, b, p):
    n = a + b + 2 * p
    U = random_unimodular(n, 8, 2, rng.randrange(1 << 30))
    return U * canonical_block(a, b, p) * U.inverse()


@pytest.mark.parametrize("seed", [0, 1])
def test_smith_forms_give_the_profile(seed):
    rng = random.Random(seed)
    for a, b, p in SHAPES:
        P = random_conjugate(rng, a, b, p)
        assert invariant_factors(P.shifted(1)) == [1] * p + [2] * a + [0] * (b + p)
        assert invariant_factors(-P.shifted(-1)) == [1] * p + [2] * b + [0] * (a + p)
        expected = InvolutionProfile(a, b, p)
        assert profile(P) == expected
        assert canonical_form(P).profile == expected


def _entry(rng):
    return rng.choice((1, -1)) * rng.randrange(10 ** rng.randint(1, 40))


def _sympy(M):
    return sympy.Matrix([list(r) for r in M.rows])


@pytest.mark.parametrize("seed", [0, 1])
def test_det_matches_sympy(seed):
    rng = random.Random(100 + seed)
    for n in range(1, 7):
        for _ in range(4):
            M = IntMatrix(tuple(tuple(_entry(rng) for _ in range(n)) for _ in range(n)))
            assert M.det() == int(_sympy(M).det())


@pytest.mark.parametrize("seed", [0, 1])
def test_inverse_matches_sympy(seed):
    rng = random.Random(200 + seed)
    for n in range(1, 7):
        # one seed per n, its word grown until the entries reach 40 digits
        seed = rng.randrange(1 << 30)
        for length in range(2 * n, 400, 2 * n):
            U = random_unimodular(n, length, 9, seed)
            inv = _sympy(U).inv()
            assert U.inverse().rows == tuple(tuple(int(inv[i, j]) for j in range(n)) for i in range(n))
            if max(abs(x) for r in U.rows for x in r) >= 10**39:
                break
        M = IntMatrix(tuple(tuple(_entry(rng) for _ in range(n)) for _ in range(n)))
        if abs(int(_sympy(M).det())) != 1:
            with pytest.raises(ValueError):
                M.inverse()


@pytest.mark.parametrize("seed", [0, 1])
def test_rational_rank_matches_sympy(seed):
    rng = random.Random(300 + seed)
    for n in range(1, 7):
        for k in range(n + 1):
            # an n x k times k x n product has rank at most k
            A = [[_entry(rng) for _ in range(k)] for _ in range(n)]
            B = [[_entry(rng) for _ in range(n)] for _ in range(k)]
            M = IntMatrix(tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B)) if k else (0,) * n
                for row in A
            ))
            assert rational_rank(M) == _sympy(M).rank()


def _sympy_rank_mod2(M):
    return DomainMatrix.from_Matrix(_sympy(M)).convert_to(sympy.GF(2)).rank()


def _assert_mod2_echelon(M):
    n = M.n
    kept, relations = _mod2_echelon(M.rows)
    assert rank_mod2(M) == _sympy_rank_mod2(M) == len(kept)
    assert len({pivot for _, pivot in kept}) == len(kept)
    assert len(kept) + len(relations) == n
    dependent = sorted(set(range(n)) - {i for i, _ in kept})
    for i, mask in zip(dependent, relations):
        assert mask.bit_length() - 1 == i
        terms = [M.rows[k] for k in range(n) if mask >> k & 1]
        assert all(sum(col) % 2 == 0 for col in zip(*terms))


@pytest.mark.parametrize("seed", [0, 1])
def test_mod2_echelon_matches_sympy(seed):
    rng = random.Random(500 + seed)
    for n in range(1, 8):
        for k in range(n + 1):
            # an n x k times k x n product plus 2 times a many-digit matrix:
            # GF(2) rank at most k, rational rank almost always n
            A = [[_entry(rng) for _ in range(k)] for _ in range(n)]
            B = [[rng.choice((0, rng.randint(-9, 9), _entry(rng))) for _ in range(n)] for _ in range(k)]
            M = IntMatrix(tuple(
                tuple(sum(a * b for a, b in zip(row, col)) + 2 * _entry(rng) for col in zip(*B))
                if k else tuple(2 * _entry(rng) for _ in range(n))
                for row in A
            ))
            assert rank_mod2(M) <= k
            _assert_mod2_echelon(M)
            _assert_mod2_echelon(IntMatrix(tuple(tuple(_entry(rng) for _ in range(n)) for _ in range(n))))


INVOLUTION_SHAPES = [
    (a, n - 2 * p - a, p)
    for n in range(1, 13)
    for p in range(n // 2 + 1)
    for a in range(n - 2 * p + 1)
]


@pytest.mark.parametrize("seed", [0, 1])
def test_profile_is_trace_and_mod2_rank_on_involutions(seed):
    # the eigen lattices have ranks a + p and b + p over Q, and the
    # profile reads a - b off the trace and p as the GF(2) rank of P - I
    rng = random.Random(600 + seed)
    for a, b, p in INVOLUTION_SHAPES:
        n = a + b + 2 * p
        U = random_unimodular(n, 6 * n, 99, rng.randrange(1 << 30))  # 6- to 30-digit entries
        P = U * canonical_block(a, b, p) * U.inverse()
        for c, rank in ((-1, b + p), (1, a + p)):
            assert rational_rank(P.shifted(c)) == rank
        assert P.trace() == a - b
        assert profile(P) == InvolutionProfile(a, b, p)


def test_profile_needs_the_involution_check(monkeypatch):
    # why the profile squares first: the trace and the GF(2) rank of P - I
    # give the profile only once P^2 = I is known.  With the square
    # skipped, the rotation by a quarter turn, of trace 0 and GF(2) rank 1,
    # gets the consistent but meaningless profile (0, 0, 1)
    import glnz.involution as involution

    rotation = IntMatrix(((0, -1), (1, 0)))
    # [[3]] gives b = -1, and diag(4, -1) has n + trace odd
    inconsistent = (IntMatrix(((3,),)), IntMatrix.diagonal((4, -1)))
    with monkeypatch.context() as patched:
        patched.setattr(involution, "is_involution", lambda M: True)
        assert _involution_profile(rotation) == InvolutionProfile(0, 0, 1)
        for M in inconsistent:
            with pytest.raises(RuntimeError, match="inconsistent"):
                _involution_profile(M)
    for M in (rotation, *inconsistent):
        assert _involution_profile(M) is None
        with pytest.raises(ValueError, match="not an involution"):
            profile(M)


def sympy_row_hermite(rows):
    """The nonzero rows of the row HNF, from sympy's column-style
    hermite_normal_form: reverse the columns, transpose, and undo both on
    the result, whose rows and columns then run in reverse."""
    H = hermite_normal_form(sympy.Matrix(rows)[:, ::-1].T).T[::-1, ::-1]
    return [[int(x) for x in H.row(i)] for i in range(H.rows)]


@pytest.mark.parametrize("seed", [0, 1])
def test_row_hermite_matches_sympy(seed):
    rng = random.Random(400 + seed)
    cases = 0
    while cases < 100:
        n = rng.randint(2, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if _sympy(IntMatrix(tuple(map(tuple, rows)))).det() != 0:
            H, _, rank = row_hermite(rows)
            assert rank == n and H == sympy_row_hermite(rows)
            cases += 1
    for m in range(1, 7):
        for n in range(1, 7):
            for k in range(min(m, n) + 1):
                # an m x k times k x n product has rank at most k; sympy
                # drops the zero rows that row_hermite keeps at the bottom
                A = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
                B = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(k)]
                rows = [[sum(a * B[t][j] for t, a in enumerate(r)) for j in range(n)] for r in A]
                H, _, rank = row_hermite(rows)
                expected = sympy_row_hermite(rows)
                assert rank == len(expected) and H[:rank] == expected
                assert all(not any(r) for r in H[rank:])

"""Differential checks against sympy, an implementation independent of
this library.  sympy is not a dependency; without it the module skips.

For an involution P of profile (a, b, p), the image of I + P is 2L+ plus
p further directions, so the Smith form of I + P over Z is 1^p 2^a 0^(b+p),
and symmetrically that of I - P is 1^p 2^b 0^(a+p).

The integer kernel is checked the same way: ``det``, ``inverse`` and
``rational_rank`` on 1- to 40-digit entries against sympy's exact
rational linear algebra.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from glnz.exactmat import IntMatrix, random_unimodular, rational_rank  # noqa: E402
from glnz.involution import (  # noqa: E402
    InvolutionProfile,
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

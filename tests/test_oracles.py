"""Differential checks against sympy, an implementation independent of
this library.  sympy is not a dependency; without it the module skips.

For an involution P of profile (a, b, p), the image of I + P is 2L+ plus
p further directions, so the Smith form of I + P over Z is 1^p 2^a 0^(b+p),
and symmetrically that of I - P is 1^p 2^b 0^(a+p).
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from glnz.exactmat import random_unimodular  # noqa: E402
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

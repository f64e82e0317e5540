"""The benchmark's own integer code: seeded input construction and the
output checks.  Nothing here calls into glnz, so a defect in the program
cannot hide in the check that is meant to catch it.

Matrices are lists of row lists of Python ints.
"""

from __future__ import annotations

import random
from math import gcd


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(A, B) -> list[list[int]]:
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def is_identity(A) -> bool:
    return all(x == (i == j) for i, row in enumerate(A) for j, x in enumerate(row))


def det(A) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in A]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def content(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def digits(A) -> int:
    """Decimal digits of the largest entry in absolute value."""
    return len(str(max(abs(x) for row in A for x in row)))


def is_transvection_matrix(M) -> bool:
    """M - I has rank one and squares to zero."""
    n = len(M)
    N = [[M[i][j] - (i == j) for j in range(n)] for i in range(n)]
    nonzero = [r for r in N if any(r)]
    if not nonzero:
        return False
    base = nonzero[0]
    j0 = next(j for j, x in enumerate(base) if x)
    for r in nonzero[1:]:
        # rank one: every row is a rational multiple of the first nonzero row
        if any(r[j] * base[j0] != base[j] * r[j0] for j in range(n)):
            return False
    return not any(any(row) for row in matmul(N, N))


def gamma_levels(M) -> list[int]:
    """Levels m in 2..12, the range glnz classify reports, with M
    congruent to I mod m."""
    n = len(M)
    off = [M[i][j] - (i == j) for i in range(n) for j in range(n)]
    return [m for m in range(2, 13) if all(x % m == 0 for x in off)]


class Unimodular:
    """U and its inverse, grown together by seeded shears and signed
    permutations applied as column operations on U and the matching row
    operations on U^-1."""

    def __init__(self, n: int):
        self.n = n
        self.U = identity(n)
        self.Uinv = identity(n)

    def shear(self, i: int, j: int, c: int) -> None:
        # U <- U (I + c E_ij);  U^-1 <- (I - c E_ij) U^-1
        for row in self.U:
            row[j] += c * row[i]
        self.Uinv[i] = [a - c * b for a, b in zip(self.Uinv[i], self.Uinv[j])]

    def signed_permutation(self, perm: list[int], signs: list[int]) -> None:
        # S e_j = signs[j] e_perm[j];  U <- U S,  U^-1 <- S^T U^-1
        self.U = [[row[perm[j]] * signs[j] for j in range(self.n)] for row in self.U]
        self.Uinv = [[signs[j] * x for x in self.Uinv[perm[j]]] for j in range(self.n)]

    def random_step(self, rng: random.Random, coeff_bound: int) -> None:
        if rng.random() < 0.8:
            i, j = rng.sample(range(self.n), 2)
            self.shear(i, j, rng.randint(1, coeff_bound) * rng.choice((1, -1)))
        else:
            self.signed_permutation(
                rng.sample(range(self.n), self.n),
                [rng.choice((1, -1)) for _ in range(self.n)],
            )

    def conjugate(self, B) -> list[list[int]]:
        """U B U^-1."""
        return matmul(matmul(self.U, B), self.Uinv)


def canonical_block(a: int, b: int, p: int) -> list[list[int]]:
    """diag(I_a, -I_b, p swap blocks)."""
    n = a + b + 2 * p
    B = [[0] * n for _ in range(n)]
    for i in range(a):
        B[i][i] = 1
    for i in range(a, a + b):
        B[i][i] = -1
    for t in range(p):
        lo = a + b + 2 * t
        B[lo][lo + 1] = B[lo + 1][lo] = 1
    return B


def involution_kind(a: int, b: int, p: int) -> tuple[str, int | None]:
    """Class name and gamma of the involution with canonical profile
    (a, b, p), by the definitions in the source paper."""
    n = a + b + 2 * p
    if a == n or b == n:
        return "central", None
    if p == 0:
        if 0 < b < a:
            return ("extremal", 1) if b == 1 else ("gamma_involution", b)
        return "diagonalizable_other", None
    if p == 1 and (a == 0 or b == 0):
        return "one_permutation", None
    return "nondiagonalizable_other", None


def shear_word(rng: random.Random, n: int, target_digits: int, level: int = 1):
    """Product of seeded shears whose coefficients are multiples of level,
    grown until the largest entry has at least target_digits digits; the
    result has determinant 1 and is congruent to I mod level."""
    M = identity(n)
    while digits(M) < target_digits:
        i, j = rng.sample(range(n), 2)
        c = level * rng.randint(1, 99) * rng.choice((1, -1))
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
    return M


def random_transvection(rng: random.Random, n: int, x_digits: int, m0: int):
    """I + x (x) delta with x primitive, delta(x) = 0 and content(delta)
    a multiple of m0; returns (matrix, x, delta)."""
    while True:
        x = [rng.randint(-(10**x_digits), 10**x_digits) for _ in range(n)]
        g = content(x)
        if g:
            x = [e // g for e in x]
            break
    d = [0] * n
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        r = rng.randint(1, 9) * rng.choice((1, -1))
        d[i] += r * x[j]
        d[j] -= r * x[i]
    if not any(d):
        k = next(t for t in range(n) if x[t])
        i = (k + 1) % n
        d[i], d[k] = x[k], -x[i]
    delta = [m0 * e for e in d]
    M = [[(i == j) + x[i] * delta[j] for j in range(n)] for i in range(n)]
    return M, x, delta

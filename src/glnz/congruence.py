"""Congruence subgroups of GL(n, Z) and the rank-2/rank-3 matrix identities
behind them: shear factorizations, unipotent square roots, braid-relation
involutions, commutator identities, and mod-2 lifting.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .exactmat import IntMatrix, _euclid_column, _mod2_reduction, _shear_word

__all__ = [
    "CommutatorReport",
    "Factorization",
    "braid_involution_solutions",
    "commutator_identities",
    "elementary_factorization",
    "in_gamma",
    "lift_mod2",
    "lift_row_to_sl3",
    "unipotent_sqrt_sl2",
]


@dataclass(frozen=True)
class Factorization:
    """Ordered shears (i, j, c), each I + c*E_ij with i != j (indices
    0-based), whose left-to-right product is the target.  An even shear
    is the square of its half, (i, j, c // 2)."""

    n: int
    factors: tuple[tuple[int, int, int], ...]

    def __len__(self) -> int:
        return len(self.factors)

    def product(self) -> IntMatrix:
        return _shear_word(self.n, self.factors)


def in_gamma(M: IntMatrix, m: int) -> bool:
    """Membership in the principal congruence subgroup of level m:
    matrices acting trivially on (Z/m)^n, i.e. congruent to I mod m."""
    if operator.index(m) < 2:
        raise ValueError("level must be at least 2")
    if not M.is_automorphism:
        raise ValueError("matrix is not an automorphism of Z^n")
    return M.mod(m).is_identity()


def elementary_factorization(M: IntMatrix) -> Factorization:
    """Write a determinant-1 matrix as an exact product of shears.

    Gauss-Jordan over Z: euclidean row reduction brings each pivot to 1,
    then the column is cleared.  Shears keep the determinant, +-1 times the
    product of the pivots, so det M != 1 exactly when a column is zero from
    the diagonal down, a pivot is not +-1, or the last pivot is -1.  The
    recorded operations invert to the factorization.  No length bound is
    promised; the length is whatever the reduction produces.
    """
    n = M.n
    if n < 2:
        raise ValueError("rank must be at least 2")
    A = [list(r) for r in M.rows]
    # E_k ... E_1 M = I for the row operations E, so M = E_1^-1 ... E_k^-1
    # in the original order: each operation adding c * row j to row i
    # records its inverse (i, j, -c)
    word: list[tuple[int, int, int]] = []

    def rowop(i: int, j: int, c: int) -> None:
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        word.append((i, j, -c))

    for col in range(n):
        i0 = _euclid_column(A, col, col, word)
        if i0 is None or abs(A[i0][col]) != 1:
            raise ValueError("determinant must be 1")
        if A[i0][col] == -1:
            if col == n - 1:
                raise ValueError("determinant must be 1")
            other = col if i0 != col else col + 1
            rowop(other, i0, 1)
            rowop(i0, other, -2)
            rowop(other, i0, 1)
            i0 = next(i for i in range(col, n) if A[i][col] == 1)
        if i0 != col:
            rowop(col, i0, 1)
        for i in range(n):
            if i != col and A[i][col]:
                rowop(i, col, -A[i][col])
    if any(A[i][j] != (i == j) for i in range(n) for j in range(n)):
        raise RuntimeError("reduction did not reach the identity")
    F = Factorization(n, tuple(word))
    if F.product() != M:
        raise RuntimeError("factorization does not reproduce the input")
    return F


def unipotent_sqrt_sl2(T: IntMatrix) -> tuple[IntMatrix, ...]:
    """All X in SL(2, Z) with X*X = T, for unipotent T.

    The trace of a solution is forced to +-2, so X = +-(I + N/2) with
    N = T - I; the set is empty unless N is even, and {I, -I} for T = I.
    """
    if T.n != 2 or T.det() != 1 or T.trace() != 2:
        raise ValueError("matrix is not unipotent in SL(2, Z)")
    N = T.shifted(-1)
    if any(x % 2 for row in N.rows for x in row):
        return ()
    half = IntMatrix(tuple(tuple(x // 2 for x in row) for row in N.rows))
    X = half.shifted(1)
    if X * X != T:
        raise RuntimeError("square-root construction failed")
    return tuple(sorted((X, -X), key=lambda m: m.rows))


_SWAP = ((0, 1), (1, 0))


def braid_involution_solutions() -> tuple[IntMatrix, ...]:
    """The four trace-0, determinant -1 matrices R, other than the swap S,
    with S R S = R S R.

    Solved exactly: the relation forces either a = 0 (giving only S) or
    b + c + 1 = 0 with a^2 = b^2 + b + 1, i.e. (2a-2b-1)(2a+2b+1) = 3,
    leaving four divisor cases.  Completeness is checked by exhaustive
    search in the tests, not at run time: acceptance test C01 searches
    entries in [-50, 50] and tests/test_congruence.py searches [-100, 100].
    """
    S = IntMatrix(_SWAP)
    solutions = []
    for d1 in (1, 3, -1, -3):
        d2 = 3 // d1
        a = (d1 + d2) // 4
        b = (d2 - d1 - 2) // 4
        c = -b - 1
        R = IntMatrix(((a, b), (c, -a)))
        if not (R != S and R.det() == -1 and R.trace() == 0 and S * R * S == R * S * R):
            raise RuntimeError("braid-relation case analysis produced a bad matrix")
        solutions.append(R)
    solutions = tuple(sorted(set(solutions), key=lambda m: m.rows))
    if len(solutions) != 4:
        raise RuntimeError("braid-relation case analysis must give four solutions")
    return solutions


@dataclass(frozen=True)
class CommutatorReport:
    """The four rank-3 square-root candidates of the double shear, their
    conjugates under the 3-cycle, the two commutator values, and the
    eigenvalue -1 discrimination separating the shear from the rest."""

    cycle: IntMatrix
    candidates: tuple[IntMatrix, ...]
    commutators: tuple[IntMatrix, ...]
    candidate_has_minus_one: tuple[bool, ...]
    commutator_has_minus_one: tuple[bool, ...]
    shear_index: int


def _has_eigenvalue_minus_one(M: IntMatrix) -> bool:
    return M.shifted(1).det() == 0


def commutator_identities() -> CommutatorReport:
    """Check the two rank-3 commutator identities that single out the unit
    shear among the square roots of the double shear.

    For sigma = I + E01 the commutator with its 3-cycle conjugate is
    I + E02; for the negated variants it is [[1,2,-3],[0,1,-2],[0,0,1]].
    Only the unit shear lacks eigenvalue -1 and has its commutator
    conjugate to itself.  Any mismatch raises.
    """
    shear = IntMatrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    negated = IntMatrix(((-1, -1, 0), (0, -1, 0), (0, 0, 1)))
    candidates = (shear, -shear, negated, -negated)
    cycle = IntMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    double_shear = IntMatrix(((1, 2, 0), (0, 1, 0), (0, 0, 1)))
    commutators = []
    for sigma in candidates:
        if sigma * sigma != double_shear:
            raise RuntimeError("candidate is not a square root of the double shear")
        conj = cycle * sigma * cycle.inverse()
        commutators.append(sigma * conj * sigma.inverse() * conj.inverse())
    first = IntMatrix(((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    second = IntMatrix(((1, 2, -3), (0, 1, -2), (0, 0, 1)))
    if commutators[0] != first or commutators[1] != first:
        raise RuntimeError("shear commutator identity failed")
    if commutators[2] != second or commutators[3] != second:
        raise RuntimeError("negated-variant commutator identity failed")
    cand_minus = tuple(_has_eigenvalue_minus_one(m) for m in candidates)
    comm_minus = tuple(_has_eigenvalue_minus_one(m) for m in commutators)
    if cand_minus != (False, True, True, True) or any(comm_minus):
        raise RuntimeError("eigenvalue -1 discrimination failed")
    return CommutatorReport(
        cycle=cycle,
        candidates=candidates,
        commutators=tuple(commutators),
        candidate_has_minus_one=cand_minus,
        commutator_has_minus_one=comm_minus,
        shear_index=0,
    )


def lift_row_to_sl3(a: int, c: int) -> IntMatrix:
    """Complete a coprime (odd, even) column to [[a,b,0],[c,d,0],[0,0,1]]
    in SL(3, Z) congruent to I mod 2.

    Determinant 1 with b even means a d = 1 mod 2c, so for c != 0 the
    completion is normalized to the one solution with d in [1, 2|c|):
    d = a^-1 mod 2|c| and b = (a d - 1)/c.  For c = 0, a = +-1 and d = a.
    """
    a, c = operator.index(a), operator.index(c)
    if a % 2 == 0:
        raise ValueError("first entry must be odd")
    if c % 2:
        raise ValueError("second entry must be even")
    if gcd(a, c) != 1:
        raise ValueError("entries must be coprime")
    if c == 0:
        d, b = a, 0
    else:
        d = pow(a, -1, 2 * abs(c))
        b = (a * d - 1) // c
    M = IntMatrix(((a, b, 0), (c, d, 0), (0, 0, 1)))
    if M.det() != 1 or not M.mod(2).is_identity():
        raise RuntimeError("row completion postcondition violated")
    return M


def lift_mod2(rows) -> IntMatrix:
    """Lift an invertible matrix over GF(2) to SL(n, Z).

    The mod-2 matrix is reduced to the identity by row additions only (a
    swap over GF(2) is three additions); each addition lifts to the unit
    shear, and the reversed product is the lift.  The reduction decides
    singularity: at each column the earlier ones are unit vectors, so the
    matrix is singular exactly when no row from the diagonal down has a 1.
    """
    if not isinstance(rows, IntMatrix):
        rows = IntMatrix(rows)
    n, target = rows.n, rows.mod(2).rows
    # row additions are involutions mod 2, so the input equals the
    # reduction's additions composed in original order; lifting each with
    # coefficient 1 keeps the mod-2 value and determinant 1
    M = _shear_word(n, ((i, j, 1) for i, j in _mod2_reduction(target)))
    if M.det() != 1 or M.mod(2).rows != target:
        raise RuntimeError("mod-2 lift postcondition violated")
    return M

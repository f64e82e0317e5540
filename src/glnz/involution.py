"""Canonical bases, invariants, classification and witness constructions
for involutions in GL(n, Z).

Every involution of Z^n has a basis splitting it into fixed vectors,
negated vectors and swap pairs; the triple of block sizes (a, b, p) is a
complete conjugacy invariant.  The constructions here are all machine
checked after the fact: the returned basis change is verified to produce
the exact block matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmat import (
    IntMatrix,
    Lattice,
    Vector,
    element_order,
    kernel_lattice,
    rank_mod2,
    rational_rank,
    restriction_matrix,
    row_hermite,
)

CENTRAL = "central"
EXTREMAL = "extremal"
GAMMA_INVOLUTION = "gamma_involution"
ONE_PERMUTATION = "one_permutation"
DIAGONALIZABLE_OTHER = "diagonalizable_other"
NONDIAGONALIZABLE_OTHER = "nondiagonalizable_other"

__all__ = [
    "CENTRAL",
    "EXTREMAL",
    "GAMMA_INVOLUTION",
    "ONE_PERMUTATION",
    "DIAGONALIZABLE_OTHER",
    "NONDIAGONALIZABLE_OTHER",
    "BlockLayout",
    "CanonicalBasis",
    "InvolutionKind",
    "InvolutionProfile",
    "canonical_block",
    "canonical_form",
    "classify",
    "eigen_lattices",
    "four_involution_witness",
    "involution_from_splitting",
    "involutions_conjugate",
    "is_involution",
    "order3_witness",
    "profile",
    "residue",
    "standard_commuting_family",
]


@dataclass(frozen=True)
class InvolutionKind:
    name: str
    gamma: int | None = None


@dataclass(frozen=True)
class InvolutionProfile:
    """Block sizes of the canonical basis: a fixed vectors, b negated
    vectors, p swap pairs; a + b + 2p = n."""

    a: int
    b: int
    p: int

    @property
    def diagonalizable(self) -> bool:
        return self.p == 0

    @property
    def rank_plus(self) -> int:
        return self.a + self.p

    @property
    def rank_minus(self) -> int:
        return self.b + self.p

    @property
    def kind(self) -> InvolutionKind:
        """The conjugacy class the profile belongs to."""
        a, b, p = self.a, self.b, self.p
        if self.diagonalizable:
            if a == 0 or b == 0:
                return InvolutionKind(CENTRAL)
            if b == 1 < a:
                return InvolutionKind(EXTREMAL, 1)
            if b < a:
                return InvolutionKind(GAMMA_INVOLUTION, b)
            return InvolutionKind(DIAGONALIZABLE_OTHER)
        if p == 1 and (a == 0 or b == 0):
            return InvolutionKind(ONE_PERMUTATION)
        return InvolutionKind(NONDIAGONALIZABLE_OTHER)


@dataclass(frozen=True)
class BlockLayout:
    fixed: tuple[int, int]
    negated: tuple[int, int]
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CanonicalBasis:
    """Unimodular U whose columns split Z^n for the involution: fixed
    block, negated block, then swap pairs."""

    U: IntMatrix
    profile: InvolutionProfile
    layout: BlockLayout

    def block_matrix(self) -> IntMatrix:
        return canonical_block(self.profile.a, self.profile.b, self.profile.p)


def canonical_block(a: int, b: int, p: int) -> IntMatrix:
    """diag(I_a, -I_b, p swap blocks)."""
    n = a + b + 2 * p
    rows = [[0] * n for _ in range(n)]
    for i in range(a):
        rows[i][i] = 1
    for i in range(a, a + b):
        rows[i][i] = -1
    for t in range(p):
        lo = a + b + 2 * t
        rows[lo][lo + 1] = 1
        rows[lo + 1][lo] = 1
    return IntMatrix(tuple(tuple(r) for r in rows))


def is_involution(M: IntMatrix) -> bool:
    return (M * M).is_identity()


def _demand_involution(M: IntMatrix) -> None:
    if not is_involution(M):
        raise ValueError("not an involution")


def eigen_lattices(P: IntMatrix) -> tuple[Lattice, Lattice]:
    """The saturated summands of vectors fixed by P and negated by P."""
    _demand_involution(P)
    return kernel_lattice(P.shifted(-1)), kernel_lattice(P.shifted(1))


def residue(P: IntMatrix) -> int:
    """GF(2) rank of P - I; equals the number p of swap pairs."""
    _demand_involution(P)
    return rank_mod2(P.shifted(-1))


def profile(P: IntMatrix) -> InvolutionProfile:
    """Block sizes from ranks: the eigen lattices of P have ranks
    n - rank_Q(P - I) = a + p and n - rank_Q(P + I) = b + p."""
    _demand_involution(P)
    n = P.n
    p_minus_i = P.shifted(-1)
    p = rank_mod2(p_minus_i)
    a = n - rational_rank(p_minus_i) - p
    b = n - rational_rank(P.shifted(1)) - p
    if a < 0 or b < 0 or a + b + 2 * p != n:
        raise RuntimeError("inconsistent involution invariants")
    return InvolutionProfile(a, b, p)


def classify(P: IntMatrix) -> InvolutionKind:
    return profile(P).kind


def involutions_conjugate(P: IntMatrix, Q: IntMatrix) -> bool:
    """True exactly when P and Q are conjugate in GL(n, Z); the profile is
    a complete invariant."""
    return profile(P) == profile(Q)


def _decompose(Q: IntMatrix) -> tuple[list[Vector], list[Vector], list[tuple[Vector, Vector]]]:
    """Split Z^k under the involution Q into fixed vectors, negated vectors
    and swap pairs, all expressed in Q's coordinates.

    Swap pairs are peeled off one at a time: a vector v with (Q - I)v odd
    spans, together with Qv, a rank-2 invariant sublattice; inside its
    saturation the midpoint of the two eigen-generators gives a pair
    (w, Qw) spanning a direct summand on which Q is the swap.  An
    equivariant projection onto that summand yields an invariant
    complement to recurse on.
    """
    k = Q.n
    diff = Q.shifted(-1)
    odd_col = next(
        (j for j in range(k) if any(diff.rows[i][j] % 2 for i in range(k))), None
    )
    if odd_col is None:
        plus = kernel_lattice(diff)
        minus = kernel_lattice(Q.shifted(1))
        return list(plus.basis), list(minus.basis), []

    v = tuple(int(i == odd_col) for i in range(k))
    S = Lattice(k, (v, Q.column(odd_col))).saturate()
    Qs = restriction_matrix(Q, S)
    (up,) = kernel_lattice(Qs.shifted(-1)).basis
    (um,) = kernel_lattice(Qs.shifted(1)).basis
    if any((x + y) % 2 for x, y in zip(up, um)):
        raise RuntimeError("swap-pair extraction failed")
    w2 = tuple((x + y) // 2 for x, y in zip(up, um))
    b0, b1 = S.basis
    w = tuple(b0[i] * w2[0] + b1[i] * w2[1] for i in range(k))
    qw = Q.apply(w)

    pair_cols = [[w[i], qw[i]] for i in range(k)]
    H, Uw, r = row_hermite(pair_cols, transform=True)
    if r != 2 or any(H[i][j] != (i == j) for i in range(2) for j in range(2)):
        raise RuntimeError("extracted pair does not span a summand")
    alpha = Uw[0]
    alpha_q = [sum(alpha[i] * Q.rows[i][j] for i in range(k)) for j in range(k)]
    proj = IntMatrix(
        tuple(
            tuple(w[i] * alpha[j] + qw[i] * alpha_q[j] for j in range(k))
            for i in range(k)
        )
    )
    W = kernel_lattice(proj)
    if W.rank != k - 2:
        raise RuntimeError("invariant complement has wrong rank")
    if k == 2:
        return [], [], [(w, qw)]
    Qr = restriction_matrix(Q, W)
    fixed, negated, pairs = _decompose(Qr)
    B = W.basis

    def lift(x: Vector) -> Vector:
        return tuple(sum(B[t][i] * x[t] for t in range(len(B))) for i in range(k))

    return (
        [lift(x) for x in fixed],
        [lift(x) for x in negated],
        [(w, qw)] + [(lift(x), lift(y)) for x, y in pairs],
    )


def canonical_form(P: IntMatrix) -> CanonicalBasis:
    """Canonical basis for an involution: U unimodular with U^-1 P U equal
    to diag(I_a, -I_b, p swap blocks)."""
    _demand_involution(P)
    fixed, negated, pairs = _decompose(P)
    cols = fixed + negated + [v for pair in pairs for v in pair]
    U = IntMatrix.from_columns(cols)
    a, b, p = len(fixed), len(negated), len(pairs)
    prof = InvolutionProfile(a, b, p)
    layout = BlockLayout(
        fixed=(0, a),
        negated=(a, a + b),
        pairs=tuple((a + b + 2 * t, a + b + 2 * t + 2) for t in range(p)),
    )
    result = CanonicalBasis(U=U, profile=prof, layout=layout)
    # with |det U| = 1, P U = U B is the same as U^-1 P U = B
    if abs(U.det()) != 1 or P * U != U * result.block_matrix():
        raise RuntimeError("canonical basis postcondition violated")
    return result


def _modified_conjugate(cb: CanonicalBasis, changes: dict[tuple[int, int], int]) -> IntMatrix:
    """U B' U^-1, where B' is the canonical block of cb with the entries
    at the given positions replaced."""
    rows = [list(r) for r in cb.block_matrix().rows]
    for (i, j), x in changes.items():
        rows[i][j] = x
    return cb.U * IntMatrix(tuple(tuple(r) for r in rows)) * cb.U.inverse()


def order3_witness(P: IntMatrix) -> IntMatrix:
    """A conjugate P' of the non-diagonalizable involution P such that the
    product P P' has order exactly three.

    In canonical coordinates the first swap block is replaced by
    [[1, -1], [0, -1]]; the swap times that block is a rotation of order 3.
    """
    cb = canonical_form(P)
    if cb.profile.diagonalizable:
        raise ValueError("diagonalizable involution admits no order-three witness")
    lo, _ = cb.layout.pairs[0]
    witness = _modified_conjugate(
        cb, {(lo, lo): 1, (lo, lo + 1): -1, (lo + 1, lo): 0, (lo + 1, lo + 1): -1}
    )
    if (
        not is_involution(witness)
        or profile(witness) != cb.profile
        or element_order(P * witness, 3) != 3
    ):
        raise RuntimeError("order-three witness postcondition violated")
    return witness


def four_involution_witness(P: IntMatrix) -> IntMatrix:
    """A conjugate P' of P whose product with P is a 4-involution.

    Needs P non-diagonalizable, not a 1-permutation, and rank at least 9
    (the product negates four basis vectors and must fix more than four).
    The four modified canonical vectors are two swap pairs when p >= 2,
    otherwise the swap pair plus one fixed and one negated vector.
    """
    cb = canonical_form(P)
    prof = cb.profile
    if prof.diagonalizable:
        raise ValueError("involution must be non-diagonalizable")
    if prof.kind.name == ONE_PERMUTATION:
        raise ValueError("one-permutations admit no four-involution witness")
    if P.n < 9:
        raise ValueError("rank too small for a four-involution product")
    changes = {}
    for lo, _ in cb.layout.pairs[:2]:
        changes[lo, lo + 1] = changes[lo + 1, lo] = -1
    if prof.p == 1:
        changes[0, 0], changes[prof.a, prof.a] = -1, 1
    witness = _modified_conjugate(cb, changes)
    if (
        not is_involution(witness)
        or profile(witness) != prof
        or classify(P * witness) != InvolutionKind(GAMMA_INVOLUTION, 4)
    ):
        raise RuntimeError("four-involution witness postcondition violated")
    return witness


def standard_commuting_family(n: int) -> list[IntMatrix]:
    """The n diagonal involutions negating a single coordinate; pairwise
    commuting, each extremal."""
    if n < 3:
        raise ValueError("extremal involutions need rank at least 3")
    family = []
    for i in range(n):
        entries = [1] * n
        entries[i] = -1
        family.append(IntMatrix.diagonal(entries))
    return family


def involution_from_splitting(
    plus_cols: list[Vector] | tuple[Vector, ...],
    minus_cols: list[Vector] | tuple[Vector, ...],
) -> IntMatrix:
    """The diagonalizable involution fixing the span of plus_cols and
    negating the span of minus_cols; the columns together must be a basis
    of Z^n."""
    cols = list(plus_cols) + list(minus_cols)
    V = IntMatrix.from_columns(cols)
    if abs(V.det()) != 1:
        raise ValueError("columns do not split Z^n")
    D = IntMatrix.diagonal([1] * len(plus_cols) + [-1] * len(minus_cols))
    return V * D * V.inverse()

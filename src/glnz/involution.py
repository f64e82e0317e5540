"""Canonical bases, invariants, classification and witness constructions
for involutions in GL(n, Z).

Every involution of Z^n has a basis splitting it into fixed vectors,
negated vectors and swap pairs; the triple of block sizes (a, b, p) is a
complete conjugacy invariant.  The constructions here are all machine
checked after the fact: the returned basis change is verified to produce
the exact block matrix.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Callable
from dataclasses import dataclass

from .exactmat import (
    IntMatrix,
    Lattice,
    Vector,
    _coordinates,
    _identity_rows,
    _matmul,
    _mod2_echelon,
    _mod2_reduction,
    _rank_update,
    _row_echelon,
    _trusted,
    rank_mod2,
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

    @property
    def layout(self) -> BlockLayout:
        a, b, p = self.profile.a, self.profile.b, self.profile.p
        return BlockLayout(
            fixed=(0, a),
            negated=(a, a + b),
            pairs=tuple((a + b + 2 * t, a + b + 2 * t + 2) for t in range(p)),
        )

    def block_matrix(self) -> IntMatrix:
        return canonical_block(self.profile.a, self.profile.b, self.profile.p)


def canonical_block(a: int, b: int, p: int) -> IntMatrix:
    """diag(I_a, -I_b, p swap blocks)."""
    a, b, p = operator.index(a), operator.index(b), operator.index(p)
    if min(a, b, p) < 0:
        raise ValueError("block sizes must be non-negative")
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
    return _eigen_pair(P)


def _eigen_pair(P: IntMatrix) -> tuple[Lattice, Lattice]:
    """eigen_lattices(P) for a P already known to be an involution, from
    one transform echelon of (P - I)^T: its kernel rows span L+ and its
    pivot rows span Im(P - I).  As P^2 = I, L- = {v : 2v in Im(P - I)}
    (Reiner), so L- is spanned by the pivot rows and half of each sum of
    them that is even: one sum per GF(2) relation among their bit masks."""
    n = P.n
    H, _, pivots = _row_echelon(P.shifted(-1).columns(), True)
    image = [row[:n] for row in H[: len(pivots)]]
    halves = [
        tuple(sum(col) // 2 for col in zip(*(r for k, r in enumerate(image) if c >> k & 1)))
        for c in _mod2_echelon(image)[1]
    ]
    plus = Lattice(n, tuple(tuple(row[n:]) for row in H[len(pivots) :]))
    return plus, Lattice(n, tuple(map(tuple, image + halves)))


def residue(P: IntMatrix) -> int:
    """The number p of swap pairs, the GF(2) rank of P - I."""
    return profile(P).p


def profile(P: IntMatrix) -> InvolutionProfile:
    """Block sizes from the trace and one GF(2) rank: P is checked to be
    an involution first, as the formula of ``_rank_profile`` is exact only
    once P^2 = I is known."""
    _demand_involution(P)
    return _rank_profile(P)


def _rank_profile(P: IntMatrix) -> InvolutionProfile:
    """profile(P) for a P already known to be an involution.

    P is conjugate to diag(I_a, -I_b, p swap blocks), so a + b + 2p = n,
    trace(P) = a - b and p is the GF(2) rank of P - I (1 per swap block,
    0 on the diagonal blocks); these give a and b.  The formula is exact
    only once P^2 = I is known: the rotation [[0, -1], [1, 0]] gives the
    consistent but meaningless (0, 0, 1), and [[3]] gives b < 0."""
    n, t, p = P.n, P.trace(), rank_mod2(P.shifted(-1))
    a, b = (n + t) // 2 - p, (n - t) // 2 - p
    if (n + t) % 2 or a < 0 or b < 0:
        raise RuntimeError("inconsistent involution invariants")
    return InvolutionProfile(a, b, p)


def classify(P: IntMatrix) -> InvolutionKind:
    return profile(P).kind


def involutions_conjugate(P: IntMatrix, Q: IntMatrix) -> bool:
    """True exactly when P and Q are conjugate in GL(n, Z); the profile is
    a complete invariant."""
    return profile(P) == profile(Q)


def _lifted_basis(
    L: Lattice, residues: list[Vector]
) -> tuple[list[Vector], list[Vector], Callable[[list[list[int]]], list[list[int]]]]:
    """A basis of L split into vectors congruent mod 2L to the given
    coordinate vectors, in order, and the rest; and the map taking rows of
    coordinates in L's stored basis (one row per basis vector) to the rows
    of coordinates in the new basis, the given vectors' rows first.

    Each residue sits at its echelon pivot column of a GF(2) matrix that
    is the identity elsewhere; that matrix is invertible, and its lift T to
    SL(k, Z), the product of its reduction word's unit shears I + E_ij, is
    the change of basis: the new basis rows are T^T times the old, one row
    addition j += i per shear.  T^-1 is the word reversed with each
    coefficient negated; on coordinate rows from the left, one row
    subtraction i -= j per shear.  Both run in the word's own order.
    """
    placed = _mod2_echelon(residues)[0]
    if len(placed) != len(residues):
        raise RuntimeError("swap-pair residues are dependent mod 2")
    k = L.rank
    cols = [[int(s == t) for s in range(k)] for t in range(k)]
    for i, pivot in placed:
        cols[pivot] = [x % 2 for x in residues[i]]
    new, word = list(L.basis), _mod2_reduction(list(zip(*cols)))
    for i, j in word:
        new[j] = tuple(a + b for a, b in zip(new[j], new[i]))
    pivots = [pivot for _, pivot in placed]
    order = pivots + [t for t in range(k) if t not in pivots]

    def lifted(rows: list[list[int]]) -> list[list[int]]:
        for i, j in word:
            rows[i] = [a - b for a, b in zip(rows[i], rows[j])]
        return [rows[t] for t in order]

    return [new[t] for t in pivots], [new[t] for t in order[len(pivots) :]], lifted


_InverseRows = Callable[[list[int]], list[Vector]]


@functools.lru_cache(maxsize=1)
def _canonical_form(P: IntMatrix) -> tuple[CanonicalBasis, _InverseRows]:
    """canonical_form(P), for a P not yet known to be an involution, and a
    function giving the rows of U^-1 at the given indices.

    The last result is kept, keyed by P's value, so canonical_form(P) and
    then a witness of the same P build it once.  A non-involution raises
    and is never kept.  Sharing is safe: CanonicalBasis is frozen and
    inverse_rows mutates only lists it builds itself.

    U^-1 v = (alpha, gamma, beta + delta, beta - delta)/2, the last two
    interleaved by swap pair, where alpha, beta are the coordinates of
    (I + P)v on f.., y.. and gamma, delta those of (I - P)v on h.., z..:
    I + P sends x_i and P x_i to y_i, and I - P sends them to z_i and
    -z_i.  For v = e_k these are the coordinates the residues are read
    from, lifted to the new bases (those of P - I negated).
    """
    try:
        return _construct_canonical(P)
    except (ValueError, RuntimeError):
        # P U = U B with |det U| = 1 proves P^2 = I, so P is squared only
        # when that fails
        _demand_involution(P)
        raise


def _construct_canonical(P: IntMatrix) -> tuple[CanonicalBasis, _InverseRows]:
    p_minus_i, p_plus_i = P.shifted(-1), P.shifted(1)
    plus, minus = _eigen_pair(P)
    res_plus = _coordinates(plus, p_plus_i.columns())
    res_minus = _coordinates(minus, p_minus_i.columns())  # = I - P mod 2
    if res_plus is None or res_minus is None:
        raise RuntimeError("I + P and I - P do not map into the eigen lattices")
    picks = [j for j, _ in _mod2_echelon(res_plus)[0]]
    ys, fixed, lift_plus = _lifted_basis(plus, [res_plus[j] for j in picks])
    zs, negated, lift_minus = _lifted_basis(minus, [res_minus[j] for j in picks])
    # the columns of U and of U B: B negates the negated block and
    # exchanges the two columns of each swap pair
    cols = fixed + negated
    images = fixed + [tuple(-s for s in h) for h in negated]
    for y, z in zip(ys, zs):
        x = tuple((s + t) // 2 for s, t in zip(y, z))
        px = tuple((s - t) // 2 for s, t in zip(y, z))
        cols += [x, px]
        images += [px, x]
    U = IntMatrix.from_columns(cols)
    p = len(picks)
    # with |det U| = 1, P U = U B is the same as U^-1 P U = B
    if abs(U.det()) != 1 or (P * U).columns() != tuple(images):
        raise RuntimeError("canonical basis postcondition violated")
    cb = CanonicalBasis(U=U, profile=InvolutionProfile(plus.rank - p, minus.rank - p, p))

    def inverse_rows(indices: list[int]) -> list[Vector]:
        beta_alpha = lift_plus([list(r) for r in zip(*res_plus)])
        delta_gamma = lift_minus([[-x for x in r] for r in zip(*res_minus)])
        twice = beta_alpha[p:] + delta_gamma[p:]
        for beta, delta in zip(beta_alpha[:p], delta_gamma[:p]):
            twice += [[s + t for s, t in zip(beta, delta)], [s - t for s, t in zip(beta, delta)]]
        rows = [twice[i] for i in indices]
        if any(x & 1 for r in rows for x in r):
            raise RuntimeError("canonical basis inverse is not integral")
        return [tuple(x >> 1 for x in r) for r in rows]

    return cb, inverse_rows


def canonical_form(P: IntMatrix) -> CanonicalBasis:
    """Canonical basis for an involution: U unimodular with U^-1 P U equal
    to diag(I_a, -I_b, p swap blocks).

    One pass over the eigen lattices L+ and L- (Reiner's classification of
    Z[C2]-lattices): Z^n / (L+ + L-) is (Z/2)^p, and it embeds into L+/2L+
    by v -> (I + P)v and into L-/2L- by v -> (I - P)v.  Columns j whose L+
    residues are independent mod 2 give bases y_i, f.. of L+ and z_i, h..
    of L- with y_i = (I + P)e_j and z_i = (I - P)e_j mod 2; so
    x_i = (y_i + z_i)/2 is integral, P x_i = (y_i - z_i)/2, and
    U = [f.., h.., x_i, P x_i ..].
    """
    return _canonical_form(P)[0]


def _modified_conjugate(
    P: IntMatrix,
    cb: CanonicalBasis,
    inverse_rows: _InverseRows,
    update: dict[tuple[int, int], int],
) -> IntMatrix:
    """U B' U^-1, where B' - B, for B the canonical block of cb, is the
    given update by position: P plus the sum over its positions of
    (B'_ij - B_ij) U[:, i] (U^-1)[j, :], a low-rank update."""
    S = sorted({k for ij in update for k in ij})
    delta = [[update.get((i, j), 0) for j in S] for i in S]
    return _rank_update(P, [[r[i] for i in S] for r in cb.U.rows], delta, inverse_rows(S))


def _certified_witness(
    P: IntMatrix, cb: CanonicalBasis, inverse_rows: _InverseRows, update: dict, product_ok, message
) -> IntMatrix:
    """W = _modified_conjugate(P, cb, inverse_rows, update), certified by
    one product: with |det U| = 1, which canonical_form checked, W U = U B'
    is W = U B' U^-1.  B maps the span of the updated indices S to itself
    (checked), so B' is B off S; then W^2 = I, W has the profile of P, and
    P W = U B B' U^-1 is as claimed exactly when the k x k blocks B'_S and
    B_S B'_S are, by product_ok on the latter."""
    S = sorted({k for ij in update for k in ij})
    B = cb.block_matrix().rows
    B2 = [list(r) for r in B]
    for (i, j), x in update.items():
        B2[i][j] += x
    B_S, B2_S = (tuple(tuple(M[i][j] for j in S) for i in S) for M in (B, B2))
    if (
        not all(map(any, B_S))
        or _matmul(B2_S, B2_S) != _identity_rows(len(S))
        or _rank_profile(_trusted(B2_S)) != _rank_profile(_trusted(B_S))
        or not product_ok(_matmul(B_S, B2_S))
    ):
        raise RuntimeError(message)
    W = _modified_conjugate(P, cb, inverse_rows, update)
    # column j of U B' combines the columns of U by column j of B', which
    # has one nonzero entry off S
    if (W * cb.U).columns() != _matmul(tuple(zip(*B2)), cb.U.columns()):
        raise RuntimeError(message)
    return W


def order3_witness(P: IntMatrix) -> IntMatrix:
    """A conjugate P' of the non-diagonalizable involution P such that the
    product P P' has order exactly three.

    In canonical coordinates the first swap block is replaced by
    [[1, -1], [0, -1]]; the swap times that block is a rotation of order 3.
    """
    cb, inverse_rows = _canonical_form(P)
    if cb.profile.diagonalizable:
        raise ValueError("diagonalizable involution admits no order-three witness")
    lo, _ = cb.layout.pairs[0]
    update = {(lo, lo): 1, (lo, lo + 1): -2, (lo + 1, lo): -1, (lo + 1, lo + 1): -1}
    I2 = _identity_rows(2)
    return _certified_witness(
        P, cb, inverse_rows, update, lambda C: C != I2 and _matmul(C, _matmul(C, C)) == I2,
        "order-three witness postcondition violated",
    )


def four_involution_witness(P: IntMatrix) -> IntMatrix:
    """A conjugate P' of P whose product with P is a 4-involution.

    Needs P non-diagonalizable, not a 1-permutation, and rank at least 9
    (the product negates four basis vectors and must fix more than four).
    The four modified canonical vectors are two swap pairs when p >= 2,
    otherwise the swap pair plus one fixed and one negated vector; on them
    P P' is -I.
    """
    cb, inverse_rows = _canonical_form(P)
    prof = cb.profile
    if prof.diagonalizable:
        raise ValueError("involution must be non-diagonalizable")
    if prof.kind.name == ONE_PERMUTATION:
        raise ValueError("one-permutations admit no four-involution witness")
    if P.n < 9:
        raise ValueError("rank too small for a four-involution product")
    update = {}
    for lo, _ in cb.layout.pairs[:2]:
        update[lo, lo + 1] = update[lo + 1, lo] = -2
    if prof.p == 1:
        update[0, 0], update[prof.a, prof.a] = -2, 2
    return _certified_witness(
        P, cb, inverse_rows, update, lambda C: _trusted(C) == -IntMatrix.identity(4),
        "four-involution witness postcondition violated",
    )


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
    V = IntMatrix.from_columns(list(plus_cols) + list(minus_cols))
    try:
        V_inv = V.inverse()  # certifies |det V| = 1
    except ValueError:
        raise ValueError("columns do not split Z^n") from None
    # V D, for D = diag(I, -I), is V with the minus columns negated
    return IntMatrix.from_columns(list(plus_cols) + [[-x for x in c] for c in minus_cols]) * V_inv

"""Transvections of Z^n: construction, recognition, the conjugacy
invariant m, and the shared eigen-summand criterion for extremal
involutions.

A transvection sends a to a + delta(a) x for a nonzero integer covector
delta and a primitive x with delta(x) = 0.  Its conjugacy class in
GL(n, Z) is determined by m = content(delta).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmat import IntMatrix, Lattice, Vector, _kernel_vectors, _rank_update, _vec
from .exactmat import content_and_primitive
from .involution import _demand_involution

__all__ = [
    "MutualSubgroup",
    "TransvectionData",
    "make_transvection",
    "mutual_subgroup",
    "recognize_transvection",
    "shared_summand_predicate",
    "transvections_conjugate",
]


@dataclass(frozen=True)
class TransvectionData:
    """Defining data of a transvection: direction x, covector delta,
    invariant m = content(delta).  delta(x) = 0 and x is primitive."""

    x: Vector
    delta: Vector
    m: int


def make_transvection(delta, x) -> IntMatrix:
    """The automorphism a -> a + delta(a) x, as a matrix I + x (x) delta."""
    delta, x = _vec(delta), _vec(x)
    n = len(x)
    if len(delta) != n:
        raise ValueError("dimension mismatch")
    if not any(delta):
        raise ValueError("covector must be nonzero")
    content, _ = content_and_primitive(x)
    if content != 1:
        raise ValueError("direction vector must be primitive")
    if sum(d * e for d, e in zip(delta, x)) != 0:
        raise ValueError("covector must vanish on the direction vector")
    return _rank_update(IntMatrix.identity(n), tuple(zip(x)), ((1,),), (delta,))


def _rank_one(N: IntMatrix) -> tuple[Vector, Vector] | None:
    """(x, delta) with N = x (x) delta, x primitive and delta's first
    nonzero entry positive; None unless N has rank exactly one."""
    rows = N.rows
    i0 = next((i for i, r in enumerate(rows) if any(r)), None)
    if i0 is None:
        return None
    j0 = next(j for j, v in enumerate(rows[i0]) if v)
    # x is column j0 over its positive content c, so delta's first nonzero
    # entry, at j0, is c: the sign is already normalized
    _, x = content_and_primitive(N.column(j0))
    delta = tuple(v // x[i0] for v in rows[i0])
    # row i0 checks the division, every row the factorization
    if any(r != tuple(xi * d for d in delta) for r, xi in zip(rows, x)):
        return None
    return x, delta


def recognize_transvection(M: IntMatrix) -> TransvectionData | None:
    """Recover (x, delta, m) from a matrix, or None when it is not a
    transvection: M - I has rank one and delta(x) = 0.

    Signs are normalized so delta's first nonzero entry is positive; the
    opposite sign is absorbed into x.
    """
    factors = _rank_one(M.shifted(-1))
    if factors is None or sum(d * e for d, e in zip(*factors)):
        return None
    x, delta = factors
    return TransvectionData(x=x, delta=delta, m=content_and_primitive(delta)[0])


def transvections_conjugate(M: IntMatrix, N: IntMatrix) -> bool:
    """Two transvections are conjugate exactly when their m invariants
    agree."""
    dm = recognize_transvection(M)
    dn = recognize_transvection(N)
    if dm is None or dn is None:
        raise ValueError("input is not a transvection")
    return dm.m == dn.m


@dataclass(frozen=True)
class MutualSubgroup:
    """Shared eigen-summand of two extremal involutions, plus the even
    invariant of their product."""

    shared: Lattice
    side: str  # "plus" (shared fixed hyperplane) or "minus" (shared negated line)
    product_m: int


def mutual_subgroup(P: IntMatrix, Q: IntMatrix) -> MutualSubgroup | None:
    """Shared fixed hyperplane or shared negated line of two distinct
    extremal involutions, or None.

    When the summand exists, Q P is a transvection of even invariant,
    recorded as product_m.
    """
    if P == Q:
        raise ValueError("involutions must be distinct")
    factors = []
    for M in (P, Q):  # the first input in full before the second
        # M = I + x (x) delta squares to I + (2 + delta(x)) x (x) delta: an
        # involution exactly when delta(x) = -2, so only other inputs are squared
        f = _rank_one(M.shifted(-1))
        if f is None or sum(a * b for a, b in zip(*f)) != -2:
            _demand_involution(M)
        # a reflection, extremal when delta is even (no swap pair) and n >= 3
        # (fixed rank above negated)
        if f is None or M.n < 3 or any(d % 2 for d in f[1]):
            raise ValueError("inputs must be extremal involutions")
        factors.append(f)
    # P negates Z x and fixes ker delta, Q negates Z y and fixes ker eps
    (x, delta), (y, eps) = factors
    if delta == eps:
        shared, side = Lattice(P.n, tuple(_kernel_vectors((delta,)))), "plus"
    elif x == y or x == tuple(-v for v in y):
        shared, side = Lattice(P.n, (x,)), "minus"
    else:
        return None
    data = recognize_transvection(Q * P)
    if data is None or data.m % 2:
        raise RuntimeError(
            "product of extremal involutions with a shared eigen-summand "
            "must be a transvection of even invariant"
        )
    return MutualSubgroup(shared=shared, side=side, product_m=data.m)


def _is_even_transvection(M: IntMatrix) -> bool:
    data = recognize_transvection(M)
    return data is not None and data.m % 2 == 0


def shared_summand_predicate(
    pair1: tuple[IntMatrix, IntMatrix], pair2: tuple[IntMatrix, IntMatrix]
) -> bool:
    """Do two extremal-involution pairs encode the same direct summand?

    Each pair must share an eigen-summand on the same side.  The answer is
    computed two ways: by comparing the shared lattices, and by the
    first-order condition "each cross product is either an equality or a
    transvection of even invariant"; the two must agree.
    """
    p1, p2 = pair1
    q1, q2 = pair2
    r1 = mutual_subgroup(p1, p2)
    r2 = mutual_subgroup(q1, q2)
    if r1 is None or r2 is None:
        raise ValueError("each pair must share an eigen-summand")
    if r1.side != r2.side:
        raise ValueError("pairs must share an eigen-summand on the same side")
    semantic = r1.shared == r2.shared
    syntactic = all(
        f == g or _is_even_transvection(f * g)
        for f in (p1, p2)
        for g in (q1, q2)
    )
    if semantic != syntactic:
        raise RuntimeError("summand predicate disagrees with lattice comparison")
    return syntactic

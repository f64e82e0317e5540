"""Exact integer and mod-2 linear algebra for automorphisms of Z^n.

Everything runs on plain Python ints: no floating point anywhere, no
overflow.  ``IntMatrix`` is an immutable square matrix; ``Lattice`` stores
the canonical column-Hermite basis of a sublattice of Z^n, so two equal
sublattices are equal as values.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

Vector = tuple[int, ...]

__all__ = [
    "IntMatrix",
    "Lattice",
    "Vector",
    "basis_completion",
    "content_and_primitive",
    "element_order",
    "kernel_lattice",
    "random_elementary_word",
    "random_unimodular",
    "rank_mod2",
    "rational_rank",
    "restriction_matrix",
    "row_hermite",
    "summand_index",
]


def _vec(v: Sequence[int]) -> Vector:
    """Entries as ints; a non-integral entry such as 1.7 raises TypeError."""
    return tuple(map(operator.index, v))


def row_hermite(rows: Sequence[Sequence[int]], transform: bool = False):
    """Row Hermite normal form by unimodular row operations.

    Returns ``(H, U, rank)``.  ``H`` is the unique row HNF: pivots positive
    with strictly increasing pivot columns, entries above each pivot reduced
    into ``[0, pivot)``, zero rows at the bottom.  When ``transform`` is set,
    ``U`` is unimodular with ``U @ rows == H``; otherwise ``U`` is None.
    """
    H, ncols, pivots = _row_echelon(rows, transform)
    for r, col in enumerate(pivots):
        p = H[r][col]
        for i in range(r):
            q = H[i][col] // p
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], H[r])]
    if not transform:
        return H, None, len(pivots)
    return [row[:ncols] for row in H], [row[ncols:] for row in H], len(pivots)


def _row_echelon(rows: Sequence[Sequence[int]], transform: bool):
    """``row_hermite`` up to the reduction above each pivot, which changes
    no row below the rank: ``(H, ncols, pivots)``, with U after column
    ncols of H.  ``_euclid_column`` clears each pivot column by extended-gcd
    steps (Cohen, *A Course in Computational Algebraic Number Theory*, 2.4)."""
    H = [list(map(operator.index, r)) for r in rows]
    m = len(H)
    ncols = len(H[0]) if m else 0
    if any(len(r) != ncols for r in H):
        raise ValueError("ragged matrix")
    if transform:
        # U rides along as extra columns, so each row operation is one pass
        H = [r + [int(i == j) for j in range(m)] for i, r in enumerate(H)]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        i0 = _euclid_column(H, col, r)
        if i0 is None:
            continue
        H[r], H[i0] = H[i0], H[r]
        if H[r][col] < 0:
            H[r] = [-x for x in H[r]]
        pivots.append(col)
    return H, ncols, pivots


def _euclid_column(A: list[list[int]], col: int, start: int, word: list | None = None) -> int | None:
    """Euclid on column col of rows start.. of A: reduce by the least |entry|
    (lowest index on ties), row i -= q * row base, until one row is nonzero
    there.  Returns that row, or None if none is.

    With ``word``, every step is a shear, appended as (i, base, q), the shear
    that undoes it.  Without it, each round ends with the unimodular
    extended-gcd step on the least row and the least row still nonzero: gcd
    of the two into the first, zero into the second."""
    while True:
        live = [i for i in range(start, len(A)) if A[i][col]]
        if len(live) <= 1:
            return live[0] if live else None
        live.sort(key=lambda i: (abs(A[i][col]), i))
        base = live[0]
        for i in live[1:]:
            q = A[i][col] // A[base][col]
            A[i] = [a - q * b for a, b in zip(A[i], A[base])]
            if word is not None:
                word.append((i, base, q))
        rest = [i for i in live[1:] if A[i][col]] if word is None else ()
        if rest:
            k = min(rest, key=lambda i: (abs(A[i][col]), i))
            b, c = A[base][col], A[k][col]
            g, s, t = _xgcd(b, c)
            u, v = -c // g, b // g
            A[base], A[k] = (
                [s * x + t * y for x, y in zip(A[base], A[k])],
                [u * x + v * y for x, y in zip(A[base], A[k])],
            )


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), by the extended Euclidean
    algorithm on |a| and |b|; for nonzero a and b, |s| <= |b|/g and
    |t| <= |a|/g."""
    r0, r1, s0, s1, t0, t1 = abs(a), abs(b), 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0 if a >= 0 else -s0, t0 if b >= 0 else -t0


def _matmul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """A @ B, row i being the combination of B's rows with A's row i as
    coefficients; zero coefficients are skipped."""
    width = len(B[0])
    out = []
    for row in A:
        acc = [0] * width
        for a, brow in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


@functools.lru_cache(maxsize=32)
def _identity_rows(n: int) -> tuple[Vector, ...]:
    if n < 1:
        raise ValueError("matrix must be square and non-empty")
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _trusted(rows: tuple[Vector, ...]) -> "IntMatrix":
    """IntMatrix over rows the kernel just computed: a non-empty square
    tuple of tuples of ints.  Skips the validation of ``IntMatrix(...)``."""
    M = object.__new__(IntMatrix)
    object.__setattr__(M, "rows", rows)
    return M


def _rank_update(M: "IntMatrix", left, delta, right) -> "IntMatrix":
    """M + left delta right, for left n x k, delta k x k and right k x n
    given by their rows: the one place a rank-k term is formed."""
    return M + _trusted(_matmul(left, _matmul(delta, right)))


@dataclass(frozen=True)
class IntMatrix:
    """Immutable square matrix over Z."""

    rows: tuple[Vector, ...]

    def __post_init__(self) -> None:
        rows = tuple(_vec(r) for r in self.rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "rows", rows)

    # -- construction ----------------------------------------------------
    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return _trusted(_identity_rows(operator.index(n)))

    @staticmethod
    def diagonal(entries: Sequence[int]) -> "IntMatrix":
        entries = _vec(entries)
        rows = zip(_identity_rows(len(entries)), entries)
        return _trusted(tuple(r[:i] + (x,) + r[i + 1 :] for i, (r, x) in enumerate(rows)))

    @staticmethod
    def elementary(n: int, i: int, j: int, c: int) -> "IntMatrix":
        """The shear I + c*E_ij (adds c times coordinate j to coordinate i)."""
        return _shear_word(n, ((i, j, c),))

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(cols)).transpose()

    # -- basic queries ---------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> tuple[Vector, ...]:
        return tuple(zip(*self.rows))

    def transpose(self) -> "IntMatrix":
        return _trusted(tuple(zip(*self.rows)))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def is_identity(self) -> bool:
        return self.rows == _identity_rows(len(self.rows))

    def mod(self, m: int) -> "IntMatrix":
        m = operator.index(m)
        return _trusted(tuple(tuple(x % m for x in r) for r in self.rows))

    # -- arithmetic ------------------------------------------------------
    def apply(self, v: Sequence[int]) -> Vector:
        v = _vec(v)
        if len(v) != self.n:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if other.n != self.n:
                raise ValueError("dimension mismatch")
            return _trusted(_matmul(self.rows, other.rows))
        if isinstance(other, (tuple, list)):
            return self.apply(other)
        return NotImplemented

    __matmul__ = __mul__

    def _entrywise(self, other, op) -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return _trusted(tuple(tuple(map(op, r, s)) for r, s in zip(self.rows, other.rows)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> "IntMatrix":
        return _trusted(tuple(tuple(-a for a in r) for r in self.rows))

    def shifted(self, c: int) -> "IntMatrix":
        """self + c*I, changing only the diagonal."""
        c = operator.index(c)
        return _trusted(
            tuple(r[:i] + (r[i] + c,) + r[i + 1 :] for i, r in enumerate(self.rows))
        )

    def __pow__(self, k: int) -> "IntMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = IntMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        a = [list(r) for r in self.rows]
        n = len(a)
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def inverse(self) -> "IntMatrix":
        """Exact inverse; defined only for matrices with determinant +-1."""
        U = _unimodular_frame(self.columns(), self.n)
        if U is None:
            raise ValueError("matrix is not invertible over the integers")
        return _trusted(tuple(map(tuple, U)))

    @property
    def is_automorphism(self) -> bool:
        return abs(self.det()) == 1


@dataclass(frozen=True)
class Lattice:
    """Sublattice of Z^n, stored as a canonical column-Hermite basis.

    The constructor canonicalizes any generating set, so lattice equality
    is plain value equality.  A direct-summand ("saturated") lattice is one
    whose quotient in Z^n is torsion-free.
    """

    ambient_rank: int
    basis: tuple[Vector, ...] = ()

    def __post_init__(self) -> None:
        n = operator.index(self.ambient_rank)
        if n < 1:
            raise ValueError("ambient rank must be positive")
        cols = [list(_vec(c)) for c in self.basis]
        if any(len(c) != n for c in cols):
            raise ValueError("dimension mismatch")
        H, _, r = row_hermite(cols)
        object.__setattr__(self, "ambient_rank", n)
        object.__setattr__(self, "basis", tuple(tuple(row) for row in H[:r]))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[int]) -> bool:
        x = _vec(v)
        if len(x) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        return _coordinates(self, (x,)) is not None

    def saturate(self) -> "Lattice":
        """Smallest sublattice containing self with torsion-free quotient."""
        if self.rank == 0:
            return self
        if self.rank == self.ambient_rank:
            return Lattice(self.ambient_rank, IntMatrix.identity(self.ambient_rank).columns())
        perp = _kernel_vectors(self.basis)
        sat = _kernel_vectors(perp)
        return Lattice(self.ambient_rank, tuple(sat))


def _unimodular_frame(cols: Sequence[Vector], n: int) -> list[list[int]] | None:
    """Unimodular U with U B = [I_k; 0], B being the n x k matrix with the
    given columns; None unless they span a saturated rank-k lattice."""
    k = len(cols)
    H, U, r = row_hermite([[c[i] for c in cols] for i in range(n)], transform=True)
    if r != k or any(H[i][j] != (i == j) for i in range(k) for j in range(k)):
        return None
    return U


def _kernel_vectors(rows: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis of {v in Z^n : rows @ v = 0}; the result is always saturated."""
    if not rows:
        raise ValueError("empty matrix")
    H, ncols, pivots = _row_echelon([list(col) for col in zip(*rows)], True)
    return [tuple(row[ncols:]) for row in H[len(pivots):]]


def kernel_lattice(M: IntMatrix) -> Lattice:
    """The saturated lattice {v : M v = 0}."""
    return Lattice(M.n, tuple(_kernel_vectors(M.rows)))


def summand_index(L1: Lattice, L2: Lattice) -> int:
    """Index [Z^n : L1 + L2] for complementary-rank lattices meeting in 0.

    Equals 1 exactly when L1 + L2 is all of Z^n.
    """
    if L1.ambient_rank != L2.ambient_rank:
        raise ValueError("dimension mismatch")
    n = L1.ambient_rank
    if L1.rank + L2.rank != n:
        raise ValueError("ranks do not sum to the ambient rank")
    d = IntMatrix.from_columns(list(L1.basis) + list(L2.basis)).det()
    if d == 0:
        raise ValueError("lattices intersect nontrivially")
    return abs(d)


def content_and_primitive(v: Sequence[int]) -> tuple[int, Vector]:
    """Split v as content * primitive; the zero vector has content 0."""
    vv = _vec(v)
    g = gcd(*vv)
    if g == 0:
        return 0, vv
    return g, tuple(x // g for x in vv)


def rank_mod2(M: IntMatrix) -> int:
    """Rank of M over GF(2)."""
    return len(_mod2_echelon(M.rows)[0])


def _mod2_echelon(vectors: Iterable[Sequence[int]]) -> tuple[list[tuple[int, int]], list[int]]:
    """One GF(2) echelon pass over the vectors as bit masks.  kept: (index,
    pivot) of each vector independent mod 2 of those before it, the pivot
    being the highest coordinate of its reduced form; restricted to their
    pivots, these vectors are invertible.  relations: for each other vector,
    the mask of the vectors (itself included) whose sum is 0 mod 2."""
    pivots: dict[int, tuple[int, int]] = {}  # pivot -> (reduced mask, vectors summed)
    kept, relations = [], []
    for idx, row in enumerate(vectors):
        v, c = 0, 1 << idx
        for j, x in enumerate(row):
            if x & 1:
                v |= 1 << j
        while v:
            h = v.bit_length() - 1
            if h not in pivots:
                pivots[h] = v, c
                kept.append((idx, h))
                break
            v, c = v ^ pivots[h][0], c ^ pivots[h][1]
        else:
            relations.append(c)
    return kept, relations


def _mod2_reduction(rows) -> list[tuple[int, int]]:
    """The row additions (i, j), row i += row j, in order, that reduce the
    square integer rows mod 2 to the identity; ValueError if they are
    singular over GF(2)."""
    n = len(rows)
    # row i as a bit mask, bit j its entry j: an addition is one xor
    rows = [sum(1 << j for j, x in enumerate(r) if x & 1) for r in rows]
    ops: list[tuple[int, int]] = []
    for col in range(n):
        bit = 1 << col
        if not rows[col] & bit:
            pivot = next((i for i in range(col + 1, n) if rows[i] & bit), None)
            if pivot is None:
                raise ValueError("matrix is singular over GF(2)")
            rows[col] ^= rows[pivot]
            ops.append((col, pivot))
        for i in range(n):
            if i != col and rows[i] & bit:
                rows[i] ^= rows[col]
                ops.append((i, col))
    if rows != [1 << i for i in range(n)]:
        raise RuntimeError("GF(2) reduction did not reach the identity")
    return ops


def rational_rank(M: IntMatrix) -> int:
    """Rank of M over the rationals."""
    return len(_row_echelon(M.rows, False)[2])


def element_order(M: IntMatrix, bound: int) -> int | None:
    """Least k <= bound with M^k = I, or None when the order exceeds bound.

    M^k = I already makes M invertible, so the determinant is checked only
    when no power up to bound is I."""
    if bound < 1:
        raise ValueError("bound must be positive")
    power = M
    for k in range(1, bound + 1):
        if power.is_identity():
            return k
        if k < bound:
            power = power * M
    if not M.is_automorphism:
        raise ValueError("matrix is not an automorphism of Z^n")
    return None


def random_unimodular(n: int, word_length: int, entry_bound: int, seed: int) -> IntMatrix:
    """Deterministic random product of shears and signed permutations.

    The result always has determinant +-1; identical arguments give the
    identical matrix.
    """
    return _shear_word(n, _random_word(n, word_length, entry_bound, seed))


def _conjugates(word: Sequence[tuple], mats: Sequence[IntMatrix]) -> list[IntMatrix]:
    """U M U^-1 for each M, U = _shear_word(n, word), conjugating by the
    factors, last first, with no U, U^-1 or product: a shear is one row and
    one column operation, a signed permutation moves entry (k, l) to
    (perm[k], perm[l]) times the signs."""
    out = []
    for M in mats:
        A = [list(r) for r in M.rows]
        for factor in reversed(word):
            if len(factor) == 3:  # (I + c E_ij) A (I - c E_ij)
                i, j, c = factor
                A[i] = [x + c * y for x, y in zip(A[i], A[j])]
                for row in A:
                    row[j] -= c * row[i]
            else:
                perm, signs = factor
                back = sorted(range(len(A)), key=perm.__getitem__)  # back[perm[k]] = k
                A = [[signs[k] * signs[l] * A[k][l] for l in back] for k in back]
        out.append(_trusted(tuple(map(tuple, A))))
    return out


def _random_word(n: int, word_length: int, entry_bound: int, seed: int) -> list[tuple]:
    """The factors of random_unimodular(...), left to right: a shear
    (i, j, c) is I + c E_ij, a pair (perm, signs) the signed permutation
    with entry signs[j] at (perm[j], j)."""
    if n < 1 or entry_bound < 1 or word_length < 0:
        raise ValueError("parameters out of range")
    rng = random.Random(seed)
    below, pick = _draws(rng)
    word: list[tuple] = []
    for _ in range(word_length):
        # rng.random() < 0.75 as an exact draw: random() takes its top bits
        # from its first 32-bit word, the low half of getrandbits(64)
        if n >= 2 and rng.getrandbits(64) & 0xFFFFFFFF < 3 << 30:
            word.append((*pick(n, 2), (1 + below(entry_bound)) * (1, -1)[below(2)]))
        else:
            word.append((pick(n, n), [(1, -1)[below(2)] for _ in range(n)]))
    return word


def _draws(rng: random.Random):
    """(below, pick), the draws of rng.randrange(m) and rng.sample(range(n),
    k) without their argument handling: CPython's _randbelow_with_getrandbits
    loop and sample's pool branch (k = n, or k <= 5, k <= n and n <= 21;
    other picks are rng.sample's).  randint(1, b) is 1 + below(b)."""
    getrandbits = rng.getrandbits

    def below(m: int) -> int:
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        return r

    def pick(n: int, k: int) -> list[int]:
        if k != n and (k > min(5, n) or n > 21):
            return rng.sample(range(n), k)
        pool, out = list(range(n)), []
        for size in range(n, n - k, -1):
            j = below(size)
            out.append(pool[j])
            pool[j] = pool[size - 1]
        return out

    return below, pick


def random_elementary_word(n: int, word_length: int, entry_bound: int, seed: int) -> IntMatrix:
    """Deterministic random product of shears only; determinant exactly 1."""
    if n < 2 or entry_bound < 1 or word_length < 0:
        raise ValueError("parameters out of range")
    below, pick = _draws(random.Random(seed))
    return _shear_word(n, [(*pick(n, 2), (1 + below(entry_bound)) * (1, -1)[below(2)])
                           for _ in range(word_length)])


def _shear_word(n: int, word: Iterable[tuple]) -> IntMatrix:
    """The product of the factors of word, left to right; the empty word
    gives I.  A factor is a shear (i, j, c), I + c E_ij, or a signed
    permutation (perm, signs) as ``_random_word`` draws it.

    Each factor acts on the columns, not by a matrix product: a shear is
    one column operation, O(n).  Shear indices must differ and lie in
    [0, n); shear entries are read with ``operator.index``, so a float
    raises TypeError.
    """
    n = operator.index(n)
    cols = list(_identity_rows(n))  # columns of I: I is its own transpose
    for factor in word:
        if len(factor) == 3:  # column j gains c times column i
            i, j, c = factor
            i, j, c = operator.index(i), operator.index(j), operator.index(c)
            if i == j:
                raise ValueError("shear indices must differ")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"shear index out of range for n = {n}: ({i}, {j})")
            cols[j] = [x + c * y for x, y in zip(cols[j], cols[i])]
        else:  # column j becomes signs[j] times column perm[j]
            perm, signs = factor
            cols = [cols[p] if s == 1 else [-x for x in cols[p]] for p, s in zip(perm, signs)]
    return _trusted(tuple(zip(*cols)))


def restriction_matrix(M: IntMatrix, L: Lattice) -> IntMatrix:
    """Matrix of M restricted to the M-invariant saturated lattice L,
    written in L's stored basis."""
    if L.rank == 0:
        raise ValueError("cannot restrict to the zero lattice")
    if _unimodular_frame(L.basis, L.ambient_rank) is None:
        raise ValueError("lattice is not saturated")
    Y = _coordinates(L, [M.apply(b) for b in L.basis])
    if Y is None:
        raise ValueError("lattice is not invariant under the matrix")
    return _trusted(tuple(zip(*Y)))


def _coordinates(L: Lattice, vectors: Iterable[Vector]) -> list[Vector] | None:
    """Coordinates in L's stored basis of each integer vector, or None when
    one lies outside L (saturated or not): back-substitution along the
    Hermite pivots, each coefficient forced by its pivot entry; a vector is
    in L exactly when every division is exact and nothing is left over."""
    pivots = [next(i for i, e in enumerate(b) if e) for b in L.basis]
    out = []
    for x in vectors:
        coords = []
        for b, piv in zip(L.basis, pivots):
            q, rem = divmod(x[piv], b[piv])
            if rem:
                return None
            if q:
                x = [a - q * e for a, e in zip(x, b)]
            coords.append(q)
        if any(x):
            return None
        out.append(tuple(coords))
    return out


def basis_completion(cols: Sequence[Sequence[int]]) -> IntMatrix:
    """Unimodular matrix whose first k columns are exactly the given
    columns; requires the columns to span a saturated rank-k lattice.

    Only those k columns and unimodularity are promised: the result inverts
    a Hermite transform U with U B = [I_k; 0], which is not unique, so the
    other columns may differ from those of earlier versions."""
    cols = [_vec(c) for c in cols]
    if not cols:
        raise ValueError("nothing to complete")
    U = _unimodular_frame(cols, len(cols[0]))
    if U is None:
        raise ValueError("columns do not span a saturated lattice")
    return _trusted(tuple(map(tuple, U))).inverse()

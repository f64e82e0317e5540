#!/usr/bin/env python3
"""Census of involution classes hit by random unimodular conjugation.

Samples every canonical block shape at a given rank, conjugates each by
random unimodular matrices, and confirms that the profile, classification and
canonical form all land back on the seed data.  Prints the class table.
"""

import argparse
import random
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--per-class", type=int, default=25)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    from glnz.exactmat import random_unimodular, summand_index
    from glnz.involution import (
        canonical_block,
        canonical_form,
        classify,
        eigen_lattices,
        profile,
    )

    rng = random.Random(args.seed)
    n = args.n
    print(f"{'a':>2s} {'b':>2s} {'p':>2s} {'kind':24s} {'index':>6s} checks")
    for p in range(n // 2 + 1):
        rem = n - 2 * p
        for a in range(rem + 1):
            b = rem - a
            seed_matrix = canonical_block(a, b, p)
            kind = classify(seed_matrix)
            ok = 0
            for _ in range(args.per_class):
                U = random_unimodular(n, 8, 2, rng.randrange(1 << 30))
                P = U * seed_matrix * U.inverse()
                prof = profile(P)
                assert (prof.a, prof.b, prof.p) == (a, b, p)
                assert prof.kind == kind
                cb = canonical_form(P)
                assert cb.U.inverse() * P * cb.U == cb.block_matrix()
                ok += 1
            plus, minus = eigen_lattices(seed_matrix)
            index = summand_index(plus, minus) if plus.rank and minus.rank else 1
            label = kind.name + (f"({kind.gamma})" if kind.gamma is not None else "")
            print(f"{a:2d} {b:2d} {p:2d} {label:24s} {index:6d} {ok}/{args.per_class}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

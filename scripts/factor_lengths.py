#!/usr/bin/env python3
"""Length distribution of shear factorizations of random SL(n, Z) words.

The factorization guarantees exactness, not minimality; this experiment
measures how the produced length scales with the input word length and
rank.  No bound is asserted anywhere, the numbers are just reported.
"""

import argparse
import random
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--max-rank", type=int, default=5)
    parser.add_argument("--max-word", type=int, default=30)
    parser.add_argument("--entry-bound", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20250810)
    args = parser.parse_args()

    from glnz.congruence import elementary_factorization
    from glnz.exactmat import random_elementary_word

    rng = random.Random(args.seed)
    by_rank: dict[int, list[int]] = {}
    even_factors = 0
    total_factors = 0
    for _ in range(args.samples):
        n = rng.randint(2, args.max_rank)
        word = rng.randint(1, args.max_word)
        M = random_elementary_word(n, word, args.entry_bound, rng.randrange(1 << 30))
        factorization = elementary_factorization(M)
        if factorization.product() != M:
            print("round trip failed", file=sys.stderr)
            return 1
        by_rank.setdefault(n, []).append(len(factorization))
        even_factors += sum(c % 2 == 0 for _, _, c in factorization.factors)
        total_factors += len(factorization)

    print(f"{args.samples} samples, word length <= {args.max_word}, "
          f"entries <= {args.entry_bound}")
    print(f"{'rank':>4s} {'count':>6s} {'min':>5s} {'median':>7s} {'mean':>7s} {'max':>5s}")
    for n in sorted(by_rank):
        lengths = sorted(by_rank[n])
        mean = sum(lengths) / len(lengths)
        print(
            f"{n:4d} {len(lengths):6d} {lengths[0]:5d} "
            f"{lengths[len(lengths) // 2]:7d} {mean:7.1f} {lengths[-1]:5d}"
        )
    if total_factors:
        print(f"mod-2 trivial factors: {even_factors}/{total_factors} "
              f"({100 * even_factors / total_factors:.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

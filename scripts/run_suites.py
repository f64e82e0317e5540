#!/usr/bin/env python3
"""Run every verification suite at a sensible rank and print a summary
table.  Use --trials/--seed to rescale or replay a run."""

import argparse
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    n: int
    trials: int


DEFAULTS = (
    SuiteConfig("L1_3", 6, 200),
    SuiteConfig("L1_4_partial", 6, 300),
    SuiteConfig("L1_5", 9, 200),
    SuiteConfig("L1_6", 5, 500),
    SuiteConfig("L1_7", 5, 1000),
    SuiteConfig("P1_8", 4, 200),
    SuiteConfig("P1_9", 8, 300),
    SuiteConfig("C2_1_claim1", 3, 1),
    SuiteConfig("C2_1_claim3", 4, 200),
    SuiteConfig("MU_SURJ", 6, 500),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trials", type=int, help="override the trial count everywhere")
    args = parser.parse_args()
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be at least 1")

    from glnz.verify import run_suite

    print(f"{'suite':14s} {'n':>3s} {'trials':>7s} {'result':7s} {'ms':>7s}")
    failed = 0
    for cfg in DEFAULTS:
        trials = args.trials if args.trials is not None else cfg.trials
        report = run_suite(cfg.suite, cfg.n, trials, args.seed)
        status = "pass" if report.passed else f"FAIL:{len(report.failures)}"
        failed += not report.passed
        print(f"{cfg.suite:14s} {cfg.n:3d} {trials:7d} {status:7s} {report.elapsed_ms:7d}")
        if not report.passed:
            worst = report.failures[0]
            print(
                f"  first failure (trial {worst['trial']}, {worst['category']}): "
                f"{worst['reason']}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

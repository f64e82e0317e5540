#!/usr/bin/env python3
"""Compare two checkouts of glnz on the perfbench workloads and write a
BENCH_<n>.json record.

    python3 scripts/bench.py --parent ../glnz-parent --change . --bench 3 \\
        --seeds 201-210 --change-note "what the change does" \\
        --claim bigint-cli:latency_p90_ms

For every workload and seed it runs one alternating pair of
``perfbench/run.py --trace 0``, once in each checkout: the side that goes
first alternates from pair to pair, so a drift of the host's speed hits
both sides alike.  It then runs ``--trace 1`` once per side at the first
seed for the per-layer metrics.  Each checkout runs its own
``perfbench/run.py`` and builds its inputs from its own ``src/``.

The record holds, per workload and end-to-end metric, each side's runs,
median and quartiles, the ratio of the medians, how many pairs the
change won (ties count for neither side), the relative worsening and the
parent's interquartile range; the layer metrics of both traced runs; and
the environment.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 1800


def parse_seeds(text: str) -> list[int]:
    """'201-210' -> [201, ..., 210]."""
    lo, hi = map(int, text.split("-"))
    return list(range(lo, hi + 1))


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its result line, plus the run record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = next(json.loads(line[4:]) for line in lines if line.startswith("run "))
    result["record"] = record
    print(f"  {workload} seed {seed} trace {trace} {checkout.name}: "
          + ", ".join(f"{k} {v['value']:.4g}" for k, v in list(result["metrics"].items())[:5]),
          flush=True)
    return result


def summarize(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float], spec: dict) -> dict:
    higher = spec["better"] == "higher"
    p, c = summarize(parent), summarize(change)
    ratio = c["median"] / p["median"]
    wins = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "ratio_change_over_parent": ratio,
        "change_wins": wins,
        "worse_by": (1 - ratio) if higher else (ratio - 1),
        "parent_iqr": p["q3"] - p["q1"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--bench", type=int, required=True, help="number in BENCH_<n>.json")
    parser.add_argument("--seeds", required=True, help="lo-hi, e.g. 201-210; one pair per seed")
    parser.add_argument("--change-note", required=True, help="one line: what the change does")
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    parser.add_argument("--out", type=Path, help="default: BENCH_<n>.json in the change checkout")
    args = parser.parse_args()

    parent, change = args.parent.resolve(), args.change.resolve()
    checkouts = dict(zip(SIDES, (parent, change)))
    spec = json.loads((change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metric_specs = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        sys.exit("need at least two seeds for quartiles")

    load_start = loadavg()
    end_to_end, layers, records = {}, {}, {side: [] for side in SIDES}
    for workload in workloads:
        print(f"{workload}: {len(seeds)} pairs", flush=True)
        results = {side: [] for side in SIDES}
        first_sides = []
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            first_sides.append(order[0])
            for side in order:
                results[side].append(run_once(checkouts[side], workload, seed, seconds, 0))
        entry: dict = {"pairs": len(seeds), "seeds": seeds, "first_side": first_sides}
        for name, mspec in metric_specs.items():
            runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
            entry[name] = compare(runs["parent"], runs["change"], mspec)
        entry["error_rate"] = {
            side: [r["failed"] / r["attempted"] for r in results[side]] for side in SIDES
        }
        entry["attempted"] = {side: [r["attempted"] for r in results[side]] for side in SIDES}
        end_to_end[workload] = entry

        traced = {side: run_once(checkouts[side], workload, seeds[0], seconds, 1) for side in SIDES}
        layers[workload] = {
            "seed": seeds[0],
            "attempted": {side: traced[side]["attempted"] for side in SIDES},
            "metrics": {
                name: {"unit": traced["parent"]["metrics"][name]["unit"],
                       **{side: traced[side]["metrics"][name]["value"] for side in SIDES}}
                for name in traced["parent"]["metrics"]
            },
        }
        for side in SIDES:
            records[side] += [r["record"] for r in results[side]] + [traced[side]["record"]]

    def one(side: str, key: str):
        """The value every run of side recorded for key; all of them,
        sorted, if the runs disagree."""
        values = sorted({r[key] for r in records[side]}, key=str)
        return values[0] if len(values) == 1 else values

    doc = {
        "bench": args.bench,
        "change": args.change_note,
        "parent_commit": one("parent", "git_commit"),
        "change_commit": one("change", "git_commit"),
        "change_source_sha256": one("change", "source_sha256"),
        "parent_source_sha256": one("parent", "source_sha256"),
        "method": {
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "pairs": "parent and change at the same seed, the side that runs first alternating; "
                     f"seeds {args.seeds}",
            "quartiles": "statistics.quantiles(method='inclusive')",
            "layers": "one --trace 1 run per side at the first seed of each workload",
        },
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        m = end_to_end[workload][metric]
        gap = abs(m["change"]["median"] - m["parent"]["median"])
        doc["claim"] = {
            "workload": workload,
            "metric": metric,
            "rule": "the change wins >= 9/10 of the pairs and the medians differ in its "
                    "favour by more than the parent's interquartile range",
            "median_ratio": m["ratio_change_over_parent"],
            "change_wins": m["change_wins"],
            "pairs": len(seeds),
            "median_gap_over_parent_iqr": gap / m["parent_iqr"] if m["parent_iqr"] else None,
            "met": m["worse_by"] < 0 and 10 * m["change_wins"] >= 9 * len(seeds)
                   and gap > m["parent_iqr"],
        }
    doc["end_to_end"] = end_to_end
    doc["layers"] = layers
    doc["env"] = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "loadavg_first_run_start": load_start,
        "loadavg_last_run_end": loadavg(),
    }
    out = args.out or change / f"BENCH_{args.bench}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

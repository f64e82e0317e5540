#!/usr/bin/env python3
"""glnz benchmark: one seeded workload in a closed loop (one client, one
thread, one process), every output checked.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
the same ops untraced and then traced, prints the per-layer metrics and
the tracing overhead, and writes the spans to perfbench/out/.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def import_glnz():
    """The glnz package of this checkout, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import glnz
        import glnz.cli
    except ImportError as exc:
        sys.exit(f"cannot import glnz from {SRC}: {exc}")
    if Path(glnz.__file__).resolve().parent.parent != SRC:
        sys.exit(f"imported glnz from {glnz.__file__}, not from {SRC}")
    return glnz


def build(workload: str, seed: int):
    import workloads

    glnz = import_glnz()
    ops = workloads.WORKLOADS[workload](random.Random(seed), glnz)
    digest = hashlib.sha256(repr([op.inputs for op in ops]).encode()).hexdigest()
    return glnz, ops, digest


def setup_seconds(args) -> list[float]:
    """Fresh interpreters from process start to the moment the first op
    could be timed: interpreter start, import glnz, input generation."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def timed_call(op, label: str, latencies: list, failures: list, call=None) -> None:
    """Time one call of op (through call when given) and check its output
    outside the timed region.  An exception ends only this op."""
    t0 = time.perf_counter()
    try:
        out = call() if call else op.call()
    except Exception as exc:
        latencies.append(time.perf_counter() - t0)
        failures.append(f"{label} raised {type(exc).__name__}: {exc}")
        return
    latencies.append(time.perf_counter() - t0)
    try:
        reason = op.check(out)
    except Exception as exc:
        reason = f"output could not be checked: {type(exc).__name__}: {exc}"
    if reason:
        failures.append(f"{label}: {reason}")


def op_loop(ops, seconds: float):
    """Closed loop over the pool for seconds, and at least MIN_OPS ops;
    yields (index, op)."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < deadline:
        yield i, ops[i % len(ops)]
        i += 1


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "glnz").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


def end_to_end(args, glnz, ops, record):
    setup = setup_seconds(args)
    latencies, failures = [], []
    for i, op in op_loop(ops, args.seconds):
        timed_call(op, f"op {i} ({op.kind})", latencies, failures)
    lat = sorted(latencies)
    metrics = {
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1000, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    record["setup_samples_s"] = setup
    return metrics, len(lat), failures, []


def per_layer(args, glnz, ops, record):
    import tracing

    tracer = tracing.Tracer(glnz)
    plain, traced, failures = [], [], []
    for i, op in op_loop(ops, args.seconds):
        # each op runs untraced and traced, in alternating order, so the
        # overhead ratio compares the same ops under the same load
        label = f"op {i} ({op.kind})"
        for with_trace in ((False, True), (True, False))[i % 2]:
            if with_trace:
                call = lambda: tracer.call(op.call, i)
                timed_call(op, label + " traced", traced, failures, call)
            else:
                timed_call(op, label, plain, failures)
    wall_plain, wall_traced = sum(plain), sum(traced)
    problems = [f"trace self-test: {p}" for p in tracer.self_test(wall_traced)]
    values = tracer.metrics(wall_traced / wall_plain)
    units = dict(tracing.layer_metric_names())
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    record.update(untraced_s=wall_plain, traced_s=wall_traced, spans_file=str(path.relative_to(ROOT)))
    record["spans"] = tracer.write(path, record)
    return metrics, len(plain) + len(traced), failures, problems


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print the wall clock and exit")
    args = parser.parse_args()

    load_start = loadavg()
    glnz, ops, digest = build(args.workload, args.seed)
    if args.setup_probe:
        print(time.time())
        return 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_start,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "input_sha256": digest,
        "pool_ops": len(ops),
    }
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failures, problems = measure(args, glnz, ops, record)
    record.update(loadavg_end=loadavg(), attempted=attempted, failed=len(failures),
                  op_kinds=Counter(ops[i % len(ops)].kind for i in range(attempted)))

    for reason in failures[:10] + problems:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:54s} {value:16.6f} {unit}")
    # the error rate is in the result line as failed / attempted; it is not
    # a metric because it is 0 whenever the program is right
    print(f"{'error_rate':54s} {len(failures) / attempted:16.6f} ratio")
    print("run " + json.dumps(record))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

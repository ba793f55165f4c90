#!/usr/bin/env python3
"""Determinism test for the benchmark's counted metrics.

    python3 perfbench/test_determinism.py [--seconds 1] [--seed 5]

For every workload, at reduced size and one seed: runs the untraced
benchmark twice and the traced benchmark once, and asserts that the
counted metrics (the COUNTS line: *_io_per_op, space_amp, core.merges,
cache hits, pipeline.coalesce_frac, durability.wal_records, ...) are
bit-identical across the two untraced runs and between the untraced and
traced runs, and that every run answered correctly. Exits non-zero on any
difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("thm2-ingest", "zipf-cached-mixed", "durable-ingest-file")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    counts = [l for l in lines if l.startswith("COUNTS ")]
    if proc.returncode != 0 or not counts or not json.loads(lines[-1])["correct"]:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise AssertionError(f"{workload} trace={trace} failed (exit {proc.returncode})")
    return json.loads(counts[-1][len("COUNTS "):])


def differences(a, b):
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    failures = 0
    for workload in WORKLOADS:
        first = run(workload, args.seed, args.seconds, 0)
        second = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        for label, other in (("repeat run", second), ("traced run", traced)):
            diff = differences(first, other)
            status = "ok" if not diff else "DIFFERS: " + ", ".join(diff)
            failures += bool(diff)
            print(f"{workload:20s} {label:10s} {len(first)} counted metrics {status}")
    print("PASS" if failures == 0 else f"FAIL ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

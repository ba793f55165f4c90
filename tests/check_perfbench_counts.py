#!/usr/bin/env python3
"""Check the benchmark's counted metrics against a golden file.

    python3 tests/check_perfbench_counts.py [--update]

Runs perfbench/run.py untraced for every workload at --seconds 1, once at
seed 1 and once at the held-out seed 90210, and compares each run's
COUNTS line (counted I/O per op, space, merges, cache hits, WAL records,
...) key by key with tests/golden/perfbench_counts.json, which is keyed
by seed, then workload. Exits 1 when a run fails or answers wrongly, or
when any key differs, is missing or is new. The counts repeat bit-exactly
for a seed (perfbench/test_determinism.py), so any difference means the
change moved counted I/O. A change that means to do so rewrites the
golden with --update and says why.

Run from anywhere; the first run builds perfbench/ like run.py does.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "perfbench_counts.json"
WORKLOADS = ("thm2-ingest", "zipf-cached-mixed", "durable-ingest-file")
SEEDS = (1, 90210)
SECONDS = 1


def counts(workload, seed):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    found = [l for l in lines if l.startswith("COUNTS ")]
    if proc.returncode != 0 or not found or not json.loads(lines[-1])["correct"]:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})")
    return json.loads(found[-1][len("COUNTS "):])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden from this checkout's runs")
    args = parser.parse_args()

    measured = {str(seed): {workload: counts(workload, seed)
                            for workload in WORKLOADS}
                for seed in SEEDS}
    if args.update:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0

    golden = json.loads(GOLDEN.read_text())
    failures = 0
    for seed in map(str, SEEDS):
        for workload in WORKLOADS:
            want = golden.get(seed, {}).get(workload, {})
            got = measured[seed][workload]
            differ = sorted(k for k in set(want) | set(got)
                            if want.get(k) != got.get(k))
            for key in differ:
                print(f"seed {seed:5s} {workload:20s} {key}: golden "
                      f"{want.get(key)!r}, now {got.get(key)!r}")
            if not differ:
                print(f"seed {seed:5s} {workload:20s} "
                      f"{len(got)} counted metrics ok")
            failures += len(differ)
    print("PASS" if failures == 0 else f"FAIL ({failures} keys differ)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

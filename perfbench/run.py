#!/usr/bin/env python3
"""Build and run the exthash benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (Release, library sources from ../src) under .bench_build/ (or
$CARGO_TARGET_DIR); later runs only re-check the build. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The exit code is 0 only when every answer was
right. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

WORKLOADS = ("thm2-ingest", "zipf-cached-mixed", "durable-ingest-file")

# Spans the benchmark records; the traced run reports each one's self time
# (its duration minus the child spans it covers on the same thread).
SELF_TIME_SPANS = (
    "workload.keygen",
    "workload.preload",
    "hashfn.loop",
    "bench.ingest",
    "bench.lookup",
    "bench.mixed",
    "tables.applyBatch",
    "tables.lookupBatch",
    "pipeline.submit",
    "pipeline.drain",
    "durability.checkpoint",
    "extmem.file.fsync",
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def run_logged(cmd, log, timeout):
    """Run cmd with output to log; on failure echo the log's tail."""
    with open(log, "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}", 3)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"the exthash sources (src/, CMakeLists.txt) are missing from {ROOT}", 2)
    build_dir = build_root() / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   build_dir / "configure.log", BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", str(build_dir), "-j", "4"],
               build_dir / "build.log", BUILD_TIMEOUT_S)
    binary = build_dir / "perfbench_exthash"
    if not binary.is_file():
        fail(f"build produced no {binary}", 3)
    return binary


def source_id():
    """The git commit when available, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            return "git " + proc.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", BENCH_DIR.name):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256 " + digest.hexdigest()[:16] + " (not a git checkout)"


def self_times_ms(trace_path):
    """Per-span-name self time in ms from a Chrome trace file."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    by_thread = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_thread[e["tid"]].append((e["ts"], e["ts"] + e["dur"], e["name"]))
    totals = defaultdict(float)
    for spans in by_thread.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # [end, name, self_us]

        def close(entry):
            totals[entry[1]] += entry[2] / 1000.0

        for start, end, name in spans:
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                # Charge the overlap (normally all of it) to the parent.
                stack[-1][2] -= min(end, stack[-1][0]) - start
            stack.append([end, name, end - start])
        while stack:
            close(stack.pop())
    return totals


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json lists for this mode, if present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    out_root = build_root()
    data_dir = out_root / "perfbench-data" / f"{args.workload}-{os.getpid()}"
    trace_path = out_root / "perfbench-traces" / f"{args.workload}-seed{args.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(data_dir)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no output (exit {proc.returncode})", 5)
    result = json.loads(lines[-1])

    print(f"# source: {source_id()}")
    for line in lines[:-1]:
        print(line)
    if args.trace and proc.returncode == 0:
        totals = self_times_ms(trace_path)
        for name in SELF_TIME_SPANS:
            result["metrics"][f"self_ms.{name}"] = {"value": totals.get(name, 0.0),
                                                    "unit": "ms"}
        shown = (trace_path.relative_to(ROOT) if trace_path.is_relative_to(ROOT)
                 else trace_path)
        print(f"# trace written to {shown}; "
              "self_ms.* = span time minus child spans on the same thread")

    expected = expected_metrics(args.trace)
    if expected is not None and result["correct"]:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            print(f"# ERROR: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(expected) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected))}, "
                  f"unit mismatches {sorted(k for k in got if k in expected and got[k] != expected[k])}")
            result["correct"] = False
            result["failed"] = max(1, result["failed"])
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

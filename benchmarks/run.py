"""Benchmark of the gwtrees reproduction.

    python3 benchmarks/run.py --workload depth-large --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ./src, never
from an installed copy; without it the command exits 2 and prints no result.
The last line of standard output is one JSON object: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Lines before it list
every metric by name and unit; benchmarks/out/ keeps the full record and,
for traced runs, the spans.  `--workload all` runs each workload in its own
process, so that each peak RSS belongs to one workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("exact-tables", "depth-large", "tree-sample")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; prints every workload's metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"# workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        line = json.loads(lines[-1])
        total["correct"] = total["correct"] and line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(total, sort_keys=True))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "gwtrees" / "__init__.py").is_file():
        print(json.dumps({"error": f"library source not found under {SRC}"}), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    line, record = harness.report(result)
    harness.write_outputs(result, record)
    harness.print_record(record)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

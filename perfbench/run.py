#!/usr/bin/env python3
"""Benchmark entry point for the Twill reproduction (see perfbench/README.md).

    python3 perfbench/run.py --workload chstone-report --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's user flow untraced and prints the
end-to-end metrics; ``--trace 1`` runs it traced and prints the per-layer
metrics, after the per-layer self-time table.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``, named and unitised as in
BENCHMARK.json).  The line before it records the run's environment and every
timed sample behind the end-to-end medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import proc  # noqa: E402


def checkout_problem() -> str:
    """Why this directory cannot be benchmarked ('' if it can)."""
    for needed in ("BENCHMARK.json", "src/repro/cli.py", "tools/fuzz_csubset.py"):
        if not (proc.ROOT / needed).is_file():
            return f"{needed} is missing: run from the root of a full checkout"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    parser.add_argument("--inject-failure", action="store_true", help="add one operation that fails")
    args = parser.parse_args(argv)

    problem = checkout_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((proc.ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r} (one of {sorted(workloads)})", file=sys.stderr)
        return 2

    from flows import WORKLOADS, Context

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": proc.load_average(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    ctx = Context(args.workload, args.seed, args.seconds, args.size, args.inject_failure)
    try:
        if args.trace:
            from traced import run_traced

            values = run_traced(ctx)
            declared = spec["per_layer"]
        else:
            values = WORKLOADS[args.workload](ctx)
            declared = spec["end_to_end"]
    finally:
        ctx.close()
    env["samples_s"] = {kind: [round(t, 4) for t in times] for kind, times in ctx.samples.items()}

    result = {
        "correct": ctx.ledger.wrong == 0,
        "attempted": ctx.ledger.attempted,
        "failed": ctx.ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    out = proc.ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with (out / "results.jsonl").open("a") as handle:
        handle.write(json.dumps({"env": env, **result}) + "\n")
    print("perfbench env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

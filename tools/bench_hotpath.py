#!/usr/bin/env python
"""Before/after micro-benchmark of the three hot-path overhauls.

Each leg times the new implementation against its still-selectable legacy
fallback **in the same process, on the same inputs**, and verifies the two
produce identical output before reporting a single number:

* **frontend** — batched-regex lexer + table-driven LL(1) parser
  (``REPRO_PARSER`` default) vs the recursive-descent reference
  (``REPRO_PARSER=rd``), parsing every builtin workload source; per-stage
  lex/parse seconds come from the :mod:`repro.perf` collectors.
* **replay** — readiness-driven heap scheduler (``engine="ready"``,
  ``REPRO_REPLAY`` default) vs the cooperative poll engine
  (``engine="poll"``), replaying each workload's trace under its pure-SW,
  pure-HW and DSWP-partitioned assignments.  Each repeat first clears the
  plans and replay memo cached on the traces, so no repeat is served by a
  memo lookup; the leg reports the plan/memo hits it saw (expected: 0).
* **explore** — incremental candidate evaluation (memoized shared
  re-partition stage) vs re-running DSWP for every candidate, over the
  report's 3x3 split-target x queue-depth space.

A fourth leg, **trace**, has no in-process legacy to race: it times the
columnar execution trace's four phases separately over the 8 CHStone
kernels — record (the interpreter run that writes the trace), artifact
encode, artifact decode, and replay-index build — and checks that
re-encoding every decoded artifact reproduces its bytes exactly.
``--baseline`` copies the trace and replay legs of a ``BENCH_hotpath.json``
written by this tool on another checkout (say, the parent commit, on the
same machine) into this run's record, as the trace leg's ``before`` and the
replay leg's ``baseline``.

Results land in ``BENCH_hotpath.json`` (override with ``--out``).  Exits
non-zero if any leg's outputs diverge, any decoded artifact re-encodes to
different bytes, or any leg's new implementation is slower than its legacy
fallback beyond ``--tolerance``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro import perf  # noqa: E402
from repro.frontend.lexer import tokenize  # noqa: E402
from repro.frontend.parser import RecursiveDescentParser  # noqa: E402
from repro.frontend.tableparser import TableParser  # noqa: E402
from repro.workloads import all_workloads  # noqa: E402

#: Workloads whose traces the replay leg simulates (kept small: replay cost
#: scales with dynamic instruction count, and two shapes suffice).
REPLAY_WORKLOADS = ("blowfish", "mips")


def _timed(fn):
    """Run *fn*, returning (seconds, result)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def bench_frontend(repeats: int) -> dict:
    """Leg (a): lex+parse every builtin workload with both parsers."""
    sources = [w.source for w in all_workloads()]

    def run(parser_cls):
        with perf.collect() as timings:
            units = []
            for _ in range(repeats):
                for source in sources:
                    with perf.stage("lex"):
                        tokens = tokenize(source)
                    with perf.stage("parse"):
                        units.append(parser_cls(tokens).parse_translation_unit())
            return units, timings

    table_seconds, (table_units, table_timings) = _timed(lambda: run(TableParser))
    rd_seconds, (rd_units, _) = _timed(lambda: run(RecursiveDescentParser))
    return {
        "after_seconds": round(table_seconds, 4),
        "before_seconds": round(rd_seconds, 4),
        "speedup": round(rd_seconds / max(table_seconds, 1e-9), 3),
        "stages": table_timings.as_dict(),
        "identical": table_units == rd_units,
        "sources": len(sources),
        "repeats": repeats,
    }


def bench_replay(repeats: int) -> dict:
    """Leg (b): replay each workload trace with both timing engines."""
    import dataclasses

    from repro.core.compiler import TwillCompiler
    from repro.dswp import run_dswp
    from repro.interp import Profile, run_module
    from repro.sim import ThreadAssignment, TimingSimulator
    from repro.workloads import get_workload

    jobs = []
    for name in REPLAY_WORKLOADS:
        compiler = TwillCompiler()
        module = compiler.compile_module(get_workload(name).source, name)
        execution = run_module(module, record_trace=True)
        profile = Profile.from_trace(module, execution.trace)
        dswp = run_dswp(module, profile=profile)
        for assignment in (
            ThreadAssignment.pure_software(module),
            ThreadAssignment.pure_hardware(module),
            ThreadAssignment.from_partitioning(module, dswp.partitioning),
        ):
            jobs.append((execution.trace, assignment))

    sim = TimingSimulator()
    traces = list({id(trace): trace for trace, _ in jobs}.values())
    hits = {"plan_hits": 0, "replay_hits": 0}

    def forget_replays():
        # Each trace's replay index caches plans and the replay memo; clear
        # both (keeping the per-trace part, which is built once as before)
        # so the next repeat times the engine, not a memo lookup.
        for trace in traces:
            index = getattr(trace, "_replay_index", None)
            for cache, counter in (("plans", "plan_hits"), ("replays", "replay_hits")):
                if hasattr(index, cache):
                    getattr(index, cache).clear()
                    hits[counter] += getattr(index, counter)
                    setattr(index, counter, 0)

    def run(engine):
        results = []
        for _ in range(repeats):
            forget_replays()
            for trace, assignment in jobs:
                results.append(sim.simulate(trace, assignment, engine=engine))
        forget_replays()
        return results

    ready_seconds, ready = _timed(lambda: run("ready"))
    poll_seconds, poll = _timed(lambda: run("poll"))
    # repr keeps 2 and 2.0 apart, as the report bytes do.
    identical = all(
        repr(dataclasses.astuple(a)) == repr(dataclasses.astuple(b)) for a, b in zip(ready, poll)
    )
    return {
        "after_seconds": round(ready_seconds, 4),
        "before_seconds": round(poll_seconds, 4),
        "speedup": round(poll_seconds / max(ready_seconds, 1e-9), 3),
        "identical": identical,
        "traces": len(jobs),
        "repeats": repeats,
        **hits,
    }


def bench_explore() -> dict:
    """Leg (c): evaluate the report's 9-candidate space both ways.

    The "before" path re-runs DSWP per candidate (memo cleared around every
    point, no stage cache) — exactly what evaluation did before the
    re-partition stage became content-addressed and shared.
    """
    from repro.config import CompilerConfig
    from repro.explore import evaluate
    from repro.explore.space import report_space

    space = report_space()
    config = CompilerConfig()
    candidates = list(space.candidates())
    dswp_runs = []
    real_repartition = evaluate.repartition

    def counting(*args, **kwargs):
        dswp_runs.append(1)
        return real_repartition(*args, **kwargs)

    evaluate.repartition = counting
    try:
        with tempfile.TemporaryDirectory(prefix="repro-hotpath-") as workdir:
            cache_root = os.path.join(workdir, "cache")

            def point(candidate, incremental):
                if not incremental:
                    evaluate._DSWP_MEMO.clear()
                return evaluate.compute_explore_point(
                    "blowfish",
                    config,
                    cache_root if incremental else None,
                    candidate.params(),
                    space.to_dict(),
                )

            # Warm the compile artifact first so neither variant pays for it.
            point(candidates[0], True)
            evaluate._DSWP_MEMO.clear()
            dswp_runs.clear()

            after_seconds, after = _timed(
                lambda: [point(c, True) for c in candidates]
            )
            after_runs = len(dswp_runs)
            dswp_runs.clear()
            before_seconds, before = _timed(
                lambda: [point(c, False) for c in candidates]
            )
            before_runs = len(dswp_runs)
    finally:
        evaluate.repartition = real_repartition
        evaluate._DSWP_MEMO.clear()

    return {
        "after_seconds": round(after_seconds, 4),
        "before_seconds": round(before_seconds, 4),
        "speedup": round(before_seconds / max(after_seconds, 1e-9), 3),
        "identical": json.dumps(after, sort_keys=True) == json.dumps(before, sort_keys=True),
        "candidates": len(candidates),
        "dswp_runs_after": after_runs,
        "dswp_runs_before": before_runs,
    }


def bench_trace(repeats: int) -> dict:
    """Leg (d): record, encode, decode and index the 8 kernels' traces.

    Each phase is timed per kernel as the best of *repeats* runs, then
    summed over the kernels.  Only public entry points (and the simulator's
    ``_trace_index`` cache accessor) are called, so the leg runs unchanged
    on checkouts with a different trace representation.
    """
    from repro.core.compiler import TwillCompiler
    from repro.eval import artifact_codec
    from repro.sim import timing

    phases = {"record": 0.0, "encode": 0.0, "decode": 0.0, "index": 0.0}
    events = 0
    artifact_bytes = 0
    reencode_identical = True
    workloads = all_workloads()
    for workload in workloads:
        compiler = TwillCompiler()
        result = compiler.compile_and_simulate(workload.source, name=workload.name)
        best = dict.fromkeys(phases, float("inf"))
        for _ in range(repeats):
            seconds, execution = _timed(lambda: compiler.execute(result.module))
            best["record"] = min(best["record"], seconds)
            seconds, data = _timed(lambda: artifact_codec.encode_compilation_result(result))
            best["encode"] = min(best["encode"], seconds)
            seconds, decoded = _timed(lambda: artifact_codec.decode_compilation_result(data))
            best["decode"] = min(best["decode"], seconds)
            seconds, _ = _timed(lambda: timing._trace_index(decoded.execution.trace))
            best["index"] = min(best["index"], seconds)
        reencode_identical &= artifact_codec.encode_compilation_result(decoded) == data
        events += len(execution.trace.events)
        artifact_bytes += len(data)
        for phase, seconds in best.items():
            phases[phase] += seconds
    return {
        "seconds": {phase: round(seconds, 4) for phase, seconds in phases.items()},
        "reencode_identical": reencode_identical,
        "kernels": len(workloads),
        "events": events,
        "artifact_bytes": artifact_bytes,
        "repeats": repeats,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_hotpath.json", help="timing output file")
    parser.add_argument(
        "--repeats", type=int, default=3, help="frontend/replay timing repetitions (default: 3)"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_HOTPATH_TOLERANCE", "0.9")),
        help="fail a leg if its speedup falls below this (default: 0.9, i.e. "
        "the new path may not be >10%% slower than the legacy one)",
    )
    parser.add_argument(
        "--baseline",
        help="BENCH_hotpath.json written by this tool on another checkout; its "
        "trace leg is recorded as this run's trace 'before' and its replay "
        "leg as this run's replay 'baseline'",
    )
    args = parser.parse_args(argv)

    record = {
        "frontend": bench_frontend(args.repeats),
        "replay": bench_replay(args.repeats),
        "explore": bench_explore(),
        "trace": bench_trace(args.repeats),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        for leg in ("trace", "replay"):
            before = baseline[leg]
            before.pop("before", None)
            before.pop("baseline", None)
            record[leg]["before" if leg == "trace" else "baseline"] = before
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record, indent=2, sort_keys=True))

    # Append the timings to the persistent run ledger so `repro history
    # check` can flag regressions across CI runs (never fails the bench).
    from repro.obs import history as obs_history

    obs_history.record_run(
        "bench_hotpath",
        {
            f"{leg}_{side}_seconds": record[leg][f"{side}_seconds"]
            for leg in ("frontend", "replay", "explore")
            for side in ("after", "before")
        }
        | {
            f"trace_{phase}_seconds": seconds
            for phase, seconds in record["trace"]["seconds"].items()
        },
        attrs={"repeats": args.repeats},
    )

    failures = []
    for leg in ("frontend", "replay", "explore"):
        if not record[leg]["identical"]:
            failures.append(f"{leg}: new and legacy implementations diverge")
        if record[leg]["speedup"] < args.tolerance:
            failures.append(
                f"{leg}: speedup {record[leg]['speedup']}x below tolerance {args.tolerance}x"
            )
    if not record["trace"]["reencode_identical"]:
        failures.append("trace: a decoded artifact re-encodes to different bytes")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "ok: "
        + ", ".join(f"{leg} {record[leg]['speedup']}x" for leg in ("frontend", "replay", "explore"))
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

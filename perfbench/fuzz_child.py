"""Child process of the fuzz-ingest workload.

``generate`` writes the seeded programs of one run; ``run`` pushes a shard of
them through the calls ``repro difftest`` makes (``ingest_source`` with a
harness, then ``difftest_workload``) and prints one JSON row per program.
A program that raises is recorded and the next one runs: one broken program
must not abort the batch.

    python perfbench/fuzz_child.py generate --seed 7 --count 200 --out DIR
    python perfbench/fuzz_child.py run --programs DIR --cache-dir CACHE [--shard 0 --shards 2]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

#: Source of the program ``--inject-failure`` adds: the frontend rejects it.
BROKEN_PROGRAM = "int main( {\n  return 0;\n"
#: Generator seed of the first program.  Every run uses the same draw, so it
#: does the same work: a draw's cost depends on how many of its programs hit
#: the RecursionError defect (about one in 200; each one recompiles on every
#: warm pass).  This draw holds one such program (100128), so the defect
#: counts in every run.
FIRST_PROGRAM = 100_000


def program_seeds(seed: int, count: int) -> List[int]:
    """The run's fuzzer seeds, in the processing order the run's seed picks."""
    seeds = [FIRST_PROGRAM + index for index in range(count)]
    random.Random(seed).shuffle(seeds)
    return seeds


def generate(seed: int, count: int, out: Path, inject_failure: bool) -> None:
    from fuzz_csubset import generate_program

    out.mkdir(parents=True, exist_ok=True)
    for position, program_seed in enumerate(program_seeds(seed, count)):
        (out / f"p{position:03d}_fz{program_seed}.c").write_text(generate_program(program_seed))
    if inject_failure:
        (out / "injected_broken.c").write_text(BROKEN_PROGRAM)


def run_one(harness, path: Path) -> Dict[str, object]:
    from repro.ingest import difftest_workload, ingest_source

    name = path.stem
    report, workload = ingest_source(path.read_text(), name, filename=path.name, harness=harness)
    if workload is None:
        raise RuntimeError(f"ingest rejected {path.name}: {report.to_dict().get('diagnostics')}")
    outcome = difftest_workload(harness, name)
    return {
        "ok": outcome.ok,
        "wrong": not outcome.ok,
        "error": "; ".join(outcome.failures) or None,
        "events": outcome.events,
    }


def shard_of(path: Path, shards: int) -> int:
    """The shard a program goes to: fixed by its generator seed, not by its
    position, so each shard gets the same programs in every run whatever
    order the run's seed picks (the injected program goes to shard 0)."""
    _, _, program_seed = path.stem.partition("_fz")
    return int(program_seed) % shards if program_seed else 0


def run(programs: Path, cache_dir: Path, shard: int, shards: int) -> List[Dict[str, object]]:
    from repro.eval.harness import EvaluationHarness

    harness = EvaluationHarness(benchmarks=[], cache_dir=str(cache_dir))
    rows = []
    for path in sorted(programs.glob("*.c")):
        if shard_of(path, shards) != shard:
            continue
        start = time.perf_counter()
        try:
            row = run_one(harness, path)
        except Exception as exc:  # a crashing program is a counted failure, not an abort
            row = {"ok": False, "wrong": False, "error": f"{type(exc).__name__}: {str(exc)[:200]}"}
        row["name"] = path.stem
        row["ms"] = (time.perf_counter() - start) * 1e3
        rows.append(row)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    gen = sub.add_parser("generate")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--out", type=Path, required=True)
    gen.add_argument("--inject-failure", action="store_true")
    runp = sub.add_parser("run")
    runp.add_argument("--programs", type=Path, required=True)
    runp.add_argument("--cache-dir", type=Path, required=True)
    runp.add_argument("--shard", type=int, default=0)
    runp.add_argument("--shards", type=int, default=1)
    args = parser.parse_args()
    if args.action == "generate":
        generate(args.seed, args.count, args.out, args.inject_failure)
    else:
        print(json.dumps(run(args.programs, args.cache_dir, args.shard, args.shards)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

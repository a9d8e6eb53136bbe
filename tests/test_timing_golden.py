"""Golden timing digests: the ``ready`` replay engine, pinned without ``poll``.

``tests/golden/timing_digests.json`` holds, for each CHStone kernel, the
sha256 of ``repr(dataclasses.astuple(result))`` for a matrix of replays:
pure software, pure hardware and the DSWP-partitioned Twill assignment at
the default runtime, plus Twill at queue depths 1, 2 and 32 and at queue
latency 128.  ``repr`` keeps the int-vs-float distinction the report bytes
depend on, and ``astuple`` walks every thread timeline.

The digests were written before the flat-array replay engine replaced the
object-based one, so they are the oracle that replay still produces exactly
the same results.  Regenerate them (only for an intended timing-model
change) with ``PYTHONPATH=src python tests/test_timing_golden.py``.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.config import CompilerConfig
from repro.core.compiler import TwillCompiler
from repro.dswp import run_dswp
from repro.interp import Profile
from repro.sim import ThreadAssignment, TimingSimulator
from repro.workloads import all_workloads

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "timing_digests.json"

#: Replay label → (assignment kind, RuntimeConfig overrides).
CASES = {
    "sw": ("sw", {}),
    "hw": ("hw", {}),
    "twill": ("twill", {}),
    "twill_depth1": ("twill", {"queue_depth": 1}),
    "twill_depth2": ("twill", {"queue_depth": 2}),
    "twill_depth32": ("twill", {"queue_depth": 32}),
    "twill_latency128": ("twill", {"queue_latency": 128}),
}


def digest(result) -> str:
    return hashlib.sha256(repr(dataclasses.astuple(result)).encode()).hexdigest()


def timing_digests(workload) -> dict:
    """Label → digest of every replay in :data:`CASES` for *workload*."""
    config = CompilerConfig()
    compiler = TwillCompiler(config)
    module = compiler.compile_module(workload.source, workload.name)
    trace = compiler.execute(module).trace
    dswp = run_dswp(module, profile=Profile.from_trace(module, trace), config=config.partition)
    assignments = {
        "sw": ThreadAssignment.pure_software(module),
        "hw": ThreadAssignment.pure_hardware(module),
        "twill": ThreadAssignment.from_partitioning(module, dswp.partitioning),
    }
    out = {}
    for label, (kind, overrides) in CASES.items():
        runtime = dataclasses.replace(config.runtime, **overrides)
        sim = TimingSimulator(runtime, config.hls)
        out[label] = digest(sim.simulate(trace, assignments[kind], engine="ready"))
    return out


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_ready_engine_reproduces_golden_timing(workload):
    golden = json.loads(GOLDEN_PATH.read_text())[workload.name]
    assert timing_digests(workload) == golden


def test_golden_timing_covers_every_kernel_and_case():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(w.name for w in all_workloads())
    assert all(sorted(cases) == sorted(CASES) for cases in golden.values())


if __name__ == "__main__":
    digests = {w.name: timing_digests(w) for w in all_workloads()}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.exit(0)

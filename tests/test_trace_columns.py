"""The columnar execution trace: golden digests, views, profile and pickling.

``tests/golden/trace_digests.json`` pins every CHStone kernel's dynamic
trace.  It was written with the event-object trace this columnar layout
replaced, so it is the oracle that the interpreter still records exactly
the same rows: each row contributes its static-instruction index (the
module's function → block → instruction order), register deps,
``mem_dep``, ``address`` and ``value``.
"""

import dataclasses
import hashlib
import json
import pickle
from array import array
from pathlib import Path

import pytest

from repro.core.compiler import TwillCompiler
from repro.eval.artifact_codec import _narrowest_typecode
from repro.interp import Profile, run_module
from repro.interp.trace import Trace, static_instructions
from repro.ir import Opcode
from repro.sim import ThreadAssignment, TimingSimulator
from repro.workloads import all_workloads

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "trace_digests.json").read_text()
)


def _digest(trace: Trace) -> str:
    digest = hashlib.sha256()
    for event in trace.events:
        deps = ",".join(map(str, event.deps))
        line = f"{trace.inst[event.seq]} {deps} {event.mem_dep} {event.address} {event.value}\n"
        digest.update(line.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_trace_reproduces_golden_digest(workload):
    compiler = TwillCompiler()
    module = compiler.compile_module(workload.source, workload.name)
    trace = compiler.execute(module).trace
    assert trace.instructions == static_instructions(module)
    assert len(trace) == GOLDEN[workload.name]["events"]
    assert _digest(trace) == GOLDEN[workload.name]["sha256"]


def test_golden_digests_cover_every_chstone_kernel():
    assert sorted(GOLDEN) == sorted(w.name for w in all_workloads())


def test_event_view_reads_the_columns(pipeline_module):
    trace = run_module(pipeline_module, record_trace=True).trace
    events = trace.events
    assert len(events) == len(trace) == len(trace.inst)
    assert events[-1] == events[len(trace) - 1]
    with pytest.raises(IndexError):
        events[len(trace)]
    for event in events:
        assert event.inst is trace.instructions[trace.inst[event.seq]]
        assert event.function == event.inst.parent.parent.name
        assert (event.address is not None) == (
            event.opcode in (Opcode.ALLOCA, Opcode.LOAD, Opcode.STORE, Opcode.GEP)
        )
        assert (event.mem_dep is not None) == (trace.mem_dep[event.seq] >= 0)


def test_profile_counts_the_inst_column(pipeline_module):
    trace = run_module(pipeline_module, record_trace=True).trace
    profile = Profile.from_trace(pipeline_module, trace)
    expected = {}
    for event in trace.events:
        expected[id(event.inst)] = expected.get(id(event.inst), 0) + 1
    for inst in static_instructions(pipeline_module):
        assert profile.count(inst) == float(expected.get(id(inst), 0))


def test_pickled_trace_replays_identically(pipeline_module):
    """Pickle carries the columns plus the static table, never the replay index."""
    trace = run_module(pipeline_module, record_trace=True).trace
    assignment = ThreadAssignment.pure_hardware(pipeline_module)
    before = TimingSimulator().simulate(trace, assignment)
    assert hasattr(trace, "_replay_index")
    module_copy, trace_copy = pickle.loads(pickle.dumps((pipeline_module, trace)))
    assert not hasattr(trace_copy, "_replay_index")
    for name in Trace.COLUMNS:
        assert getattr(trace_copy, name) == getattr(trace, name)
    after = TimingSimulator().simulate(trace_copy, ThreadAssignment.pure_hardware(module_copy))
    assert dataclasses.asdict(after) == dataclasses.asdict(before)


@pytest.mark.parametrize(
    "values, typecode",
    [
        ([], "b"),
        ([-1, 127], "b"),
        ([0, 255], "B"),
        ([-129, 5], "h"),
        ([0, 65535], "H"),
        ([-1, 1 << 16], "i"),
        ([0x1000, 0x8000_0000], "I"),
        ([-1, 0x8000_0000], "q"),
    ],
)
def test_codec_picks_the_narrowest_typecode(values, typecode):
    assert _narrowest_typecode(array("q", values)) == typecode

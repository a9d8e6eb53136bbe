"""Byte-identity tests: readiness-driven replay engine vs the poll engine.

The heap-scheduled ``ready`` engine replaced the original cooperative
round-robin ``poll`` engine on the hot path; the legacy engine stays
selectable (``REPRO_REPLAY=poll`` or ``simulate(..., engine="poll")``).
Both must produce the *same* :class:`~repro.sim.timing.TimingResult` —
not approximately, but field-for-field across every thread timeline —
on every assignment shape the system simulates (pure SW, pure HW, and
the DSWP-partitioned Twill configuration), across queue-depth extremes.
"""

import dataclasses
import os

import pytest

from repro.config import RuntimeConfig
from repro.dswp import run_dswp
from repro.frontend import compile_c
from repro.interp import Profile, run_module
from repro.interp.trace import Trace, static_instructions
from repro.ir import Opcode
from repro.sim import ThreadAssignment, TimingSimulator
from repro.sim.assignment import ExecutionDomain, ThreadSpec
from repro.sim.timing import REPLAY_ENGINE_ENV
from repro.transforms import GlobalsToArguments, default_pipeline
from repro.workloads import get_workload
from tests.conftest import PIPELINE_PROGRAM

WORKLOADS = ("blowfish", "mips")


def _compiled(source, name="program"):
    module = compile_c(source, name)
    default_pipeline().run(module)
    GlobalsToArguments().run(module)
    execution = run_module(module, record_trace=True)
    profile = Profile.from_trace(module, execution.trace)
    dswp = run_dswp(module, profile=profile)
    return module, execution, dswp


def _as_comparable(result):
    """A TimingResult as text — equality over every field, type-exact.

    ``repr`` keeps ``2`` and ``2.0`` apart, as the report bytes do.
    """
    return repr(dataclasses.astuple(result))


def _assignments(module, dswp):
    return {
        "pure_sw": ThreadAssignment.pure_software(module),
        "pure_hw": ThreadAssignment.pure_hardware(module),
        "twill": ThreadAssignment.from_partitioning(module, dswp.partitioning),
    }


@pytest.fixture(scope="module")
def pipeline():
    return _compiled(PIPELINE_PROGRAM, "pipeline")


def test_engines_identical_on_pipeline(pipeline):
    module, execution, dswp = pipeline
    sim = TimingSimulator()
    for label, assignment in _assignments(module, dswp).items():
        ready = sim.simulate(execution.trace, assignment, engine="ready")
        poll = sim.simulate(execution.trace, assignment, engine="poll")
        assert _as_comparable(ready) == _as_comparable(poll), label
        assert ready.forced_events == 0, label
        assert ready.replay_outputs == poll.replay_outputs


@pytest.mark.parametrize("name", WORKLOADS)
def test_engines_identical_on_workloads(name):
    module, execution, dswp = _compiled(get_workload(name).source, name)
    sim = TimingSimulator()
    for label, assignment in _assignments(module, dswp).items():
        ready = sim.simulate(execution.trace, assignment, engine="ready")
        poll = sim.simulate(execution.trace, assignment, engine="poll")
        assert _as_comparable(ready) == _as_comparable(poll), f"{name}/{label}"
        assert ready.forced_events == 0, f"{name}/{label}"


def test_engines_identical_across_queue_depths(pipeline):
    """Back-pressure is where the schedulers' orderings could diverge."""
    module, execution, dswp = pipeline
    assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
    for depth in (1, 2, 64):
        sim = TimingSimulator(RuntimeConfig(queue_depth=depth))
        ready = sim.simulate(execution.trace, assignment, engine="ready")
        poll = sim.simulate(execution.trace, assignment, engine="poll")
        assert _as_comparable(ready) == _as_comparable(poll), f"depth={depth}"


def test_env_selects_engine(pipeline, monkeypatch):
    module, execution, dswp = pipeline
    assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
    sim = TimingSimulator()

    monkeypatch.setenv(REPLAY_ENGINE_ENV, "poll")
    via_env = sim.simulate(execution.trace, assignment)
    explicit = sim.simulate(execution.trace, assignment, engine="poll")
    assert _as_comparable(via_env) == _as_comparable(explicit)

    monkeypatch.setenv(REPLAY_ENGINE_ENV, "bogus")
    with pytest.raises(ValueError, match="unknown replay engine"):
        sim.simulate(execution.trace, assignment)

    monkeypatch.delenv(REPLAY_ENGINE_ENV)
    default = sim.simulate(execution.trace, assignment)
    ready = sim.simulate(execution.trace, assignment, engine="ready")
    assert _as_comparable(default) == _as_comparable(ready)


def _synthetic(module, rows, threads):
    """A hand-built trace over *module*'s first plain instructions.

    *rows* are ``(instruction number, register deps, thread id)``; each
    instruction number picks a distinct non-terminator, non-call, non-phi
    static instruction, which is placed on the given thread.
    """
    statics = static_instructions(module)
    plain = [
        i for i in statics if not i.is_terminator() and i.opcode not in (Opcode.CALL, Opcode.PHI)
    ]
    trace = Trace(statics)
    assignment = ThreadAssignment(threads)
    for number, deps, tid in rows:
        trace.inst.append(statics.index(plain[number]))
        trace.deps.extend(deps)
        trace.dep_offsets.append(len(trace.deps))
        trace.mem_dep.append(-1)
        for column in (trace.address, trace.value, trace.has_value):
            column.append(0)
        assignment.assign_instruction(plain[number], tid)
    return trace, assignment


CPU = ThreadSpec(0, ExecutionDomain.SOFTWARE, "cpu")


def test_engines_identical_through_a_forced_cyclic_wait(pipeline):
    """A depth-1 queue deadlock: the force-execution fallback must fire.

    Thread 1 produces two values of one static instruction into thread 2's
    queue and then a third value; thread 2 first reads the third value,
    then the two queued ones.  With one slot, thread 1 blocks on the full
    queue while thread 2 blocks on the third value, so both engines force
    thread 1's second enqueue and then finish normally.
    """
    trace, assignment = _synthetic(
        pipeline[0],
        [(0, (), 1), (0, (), 1), (1, (), 1), (2, (2,), 2), (3, (0,), 2), (3, (1,), 2)],
        [CPU, ThreadSpec(1, ExecutionDomain.HARDWARE, "a"), ThreadSpec(2, ExecutionDomain.SOFTWARE, "b")],
    )
    sim = TimingSimulator(RuntimeConfig(queue_depth=1))
    ready = sim.simulate(trace, assignment, engine="ready")
    poll = sim.simulate(trace, assignment, engine="poll")
    assert ready.forced_events == poll.forced_events == 1
    assert _as_comparable(ready) == _as_comparable(poll)
    assert ready.queue_transfers == 3


def test_engines_identical_under_bus_contention(pipeline):
    """Two hardware producers want the same bus cycle.

    The second is pushed to the next free slot, an integer cycle past its
    value's float completion time, so its enqueue — and its thread's final
    ``next_free`` — are ints.  Both engines must keep that type.
    """
    trace, assignment = _synthetic(
        pipeline[0],
        [(0, (), 1), (2, (), 2), (3, (0,), 0), (5, (1,), 0)],
        [CPU, ThreadSpec(1, ExecutionDomain.HARDWARE, "a"), ThreadSpec(2, ExecutionDomain.HARDWARE, "b")],
    )
    sim = TimingSimulator()
    ready = sim.simulate(trace, assignment, engine="ready")
    poll = sim.simulate(trace, assignment, engine="poll")
    assert _as_comparable(ready) == _as_comparable(poll)
    assert isinstance(ready.threads[2].next_free, int)

"""Replay plans and the replay memo cached on a trace.

``TimingSimulator.simulate`` caches two things on the trace's replay index:
a :class:`~repro.sim.timing._ReplayPlan` per distinct thread assignment, and
the outcome of every replay, keyed by the content the replay reads (both
cost tables, the queue/bus/memory runtime fields, issue width and loop
pipelining).  A memo hit must be indistinguishable from a fresh replay —
type-exact, since the report bytes keep ``2`` and ``2.0`` apart — and must
hand out fresh objects every time.
"""

import dataclasses
import pickle

import pytest

from repro.config import HLSConfig, RuntimeConfig
from repro.costmodel.hardware import HardwareCostModel
from repro.costmodel.software import SoftwareCostModel
from repro.dswp import run_dswp
from repro.frontend import compile_c
from repro.interp import Profile, run_module
from repro.ir import Opcode
from repro.sim import ThreadAssignment, TimingSimulator
from repro.sim.timing import _trace_index
from repro.transforms import GlobalsToArguments, default_pipeline
from tests.conftest import PIPELINE_PROGRAM


def _exact(result):
    return repr(dataclasses.astuple(result))


@pytest.fixture
def compiled():
    module = compile_c(PIPELINE_PROGRAM, "pipeline")
    default_pipeline().run(module)
    GlobalsToArguments().run(module)
    trace = run_module(module, record_trace=True).trace
    dswp = run_dswp(module, profile=Profile.from_trace(module, trace))
    return module, trace, ThreadAssignment.from_partitioning(module, dswp.partitioning)


def _fresh(sim, trace, assignment):
    """Replay with no cached state, then restore the trace's index."""
    index = trace.__dict__.pop("_replay_index", None)
    try:
        return sim.simulate(trace, assignment)
    finally:
        if index is not None:
            trace._replay_index = index


def test_hit_equals_a_fresh_replay(compiled):
    module, trace, twill = compiled
    sim = TimingSimulator()
    for assignment in (
        ThreadAssignment.pure_software(module),
        ThreadAssignment.pure_hardware(module),
        twill,
    ):
        first = sim.simulate(trace, assignment)
        hits = _trace_index(trace).replay_hits
        again = sim.simulate(trace, assignment)
        assert _trace_index(trace).replay_hits == hits + 1
        assert _exact(again) == _exact(first) == _exact(_fresh(sim, trace, assignment))
        assert _exact(again) == _exact(sim.simulate(trace, assignment, engine="poll"))


def test_mutating_a_result_does_not_leak_into_the_next_hit(compiled):
    _, trace, twill = compiled
    sim = TimingSimulator()
    first = sim.simulate(trace, twill)
    expected = _exact(first)
    for timeline in first.threads.values():
        timeline.busy_cycles = -1.0
        timeline.events_executed = 0
    first.threads.clear()
    second = sim.simulate(trace, twill)
    assert _exact(second) == expected
    third = sim.simulate(trace, twill)
    assert all(a is not b for a, b in zip(second.threads.values(), third.threads.values()))


@pytest.mark.parametrize(
    "sim",
    [
        TimingSimulator(RuntimeConfig(queue_depth=2)),
        TimingSimulator(hls=HLSConfig(issue_width=2)),
        TimingSimulator(software=SoftwareCostModel(cycles={Opcode.ADD: 3})),
        TimingSimulator(hardware=HardwareCostModel(latency={Opcode.MUL: 4})),
    ],
    ids=["queue_depth", "issue_width", "sw_opcode_cost", "hw_opcode_cost"],
)
def test_content_changes_miss(compiled, sim):
    _, trace, twill = compiled
    TimingSimulator().simulate(trace, twill)
    index = _trace_index(trace)
    hits, entries = index.replay_hits, len(index.replays)
    result = sim.simulate(trace, twill)
    assert index.replay_hits == hits
    assert len(index.replays) == entries + 1
    assert _exact(result) == _exact(sim.simulate(trace, twill, engine="poll"))


def test_host_policy_fields_hit(compiled):
    _, trace, twill = compiled
    TimingSimulator().simulate(trace, twill)
    index = _trace_index(trace)
    hits = index.replay_hits
    policy = RuntimeConfig(cache_max_bytes=1, cache_hmac_key="k", service_token="t")
    TimingSimulator(policy).simulate(trace, twill)
    assert index.replay_hits == hits + 1


def test_assignments_differing_in_one_instruction_get_distinct_plans(compiled):
    _, trace, twill = compiled
    moved = ThreadAssignment(twill.threads, twill.default_thread)
    moved._map = dict(twill._map)
    executed = trace.instructions[trace.inst[len(trace) // 2]]
    current = moved._map.get(id(executed), moved.default_thread)
    other = next(t.thread_id for t in twill.threads if t.thread_id != current)
    moved.assign_instruction(executed, other)

    sim = TimingSimulator()
    for assignment in (twill, moved, twill):
        result = sim.simulate(trace, assignment)
        assert _exact(result) == _exact(sim.simulate(trace, assignment, engine="poll"))
    index = _trace_index(trace)
    assert len(index.plans) == 2
    assert index.plan_hits == 0   # the third replay is a memo hit, no plan lookup


def test_pickled_trace_drops_all_replay_state(compiled):
    module, trace, twill = compiled
    sim = TimingSimulator()
    sim.simulate(trace, twill)
    sim.simulate(trace, ThreadAssignment.pure_hardware(module))
    assert _trace_index(trace).plans and _trace_index(trace).replays

    module_copy, trace_copy = pickle.loads(pickle.dumps((module, trace)))
    assert "_replay_index" not in vars(trace_copy)
    copy_hw = sim.simulate(trace_copy, ThreadAssignment.pure_hardware(module_copy))
    assert _exact(copy_hw) == _exact(sim.simulate(trace, ThreadAssignment.pure_hardware(module)))
    assert _trace_index(trace_copy).replay_hits == 0

"""Trace-replay timing simulator.

The simulator replays the dynamic instruction trace under a thread
assignment.  Each thread consumes its own slice of the trace in order;
cross-thread value flow goes through DSWP queues (one per produced static
value and consuming thread — exactly the DSWP queue granularity), which is
where queue latency, queue-depth back-pressure and the processor
stream-interface overhead enter the model.

Per-domain execution:

* **software threads** issue strictly in order; every instruction occupies
  the MicroBlaze for its full cycle cost, and every queue transfer costs the
  five-cycle stream-interface overhead (§4.5);
* **hardware threads** issue in order but at up to ``issue_width``
  operations per cycle (the ILP LegUp exploits); multi-cycle operations are
  pipelined, so they occupy an issue slot but deliver their result after the
  full latency; loads/stores pay the memory-bus cost plus a coherency delay
  when the producing store happened in the other domain (§4.1/§4.5).

Engines
-------

``ready`` (default) — a readiness-driven scheduler over flat arrays.  Threads
are visited through a time-ordered heap keyed by (pass, thread position): a
thread that blocks (an operand's producing event not yet timed, or a full
queue it must enqueue into) parks itself on a wake list for exactly that
event or queue, and re-enters the heap the moment the dependency resolves.
Idle threads are never re-polled.  Queues are dense integer ids over flat
per-queue completion lists and the module-bus slot booking is inlined; both
follow :class:`~repro.runtime.queue.TimedQueue` and
:class:`~repro.runtime.bus.MessageBus` operation for operation.  What a
replay needs from the assignment (each event's thread, the per-thread event
lists, which events cross threads) is a :class:`_ReplayPlan` cached on the
trace, and a replay's outcome is memoised on the trace by the content it
reads, so a sweep point that repeats an earlier replay costs a dict lookup.
Replays whose events all land on a single thread (the pure-software and
pure-hardware baselines) take straight-line fast paths with no queue/bus
machinery at all.  The visit order is provably identical to the legacy poll
loop's (failed executability probes are side-effect-free), so the resulting
:class:`TimingResult` is byte-identical.

``poll`` (``REPRO_REPLAY=poll``) — the original cooperative round-robin
that rescans every thread each pass, over ``TimedQueue``/``MessageBus``
objects and its own per-replay setup.  Kept as the differential-testing
reference; a defensive fallback force-processes the oldest blocked event
should a cyclic wait appear, and counts how often it fired so tests can
assert it did not (both engines share that fallback).
"""

from __future__ import annotations

import copy
import os
from array import array
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, compress, repeat
from operator import ge, ne, sub
from typing import Dict, List, Optional, Set, Tuple

from repro import perf
from repro.config import HLSConfig, RuntimeConfig
from repro.costmodel.hardware import HardwareCostModel
from repro.costmodel.software import SoftwareCostModel
from repro.interp.trace import Trace
from repro.ir.instructions import Opcode
from repro.runtime.bus import MessageBus
from repro.runtime.queue import TimedQueue
from repro.sim.assignment import ExecutionDomain, ThreadAssignment, ThreadSpec

# Environment switch for the replay engine: "ready" (default) or "poll"
# (the legacy reference implementation, kept for differential testing).
REPLAY_ENGINE_ENV = "REPRO_REPLAY"

# Thread visit states for the readiness scheduler.
_QUEUED = 0      # in the heap, will be visited
_BLOCKED = 1     # parked on a wake list (dep finish or queue dequeue)
_DONE = 2        # all events executed

# Per-row flags.  The trace index sets _NDEPS, _HAS_MEM and _OCCURRENCE once
# per trace; a replay plan copies them and adds the rest for its assignment.
_NDEPS = 3          # register-dep count, saturating at 3 ("three or more")
_HAS_MEM = 4        # the row has a memory dep
_NEW_BLOCK = 8      # first row of a block occurrence on its thread
_XDEPS = 16         # reads a value another thread produced
_FEEDS = 32         # enqueues into at least one queue
_READ_ACROSS = 64   # another thread reads this row, so threads may wait on it
_OCCURRENCE = 128   # first row of a block occurrence in the trace
_SLOW = _XDEPS | _FEEDS | _READ_ACROSS
_NDEPS_OF = bytes(min(count, _NDEPS) for count in range(256))

# Bounds on the per-trace caches.  A plan is a few bytes per event, a memo
# entry a few hundred bytes; a report needs one or two plans per trace.
_MAX_PLANS = 4
_MAX_REPLAYS = 256


class _TraceIndex:
    """Replay precomputation that depends on the *trace* alone.

    A report replays the same trace many times — three baseline assignments,
    every split-sweep fraction, every explore candidate — so everything here
    is derived once per trace and cached on the
    :class:`~repro.interp.trace.Trace` object itself (pickling drops it).
    Dependences are read straight from the trace's CSR columns; the index
    adds typed columns beside them — per-row flags (:data:`_NDEPS`,
    :data:`_HAS_MEM`) and block occurrences — plus small per-static tables.

    ``cost_arrays`` memoises per-event cost vectors keyed by the *content*
    of the opcode-cost table (domain + each opcode's resolved cost), so
    sweeps that vary queue geometry — which never changes execution costs —
    reuse one vector, while a sweep that does change a cost (say memory
    read cycles) gets its own.  ``plans`` caches :class:`_ReplayPlan` by
    assignment and ``replays`` memoises replay outcomes (see
    :meth:`TimingSimulator.simulate`); both are bounded.
    """

    __slots__ = (
        "inst",
        "dep_offsets",
        "deps",
        "mem_dep",
        "flags",
        "static_opcodes",
        "slot_owner",
        "mem_rows",
        "mem_targets",
        "block_occurrence",
        "opcode_counts",
        "prints",
        "cost_arrays",
        "plans",
        "replays",
        "plan_hits",
        "replay_hits",
    )

    def __init__(self, trace: Trace):
        instructions = trace.instructions
        inst = trace.inst
        n = len(inst)
        offsets = trace.dep_offsets
        deps = trace.deps
        mem_dep = trace.mem_dep
        self.inst = inst
        self.dep_offsets = offsets
        self.deps = deps
        self.mem_dep = mem_dep
        self.static_opcodes: List[Opcode] = [i.opcode for i in instructions]
        self.cost_arrays: Dict[Tuple, List[float]] = {}
        self.plans: Dict[Tuple, _ReplayPlan] = {}
        self.replays: Dict[Tuple, TimingResult] = {}
        self.plan_hits = 0
        self.replay_hits = 0

        self.opcode_counts: Dict[Opcode, int] = {}
        for s, count in Counter(inst).items():
            opcode = self.static_opcodes[s]
            self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + count

        dep_counts = list(map(sub, offsets[1:], offsets))
        try:
            counts = bytes(dep_counts)
        except ValueError:   # a row with 256 or more register deps
            counts = bytes(min(c, 255) for c in dep_counts)
        self.flags = bytearray(counts.translate(_NDEPS_OF))
        # The row owning each register-dep slot, and the rows with a memory
        # dep beside the store each reads: what a plan compares threads of.
        self.slot_owner = array("i", chain.from_iterable(map(repeat, range(n), dep_counts)))
        self.mem_rows = array("i", compress(range(n), map(ge, mem_dep, repeat(0))))
        self.mem_targets = array("i", map(mem_dep.__getitem__, self.mem_rows))
        for i in self.mem_rows:
            self.flags[i] |= _HAS_MEM

        # Dynamic basic-block occurrence ids: every block occurrence —
        # including re-entry of the same block on the next loop iteration —
        # is a serialisation point for a hardware FSM.
        block_ids: Dict[int, int] = {}
        static_block = [block_ids.setdefault(id(i.parent), len(block_ids)) for i in instructions]
        static_terminator = [i.is_terminator() for i in instructions]
        static_print = [
            i.opcode is Opcode.CALL
            and getattr(i, "callee", None) is not None
            and i.callee.name == "print_int"
            for i in instructions
        ]
        has_value = trace.has_value
        value = trace.value
        flags = self.flags
        occurrence = 0
        prev_block = -1
        prev_terminator = False
        block_occurrence = [0] * n
        prints: List[int] = []
        for i, s in enumerate(inst):
            block = static_block[s]
            if block != prev_block or prev_terminator:
                occurrence += 1
                flags[i] |= _OCCURRENCE
            block_occurrence[i] = occurrence
            prev_block = block
            prev_terminator = static_terminator[s]
            if static_print[s] and has_value[i]:
                prints.append(value[i])
        self.block_occurrence = array("i", block_occurrence)
        # The observable output stream commits in program (trace) order: the
        # runtime serialises side effects, so finish times stay timing
        # metadata only and never reorder what the program prints.
        self.prints: Tuple[int, ...] = tuple(prints)


def _trace_index(trace: Trace) -> _TraceIndex:
    """The trace's cached :class:`_TraceIndex`, built on first replay."""
    index = getattr(trace, "_replay_index", None)
    if index is None:
        index = _TraceIndex(trace)
        trace._replay_index = index
    return index


def _bounded_put(cache: Dict, key, value, limit: int) -> None:
    """Insert into a FIFO-bounded dict, evicting the oldest entry when full."""
    if len(cache) >= limit:
        del cache[next(iter(cache))]
    cache[key] = value


class _ReplayPlan:
    """What a multi-thread replay needs from (trace, static-thread map).

    Derived once per distinct assignment and reused by every replay of it —
    every queue-latency/depth sweep point replays the same plan.  Threads
    are numbered by *position*: the assignment's populated threads, in
    assignment order.

    * ``specs`` — the :class:`ThreadSpec` at each position;
    * ``thread_of`` — each row's thread position;
    * ``events`` — per position, the thread's rows in trace order;
    * ``flags`` — per row, the index's flags plus :data:`_NEW_BLOCK`,
      :data:`_XDEPS`, :data:`_FEEDS` and :data:`_READ_ACROSS`;
    * ``queue_of`` — ``producer static index * P + consumer position`` →
      dense queue id, one per DSWP queue;
    * ``feed_id`` / ``feeds`` — per row, an index into ``feeds``: the queue
      ids the row enqueues into, in consumer-thread-id order (id 0 is the
      empty tuple).
    """

    __slots__ = ("specs", "thread_of", "events", "flags", "queue_of", "feed_id", "feeds")

    def __init__(self, index: _TraceIndex, static_thread: List[int], threads: List[ThreadSpec]):
        inst = index.inst
        executed = set(inst)
        populated = {static_thread[s] for s in executed}
        self.specs = [t for t in threads if t.thread_id in populated]
        P = len(self.specs)
        pos_of = {t.thread_id: p for p, t in enumerate(self.specs)}
        static_pos = [0] * len(static_thread)
        for s in executed:
            # Raises KeyError for an executed instruction on an undeclared thread.
            static_pos[s] = pos_of[static_thread[s]]
        positions = [static_pos[s] for s in inst]
        self.thread_of = array("B" if P < 256 else "i", positions)
        buckets: List[List[int]] = [[] for _ in range(P)]
        appends = [b.append for b in buckets]
        for i, p in enumerate(positions):
            appends[p](i)
        self.events = [array("i", b) for b in buckets]
        self.flags = flags = bytearray(index.flags)
        occurrence = index.block_occurrence
        for events in self.events:
            prev = -1
            for i in events:
                occ = occurrence[i]
                if occ != prev:
                    flags[i] |= _NEW_BLOCK
                    prev = occ

        # Rows that touch another thread, found column-wise: compare the
        # thread of every register-dep slot's owner and source, and of
        # every memory dep's reader and store.
        deps = index.deps
        owner = index.slot_owner
        source_pos = [positions[d] for d in deps]
        owner_pos = [positions[i] for i in owner]
        consumers: Dict[int, int] = {}   # producer row -> bit set of consumer positions
        consumers_get = consumers.get
        for k in compress(range(len(deps)), map(ne, source_pos, owner_pos)):
            dep = deps[k]
            flags[owner[k]] |= _XDEPS
            flags[dep] |= _READ_ACROSS
            consumers[dep] = consumers_get(dep, 0) | 1 << owner_pos[k]
        readers = index.mem_rows
        stores = index.mem_targets
        reader_pos = [positions[i] for i in readers]
        store_pos = [positions[i] for i in stores]
        for k in compress(range(len(readers)), map(ne, reader_pos, store_pos)):
            flags[readers[k]] |= _XDEPS
            flags[stores[k]] |= _READ_ACROSS

        # One dense id per DSWP queue, and each producer's queues.
        tid_of = [t.thread_id for t in self.specs]
        self.queue_of: Dict[int, int] = {}
        self.feeds: List[Tuple[int, ...]] = [()]
        feed_of: Dict[Tuple[int, int], int] = {}   # (static, consumer bits) -> feed id
        fid_of: Dict[int, int] = {}
        for producer, bits in consumers.items():
            flags[producer] |= _FEEDS
            key = (inst[producer], bits)
            fid = feed_of.get(key)
            if fid is None:
                base = inst[producer] * P
                ordered = sorted((c for c in range(P) if bits >> c & 1), key=tid_of.__getitem__)
                qids = tuple(self.queue_of.setdefault(base + c, len(self.queue_of)) for c in ordered)
                feed_of[key] = fid = len(self.feeds)
                self.feeds.append(qids)
            fid_of[producer] = fid
        self.feed_id = array("B" if len(self.feeds) < 256 else "i", [0]) * len(inst)
        for producer, fid in fid_of.items():
            self.feed_id[producer] = fid


@dataclass
class ThreadTimeline:
    """Accounting for one simulated thread."""

    spec: ThreadSpec
    next_free: float = 0.0
    busy_cycles: float = 0.0
    events_executed: int = 0
    finish_time: float = 0.0
    # FSM modelling for hardware threads: the basic block currently being
    # executed and the latest completion time inside it.  A hardware thread
    # does not start the next basic block's states until the current block
    # has drained (unless loop pipelining is enabled in HLSConfig).
    current_block: int = -1
    block_max_done: float = 0.0


@dataclass
class TimingResult:
    """Outcome of one timing replay."""

    total_cycles: float
    threads: Dict[int, ThreadTimeline]
    queue_count: int
    queue_transfers: int
    producer_stall_cycles: float
    consumer_stall_cycles: float
    bus_transfers: int
    forced_events: int
    events: int
    # Values the replayed program printed, ordered by the cycle the print
    # event completed — the observable output stream the differential tests
    # compare against the interpreter's.
    replay_outputs: Tuple[int, ...] = ()

    @property
    def hardware_busy_cycles(self) -> float:
        return sum(t.busy_cycles for t in self.threads.values() if t.spec.is_hardware())

    @property
    def software_busy_cycles(self) -> float:
        return sum(t.busy_cycles for t in self.threads.values() if t.spec.is_software())

    def speedup_over(self, baseline: "TimingResult") -> float:
        if self.total_cycles <= 0:
            return float("inf")
        return baseline.total_cycles / self.total_cycles


class TimingSimulator:
    """Replays a trace under a thread assignment and runtime configuration."""

    def __init__(
        self,
        runtime: Optional[RuntimeConfig] = None,
        hls: Optional[HLSConfig] = None,
        software: Optional[SoftwareCostModel] = None,
        hardware: Optional[HardwareCostModel] = None,
    ):
        self.runtime = runtime or RuntimeConfig()
        self.hls = hls or HLSConfig()
        self.runtime.validate()
        self.hls.validate()
        self.software = software or SoftwareCostModel()
        self.hardware = hardware or HardwareCostModel()

    # -- public API ------------------------------------------------------------------

    def simulate(
        self,
        trace: Trace,
        assignment: ThreadAssignment,
        engine: Optional[str] = None,
    ) -> TimingResult:
        n = len(trace)
        if n == 0:
            return TimingResult(0.0, {}, 0, 0, 0.0, 0.0, 0, 0, 0)
        if engine is None:
            engine = os.environ.get(REPLAY_ENGINE_ENV, "ready")
        if engine not in ("ready", "poll"):
            raise ValueError(f"unknown replay engine {engine!r} (expected 'ready' or 'poll')")

        index = _trace_index(trace)
        if engine == "poll":
            return self._simulate_poll(trace, index, assignment)

        threads = assignment.threads
        if len(threads) == 1:
            # Every event lands on the one thread whatever the map says.
            plan_key: Tuple = (threads[0],)
        else:
            amap_get = assignment._map.get
            default_thread = assignment.default_thread
            static_thread = [amap_get(id(inst), default_thread) for inst in trace.instructions]
            plan_key = (tuple(static_thread), tuple(threads))
        # The memo key is everything a replay reads besides the trace: the
        # assignment, both cost tables and the runtime/HLS fields below.
        # repr() keeps 2 and 2.0 apart, as the result bytes do.
        runtime = self.runtime
        sw_key = self._cost_key(index, ExecutionDomain.SOFTWARE)
        hw_key = self._cost_key(index, ExecutionDomain.HARDWARE)
        memo_key = (
            plan_key,
            sw_key,
            hw_key,
            repr((
                runtime.queue_depth, runtime.queue_latency, runtime.bus_latency,
                runtime.coherency_delay, runtime.memory_read_cycles,
                runtime.processor_op_cycles, self.hls.issue_width, self.hls.loop_pipelining,
            )),
        )
        memo = index.replays.get(memo_key)
        if memo is not None:
            index.replay_hits += 1
            return copy.deepcopy(memo)   # fresh timelines: callers may mutate them

        timelines: Dict[int, ThreadTimeline] = {t.thread_id: ThreadTimeline(spec=t) for t in threads}
        if len(threads) == 1:
            # Single-thread assignment (the pure-SW / pure-HW baselines): no
            # plan, no queues, no bus, and float zero stalls.
            self._replay_single(index, timelines[threads[0].thread_id], sw_key, hw_key)
            queue_stats: Tuple = (0, 0, 0.0, 0.0, 0)
            forced_events = 0
        else:
            plan = index.plans.get(plan_key)
            if plan is None:
                plan = _ReplayPlan(index, static_thread, threads)
                _bounded_put(index.plans, plan_key, plan, _MAX_PLANS)
            else:
                index.plan_hits += 1
            if len(plan.specs) == 1:
                # One populated thread: stalls are sums over no queues, int 0.
                self._replay_single(index, timelines[plan.specs[0].thread_id], sw_key, hw_key)
                queue_stats, forced_events = (0, 0, 0, 0, 0), 0
            else:
                queue_stats, forced_events = self._replay_ready(
                    index, plan, timelines, sw_key, hw_key
                )
        queue_count, queue_transfers, producer_stalls, consumer_stalls, bus_transfers = queue_stats
        result = TimingResult(
            total_cycles=max(t.finish_time for t in timelines.values()),
            threads=timelines,
            queue_count=queue_count,
            queue_transfers=queue_transfers,
            producer_stall_cycles=producer_stalls,
            consumer_stall_cycles=consumer_stalls,
            bus_transfers=bus_transfers,
            forced_events=forced_events,
            events=n,
            replay_outputs=index.prints,
        )
        _bounded_put(index.replays, memo_key, copy.deepcopy(result), _MAX_REPLAYS)
        return result

    # -- shared per-event precomputation ----------------------------------------------

    def _cost_key(self, index: _TraceIndex, domain: ExecutionDomain) -> Tuple:
        """*domain*'s opcode → cost table for the trace's opcodes, as a key.

        ``(domain, ((opcode value, cost), ...))`` in opcode-value order: the
        replay memo and the per-event cost vectors are keyed by it.
        """
        table = {op.value: self._execution_cost(op, domain) for op in index.opcode_counts}
        return (domain, tuple(sorted(table.items())))

    def _cost_array(self, index: _TraceIndex, key: Tuple) -> List[float]:
        """Per-event cost vector, memoized on the trace by table *content*."""
        costs = index.cost_arrays.get(key)
        if costs is None:
            table = dict(key[1])
            static_cost = [table.get(op.value, 0.0) for op in index.static_opcodes]
            costs = [static_cost[s] for s in index.inst]
            index.cost_arrays[key] = costs
        return costs

    # -- single-thread fast paths ------------------------------------------------------

    def _replay_single(
        self, index: _TraceIndex, timeline: ThreadTimeline, sw_key: Tuple, hw_key: Tuple
    ) -> None:
        if timeline.spec.domain is ExecutionDomain.SOFTWARE:
            self._replay_single_software(index, timeline, sw_key)
        else:
            self._replay_single_hardware(index, timeline, hw_key)

    def _replay_single_software(
        self, index: _TraceIndex, timeline: ThreadTimeline, cost_key: Tuple
    ) -> None:
        """Pure-software replay: strict in-order issue on one thread.

        With every event on one software thread, each operand's producing
        event finished at or before the thread's current ``next_free`` (the
        timeline is monotone), so ``issue == next_free`` always and the whole
        replay degenerates to one float accumulation.  Costs are integral
        cycle counts, so that accumulation stays exact at every step and the
        order-free counted sum below is bit-identical to it; should a custom
        cost model introduce fractional costs, the sequential loop preserves
        the reference engine's exact ordering.
        """
        table = dict(cost_key[1])
        if all(cost.is_integer() for cost in table.values()):
            total = float(
                sum(int(table[op.value]) * count for op, count in index.opcode_counts.items())
            )
        else:
            total = 0.0
            for cost in self._cost_array(index, cost_key):
                total += cost
        timeline.next_free = total
        timeline.busy_cycles = total
        timeline.events_executed = len(index.inst)
        timeline.finish_time = total

    def _replay_single_hardware(
        self, index: _TraceIndex, timeline: ThreadTimeline, cost_key: Tuple
    ) -> None:
        """Pure-hardware replay: one FSM thread, no queues, no bus."""
        n = len(index.inst)
        deps = index.deps.tolist()
        offsets = index.dep_offsets
        mem_deps = index.mem_dep
        cost_arr = self._cost_array(index, cost_key)
        loop_pipe = self.hls.loop_pipelining
        slot = 1.0 / max(1, self.hls.issue_width)
        finish = [0.0] * n
        next_free = 0.0
        busy = 0.0
        finish_time = 0.0
        block_max = 0.0
        a = 0   # the row's first register-dep slot
        fsm = _OCCURRENCE if not loop_pipe else 0
        for i, fl, cost in zip(range(n), index.flags, cost_arr):
            # Every dep is an earlier row, hence timed.
            nd = fl & _NDEPS
            if nd == 1:
                ready = finish[deps[a]]
                a += 1
            elif nd == 0:
                ready = 0.0
            elif nd == 2:
                ready = finish[deps[a]]
                f = finish[deps[a + 1]]
                if f > ready:
                    ready = f
                a += 2
            else:
                b = offsets[i + 1]
                ready = 0.0
                while a < b:
                    f = finish[deps[a]]
                    if f > ready:
                        ready = f
                    a += 1
            if fl & _HAS_MEM:
                f = finish[mem_deps[i]]
                if f > ready:
                    ready = f
            if fl & fsm:
                if block_max > next_free:
                    next_free = block_max
                block_max = 0.0
            # Ties must keep max()'s first argument so int/float types (and
            # hence serialised bytes) match the reference engine exactly.
            issue = ready if ready >= next_free else next_free
            done = issue + cost
            if cost > 1.0:
                next_free = done
                busy += cost
            else:
                next_free = issue + slot
                busy += slot
            if done > block_max:
                block_max = done
            finish[i] = done
            if next_free > finish_time:
                finish_time = next_free
            if done > finish_time:
                finish_time = done
        timeline.next_free = next_free
        timeline.busy_cycles = busy
        timeline.events_executed = n
        timeline.finish_time = finish_time
        if not loop_pipe:
            timeline.current_block = index.block_occurrence[-1]
            timeline.block_max_done = block_max

    # -- readiness-driven engine -------------------------------------------------------

    def _replay_ready(
        self,
        index: _TraceIndex,
        plan: _ReplayPlan,
        timelines: Dict[int, ThreadTimeline],
        sw_key: Tuple,
        hw_key: Tuple,
    ) -> Tuple[Tuple, int]:
        """Wake-driven replay with the legacy poll loop's exact visit order.

        A thread sits in a heap keyed by ``pass * P + position`` — the cyclic
        round-robin coordinates of the legacy engine.  When its head event
        blocks it registers on a wake list (the first unfinished dependency,
        or the first full queue it must feed) and leaves the heap; resolving
        that dependency re-queues it at the coordinate the poll loop would
        next have retried it.  Since failed executability probes never
        mutate simulation state, skipping them preserves byte-identical
        results while eliminating the per-pass rescans.

        Queue ``q``'s state is ``enq[q]``/``deq[q]`` (completion time of each
        enqueue/dequeue, ``None`` until the queue is first touched) and its
        stall sums; ``created`` records first-touch order, which is the
        order the reference sums stalls in.  The module bus is the set of
        booked integer cycles.  Returns ``(queue_count, queue_transfers,
        producer_stalls, consumer_stalls, bus_transfers)`` and the number
        of forced events.
        """
        runtime = self.runtime
        delays = (runtime.coherency_delay, runtime.coherency_delay + runtime.memory_read_cycles)
        op_cycles = runtime.processor_op_cycles
        bus_latency = runtime.bus_latency
        depth = runtime.queue_depth
        queue_latency = runtime.queue_latency
        loop_pipe = self.hls.loop_pipelining
        slot = 1.0 / max(1, self.hls.issue_width)

        inst = index.inst
        offsets = index.dep_offsets
        deps = index.deps
        mem_deps = index.mem_dep
        sw_costs = self._cost_array(index, sw_key)
        hw_costs = self._cost_array(index, hw_key)

        specs = plan.specs
        P = len(specs)
        events = plan.events
        thread_of = plan.thread_of
        flags = plan.flags
        queue_of = plan.queue_of
        feed_id = plan.feed_id
        feeds = plan.feeds
        is_sw = [spec.is_software() for spec in specs]
        domain_of = [spec.domain for spec in specs]

        # Finish time per row; every real finish is a float >= 0.
        finish = array("d", [-1.0]) * len(inst)
        received: Dict[int, float] = {}   # dep * P + consumer position -> value in hand
        n_queues = len(queue_of)
        enq: List[Optional[List]] = [None] * n_queues
        deq: List[Optional[List]] = [None] * n_queues
        producer_stall = [0.0] * n_queues
        consumer_stall = [0.0] * n_queues
        created: List[int] = []
        bus: Set[int] = set()
        transfers = 0

        # Each thread's event stream: an iterator over its rows plus the head
        # row it has not executed yet (-1 once the thread is done).
        streams = [iter(e) for e in events]
        heads = [next(it) for it in streams]
        t_next = [0.0] * P
        t_busy = [0.0] * P
        t_finish = [0.0] * P
        t_block_max = [0.0] * P
        state = [_QUEUED] * P
        heap = list(range(P))   # pass 0, every position: already heap-ordered
        dep_waiters: Dict[int, List[int]] = {}
        queue_waiters: Dict[int, List[int]] = {}

        def wake(waiters: List[int], cur_pass: int, cur_pos: int) -> None:
            for w in waiters:
                if state[w] == _BLOCKED:
                    heappush(heap, (cur_pass if w > cur_pos else cur_pass + 1) * P + w)
                    state[w] = _QUEUED

        forced = -1
        forced_events = 0
        last_pass = 0
        while True:
            if heap:
                cur_pass, p = divmod(heappop(heap), P)
                last_pass = cur_pass
                cur_pos = p
                rows = chain((heads[p],), streams[p])
            else:
                blocked = [h for h in heads if h >= 0]
                if not blocked:
                    break
                # Cyclic wait: force the oldest blocked event, exactly like
                # the poll loop's no-progress fallback, then give every
                # still-blocked thread a fresh pass (stale wake registrations
                # are harmless — a spurious visit is side-effect-free).  Wakes
                # during the forced event land on that same fresh pass.  Its
                # deps are all timed (an untimed dep would be an older head),
                # so forcing only skips the back-pressure check.
                forced = min(blocked)
                forced_events += 1
                p = thread_of[forced]
                cur_pass, cur_pos = last_pass, P
                rows = (forced,)
            state[p] = _QUEUED
            sw = is_sw[p]
            domain = domain_of[p]
            costs = sw_costs if sw else hw_costs
            op_cost = op_cycles if sw else 2        # per queue transfer
            # A hardware FSM drains its block occurrence before starting the
            # next (unless loops are pipelined); software has no blocks.
            new_block = 0 if sw or loop_pipe else _NEW_BLOCK
            # Costs above this hold the thread for their full latency; on a
            # software thread every cost (all are >= 0) does.
            hold = -1.0 if sw else 1.0
            # Thread state lives in locals for the visit; all mutations in a
            # visit touch only this thread's state.
            next_free = t_next[p]
            busy = t_busy[p]
            finish_time = t_finish[p]
            block_max = t_block_max[p]

            for i in rows:
                fl = flags[i]
                if not fl & _SLOW:
                    # A row that touches no other thread (most rows): its
                    # deps are earlier rows of this thread, hence timed.
                    nd = fl & _NDEPS
                    if nd == 1:
                        ready = finish[deps[offsets[i]]]
                    elif nd == 0:
                        ready = 0.0
                    elif nd == 2:
                        a = offsets[i]
                        ready = finish[deps[a]]
                        f = finish[deps[a + 1]]
                        if f > ready:
                            ready = f
                    else:
                        ready = 0.0
                        for k in range(offsets[i], offsets[i + 1]):
                            f = finish[deps[k]]
                            if f > ready:
                                ready = f
                    if fl & _HAS_MEM:
                        f = finish[mem_deps[i]]
                        if f > ready:
                            ready = f
                    # Issue and execute: the same steps as below, minus queues.
                    if fl & new_block:
                        if block_max > next_free:
                            next_free = block_max
                        block_max = 0.0
                    issue = ready if ready >= next_free else next_free
                    cost = costs[i]
                    done = issue + cost
                    if cost > hold:
                        next_free = done
                        busy += cost
                    else:
                        next_free = issue + slot
                        busy += slot
                    if done > block_max:
                        block_max = done
                    finish[i] = done
                    if next_free > finish_time:
                        finish_time = next_free
                    if done > finish_time:
                        finish_time = done
                    continue

                a = offsets[i]
                b = offsets[i + 1]
                mem_dep = mem_deps[i] if fl & _HAS_MEM else -1
                if i != forced:
                    # 1. Operand readiness (register + memory dataflow);
                    # same-thread deps always precede i on this thread.
                    if fl & _XDEPS:
                        waiting_on = -1
                        for k in range(a, b):
                            if finish[deps[k]] < 0.0:
                                waiting_on = deps[k]
                                break
                        else:
                            if mem_dep >= 0 and finish[mem_dep] < 0.0:
                                waiting_on = mem_dep
                        if waiting_on >= 0:
                            dep_waiters.setdefault(waiting_on, []).append(p)
                            heads[p] = i
                            break
                    # 2. Back-pressure: every queue this row feeds needs a
                    # slot (first touch creates the queue).
                    if fl & _FEEDS:
                        full = -1
                        for q in feeds[feed_id[i]]:
                            qe = enq[q]
                            if qe is None:
                                enq[q] = []
                                deq[q] = []
                                created.append(q)
                            elif len(qe) >= depth and len(qe) - depth >= len(deq[q]):
                                full = q
                                break
                        if full >= 0:
                            queue_waiters.setdefault(full, []).append(p)
                            heads[p] = i
                            break
                # 3. Operands: local, queue and coherency flows.
                ready = 0.0
                for k in range(a, b):
                    dep = deps[k]
                    if thread_of[dep] == p:
                        f = finish[dep]
                        if f > ready:
                            ready = f
                        continue
                    key = dep * P + p
                    got = received.get(key)
                    if got is None:
                        # Dequeue once per (value, thread): TimedQueue.dequeue.
                        q = queue_of[inst[dep] * P + p]
                        qd = deq[q]
                        got = next_free if next_free > 0.0 else 0.0
                        # The producer is timed, so its value is enqueued.
                        available = enq[q][len(qd)] + queue_latency
                        if available > got:
                            consumer_stall[q] += available - got
                            got = available
                        got = got + op_cost
                        if qd and qd[-1] > got:
                            got = qd[-1]
                        qd.append(got)
                        received[key] = got
                        busy += op_cost
                        if got > next_free:
                            next_free = got
                        waiters = queue_waiters.pop(q, None)
                        if waiters:
                            wake(waiters, cur_pass, cur_pos)
                    if got > ready:
                        ready = got
                if mem_dep >= 0:
                    dep_pos = thread_of[mem_dep]
                    f = finish[mem_dep]
                    if dep_pos == p:
                        if f > ready:
                            ready = f
                    elif mem_dep not in deps[a:b]:
                        # Cross-thread memory flow: shared memory + coherency.
                        arrival = f + delays[domain_of[dep_pos] != domain]
                        if arrival > ready:
                            ready = arrival
                # 4. Issue and execute.
                if fl & new_block:
                    if block_max > next_free:
                        next_free = block_max
                    block_max = 0.0
                # Ties keep the first operand, as max() does in the reference.
                issue = ready if ready >= next_free else next_free
                cost = costs[i]
                done = issue + cost
                if cost > hold:
                    next_free = done
                    busy += cost
                else:
                    next_free = issue + slot
                    busy += slot
                # 5. Produce: a bus slot, then an enqueue, per consuming
                # thread (MessageBus.request and TimedQueue.enqueue, inlined).
                if fl & _FEEDS:
                    for q in feeds[feed_id[i]]:
                        bus_slot = int(done)
                        if not sw:
                            while bus_slot in bus:
                                bus_slot += 1
                        bus.add(bus_slot)
                        floor = bus_slot + bus_latency - bus_latency
                        start_at = done if done >= floor else floor
                        qe = enq[q]
                        if qe is None:   # forced: back-pressure was skipped
                            enq[q] = qe = []
                            deq[q] = []
                            created.append(q)
                        k_enq = len(qe)
                        if k_enq >= depth:
                            qd = deq[q]
                            j = k_enq - depth
                            space_free = qd[j] if j < len(qd) else 0.0
                            if space_free > start_at:
                                producer_stall[q] += space_free - start_at
                                start_at = space_free
                        enqueue_done = start_at + op_cost
                        if qe and qe[-1] > enqueue_done:
                            enqueue_done = qe[-1]
                        qe.append(enqueue_done)
                        transfers += 1
                        busy += op_cost
                        if enqueue_done > next_free:
                            next_free = enqueue_done
                if done > block_max:
                    block_max = done
                finish[i] = done
                if next_free > finish_time:
                    finish_time = next_free
                if done > finish_time:
                    finish_time = done
                if fl & _READ_ACROSS:
                    waiters = dep_waiters.pop(i, None)
                    if waiters:
                        wake(waiters, cur_pass, cur_pos)
            else:
                heads[p] = next(streams[p], -1) if forced >= 0 else -1

            t_next[p] = next_free
            t_busy[p] = busy
            t_finish[p] = finish_time
            t_block_max[p] = block_max
            state[p] = _DONE if heads[p] < 0 else _BLOCKED
            if forced >= 0:
                forced = -1
                for q in range(P):
                    if state[q] == _BLOCKED:
                        state[q] = _QUEUED
                        heappush(heap, (last_pass + 1) * P + q)

        occurrence = index.block_occurrence
        for p, spec in enumerate(specs):
            timeline = timelines[spec.thread_id]
            timeline.next_free = t_next[p]
            timeline.busy_cycles = t_busy[p]
            timeline.events_executed = len(events[p])
            timeline.finish_time = t_finish[p]
            if not is_sw[p] and not loop_pipe:
                timeline.current_block = occurrence[events[p][-1]]
            timeline.block_max_done = 0.0 if is_sw[p] or loop_pipe else t_block_max[p]
        queue_stats = (
            len(created),
            transfers,
            sum(producer_stall[q] for q in created),
            sum(consumer_stall[q] for q in created),
            transfers,
        )
        return queue_stats, forced_events

    # -- legacy poll engine ------------------------------------------------------------

    def _simulate_poll(
        self, trace: Trace, index: _TraceIndex, assignment: ThreadAssignment
    ) -> TimingResult:
        """The reference replay: its own setup, object queues and bus, poll loop."""
        n = len(trace)
        timelines: Dict[int, ThreadTimeline] = {
            t.thread_id: ThreadTimeline(spec=t) for t in assignment.threads
        }
        # Map each static instruction to its thread once, then each event
        # through its static index.
        amap_get = assignment._map.get
        default_thread = assignment.default_thread
        static_thread = [amap_get(id(inst), default_thread) for inst in trace.instructions]
        thread_of: List[int] = [static_thread[s] for s in index.inst]
        per_thread: Dict[int, List[int]] = {t.thread_id: [] for t in assignment.threads}
        for i, tid in enumerate(thread_of):
            per_thread[tid].append(i)

        # Which threads consume each dynamic event's value across threads?
        dyn_consumers: List[Tuple[int, ...]] = [()] * n
        consumer_sets: List[Optional[Set[int]]] = [None] * n
        deps = index.deps
        offsets = index.dep_offsets
        for i in range(n):
            my_thread = thread_of[i]
            for dep in deps[offsets[i]:offsets[i + 1]]:
                if thread_of[dep] != my_thread:
                    s = consumer_sets[dep]
                    if s is None:
                        s = set()
                        consumer_sets[dep] = s
                    s.add(my_thread)
        for i, s in enumerate(consumer_sets):
            if s:
                dyn_consumers[i] = tuple(sorted(s))

        queues: Dict[Tuple[int, int], TimedQueue] = {}
        queue_depth = self.runtime.queue_depth
        queue_latency = self.runtime.queue_latency
        inst = index.inst

        def queue_for(producer: int, consumer_thread: int) -> TimedQueue:
            key = (inst[producer], consumer_thread)
            q = queues.get(key)
            if q is None:
                q = TimedQueue(queue_id=len(queues), depth=queue_depth, latency=queue_latency)
                queues[key] = q
            return q

        module_bus = MessageBus("module-bus", latency=self.runtime.bus_latency)
        context = _ReplayContext(
            index=index,
            thread_of=thread_of,
            finish=[None] * n,
            timelines=timelines,
            queue_for=queue_for,
            module_bus=module_bus,
            received={},
            dyn_consumers=dyn_consumers,
        )
        forced_events = self._replay_poll(context, per_thread)
        # The ready engine's single-thread fast path reports float zero
        # stalls; match its types exactly.
        zero = 0.0 if len(timelines) == 1 else 0
        return TimingResult(
            total_cycles=max((t.finish_time for t in timelines.values()), default=0.0),
            threads=timelines,
            queue_count=len(queues),
            queue_transfers=sum(q.total_transfers() for q in queues.values()),
            producer_stall_cycles=sum(
                (q.stats.producer_stall_cycles for q in queues.values()), zero
            ),
            consumer_stall_cycles=sum(
                (q.stats.consumer_stall_cycles for q in queues.values()), zero
            ),
            bus_transfers=module_bus.stats.transfers,
            forced_events=forced_events,
            events=n,
            replay_outputs=index.prints,
        )

    def _replay_poll(self, ctx: "_ReplayContext", per_thread: Dict[int, List[int]]) -> int:
        """Original round-robin poll loop (differential-testing reference)."""
        pointer: Dict[int, int] = {t: 0 for t in per_thread}
        remaining = len(ctx.thread_of)
        forced_events = 0
        thread_of = ctx.thread_of
        while remaining > 0:
            progress = False
            for thread_id, indices in per_thread.items():
                while pointer[thread_id] < len(indices):
                    if not self._try_execute(ctx, indices[pointer[thread_id]], force=False):
                        break
                    pointer[thread_id] += 1
                    remaining -= 1
                    progress = True
            if not progress and remaining > 0:
                candidates = [
                    indices[pointer[t]]
                    for t, indices in per_thread.items()
                    if pointer[t] < len(indices)
                ]
                event_index = min(candidates)
                self._try_execute(ctx, event_index, force=True)
                pointer[thread_of[event_index]] += 1
                remaining -= 1
                forced_events += 1
        return forced_events

    # -- one event --------------------------------------------------------------------------

    def _try_execute(self, ctx: "_ReplayContext", index: int, force: bool) -> bool:
        trace_index = ctx.index
        offsets = trace_index.dep_offsets
        reg_deps = trace_index.deps[offsets[index]:offsets[index + 1]]
        mem_dep = trace_index.mem_dep[index]
        thread_id = ctx.thread_of[index]
        timeline = ctx.timelines[thread_id]
        domain = timeline.spec.domain

        # 1. Operand readiness (register dataflow + memory dataflow).
        deps = list(reg_deps)
        if mem_dep >= 0:
            deps.append(mem_dep)
        for dep in deps:
            if ctx.finish[dep] is None and not force:
                return False

        # 2. Back-pressure: every queue this event must feed needs a free slot.
        consumer_threads = ctx.dyn_consumers[index]
        if consumer_threads and not force:
            for consumer_thread in consumer_threads:
                if not ctx.queue_for(index, consumer_thread).can_enqueue():
                    return False

        ready = 0.0
        for dep in deps:
            dep_finish = ctx.finish[dep]
            if dep_finish is None:
                dep_finish = ctx.timelines[ctx.thread_of[dep]].next_free
            dep_thread = ctx.thread_of[dep]
            if dep_thread == thread_id:
                ready = max(ready, dep_finish)
                continue
            if dep == mem_dep and dep not in reg_deps:
                # Cross-thread memory flow: shared memory + coherency delay.
                delay = self.runtime.coherency_delay
                if ctx.timelines[dep_thread].spec.domain != domain:
                    delay += self.runtime.memory_read_cycles
                ready = max(ready, dep_finish + delay)
                continue
            # Cross-thread register flow through a DSWP queue: dequeue once.
            key = (dep, thread_id)
            got = ctx.received.get(key)
            if got is None:
                q = ctx.queue_for(dep, thread_id)
                q.dequeue_cost = (
                    self.runtime.processor_op_cycles
                    if domain is ExecutionDomain.SOFTWARE
                    else 2
                )
                got = q.dequeue(max(timeline.next_free, 0.0))
                ctx.received[key] = got
                timeline.busy_cycles += q.dequeue_cost
                timeline.next_free = max(timeline.next_free, got)
            ready = max(ready, got)

        # 3. Issue and execute.
        if domain is ExecutionDomain.HARDWARE and not self.hls.loop_pipelining:
            # FSM semantics: a new basic-block occurrence (including the next
            # iteration of a loop) cannot start before every state of the
            # previous occurrence has finished.
            occurrence = trace_index.block_occurrence[index]
            if occurrence != timeline.current_block:
                timeline.next_free = max(timeline.next_free, timeline.block_max_done)
                timeline.current_block = occurrence
                timeline.block_max_done = 0.0
        issue = max(ready, timeline.next_free)
        opcode = trace_index.static_opcodes[trace_index.inst[index]]
        cost = self._execution_cost(opcode, domain)
        done = issue + cost
        if domain is ExecutionDomain.SOFTWARE:
            timeline.next_free = done
            timeline.busy_cycles += cost
        else:
            # FSM-style execution: single-cycle operations fill a state up to
            # the issue width (the ILP LegUp exploits); multi-cycle operations
            # (memory over the bus, dividers) hold the state machine for their
            # full latency — LegUp's serial divider and blocking memory
            # accesses behave exactly like this (§5.2, §6.4).
            if cost > 1.0:
                timeline.next_free = done
                timeline.busy_cycles += cost
            else:
                timeline.next_free = issue + 1.0 / max(1, self.hls.issue_width)
                timeline.busy_cycles += 1.0 / max(1, self.hls.issue_width)

        # 4. Produce: enqueue the value for every consuming thread.
        for consumer_thread in consumer_threads:
            q = ctx.queue_for(index, consumer_thread)
            q.enqueue_cost = (
                self.runtime.processor_op_cycles
                if domain is ExecutionDomain.SOFTWARE
                else 2
            )
            bus_ready = ctx.module_bus.request(done, processor=domain is ExecutionDomain.SOFTWARE)
            enqueue_done = q.enqueue(max(done, bus_ready - self.runtime.bus_latency))
            timeline.busy_cycles += q.enqueue_cost
            timeline.next_free = max(timeline.next_free, enqueue_done)

        if domain is ExecutionDomain.HARDWARE and not self.hls.loop_pipelining:
            timeline.block_max_done = max(timeline.block_max_done, done)

        ctx.finish[index] = done
        timeline.events_executed += 1
        timeline.finish_time = max(timeline.finish_time, timeline.next_free, done)
        return True

    def _execution_cost(self, opcode: Opcode, domain: ExecutionDomain) -> float:
        if domain is ExecutionDomain.SOFTWARE:
            return float(self.software.opcode_cost(opcode))
        cost = float(self.hardware.opcode_cost(opcode))
        if opcode is Opcode.LOAD:
            cost = float(self.runtime.memory_read_cycles)
        elif opcode is Opcode.STORE:
            cost = float(self.runtime.memory_write_cycles)
        return max(cost, 0.0)


@dataclass
class _ReplayContext:
    """Mutable state shared by the poll engine's per-event executor."""

    index: _TraceIndex
    thread_of: List[int]
    finish: List[Optional[float]]
    timelines: Dict[int, ThreadTimeline]
    queue_for: object
    module_bus: MessageBus
    received: Dict[Tuple[int, int], float]
    dyn_consumers: List[Tuple[int, ...]]


def simulate_partitioned(
    module,
    trace: Trace,
    partitioning,
    runtime: RuntimeConfig,
    hls: HLSConfig,
) -> TimingResult:
    """Pure sweep-point re-simulation: replay *trace* under *partitioning*.

    A module-level function of (compile artifact pieces, config) with no
    other state, so a :class:`~concurrent.futures.ProcessPoolExecutor` worker
    can pickle it and re-run just the timing tail of the pipeline for one
    (workload, sweep-point) task — the Figure 6.5/6.6 queue sweeps.
    """
    with perf.stage("replay"):
        assignment = ThreadAssignment.from_partitioning(module, partitioning)
        return TimingSimulator(runtime, hls).simulate(trace, assignment)

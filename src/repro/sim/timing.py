"""Trace-replay timing simulator.

The simulator replays the dynamic instruction trace under a thread
assignment.  Each thread consumes its own slice of the trace in order;
cross-thread value flow goes through :class:`~repro.runtime.queue.TimedQueue`
instances (one per produced static value and consuming thread — exactly the
DSWP queue granularity), which is where queue latency, queue-depth
back-pressure and the processor stream-interface overhead enter the model.

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

``ready`` (default) — a readiness-driven scheduler.  Threads are visited
through a time-ordered heap keyed by (pass, thread position): a thread that
blocks (an operand's producing event not yet timed, or a full queue it must
enqueue into) parks itself on a wake list for exactly that event or queue,
and re-enters the heap the moment the dependency resolves.  Idle threads are
never re-polled.  Replays whose events all land on a single thread (the
pure-software and pure-hardware baselines — two of the three replays every
evaluation runs) take straight-line fast paths with no queue/bus machinery
at all.  The visit order is provably identical to the legacy poll loop's
(failed executability probes are side-effect-free), so the resulting
:class:`TimingResult` is byte-identical.

``poll`` (``REPRO_REPLAY=poll``) — the original cooperative round-robin
that rescans every thread each pass.  Kept as the differential-testing
reference; a defensive fallback force-processes the oldest blocked event
should a cyclic wait appear, and counts how often it fired so tests can
assert it did not (both engines share that fallback).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
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


class _TraceIndex:
    """Replay precomputation that depends on the *trace* alone.

    A report replays the same trace many times — three baseline assignments,
    every split-sweep fraction, every explore candidate — so everything here
    is derived once per trace and cached on the
    :class:`~repro.interp.trace.Trace` object itself (pickling drops it).
    It is a pure function of the trace's columns plus small
    per-static-instruction tables (opcode, block, terminator, print flag),
    never of the assignment or the runtime/HLS configuration.

    ``cost_arrays`` memoises per-event cost vectors keyed by the *content*
    of the opcode-cost table (domain + each opcode's resolved cost), so
    sweeps that vary queue geometry — which never changes execution costs —
    reuse one vector, while a sweep that does change a cost (say memory
    read cycles) gets its own.
    """

    __slots__ = (
        "inst",
        "mem_dep",
        "static_opcodes",
        "reg_deps",
        "deps_seq",
        "mem_tail",
        "block_occurrence",
        "opcode_counts",
        "prints",
        "cost_arrays",
    )

    def __init__(self, trace: Trace):
        instructions = trace.instructions
        inst = trace.inst
        n = len(inst)
        self.inst = inst
        self.mem_dep = trace.mem_dep
        self.static_opcodes: List[Opcode] = [i.opcode for i in instructions]
        self.cost_arrays: Dict[Tuple, List[float]] = {}

        self.opcode_counts: Dict[Opcode, int] = {}
        for s, count in Counter(inst).items():
            opcode = self.static_opcodes[s]
            self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + count

        flat = trace.deps.tolist()
        offsets = trace.dep_offsets.tolist()
        self.reg_deps: List[Tuple[int, ...]] = [
            tuple(flat[a:b]) for a, b in zip(offsets, offsets[1:])
        ]
        # Register deps first, mem_dep last (the order replay probes them);
        # the tail flag marks a memory dep taking the coherency path (one
        # that is not also a register dep).
        self.deps_seq: List[Tuple[int, ...]] = list(self.reg_deps)
        self.mem_tail: List[bool] = [False] * n
        for i, mem_dep in enumerate(trace.mem_dep):
            if mem_dep >= 0:
                deps = self.reg_deps[i]
                self.deps_seq[i] = deps + (mem_dep,)
                self.mem_tail[i] = mem_dep not in deps

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
        occurrence = 0
        prev_block = -1
        prev_terminator = False
        block_occurrence = [0] * n
        prints: List[int] = []
        for i, s in enumerate(inst):
            block = static_block[s]
            if block != prev_block or prev_terminator:
                occurrence += 1
            block_occurrence[i] = occurrence
            prev_block = block
            prev_terminator = static_terminator[s]
            if static_print[s] and has_value[i]:
                prints.append(value[i])
        self.block_occurrence = block_occurrence
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
        timelines: Dict[int, ThreadTimeline] = {
            t.thread_id: ThreadTimeline(spec=t) for t in assignment.threads
        }

        if engine != "poll" and len(timelines) == 1:
            # Single-thread assignment (the pure-SW / pure-HW baselines):
            # every event lands on the one thread, so skip the per-event
            # assignment/consumer setup entirely — no queues, no bus.
            timeline = next(iter(timelines.values()))
            if timeline.spec.domain is ExecutionDomain.SOFTWARE:
                self._replay_single_software(index, timeline)
            else:
                self._replay_single_hardware(index, timeline)
            return TimingResult(
                total_cycles=timeline.finish_time,
                threads=timelines,
                queue_count=0,
                queue_transfers=0,
                producer_stall_cycles=0.0,
                consumer_stall_cycles=0.0,
                bus_transfers=0,
                forced_events=0,
                events=n,
                replay_outputs=index.prints,
            )
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
        for i, deps in enumerate(index.reg_deps):
            my_thread = thread_of[i]
            for dep in deps:
                if thread_of[dep] != my_thread:
                    s = consumer_sets[dep]
                    if s is None:
                        s = set()
                        consumer_sets[dep] = s
                    s.add(my_thread)
        for i, s in enumerate(consumer_sets):
            if s:
                dyn_consumers[i] = tuple(sorted(s))

        block_occurrence = index.block_occurrence

        finish: List[Optional[float]] = [None] * n
        # (dep event index, consumer thread) -> time the dequeued value is in hand
        received: Dict[Tuple[int, int], float] = {}

        queues: Dict[Tuple[int, int], TimedQueue] = {}
        module_bus = MessageBus("module-bus", latency=self.runtime.bus_latency)

        queue_depth = self.runtime.queue_depth
        queue_latency = self.runtime.queue_latency

        inst = index.inst

        def queue_for(producer: int, consumer_thread: int) -> TimedQueue:
            key = (inst[producer], consumer_thread)
            q = queues.get(key)
            if q is None:
                q = TimedQueue(
                    queue_id=len(queues),
                    depth=queue_depth,
                    latency=queue_latency,
                )
                queues[key] = q
            return q

        context = _ReplayContext(
            index=index,
            thread_of=thread_of,
            finish=finish,
            timelines=timelines,
            queue_for=queue_for,
            module_bus=module_bus,
            received=received,
            dyn_consumers=dyn_consumers,
            block_occurrence=block_occurrence,
            queues=queues,
        )

        populated = [tid for tid, indices in per_thread.items() if indices]
        if engine == "poll":
            forced_events = self._replay_poll(context, per_thread)
        elif len(populated) == 1:
            forced_events = 0
            tid = populated[0]
            timeline = timelines[tid]
            if timeline.spec.domain is ExecutionDomain.SOFTWARE:
                self._replay_single_software(index, timeline)
            else:
                self._replay_single_hardware(index, timeline)
        else:
            forced_events = self._replay_ready(context, per_thread, index)

        total = max((t.finish_time for t in timelines.values()), default=0.0)
        return TimingResult(
            total_cycles=total,
            threads=timelines,
            queue_count=len(queues),
            queue_transfers=sum(q.total_transfers() for q in queues.values()),
            producer_stall_cycles=sum(q.stats.producer_stall_cycles for q in queues.values()),
            consumer_stall_cycles=sum(q.stats.consumer_stall_cycles for q in queues.values()),
            bus_transfers=module_bus.stats.transfers,
            forced_events=forced_events,
            events=n,
            replay_outputs=index.prints,
        )

    # -- shared per-event precomputation ----------------------------------------------

    def _cost_table(self, index: _TraceIndex, domain: ExecutionDomain) -> Dict[Opcode, float]:
        """Opcode → cost for the trace's opcodes (one representative each)."""
        return {opcode: self._execution_cost(opcode, domain) for opcode in index.opcode_counts}

    def _cost_array(
        self, index: _TraceIndex, domain: ExecutionDomain, table: Dict[Opcode, float]
    ) -> List[float]:
        """Per-event cost vector, memoized on the trace by table *content*."""
        key = (domain, tuple(sorted((op.value, cost) for op, cost in table.items())))
        array = index.cost_arrays.get(key)
        if array is None:
            static_cost = [table.get(op, 0.0) for op in index.static_opcodes]
            array = [static_cost[s] for s in index.inst]
            index.cost_arrays[key] = array
        return array

    # -- single-thread fast paths ------------------------------------------------------

    def _replay_single_software(self, index: _TraceIndex, timeline: ThreadTimeline) -> None:
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
        table = self._cost_table(index, ExecutionDomain.SOFTWARE)
        if all(cost.is_integer() for cost in table.values()):
            total = float(
                sum(int(table[op]) * count for op, count in index.opcode_counts.items())
            )
        else:
            total = 0.0
            for cost in self._cost_array(index, ExecutionDomain.SOFTWARE, table):
                total += cost
        timeline.next_free = total
        timeline.busy_cycles = total
        timeline.events_executed = len(index.inst)
        timeline.finish_time = total

    def _replay_single_hardware(self, index: _TraceIndex, timeline: ThreadTimeline) -> None:
        """Pure-hardware replay: one FSM thread, no queues, no bus."""
        n = len(index.inst)
        deps_seq = index.deps_seq
        block_occurrence = index.block_occurrence
        cost_arr = self._cost_array(
            index, ExecutionDomain.HARDWARE, self._cost_table(index, ExecutionDomain.HARDWARE)
        )
        loop_pipe = self.hls.loop_pipelining
        slot = 1.0 / max(1, self.hls.issue_width)
        finish = [0.0] * n
        next_free = 0.0
        busy = 0.0
        finish_time = 0.0
        cur_block = timeline.current_block
        block_max = timeline.block_max_done
        for i in range(n):
            ready = 0.0
            for dep in deps_seq[i]:
                f = finish[dep]
                if f > ready:
                    ready = f
            if not loop_pipe:
                occ = block_occurrence[i]
                if occ != cur_block:
                    if block_max > next_free:
                        next_free = block_max
                    cur_block = occ
                    block_max = 0.0
            # Ties must keep max()'s first argument so int/float types (and
            # hence serialised bytes) match the reference engine exactly.
            issue = ready if ready >= next_free else next_free
            cost = cost_arr[i]
            done = issue + cost
            if cost > 1.0:
                next_free = done
                busy += cost
            else:
                next_free = issue + slot
                busy += slot
            if not loop_pipe and done > block_max:
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
        timeline.current_block = cur_block
        timeline.block_max_done = block_max

    # -- readiness-driven engine -------------------------------------------------------

    def _replay_ready(
        self, ctx: "_ReplayContext", per_thread: Dict[int, List[int]], index: _TraceIndex
    ) -> int:
        """Wake-driven replay with the legacy poll loop's exact visit order.

        A thread sits in a heap keyed by ``(pass, position)`` — the cyclic
        round-robin coordinates of the legacy engine.  When its head event
        blocks it registers on a wake list (the first unfinished dependency,
        or the first full queue it must feed) and leaves the heap; resolving
        that dependency re-queues it at the coordinate the poll loop would
        next have retried it.  Since failed executability probes never
        mutate simulation state, skipping them preserves byte-identical
        results while eliminating the per-pass rescans.
        """
        thread_of = ctx.thread_of
        finish = ctx.finish
        timelines = ctx.timelines
        received = ctx.received
        dyn_consumers = ctx.dyn_consumers
        block_occurrence = ctx.block_occurrence
        queues = ctx.queues
        queues_get = queues.get
        bus_request = ctx.module_bus.request

        runtime = self.runtime
        coherency_delay = runtime.coherency_delay
        memory_read_cycles = runtime.memory_read_cycles
        processor_op_cycles = runtime.processor_op_cycles
        bus_latency = runtime.bus_latency
        queue_depth = runtime.queue_depth
        queue_latency = runtime.queue_latency
        loop_pipe = self.hls.loop_pipelining
        slot = 1.0 / max(1, self.hls.issue_width)

        inst_ids = index.inst
        deps_seq = index.deps_seq
        mem_tail = index.mem_tail
        cost_arrays = {
            domain: self._cost_array(index, domain, self._cost_table(index, domain))
            for domain in (ExecutionDomain.SOFTWARE, ExecutionDomain.HARDWARE)
        }
        thread_domain = {tid: t.spec.domain for tid, t in timelines.items()}

        order = [tid for tid, indices in per_thread.items() if indices]
        pos_of = {tid: k for k, tid in enumerate(order)}
        pointer: Dict[int, int] = {tid: 0 for tid in order}
        state: Dict[int, int] = {tid: _QUEUED for tid in order}
        heap: List[Tuple[int, int, int]] = [(0, k, tid) for k, tid in enumerate(order)]
        # Already heap-ordered (ascending position, one pass), no heapify needed.
        dep_waiters: Dict[int, List[int]] = {}
        queue_waiters: Dict[Tuple[int, int], List[int]] = {}

        remaining = len(inst_ids)
        forced_events = 0

        def wake(waiters: List[int], cur_pass: int, cur_pos: int) -> None:
            for w in waiters:
                if state.get(w) == _BLOCKED:
                    wpos = pos_of[w]
                    if wpos > cur_pos:
                        heappush(heap, (cur_pass, wpos, w))
                    else:
                        heappush(heap, (cur_pass + 1, wpos, w))
                    state[w] = _QUEUED

        last_pass = 0
        while remaining > 0:
            if not heap:
                # Cyclic wait: force the oldest blocked event, exactly like
                # the poll loop's no-progress fallback, then give every
                # still-blocked thread a fresh pass (stale wake registrations
                # are harmless — a spurious visit is side-effect-free).
                candidates = [
                    indices[pointer[t]]
                    for t, indices in per_thread.items()
                    if t in pointer and pointer[t] < len(indices)
                ]
                event_index = min(candidates)
                self._try_execute(ctx, event_index, force=True)
                forced_tid = thread_of[event_index]
                pointer[forced_tid] += 1
                remaining -= 1
                forced_events += 1
                waiters = dep_waiters.pop(event_index, None)
                resume = [
                    tid for tid in order
                    if pointer[tid] < len(per_thread[tid]) and state[tid] != _QUEUED
                ]
                for tid in resume:
                    state[tid] = _BLOCKED
                wake(resume, last_pass, len(order))
                continue

            cur_pass, cur_pos, tid = heappop(heap)
            last_pass = cur_pass
            indices = per_thread[tid]
            ptr = pointer[tid]
            n_thread = len(indices)
            timeline = timelines[tid]
            domain = timeline.spec.domain
            is_sw = domain is ExecutionDomain.SOFTWARE
            cost_arr = cost_arrays[domain]
            # Timeline fields live in locals for the visit; all mutations in
            # a visit touch only this thread's timeline.
            next_free = timeline.next_free
            busy = timeline.busy_cycles
            finish_time = timeline.finish_time
            executed = timeline.events_executed
            cur_block = timeline.current_block
            block_max = timeline.block_max_done
            blocked = False

            while ptr < n_thread:
                i = indices[ptr]
                dseq = deps_seq[i]
                # 1. Operand readiness (register dataflow + memory dataflow).
                waiting_on = -1
                for dep in dseq:
                    if finish[dep] is None:
                        waiting_on = dep
                        break
                if waiting_on >= 0:
                    dep_waiters.setdefault(waiting_on, []).append(tid)
                    blocked = True
                    break
                # 2. Back-pressure: every queue this event feeds needs a slot.
                consumer_threads = dyn_consumers[i]
                if consumer_threads:
                    iid = inst_ids[i]
                    full_key = None
                    for consumer_thread in consumer_threads:
                        qkey = (iid, consumer_thread)
                        q = queues_get(qkey)
                        if q is None:
                            q = TimedQueue(
                                queue_id=len(queues), depth=queue_depth, latency=queue_latency
                            )
                            queues[qkey] = q
                        if not q.can_enqueue():
                            full_key = qkey
                            break
                    if full_key is not None:
                        queue_waiters.setdefault(full_key, []).append(tid)
                        blocked = True
                        break
                # 3. Issue and execute (arithmetic mirrors _try_execute).
                ready = 0.0
                if dseq:
                    tail = len(dseq) - 1 if mem_tail[i] else -1
                    for k, dep in enumerate(dseq):
                        dep_finish = finish[dep]
                        dep_thread = thread_of[dep]
                        if dep_thread == tid:
                            if dep_finish > ready:
                                ready = dep_finish
                            continue
                        if k == tail:
                            # Cross-thread memory flow: shared memory + coherency.
                            delay = coherency_delay
                            if thread_domain[dep_thread] != domain:
                                delay += memory_read_cycles
                            arrival = dep_finish + delay
                            if arrival > ready:
                                ready = arrival
                            continue
                        # Cross-thread register flow through a DSWP queue.
                        key = (dep, tid)
                        got = received.get(key)
                        if got is None:
                            qkey = (inst_ids[dep], tid)
                            q = queues_get(qkey)
                            if q is None:
                                q = TimedQueue(
                                    queue_id=len(queues),
                                    depth=queue_depth,
                                    latency=queue_latency,
                                )
                                queues[qkey] = q
                            q.dequeue_cost = processor_op_cycles if is_sw else 2
                            got = q.dequeue(next_free if next_free > 0.0 else 0.0)
                            received[key] = got
                            busy += q.dequeue_cost
                            if got > next_free:
                                next_free = got
                            waiters = queue_waiters.pop(qkey, None)
                            if waiters:
                                wake(waiters, cur_pass, cur_pos)
                        if got > ready:
                            ready = got
                if not is_sw and not loop_pipe:
                    occ = block_occurrence[i]
                    if occ != cur_block:
                        if block_max > next_free:
                            next_free = block_max
                        cur_block = occ
                        block_max = 0.0
                issue = ready if ready >= next_free else next_free
                cost = cost_arr[i]
                done = issue + cost
                if is_sw:
                    next_free = done
                    busy += cost
                elif cost > 1.0:
                    next_free = done
                    busy += cost
                else:
                    next_free = issue + slot
                    busy += slot
                # 4. Produce: enqueue the value for every consuming thread.
                if consumer_threads:
                    iid = inst_ids[i]
                    for consumer_thread in consumer_threads:
                        q = queues[(iid, consumer_thread)]
                        q.enqueue_cost = processor_op_cycles if is_sw else 2
                        bus_ready = bus_request(done, processor=is_sw)
                        floor = bus_ready - bus_latency
                        enqueue_done = q.enqueue(done if done >= floor else floor)
                        busy += q.enqueue_cost
                        if enqueue_done > next_free:
                            next_free = enqueue_done
                if not is_sw and not loop_pipe and done > block_max:
                    block_max = done
                finish[i] = done
                executed += 1
                if next_free > finish_time:
                    finish_time = next_free
                if done > finish_time:
                    finish_time = done
                waiters = dep_waiters.pop(i, None)
                if waiters:
                    wake(waiters, cur_pass, cur_pos)
                ptr += 1
                remaining -= 1

            pointer[tid] = ptr
            timeline.next_free = next_free
            timeline.busy_cycles = busy
            timeline.finish_time = finish_time
            timeline.events_executed = executed
            timeline.current_block = cur_block
            timeline.block_max_done = block_max
            state[tid] = _BLOCKED if blocked else _DONE
        return forced_events

    # -- legacy poll engine ------------------------------------------------------------

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
        reg_deps = trace_index.reg_deps[index]
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
            occurrence = ctx.block_occurrence[index]
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
    """Mutable state shared by the per-event executor."""

    index: _TraceIndex
    thread_of: List[int]
    finish: List[Optional[float]]
    timelines: Dict[int, ThreadTimeline]
    queue_for: object
    module_bus: MessageBus
    received: Dict[Tuple[int, int], float]
    dyn_consumers: List[Tuple[int, ...]]
    block_occurrence: List[int] = field(default_factory=list)
    # The shared (producer static index, consumer thread) → TimedQueue map
    # behind ``queue_for``; the ready engine indexes it directly.
    queues: Dict[Tuple[int, int], TimedQueue] = field(default_factory=dict)


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

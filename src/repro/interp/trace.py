"""Dynamic execution trace, stored column by column.

Each executed IR instruction is one *row* of the trace, and a row's number
is its sequence number.  Rows carry *precise dynamic dependences*:

* register dataflow — the rows that produced each operand value;
* memory dataflow — the row of the store whose value a load reads,
  resolved exactly because the interpreter knows every address.

The hybrid timing simulator replays this trace, dispatching each row to the
thread its static instruction was partitioned onto; the dependences are
what create (or forbid) overlap between threads, and cross-thread
dependences are the ones that pay queue costs.

The trace is a struct of arrays, written once by the interpreter and read
as arrays by every consumer (profile, timing replay, artifact codec):

* ``instructions`` — the static-instruction table in module order
  (function → block → instruction, see :func:`static_instructions`);
* ``inst`` — each row's index into ``instructions``;
* ``dep_offsets`` / ``deps`` — register dependences in CSR form: row ``i``
  depends on ``deps[dep_offsets[i]:dep_offsets[i + 1]]``;
* ``mem_dep`` — the store row a load reads, ``-1`` for none;
* ``address`` — the memory address of alloca/load/store/GEP rows (``0`` on
  every other row);
* ``value`` / ``has_value`` — the row's value and whether it has one.

No per-row object is ever stored.  :attr:`Trace.events` is a read-only view
that builds a :class:`TraceEvent` record when indexed or iterated, for tests
and tools; hot paths read the columns.
"""

from __future__ import annotations

import collections.abc
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ir.instructions import Instruction, Opcode
from repro.ir.module import Module

#: Opcodes whose rows carry an address (every other row stores ``0``).
ADDRESS_OPCODES = frozenset({Opcode.ALLOCA, Opcode.LOAD, Opcode.STORE, Opcode.GEP})


def static_instructions(module: Module) -> List[Instruction]:
    """Every instruction of *module*, in function → block → instruction order.

    This global order is the trace's static-instruction table and the
    artifact codec's instruction numbering.
    """
    out: List[Instruction] = []
    for fn in module.functions.values():
        for block in fn.blocks:
            out.extend(block.instructions)
    return out


@dataclass(frozen=True)
class TraceEvent:
    """One trace row, materialised on demand by :attr:`Trace.events`."""

    seq: int
    inst: Instruction
    function: str
    deps: Tuple[int, ...] = ()
    mem_dep: Optional[int] = None
    address: Optional[int] = None
    value: Optional[int] = None

    @property
    def opcode(self) -> Opcode:
        return self.inst.opcode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceEvent #{self.seq} {self.opcode.value} in {self.function}>"


class _EventView(collections.abc.Sequence):
    """Read-only sequence of :class:`TraceEvent` records over a trace's columns."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace"):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.inst)

    def __getitem__(self, i: int) -> TraceEvent:
        t = self._trace
        n = len(t.inst)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace row out of range")
        inst = t.instructions[t.inst[i]]
        mem_dep = t.mem_dep[i]
        return TraceEvent(
            seq=i,
            inst=inst,
            function=inst.parent.parent.name,
            deps=tuple(t.deps[t.dep_offsets[i]:t.dep_offsets[i + 1]]),
            mem_dep=None if mem_dep < 0 else mem_dep,
            address=t.address[i] if inst.opcode in ADDRESS_OPCODES else None,
            value=t.value[i] if t.has_value[i] else None,
        )


class Trace:
    """A dynamic trace: a static-instruction table plus per-row columns."""

    #: The per-row columns, each an ``array`` (what the artifact codec stores).
    COLUMNS = ("inst", "dep_offsets", "deps", "mem_dep", "address", "value", "has_value")

    def __init__(self, instructions: Sequence[Instruction] = ()) -> None:
        self.instructions: List[Instruction] = list(instructions)
        self.inst = array("i")
        self.dep_offsets = array("i", [0])
        self.deps = array("i")
        self.mem_dep = array("i")
        self.address = array("q")
        self.value = array("q")
        self.has_value = array("b")

    def __getstate__(self) -> Dict:
        # The replay index (see repro.sim.timing) is process-local derived
        # state; it is rebuilt on first replay after unpickling.
        state = self.__dict__.copy()
        state.pop("_replay_index", None)
        return state

    # -- queries ------------------------------------------------------------------------

    @property
    def events(self) -> _EventView:
        return _EventView(self)

    def __len__(self) -> int:
        return len(self.inst)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def instruction_counts(self) -> List[int]:
        """Dynamic execution count of each static instruction, by table index."""
        counts = [0] * len(self.instructions)
        for index, count in Counter(self.inst).items():
            counts[index] = count
        return counts

"""Functional IR interpreter, dynamic trace and profiling.

The interpreter serves three roles in the reproduction:

1. *Correctness oracle* — it executes the compiled IR and produces the
   program outputs, which tests compare against pure-Python reference
   implementations of each workload.
2. *Trace generation* — it records the dynamic instruction stream, column
   by column, together with precise data/memory dependences, which the
   hybrid timing simulator replays under the pure-SW, pure-HW and Twill
   configurations.
3. *Profiling* — per-instruction execution counts feed the DSWP
   partitioner's weight model (the thesis uses static loop-depth
   estimates; dynamic counts are strictly more accurate and we support
   both).
"""

from repro.interp.memory import SimulatedMemory
from repro.interp.interpreter import ExecutionResult, Interpreter, run_module
from repro.interp.trace import Trace, TraceEvent
from repro.interp.profile import Profile

__all__ = [
    "SimulatedMemory",
    "ExecutionResult",
    "Interpreter",
    "run_module",
    "Trace",
    "TraceEvent",
    "Profile",
]

"""The traced invocation: per-layer numbers, measured from outside the program.

The run drives the same user flows as :mod:`flows`, in this process and
through the program's own code paths: the report is ``run_report`` on an
``EvaluationHarness`` over the run's cache spec (what ``repro report`` runs
serially), and each fuzz program goes through :func:`fuzz_child.run_one`
(``ingest_source`` then ``difftest_workload``, as ``repro difftest`` does).
The traced report ends with the same report on one kernel through a
token-auth ``repro cache serve``, so the remote cache layer is measured too.
Nothing is re-implemented here.  The layers are timed from outside:

* :func:`repro.perf.set_stage_observer` reports every stage the program
  already times (``lex``, ``parse``, ``lower``, ``ssa``, ``interp``, ``dswp``,
  ``hls``, ``replay``, ``ingest``, ``explore``) with its elapsed time;
* for the traced run only, :data:`PATCHES` wraps a few public entry points
  in place: the artifact codec, ``ArtifactCache.get/put``, the local and
  HTTP blob stores, the HTTP lock requests, ``EvaluationHarness.execute``, ``Profile.from_trace`` and
  the public ingest calls as spans, and ``tokenize``, ``compile_module``,
  ``Interpreter.run``, ``run_dswp`` and ``TimingSimulator.simulate`` for
  their counts.  Every wrapper calls the original and is removed when the
  run ends.

Each span keeps name, layer, start, end, parent and run id in memory; they
are written when the run ends.  Spans are recorded when they end, children
before parents, so a span adopts the spans that ended after it started.  A
layer's self time is its spans' time minus the time their child spans cover;
time under no layer span is ``unattributed_s``, so the table adds up to the
traced wall time.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import sys
import time
import uuid
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

import proc
from flows import FUZZ_PROGRAMS, OUT, Context, agree_across_runs, report_key
from proc import repro

sys.path[:0] = [str(proc.ROOT / "src"), str(proc.ROOT / "perfbench")]

import repro.ingest as ingest_api  # noqa: E402
from repro import perf  # noqa: E402
from repro.core import compiler  # noqa: E402
from repro.eval import artifact_codec, experiments  # noqa: E402
from repro.eval.cache import ArtifactCache, LocalFSBackend  # noqa: E402
from repro.eval.harness import EvaluationHarness  # noqa: E402
from repro.eval.remote import cache_http  # noqa: E402
from repro.frontend import parser  # noqa: E402
from repro.interp.interpreter import Interpreter  # noqa: E402
from repro.interp.profile import Profile  # noqa: E402
from repro.sim import system  # noqa: E402
from repro.sim.timing import TimingSimulator  # noqa: E402

#: Rows of the per-layer table, in pipeline order.
LAYERS = (
    "frontend", "transforms", "ingest", "interp", "dswp", "hls", "sim",
    "eval.artifact_codec", "eval.cache", "eval.remote", "eval.taskgraph", "explore",
)
#: Layer of each stage :mod:`repro.perf` reports.
#: Timed ``import repro.cli`` children whose median is ``cli.import_s``.
IMPORT_REPS = {"full": 5, "tiny": 1}
#: Kernels of the traced report's remote phases (cheap: the local phases
#: already measure the full report).
REMOTE_KERNELS = ["blowfish"]
STAGE_LAYERS = {
    "lex": "frontend", "parse": "frontend", "lower": "frontend", "ssa": "transforms",
    "interp": "interp", "dswp": "dswp", "hls": "hls", "replay": "sim",
    "ingest": "ingest", "explore": "explore",
}


class Spans:
    """In-memory span recorder plus the counters of one traced run."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex[:12]
        self.rows: List[List[Any]] = []  # [id, name, layer, start, end, parent]
        self._orphans: List[int] = []  # ended spans whose parent has not ended yet
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.warm = False

    def add(self, name: str, layer: Optional[str], start: float, end: float) -> None:
        """Record one ended span; it adopts every orphan that ended after it
        started (in one thread, exactly the spans it encloses)."""
        span_id = len(self.rows)
        while self._orphans and self.rows[self._orphans[-1]][4] > start:
            child = self.rows[self._orphans.pop()]
            child[5] = span_id
            start = min(start, child[3])
        self.rows.append([span_id, name, layer, start, end, None])
        self._orphans.append(span_id)

    @contextmanager
    def span(self, name: str, layer: Optional[str]) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, layer, start, time.perf_counter())

    def observe_stage(self, name: str, elapsed: float) -> None:
        end = time.perf_counter()
        self.add(name, STAGE_LAYERS.get(name, name), end - elapsed, end)

    def self_times(self) -> List[float]:
        own = [row[4] - row[3] for row in self.rows]
        for row in self.rows:
            if row[5] is not None:
                own[row[5]] -= row[4] - row[3]
        return own

    def by(self, field: int) -> Dict[str, float]:
        """Self time summed by layer (``field`` 2) or by span name (1)."""
        totals: Dict[str, float] = defaultdict(float)
        for row, own in zip(self.rows, self.self_times()):
            totals[row[field] or "unattributed"] += own
        return totals

    def wall(self) -> float:
        return sum(row[4] - row[3] for row in self.rows if row[5] is None)

    def explore_candidates(self) -> "tuple[int, int, float]":
        """(candidates, candidates whose DSWP stage did not run, their seconds)."""
        candidates = {row[0]: row for row in self.rows if row[1] == "explore"}
        repartitioned = set()
        for row in self.rows:
            if row[1] == "dswp":
                parent = row[5]
                while parent is not None and parent not in candidates:
                    parent = self.rows[parent][5]
                repartitioned.add(parent)
        seconds = sum(row[4] - row[3] for row in candidates.values())
        return len(candidates), len(set(candidates) - repartitioned), seconds

    def write(self, path: Path) -> None:
        origin = min((row[3] for row in self.rows), default=0.0)
        with path.open("w") as handle:
            for span_id, name, layer, start, end, parent in self.rows:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent, "name": name,
                    "layer": layer, "start": round(start - origin, 6), "end": round(end - origin, 6),
                }) + "\n")

    def table(self) -> str:
        layers = self.by(2)
        wall = self.wall()
        lines = [f"{'layer':<22}{'self_s':>10}{'share':>8}"]
        others = sorted(set(layers) - set(LAYERS) - {"unattributed"})
        for layer in (*LAYERS, *others, "unattributed"):
            seconds = layers.get(layer, 0.0)
            lines.append(f"{layer + ('_s' if layer == 'unattributed' else ''):<22}{seconds:>10.4f}"
                         f"{100 * seconds / wall if wall else 0:>7.1f}%")
        lines.append(f"{'total (traced wall)':<22}{sum(layers.values()):>10.4f}{wall:>10.4f}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# in-place wrappers of the program's public entry points
# ---------------------------------------------------------------------------

#: ``after(rec, value, args, seconds)``: what a wrapper counts once the
#: original call returned.
After = Callable[[Spans, Any, tuple, float], None]


def _tokens(rec: Spans, tokens, args, seconds) -> None:
    rec.counts["frontend.tokens"] += len(tokens)


def _ir_insts(rec: Spans, module, args, seconds) -> None:
    rec.counts["transforms.ir_insts"] += module.instruction_count()


def _interp_events(rec: Spans, execution, args, seconds) -> None:
    if execution.trace is not None:
        rec.counts["interp.events"] += len(execution.trace.events)


def _dswp(rec: Spans, dswp, args, seconds) -> None:
    rec.counts["dswp.calls"] += 1
    rec.counts["dswp.queues"] += dswp.partitioning.total_queues


def _replay(rec: Spans, timing, args, seconds) -> None:
    rec.counts["sim.replays"] += 1
    rec.counts["sim.events_replayed"] += timing.events


def _codec_bytes(rec: Spans, data, args, seconds) -> None:
    rec.counts["codec.bytes"] += len(data)


def _lookup(rec: Spans, value, args, seconds) -> None:
    if rec.warm:
        rec.counts["warm_lookups"] += 1
        rec.counts["warm_hits"] += value is not None


def _blob(layer: str, kind: str) -> After:
    def after(rec: Spans, value, args, seconds) -> None:
        if kind == "put":
            rec.counts[f"{layer}.bytes"] += len(args[3])  # put_blob(self, key, serializer, data)
        elif value is not None:
            rec.counts[f"{layer}.bytes"] += len(value[1])  # get_blob returns (serializer, data)
        rec.samples[f"{layer}.{kind}_ms"].append(seconds * 1e3)

    return after


def _tasks(rec: Spans, results, args, seconds) -> None:
    rec.counts["eval.taskgraph.tasks"] += len(args[1])


#: (owner, attribute, span name and layer or ``None``, counter or ``None``).
#: Module attributes are patched where the caller looks them up.
PATCHES = (
    (parser, "tokenize", None, _tokens),
    (compiler.TwillCompiler, "compile_module", None, _ir_insts),
    (Interpreter, "run", None, _interp_events),
    (Profile, "from_trace", ("interp.profile", "interp"), None),
    (compiler, "run_dswp", None, _dswp),
    (system, "run_dswp", None, _dswp),
    (TimingSimulator, "simulate", None, _replay),
    (artifact_codec, "encode_compilation_result", ("artifact.encode", "eval.artifact_codec"), _codec_bytes),
    (artifact_codec, "decode_compilation_result", ("artifact.decode", "eval.artifact_codec"), None),
    (ArtifactCache, "get", ("cache.get", "eval.cache"), _lookup),
    (ArtifactCache, "put", ("cache.put", "eval.cache"), None),
    (LocalFSBackend, "get_blob", ("fs.get", "eval.cache"), _blob("eval.cache", "get")),
    (LocalFSBackend, "put_blob", ("fs.put", "eval.cache"), _blob("eval.cache", "put")),
    (cache_http.HTTPCacheBackend, "get_blob", ("http.get", "eval.remote"), _blob("eval.remote", "get")),
    (cache_http.HTTPCacheBackend, "put_blob", ("http.put", "eval.remote"), _blob("eval.remote", "put")),
    (cache_http, "http_post_json", ("http.lock", "eval.remote"), None),
    (EvaluationHarness, "execute", ("harness.execute", "eval.taskgraph"), _tasks),
    (ingest_api, "ingest_source", ("ingest_source", "ingest"), None),
    (ingest_api, "difftest_workload", ("difftest_workload", "ingest"), None),
)


def _wrap(rec: Spans, func: Callable, span, after: Optional[After]) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            value = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if span is not None:
                rec.add(*span, start, end)
        if after is not None:
            after(rec, value, args, end - start)
        return value

    return wrapper


@contextmanager
def _patched(owner, attr: str, wrap: Callable[[Callable], Callable]) -> Iterator[None]:
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(owner, attr, wrap(raw))
    try:
        yield
    finally:
        setattr(owner, attr, raw)


@contextmanager
def instrumented(rec: Spans) -> Iterator[None]:
    """Install the stage observer and :data:`PATCHES` for the extent."""
    with ExitStack() as stack:
        previous = perf.set_stage_observer(rec.observe_stage)
        stack.callback(perf.set_stage_observer, previous)
        for owner, attr, span, after in PATCHES:
            stack.enter_context(_patched(owner, attr, functools.partial(_wrap, rec, span=span, after=after)))
        yield


# ---------------------------------------------------------------------------
# traced workloads
# ---------------------------------------------------------------------------


#: Fidelity gap → (measured, paper) fields of the report's §6.7 summary.
FIDELITY = {
    "fidelity_gap_speedup_sw": ("mean_speedup_vs_sw", "paper_speedup_vs_sw"),
    "fidelity_gap_speedup_hw": ("mean_speedup_vs_hw", "paper_speedup_vs_hw"),
    "fidelity_gap_hw_area": ("mean_hw_area_reduction", "paper_hw_area_reduction"),
    "fidelity_gap_total_area": ("mean_total_area_increase", "paper_total_area_increase"),
}


def fidelity(summary: Optional[Dict[str, float]]) -> Dict[str, float]:
    """|ln(measured/paper)| from the report's ``summary`` artefact; 0 where
    the run printed no report (no paper reference)."""
    if not summary:
        return {name: 0.0 for name in FIDELITY}
    return {
        name: abs(math.log(summary[measured] / summary[paper]))
        for name, (measured, paper) in FIDELITY.items()
    }


def _phase(ctx: Context, rec: Spans, phase: str, body: Callable[[], None]) -> None:
    """One traced phase (cold or warm) as one counted operation: a crash in
    it is a failure, not an abort."""
    ctx.ledger.attempted += 1
    rec.warm = phase == "warm"
    try:
        with rec.span(phase, None):
            body()
    except Exception as exc:  # counted, and the run goes on to report what it measured
        ctx.ledger.fail(f"traced {phase} phase: {type(exc).__name__}: {str(exc)[:200]}")


def _report_walk(ctx: Context, rec: Spans, spec: str, kernels: Optional[List[str]], phases) -> None:
    def report() -> None:
        harness = EvaluationHarness(benchmarks=kernels, cache_dir=spec)
        # Declaring the graph and collecting its artefacts are task-graph work.
        with rec.span("run_report", "eval.taskgraph"):
            experiments.run_report(harness)

    for phase in phases:
        _phase(ctx, rec, phase, report)


def _report_check(
    ctx: Context, spec: str, kernels: Optional[List[str]], env: Optional[Dict[str, str]] = None
) -> Optional[Dict[str, float]]:
    """The CLI, warm on a traced cache, must print the bytes every untraced
    run prints; returns that report's ``summary`` artefact."""
    argv = repro("report", "--json", "--cache-dir", spec, *(["--benchmarks", ",".join(kernels)] if kernels else []))
    child = ctx.run(argv, "report on the traced cache", env)
    if not child.ok:
        return None
    agree_across_runs(ctx, report_key(kernels), child.stdout)
    return json.loads(child.stdout)["artefacts"].get("summary")


def traced_report(ctx: Context, rec: Spans) -> "tuple[Dict[str, Any], Optional[Dict[str, float]]]":
    """The report cold then warm on a local cache, then the remote phases:
    :data:`REMOTE_KERNELS` cold then warm through a token-auth ``repro cache
    serve``, so that ``eval.remote`` is measured too."""
    spec = str(ctx.ws / "traced")
    token = f"perfbench-{ctx.seed}"
    env = proc.child_env(ctx.ws, REPRO_SERVICE_TOKEN=token)
    service, url = proc.start_cache_service(ctx.ws / "traced-remote", ctx.ws, env)
    ctx.services.append(service)
    with instrumented(rec), rec.span("run", None):
        _report_walk(ctx, rec, spec, ctx.kernels, ("cold", "warm"))
        os.environ["REPRO_SERVICE_TOKEN"] = token
        try:
            _report_walk(ctx, rec, url, REMOTE_KERNELS, ("remote cold", "remote warm"))
        finally:
            del os.environ["REPRO_SERVICE_TOKEN"]
    _report_check(ctx, url, REMOTE_KERNELS, env)
    return ArtifactCache.from_spec(spec).stats(), _report_check(ctx, spec, ctx.kernels)


def traced_fuzz(ctx: Context, rec: Spans) -> "tuple[Dict[str, Any], None]":
    from fuzz_child import generate, run_one

    programs = ctx.ws / "programs"
    generate(ctx.seed, FUZZ_PROGRAMS[ctx.size], programs, ctx.inject_failure)
    spec = str(ctx.ws / "traced")
    with instrumented(rec), rec.span("run", None):
        for phase in ("cold", "warm"):
            rec.warm = phase == "warm"
            harness = EvaluationHarness(benchmarks=[], cache_dir=spec)
            with rec.span(phase, None):
                for path in sorted(programs.glob("*.c")):
                    ctx.ledger.attempted += 1
                    start = time.perf_counter()
                    try:
                        with rec.span(f"program:{path.stem}", None):
                            row = run_one(harness, path)
                        if not row["ok"]:
                            ctx.ledger.fail(f"{phase} {path.stem}: {row['error']}", wrong=True)
                    except Exception as exc:  # a crashing program is a counted failure, not an abort
                        ctx.ledger.fail(f"{phase} {path.stem}: {type(exc).__name__}: {str(exc)[:200]}")
                    if phase == "cold":
                        rec.samples["program_ms"].append((time.perf_counter() - start) * 1e3)
    return ArtifactCache.from_spec(spec).stats(), None


TRACED = {
    "chstone-report": traced_report,
    "fuzz-ingest": traced_fuzz,
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: List[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def cli_import_s(ctx: Context, reps: int) -> float:
    """Median in-child time of ``import repro.cli``."""
    code = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(reps):
        child = ctx.run([sys.executable, "-c", code], "import repro.cli")
        if child.ok:
            times.append(float(child.stdout))
    return statistics.median(times) if times else 0.0


def per_layer(rec: Spans, import_s: float, stats: Dict[str, Any], summary) -> Dict[str, float]:
    layers = rec.by(2)
    names = rec.by(1)
    counts = rec.counts
    program_ms = rec.samples["program_ms"]
    parse_s = names["lex"] + names["parse"]
    candidates, explore_hits, explore_s = rec.explore_candidates()
    values = {
        "cli.import_s": import_s,
        "frontend.parse_s": parse_s,
        "frontend.lower_s": names["lower"],
        "frontend.tokens": counts["frontend.tokens"],
        "frontend.tokens_per_s": _ratio(counts["frontend.tokens"], parse_s),
        "transforms.s": layers["transforms"],
        "transforms.ir_insts": counts["transforms.ir_insts"],
        "ingest.s": layers["ingest"],
        "ingest.program_p50_ms": _percentile(program_ms, 0.5),
        "ingest.program_p95_ms": _percentile(program_ms, 0.95),
        "ingest.programs_per_s": _ratio(len(program_ms), sum(program_ms) / 1e3),
        "interp.s": layers["interp"],
        "interp.events": counts["interp.events"],
        "interp.us_per_event": _ratio(names["interp"] * 1e6, counts["interp.events"]),
        "dswp.s": layers["dswp"],
        "dswp.calls": counts["dswp.calls"],
        "dswp.queues": counts["dswp.queues"],
        "hls.s": layers["hls"],
        "sim.replay_s": layers["sim"],
        "sim.replays": counts["sim.replays"],
        "sim.events_replayed": counts["sim.events_replayed"],
        "sim.us_per_event": _ratio(layers["sim"] * 1e6, counts["sim.events_replayed"]),
        "eval.artifact_codec.encode_s": names["artifact.encode"],
        "eval.artifact_codec.decode_s": names["artifact.decode"],
        "eval.artifact_codec.bytes": counts["codec.bytes"],
        "eval.cache.get_s": names["cache.get"] + names["fs.get"],
        "eval.cache.put_s": names["cache.put"] + names["fs.put"],
        "eval.cache.objects": float(stats.get("entries", 0)),
        "eval.cache.bytes": float(stats.get("total_bytes", 0)),
        "eval.cache.warm_hit_ratio": _ratio(counts["warm_hits"], counts["warm_lookups"]),
        "eval.cache.warm_lookups": counts["warm_lookups"],
        "eval.taskgraph.s": layers["eval.taskgraph"],
        "eval.taskgraph.tasks": counts["eval.taskgraph.tasks"],
        "explore.candidates": float(candidates),
        "explore.cache_hits": float(explore_hits),
        "explore.s_per_candidate": _ratio(explore_s, candidates),
        "eval.remote.get_ms_p50": _percentile(rec.samples["eval.remote.get_ms"], 0.5),
        "eval.remote.put_ms_p50": _percentile(rec.samples["eval.remote.put_ms"], 0.5),
        "eval.remote.bytes": counts["eval.remote.bytes"],
        "unattributed_s": layers["unattributed"],
        "traced_wall_s": rec.wall(),
    }
    values.update(fidelity(summary))
    return values


def run_traced(ctx: Context) -> Dict[str, float]:
    """Run *ctx*'s workload traced; prints the layer table, returns the
    per-layer metrics."""
    import_s = cli_import_s(ctx, IMPORT_REPS[ctx.size])
    rec = Spans()
    stats, summary = TRACED[ctx.workload](ctx, rec)
    OUT.mkdir(exist_ok=True)
    stem = f"{ctx.workload}-seed{ctx.seed}"
    rec.write(OUT / f"spans-{stem}.jsonl")
    table = rec.table()
    (OUT / f"layers-{stem}.txt").write_text(table + "\n")
    print(table)
    return per_layer(rec, import_s, stats, summary)

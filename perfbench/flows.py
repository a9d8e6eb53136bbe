"""The workloads as a user runs them: ``repro`` CLI children, untraced.

Each workload prepares its inputs (set-up, timed several times), then walks
a fixed pass plan: cold passes on fresh empty caches, cold passes with two
workers on other fresh caches, and warm passes on the first cold cache.  How
many steps of :data:`PLAN` a run takes depends only on ``--seconds`` and the
workload's nominal pass times, never on how fast the host happens to be, so
every run of a workload makes the same operations.  Each time metric is the
median of its samples, scaled to reference seconds by :class:`HostProbe`.
Outputs are checked against each other and against the oracles named in
README.md; a crash or a failed check is counted, never fatal.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import proc
from proc import Child, Running, child_env, repro

OUT = proc.ROOT / ".perfbench_out"

#: Programs per fuzz-ingest pass (full size / tiny smoke size).
FUZZ_PROGRAMS = {"full": 200, "tiny": 3}
#: Pass order of a run.
PLAN = ("cold", "warm", "j2", "warm", "cold", "warm", "j2", "warm", "cold", "j2", "warm", "warm", "cold", "j2")
#: Steps of :data:`PLAN` every run makes, whatever ``--seconds`` says.
MANDATORY = {"full": 6, "tiny": 3}
#: Nominal pass times in seconds (medians on a shared 2-CPU VM): a run takes
#: the steps of :data:`PLAN` whose nominal times add up to ``--seconds``.
NOMINAL_S = {
    "chstone-report": {"cold": 8.0, "j2": 6.5, "warm": 1.6},
    "fuzz-ingest": {"cold": 9.5, "j2": 5.2, "warm": 1.7},
}
#: Probe time that defines a reference second (:class:`HostProbe`): about
#: the middle of what the shared 2-CPU VM the benchmark was tuned on gave,
#: 0.16 s in its fastest periods to 0.35 s in slow ones.
PROBE_REF_S = 0.28
#: Probe children started at once: one per CPU of the tuning host.
PROBE_CPUS = 2
#: Every child is killed this long after the run started, so that a hung
#: pass fails the run's operation instead of outliving the run's time limit.
RUN_DEADLINE_S = 165.0


class Ledger:
    """Operation accounting of one run: what was tried, what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rss_mb = 0.0

    def fail(self, what: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += int(wrong)
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def child(self, child: Child, what: str) -> bool:
        """Count one CLI operation; a nonzero exit or a traceback fails it."""
        self.attempted += 1
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        if not child.ok:
            self.fail(f"{what}: {child.describe()}")
        return child.ok


class HostProbe:
    """How fast the host runs Python, probed between the timed steps.

    The host is a shared VM: its CPU speed changes by a quarter or more from
    one minute to the next, on each CPU apart, and child CPU time changes
    with wall time, so raw wall times of identical runs spread past any
    useful bound.  A run is short enough to sit mostly in one speed state.
    So the run starts ``hostprobe.py`` (a fixed stdlib-only workload, none of
    the program's code) as one child per CPU at once, before and after
    set-up and after every pass, and reports each time in reference
    seconds: wall seconds times ``PROBE_REF_S`` over the median of the times
    the run's probes report for their work (the median, because single
    0.2 s probes catch slow spikes that a pass of seconds averages out).
    Probes run between the steps, never beside them.
    """

    def __init__(self, ctx: "Context") -> None:
        self.ctx = ctx
        #: Work times the probe children report, one per child.
        self.times: List[float] = []

    def run(self) -> None:
        argv = [sys.executable, str(proc.ROOT / "perfbench" / "hostprobe.py")]
        running = [Running(argv, self.ctx.ws, self.ctx.env) for _ in range(PROBE_CPUS)]
        children = [r.wait(self.ctx.timeout()) for r in running]
        for child in children:
            if not child.ok:
                raise RuntimeError(f"host probe failed: {child.describe()}")
            self.times.append(float(child.stdout))

    def factor(self) -> float:
        """Reference seconds per wall second over the run."""
        return PROBE_REF_S / statistics.median(self.times)


class Context:
    """Everything one run needs: workspace, seed, size, time budget, ledger."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str, inject_failure: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.inject_failure = inject_failure
        self.ledger = Ledger()
        self.ws = proc.ROOT / ".perfbench_work" / f"{workload}-{seed}-{id(self)}"
        shutil.rmtree(self.ws, ignore_errors=True)
        (self.ws / "tmp").mkdir(parents=True)
        self.env = child_env(self.ws)
        self.services: List[Running] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        #: Every timed sample of the run, printed beside the result.
        self.samples: Dict[str, List[float]] = {}
        self.probe = HostProbe(self)

    def timeout(self) -> float:
        """Seconds a child started now may run."""
        return max(1.0, self.deadline - time.monotonic())

    @property
    def kernels(self) -> Optional[List[str]]:
        """CHStone subset (``None`` = all eight, the paper's set)."""
        return ["blowfish"] if self.size == "tiny" else None

    def kernel_args(self) -> List[str]:
        return ["--benchmarks", ",".join(self.kernels)] if self.kernels else []

    def fresh(self, name: str) -> Path:
        path = self.ws / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def run(self, argv: List[str], what: str, env: Optional[Dict[str, str]] = None) -> Child:
        child = proc.run(argv, self.ws, env or self.env, timeout=self.timeout())
        self.ledger.child(child, what)
        return child

    def setup(self, prepare: Callable[[], None]) -> None:
        """Set up once, between two probes.  :meth:`measure` sets up again
        after every pass, so that ``setup_s``, like the pass times, is a
        median over the whole run, not over its first seconds."""
        self.prepare = prepare
        self.samples["setup"] = []
        self.probe.run()
        self.set_up()
        self.probe.run()

    def set_up(self) -> None:
        start = time.perf_counter()
        self.prepare()
        self.samples["setup"].append(time.perf_counter() - start)

    def plan(self) -> List[str]:
        """The steps of :data:`PLAN` this run takes: a function of the
        workload, the size and ``--seconds`` only."""
        steps, total = [], 0.0
        for kind in PLAN:
            if self.size == "full":
                total += NOMINAL_S[self.workload][kind]
            if len(steps) >= MANDATORY[self.size] and (self.size == "tiny" or total > self.seconds):
                break
            steps.append(kind)
        return steps

    def measure(self, one_pass: Callable[[str, int], float]) -> None:
        """Walk :meth:`plan`; ``one_pass(kind, index)`` runs the *index*-th
        pass of *kind* and returns its wall time."""
        walls: Dict[str, List[float]] = {"cold": [], "j2": [], "warm": []}
        for kind in self.plan():
            walls[kind].append(one_pass(kind, len(walls[kind])))
            self.set_up()
            self.probe.run()
        self.samples.update(walls)

    def metrics(self) -> Dict[str, float]:
        """The end-to-end metrics: medians of the run's samples, in
        reference seconds (see :class:`HostProbe`)."""
        self.samples["probe"] = self.probe.times
        factor = self.probe.factor()
        return {
            "setup_s": statistics.median(self.samples["setup"]) * factor,
            "cold_s": statistics.median(self.samples["cold"]) * factor,
            "warm_s": statistics.median(self.samples["warm"]) * factor,
            "cold_j2_s": statistics.median(self.samples["j2"]) * factor,
            "peak_rss_mb": self.ledger.rss_mb,
        }

    def close(self) -> None:
        """Stop every service the run started, then drop its workspace."""
        while self.services:
            self.ledger.rss_mb = max(self.ledger.rss_mb, self.services.pop().stop().rss_mb)
        shutil.rmtree(self.ws, ignore_errors=True)


def code_digest() -> str:
    """Digest of the program's sources: outputs are compared per version."""
    digest = hashlib.sha256()
    src = proc.ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def agree_across_runs(ctx: Context, key: str, text: str) -> None:
    """Cross-run oracle: the same inputs on the same sources print the same
    bytes in every run and every workload that shares *key*."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    full_key = f"{key}@{code_digest()}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    if full_key not in known:
        known[full_key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
    elif known[full_key] != digest:
        ctx.ledger.fail(f"{key}: output differs from an earlier run on the same sources", wrong=True)


def report_key(kernels: Optional[List[str]]) -> str:
    return "report:" + ",".join(kernels or ["all"])


class SameOutput:
    """Byte-identity oracle over every pass of a run: each successful pass
    must print what the first successful pass printed."""

    def __init__(self, ctx: Context, what: str):
        self.ctx, self.what = ctx, what
        self.reference: Optional[str] = None

    def check(self, child: Child) -> Child:
        if child.ok:
            if self.reference is None:
                self.reference = child.stdout
            elif child.stdout != self.reference:
                self.ctx.ledger.fail(f"{self.what}: output differs between passes", wrong=True)
        return child


def inject(ctx: Context) -> None:
    """One extra operation that fails: the failure must be counted."""
    if ctx.inject_failure:
        ctx.run(repro("report", "--json", "--benchmarks", "no_such_kernel"), "injected failing report")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def chstone_report(ctx: Context) -> Dict[str, float]:
    kernels = ctx.kernel_args()
    same = SameOutput(ctx, "report")

    def prepare() -> None:
        graph = ctx.run(repro("graph", "--json", *kernels), "report task graph")
        if graph.ok and not json.loads(graph.stdout)["tasks"]:
            ctx.ledger.fail("report task graph is empty", wrong=True)

    def one_pass(kind: str, index: int) -> float:
        cache = ctx.ws / "cold0" if kind == "warm" else ctx.fresh(f"{kind}{index}")
        extra = ["-j", "2"] if kind == "j2" else []
        argv = repro("report", "--json", "--cache-dir", str(cache), *extra, *kernels)
        return same.check(ctx.run(argv, f"{kind} report {index}")).wall_s

    ctx.setup(prepare)
    ctx.measure(one_pass)
    inject(ctx)

    if same.reference is not None:
        agree_across_runs(ctx, report_key(ctx.kernels), same.reference)
    target = ctx.kernels[0] if ctx.kernels else "all"
    difftest = ctx.run(
        repro("difftest", target, "--corpus", "none", "--json", "--cache-dir", str(ctx.ws / "cold0")),
        "difftest on the warm cache",
    )
    if difftest.stdout.strip():
        for outcome in json.loads(difftest.stdout)["workloads"]:
            ctx.ledger.attempted += 1
            if not outcome["ok"]:
                ctx.ledger.fail(f"difftest {outcome['workload']}: {outcome['failures']}", wrong=True)
    return ctx.metrics()


def fuzz_ingest(ctx: Context) -> Dict[str, float]:
    count = FUZZ_PROGRAMS[ctx.size]
    programs = ctx.ws / "programs"
    verdicts: Dict[str, bool] = {}

    def prepare() -> None:
        argv = [
            sys.executable, str(proc.ROOT / "perfbench" / "fuzz_child.py"), "generate",
            "--seed", str(ctx.seed), "--count", str(count), "--out", str(ctx.fresh("programs")),
        ]
        ctx.run(argv + (["--inject-failure"] if ctx.inject_failure else []), "generate programs")

    def shard(cache: Path, index: int, shards: int) -> Running:
        argv = [
            sys.executable, str(proc.ROOT / "perfbench" / "fuzz_child.py"), "run",
            "--programs", str(programs), "--cache-dir", str(cache),
            "--shard", str(index), "--shards", str(shards),
        ]
        return Running(argv, ctx.ws, ctx.env)

    def count_rows(child: Child, what: str) -> None:
        """One operation per program; a crashed batch counts as one failure.
        Every pass must reach the same verdict on every program."""
        ctx.ledger.rss_mb = max(ctx.ledger.rss_mb, child.rss_mb)
        if not child.ok:
            ctx.ledger.attempted += 1
            ctx.ledger.fail(f"{what}: {child.describe()}")
            return
        for row in json.loads(child.stdout):
            ctx.ledger.attempted += 1
            if not row["ok"]:
                ctx.ledger.fail(f"{what} {row['name']}: {row['error']}", wrong=row["wrong"])
            if verdicts.setdefault(row["name"], row["ok"]) != row["ok"]:
                ctx.ledger.fail(f"{what} {row['name']}: verdict differs from an earlier pass", wrong=True)

    def one_pass(kind: str, index: int) -> float:
        cache = ctx.ws / "cold0" if kind == "warm" else ctx.fresh(f"{kind}{index}")
        shards = 2 if kind == "j2" else 1
        start = time.perf_counter()
        running = [shard(cache, i, shards) for i in range(shards)]
        children = [r.wait(ctx.timeout()) for r in running]
        wall = time.perf_counter() - start
        for child in children:
            count_rows(child, f"{kind} pass {index}")
        return wall

    ctx.setup(prepare)
    ctx.measure(one_pass)
    return ctx.metrics()


WORKLOADS = {
    "chstone-report": chstone_report,
    "fuzz-ingest": fuzz_ingest,
}

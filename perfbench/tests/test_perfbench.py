"""Smoke tests for the benchmark itself, on tiny inputs (one kernel, three
programs): the output contract, the layer table's arithmetic, failure
counting, the fixed pass plan, host-probe scaling, and refusal outside a
full checkout."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, trace: int, *extra: str, seed: int = 3) -> "tuple[dict, str]":
    proc = run_bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result, stdout = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = [entry["value"] for entry in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and v >= 0 for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    env = json.loads(stdout.strip().splitlines()[-2].split(" ", 2)[2])
    assert {"nproc", "python", "loadavg_start", "seed"} <= set(env) and env["seed"] == 3


def test_layer_table_adds_up_to_traced_wall():
    result, stdout = tiny("chstone-report", 1)
    rows = dict(re.findall(r"^(\S+)\s+(\d+\.\d+)\s+[\d.]+%$", stdout, re.MULTILINE))
    wall = result["metrics"]["traced_wall_s"]["value"]
    assert "unattributed_s" in rows and "sim" in rows
    assert sum(float(v) for v in rows.values()) == pytest.approx(wall, abs=1e-3 * len(rows))
    assert float(rows["unattributed_s"]) == pytest.approx(result["metrics"]["unattributed_s"]["value"], abs=1e-4)
    spans = (ROOT / ".perfbench_out" / "spans-chstone-report-seed3.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert {"run", "id", "parent", "name", "layer", "start", "end"} == set(first)


@pytest.mark.parametrize("workload,trace", [("fuzz-ingest", 0), ("fuzz-ingest", 1), ("chstone-report", 0)])
def test_injected_failure_is_counted_not_fatal(workload, trace):
    clean, _ = tiny(workload, trace)
    injected, _ = tiny(workload, trace, "--inject-failure")
    assert injected["failed"] >= 1
    assert injected["attempted"] > clean["attempted"]
    assert injected["correct"] is True  # a crash is a failure, not a wrong output
    assert set(injected["metrics"]) == set(clean["metrics"])


def test_runs_of_a_workload_make_the_same_operations():
    first, _ = tiny("fuzz-ingest", 0, seed=5)
    second, _ = tiny("fuzz-ingest", 0, seed=6)
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def flows_module():
    sys.path.insert(0, str(BENCH))
    import flows

    return flows


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pass_plan_depends_only_on_workload_and_seconds(workload):
    flows = flows_module()
    ctx = flows.Context.__new__(flows.Context)
    ctx.workload, ctx.size, ctx.seconds = workload, "full", SPEC["run_seconds"]
    plan = ctx.plan()
    assert {kind: plan.count(kind) for kind in ("cold", "j2", "warm")} == {"cold": 3, "j2": 3, "warm": 4}
    ctx.seconds = 1
    assert len(ctx.plan()) == flows.MANDATORY["full"]


def test_times_are_scaled_by_the_runs_host_probes():
    flows = flows_module()
    ctx = flows.Context.__new__(flows.Context)
    ctx.ledger = flows.Ledger()
    ctx.samples = {"setup": [0.4, 0.5, 0.6], "cold": [8.0, 9.0, 7.0], "warm": [2.0, 1.0, 3.0], "j2": [6.0]}
    ctx.probe = flows.HostProbe(ctx)
    ctx.probe.times = [0.2, 0.3, 0.2, 0.3, 0.8, 0.7, 0.6, 0.4]
    values = ctx.metrics()
    assert values["setup_s"] == pytest.approx(0.5 * flows.PROBE_REF_S / 0.35)
    assert values["cold_s"] == pytest.approx(8.0 * flows.PROBE_REF_S / 0.35)
    assert values["warm_s"] == pytest.approx(2.0 * flows.PROBE_REF_S / 0.35)
    assert values["cold_j2_s"] == pytest.approx(6.0 * flows.PROBE_REF_S / 0.35)
    assert ctx.samples["probe"] == ctx.probe.times


def test_traced_wrappers_run_the_program_and_are_removed():
    sys.path.insert(0, str(BENCH))
    import traced
    from repro import perf
    from repro.core.compiler import TwillCompiler
    from repro.workloads import get_workload

    originals = [vars(owner)[attr] for owner, attr, _, _ in traced.PATCHES]
    rec = traced.Spans()
    with traced.instrumented(rec):
        result = TwillCompiler().compile_and_simulate(get_workload("blowfish").source, name="blowfish")
    assert [vars(owner)[attr] for owner, attr, _, _ in traced.PATCHES] == originals
    assert perf.set_stage_observer(None) is None
    layers = rec.by(2)
    assert {"frontend", "transforms", "interp", "dswp", "hls", "sim"} <= set(layers)
    assert sum(layers.values()) == pytest.approx(rec.wall())
    assert rec.counts["dswp.calls"] == 1
    assert rec.counts["interp.events"] == len(result.execution.trace.events)
    assert rec.counts["sim.replays"] >= 1


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

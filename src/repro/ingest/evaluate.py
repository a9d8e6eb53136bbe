"""The ``ingest`` task payload: frontend + reference interpretation of one file.

Mirrors :mod:`repro.explore.evaluate`: the payload is a pure, picklable
module-level function of plain arguments (the *preprocessed* source text
travels with the task, so the payload never touches the filesystem), and the
node constructor wires it into :mod:`repro.eval.taskgraph` without that
module having to import this package.

The content key is :func:`repro.eval.cache.derived_key` over the file's
would-be compile key (preprocessed source + full configuration + code
digest) plus the chosen workload name — so a second ``repro ingest`` of an
unchanged file is a pure cache hit, and any edit to the file *or* to the
compiler re-keys the report.

The report's ``outputs`` come from interpreting the **unoptimised** lowered
module.  They become the registered workload's reference, which the
evaluation harness re-checks against the fully optimised pipeline's outputs
on every compile — a real frontend+interpreter vs. full-pass-pipeline
differential check, not a self-comparison.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

from repro import perf
from repro.config import CompilerConfig
from repro.errors import FrontendError, InterpreterError, IRError
from repro.eval import taskgraph
from repro.eval.cache import compile_key, derived_key
from repro.frontend.diagnostics import Diagnostic
from repro.frontend.lowering import lower_to_ir
from repro.frontend.parser import parse_source
from repro.interp.interpreter import Interpreter


def compute_ingest_report(
    name: str,
    source: str,
    filename: str,
    config: CompilerConfig,
    includes: tuple = (),
    skipped_includes: tuple = (),
) -> Dict[str, Any]:
    """Frontend + reference interpretation of one preprocessed source.

    Returns the :class:`~repro.ingest.report.IngestReport` dict form (JSON
    task serialisation).  Never raises for problems *in the program*: lexer,
    parser, lowering, and execution failures all land in ``diagnostics``
    with ``ok=False``.
    """
    with perf.stage("ingest"):
        return _compute_ingest_report(
            name, source, filename, config, includes, skipped_includes
        )


def _compute_ingest_report(
    name: str,
    source: str,
    filename: str,
    config: CompilerConfig,
    includes: tuple,
    skipped_includes: tuple,
) -> Dict[str, Any]:
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    report: Dict[str, Any] = {
        "name": name,
        "filename": filename,
        "digest": digest,
        "ok": False,
        "diagnostics": [],
        "includes": list(includes),
        "skipped_includes": list(skipped_includes),
        "functions": 0,
        "globals": 0,
        "tokens": 0,
        "outputs": [],
        "steps": 0,
    }

    unit, diagnostics, tokens = parse_source(source, recover=True, filename=filename)
    if diagnostics or unit is None:
        report["diagnostics"] = [d.to_dict() for d in diagnostics]
        return report

    report["tokens"] = tokens
    report["functions"] = sum(1 for f in unit.functions if f.body is not None)
    report["globals"] = len(unit.globals)

    try:
        module = lower_to_ir(unit, module_name=name)
    except FrontendError as exc:
        report["diagnostics"] = [Diagnostic.from_error(exc, filename).to_dict()]
        return report
    except IRError as exc:
        report["diagnostics"] = [
            Diagnostic(file=filename, line=0, col=0, message=f"lowering failed: {exc}").to_dict()
        ]
        return report

    try:
        execution = Interpreter(
            module, record_trace=False, max_steps=config.max_interpreter_steps
        ).run()
    except (InterpreterError, IRError) as exc:
        report["diagnostics"] = [
            Diagnostic(file=filename, line=0, col=0, message=f"execution failed: {exc}").to_dict()
        ]
        return report

    report["ok"] = True
    report["outputs"] = [int(v) for v in execution.outputs]
    report["steps"] = execution.steps
    return report


def ingest_task_id(name: str) -> str:
    """The deterministic task id of one file's ingest node."""
    return f"ingest:{name}"


def ingest_key(name: str, source: str, config: CompilerConfig) -> str:
    """The content address of one file's ingest report."""
    return derived_key(compile_key(source, config), "ingest", {"name": name})


def ingest_task(
    name: str,
    source: str,
    filename: str,
    config: CompilerConfig,
    includes: tuple = (),
    skipped_includes: tuple = (),
) -> "taskgraph.Task":
    """One ingest-report node (no dependencies; the source travels inline)."""
    return taskgraph.Task(
        task_id=ingest_task_id(name),
        kind=taskgraph.KIND_INGEST,
        fn=compute_ingest_report,
        args=(name, source, filename, config, tuple(includes), tuple(skipped_includes)),
        deps=(),
        key=ingest_key(name, source, config),
        serializer="json",
        workload=name,
    )

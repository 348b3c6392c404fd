"""Front-end totality on mutated registry programs.

Every registry program's preprocessed source with one token deleted,
duplicated or replaced by one of ``; ( ) { } * 0 -1 [ , & x`` must
compile, or fail with the front end's own diagnostic — ``LexError``,
``ParseError`` or ``CodegenError`` naming a line — and never with any
other exception.  A mutation is spliced into the text, so a token meets
its neighbours as written (``a[0]`` with ``]`` replaced by ``x`` is
``a[0x``, ``2.5`` duplicated is ``2.52.5``).  The mutants come from a table seeded by each program's name,
so every run checks the same ones.  The default count keeps the suite
fast; ``REPRO_FRONTEND_MUTANTS=<n>`` checks ``n`` per program instead.
"""

import os
import random
import sys

import pytest

from repro.frontend import (STANDARD_PREDEFINES, CodegenError, LexError,
                            ParseError, compile_c, preprocess, tokenize)
from repro.workloads import WORKLOADS

PER_PROGRAM = int(os.environ.get("REPRO_FRONTEND_MUTANTS", "40"))
REPLACEMENTS = (";", "(", ")", "{", "}", "*", "0", "-1", "[", ",", "&", "x")


def spans(source: str) -> list:
    """(start, end) of each token of ``source`` in it.  Adjacent string
    literals are one token (``"a" "b"``): its span covers them all."""
    found, position = [], 0
    for token in tokenize(source)[:-1]:  # without the end-of-file token
        rest = token.text
        while position < len(source) and source[position].isspace():
            position += 1
        start = position
        while rest:  # one literal of a merged string at a time
            end = len(rest)
            if token.kind == "str":
                end = 1
                while rest[end] != '"':
                    end += 2 if rest[end] == "\\" else 1
                end += 1
            assert source.startswith(rest[:end], position), token
            position += end
            rest = rest[end:]
            while rest and source[position].isspace():
                position += 1
        found.append((start, position))
    return found


def mutants(name: str, count: int):
    """``count`` (what was done, mutated source) pairs for one program."""
    source = preprocess(WORKLOADS[name].source, STANDARD_PREDEFINES)
    tokens = spans(source)
    rng = random.Random(f"{name}/0")  # a str seed does not use hash()
    for _ in range(count):
        start, end = tokens[rng.randrange(len(tokens))]
        text = source[start:end]
        how = rng.choice(("delete", "duplicate", "replace"))
        if how == "duplicate":
            spliced = text + text
        elif how == "delete":
            spliced = ""
        else:
            spliced = rng.choice([r for r in REPLACEMENTS if r != text])
            how = f"replace with {spliced!r}"
        line = source.count("\n", 0, start) + 1
        yield (f"{how} {text!r} on line {line}",
               source[:start] + spliced + source[end:])


def test_spans_cover_every_token_as_written():
    source = 'int a[2] = {1,2};\nchar *s = "x\\"y"\n  "z";\nint b=0x1F;'
    assert [source[start:end] for start, end in spans(source)] == [
        "int", "a", "[", "2", "]", "=", "{", "1", ",", "2", "}", ";",
        "char", "*", "s", "=", '"x\\"y"\n  "z"', ";",
        "int", "b", "=", "0x1F", ";"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_mutated_program_compiles_or_is_diagnosed(name):
    """The recursion limit is the default here: the guest interpreter
    raises it for the rest of the process."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    escaped = []
    try:
        for what, source in mutants(name, PER_PROGRAM):
            try:
                compile_c(source, name)
            except (LexError, ParseError, CodegenError) as error:
                if not str(error).startswith("line "):
                    escaped.append(f"{what}: no line in {error}")
            except Exception as error:  # reported below, with the mutant
                escaped.append(f"{what}: {type(error).__name__}: {error}")
    finally:
        sys.setrecursionlimit(limit)
    assert escaped == []

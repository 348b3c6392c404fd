"""Trace serialization: JSONL and Chrome-tracing exports.

JSONL is the interchange format — one JSON object per line, stable keys
(``t``, ``seq``, ``cat``, ``name``, ``dur``, ``args``), round-trippable
via :func:`events_from_jsonl`.  The Chrome export produces the JSON
array format understood by ``chrome://tracing`` and Perfetto's legacy
loader: events with a modeled duration become complete (``"ph": "X"``)
slices, instant events become ``"ph": "i"`` marks, with microsecond
timestamps as the format requires.
"""

from __future__ import annotations

import json
import json.encoder
import os
import stat
from contextlib import contextmanager
from itertools import chain
from json.decoder import WHITESPACE
from json.scanner import make_scanner
from sys import intern
from typing import (Callable, Dict, Iterable, Iterator, List, Sequence,
                    Tuple)

from .tracer import TraceEvent, check_envelope

# Chrome trace viewers group slices by (pid, tid); we map the runtime's
# logical actors onto fixed "threads" of one simulated process.
_CHROME_TRACKS: Dict[str, int] = {
    "session": 0, "decision": 1, "offload": 2,
    "uva": 3, "comm": 4, "rio": 5, "fnptr": 6, "transport": 7,
}


def _track(category: str) -> int:
    return _CHROME_TRACKS.get(category.split(".", 1)[0], 7)


# -- JSONL ---------------------------------------------------------------
# Compact separators, sorted keys and ASCII escapes are the format, not
# a per-call choice: every line is what this stdlib encoder writes for
# ``event.to_dict()``.
_FORMAT = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
# One scanner for every line read.  It keeps no state between calls.
_scan = make_scanner(json.JSONDecoder())

_HEADER = "# repro-trace"

# Entries one write keeps per memo (payload texts, vocabulary strings)
# before it starts over: a stream of fresh payloads, which never hits,
# then holds a bounded number of them.
MEMO_BOUND = 2048


def _line_encoder() -> Callable[[object, int], Sequence[str]]:
    """``encode(obj, 0)``: the chunks of ``_FORMAT.encode(obj)``.

    One C encoder for every payload of one call, built per call because
    its markers dict is the circular-reference check: an encode that
    raises (a ``set`` in a payload) leaves stale ids there.  Only an
    interpreter without ``_json`` takes the stdlib's own path."""
    make = json.encoder.c_make_encoder
    if make is None:
        return lambda obj, _level: (_FORMAT.encode(obj),)
    return make({}, _FORMAT.default, json.encoder.encode_basestring_ascii,
                None, _FORMAT.key_separator, _FORMAT.item_separator,
                True, False, True)


class _Quoted(dict):
    """``quoted[word]``: ``word`` as a JSON string, escaped on its first
    use in one call."""

    __slots__ = ()

    def __missing__(self, word: str) -> str:
        if len(self) >= MEMO_BOUND:
            self.clear()
        text = self[word] = json.encoder.encode_basestring_ascii(word)
        return text


def _lines(events: Iterable[TraceEvent], end: str) -> Iterator[str]:
    """Each event's line, then ``end``: the bytes of
    ``_FORMAT.encode(event.to_dict())``, with the envelope's keys
    (``args, cat, dur, name, seq, [sid,] t``) written here and each
    distinct payload object and vocabulary string encoded once.

    A payload is memoised by ``id``, and its memo entry holds it, so the
    id cannot be reused while the entry lives; the memo lives for one
    call, so a payload mutated between two calls is encoded afresh.  An
    envelope :func:`check_envelope` refuses — a line the reader would
    refuse — raises its ValueError or TypeError naming the event's
    position."""
    encode = _line_encoder()
    number = _FORMAT.encode
    quoted = _Quoted()
    payloads: Dict[int, Tuple[dict, str]] = {}
    for position, event in enumerate(events):
        t, seq, dur, args, sid = (event.t, event.seq, event.dur,
                                  event.payload, event.sid)
        category, name = event.category, event.name
        if (type(t) is float and not t - t and type(dur) is float
                and not dur - dur and type(seq) is int
                and type(category) is str and type(name) is str
                and type(args) is dict
                and (sid is None or type(sid) is str)):
            t, dur, seq = repr(t), repr(dur), repr(seq)
        else:
            try:
                check_envelope(t, seq, category, name, dur, args, sid)
            except (ValueError, TypeError) as exc:
                raise type(exc)(
                    f"event {position} is not a trace event: {exc}"
                ) from None
            t, dur, seq = number(t), number(dur), number(seq)
        hit = payloads.get(id(args))
        if hit is None:
            if len(payloads) >= MEMO_BOUND:
                payloads.clear()
            hit = payloads[id(args)] = args, "".join(encode(args, 0))
        if sid is None:
            yield (f'{{"args":{hit[1]},"cat":{quoted[category]},"dur":{dur},'
                   f'"name":{quoted[name]},"seq":{seq},"t":{t}}}{end}')
        else:
            yield (f'{{"args":{hit[1]},"cat":{quoted[category]},"dur":{dur},'
                   f'"name":{quoted[name]},"seq":{seq},'
                   f'"sid":{quoted[sid]},"t":{t}}}{end}')


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialize events, one compact JSON object per line."""
    return "\n".join(_lines(events, ""))


def _decode(line: str) -> object:
    """``JSONDecoder().decode(line)`` for a stripped line, errors
    included: the scanner alone, without the whitespace skips a
    stripped line does not need."""
    try:
        value, end = _scan(line, 0)
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", line, err.value) \
            from None
    if end != len(line):
        end = WHITESPACE.match(line, end).end()
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
    return value


# The memo state of a payload text the memo cannot hold.
_WHOLE = object()


def _memo_payload(line: str, cut: int) -> object:
    """The payload of ``line`` — ``{"args":`` + text + ``,"cat":…`` —
    as the memo holds it, its keys interned: an object that ends
    exactly at ``cut`` and holds no array or object, so that a shallow
    copy is a payload its event owns.  ``_WHOLE`` for any other text."""
    try:
        payload, end = _scan(line, 8)
    except (StopIteration, ValueError, RecursionError):
        return _WHOLE
    if end != cut or type(payload) is not dict or any(
            type(value) is list or type(value) is dict
            for value in payload.values()):
        return _WHOLE
    return dict(zip(map(intern, payload), payload.values()))


def _parse_lines(lines: Iterable[str]) -> Iterator[TraceEvent]:
    """The one line parser: blank and ``#`` lines are skipped, every
    other line is one event; ValueError naming the first line that is
    not one.

    A line ``{"args":`` + text + ``,"cat":…`` (the last ``,"cat":``),
    as the writer writes every line, is read through a memo keyed by
    that payload text.  Its first sight is only recorded; its second
    stores the parsed payload; from then on only the envelope
    ``{"cat":…`` is decoded and the event gets a copy of the stored
    payload.  Every other line, and any line the memo route fails on,
    is decoded whole, so the events and the errors are those of
    ``TraceEvent.from_dict`` over ``json.loads``.  The memo lives for
    one call and starts over past ``MEMO_BOUND`` texts."""
    from_dict = TraceEvent.from_dict
    # A text seen once maps to the number of the line it was seen on.
    memo: Dict[str, object] = {}
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        cut = line.rfind(',"cat":')
        if cut > 8:
            text = line[8:cut]      # the payload text if {"args": leads
            payload = memo.setdefault(text, number)
            if payload is number:                   # its first sight
                if len(memo) > MEMO_BOUND:
                    memo.clear()
                    memo[text] = number
            elif line.startswith('{"args":'):
                if type(payload) is int:            # its second sight
                    payload = memo[text] = _memo_payload(line, cut)
                if payload is not _WHOLE:
                    try:
                        envelope = _decode("{" + line[cut + 1:])
                        if "args" not in envelope:
                            yield from_dict(envelope, dict(payload))
                            continue
                    except (ValueError, KeyError, TypeError,
                            RecursionError):
                        pass                        # decoded whole below
        try:
            event = from_dict(_decode(line))
        except (ValueError, KeyError, TypeError, AttributeError,
                RecursionError) as exc:
            raise ValueError(
                f"line {number} is not a trace event ({exc!r})") from exc
        yield event


def events_from_jsonl(text: str) -> List[TraceEvent]:
    """Parse a JSONL trace back into :class:`TraceEvent` records;
    ValueError naming the first line that is not one."""
    return list(_parse_lines(text.splitlines()))


def write_jsonl(events: Iterable[TraceEvent], path: str,
                dropped: int = 0) -> int:
    """Write a JSONL trace file; returns the number of events written.

    The first line is a ``#`` header carrying the stream metadata —
    event count and the tracer's ring-buffer drop counter — so a reader
    can tell a complete trace from a truncated one without the live
    :class:`~repro.trace.tracer.Tracer`.  ``events_from_jsonl`` skips
    ``#`` lines, keeping the format round-trippable.  A write that
    raises removes the regular file it was writing, which would
    otherwise declare every event and hold only those before the
    failure; any other path (``/dev/null``, a pipe) is left alone.
    """
    events = list(events)       # the header states the count up front
    regular = False
    try:
        with open(path, "w", encoding="utf-8") as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            fh.write(f"{_HEADER} v1 events={len(events)} "
                     f"dropped={dropped}\n")
            fh.writelines(_lines(events, "\n"))
    except BaseException:
        if regular:
            os.remove(path)
        raise
    return len(events)


def _header_meta(first_line: str) -> Dict[str, int]:
    """The ``key=int`` fields of a ``# repro-trace`` header line; ``{}``
    for any other line (header-less files written before the header
    existed — their counts are unknown, not zero)."""
    meta: Dict[str, int] = {}
    if first_line.startswith(_HEADER):
        for token in first_line.split():
            if "=" in token:
                key, _, value = token.partition("=")
                try:
                    meta[key] = int(value)
                except ValueError:
                    pass
    return meta


@contextmanager
def open_jsonl(path: str
               ) -> Iterator[Tuple[Dict[str, int], Iterator[TraceEvent]]]:
    """A JSONL trace file opened for one pass: its header metadata and
    a lazy iterator over its events, which holds one line at a time and
    raises the line-numbered ValueError of :func:`events_from_jsonl`
    when it reaches a bad one."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        yield _header_meta(first), _parse_lines(chain((first,), fh))


def iter_jsonl(path: str) -> Iterator[TraceEvent]:
    """The events of a JSONL trace file, parsed as they are asked for:
    a consumer that keeps none of them (``build_report``) analyses a
    trace of any length in memory that does not grow with it."""
    with open_jsonl(path) as (_, events):
        yield from events


def load_jsonl(path: str) -> List[TraceEvent]:
    return list(iter_jsonl(path))


def read_jsonl_meta(path: str) -> Dict[str, int]:
    """The header metadata of a JSONL trace (``{}`` for header-less
    files written before the header existed — their drop count is
    unknown, not zero)."""
    with open_jsonl(path) as (meta, _):
        return meta


# -- Chrome tracing ------------------------------------------------------
def events_to_chrome_json(events: Iterable[TraceEvent],
                          process_name: str = "repro offload session",
                          dropped: int = 0) -> str:
    """Render events in the Chrome Trace Event JSON-array format."""
    events = list(events)
    chrome: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }, {
        "name": "trace_meta", "ph": "M", "pid": 0, "tid": 0,
        "args": {"events": len(events), "dropped": dropped},
    }]
    for track_name, tid in sorted(_CHROME_TRACKS.items(),
                                  key=lambda kv: kv[1]):
        chrome.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": tid, "args": {"name": track_name}})
    for event in events:
        record = {
            "name": f"{event.category}:{event.name}",
            "cat": event.category,
            "pid": 0,
            "tid": _track(event.category),
            "ts": event.t * 1e6,          # microseconds
            "args": dict(event.payload, seq=event.seq),
        }
        if event.dur > 0:
            record["ph"] = "X"
            record["dur"] = event.dur * 1e6
        else:
            record["ph"] = "i"
            record["s"] = "t"             # thread-scoped instant
        chrome.append(record)
    return json.dumps(chrome, separators=(",", ":"))


def write_chrome_trace(events: Iterable[TraceEvent], path: str,
                       process_name: str = "repro offload session",
                       dropped: int = 0) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(events_to_chrome_json(events, process_name,
                                       dropped=dropped))

"""The trace pipeline is a stream (ISSUE 21).

An event is resident once, as cheaply as Python allows, and nothing
downstream of the span state machine holds one: one encoder and one
line parser behind every JSONL function, an interned vocabulary,
slotted ``TraceEvent``/``Tally`` records, and span trees that keep
tallies instead of events.  These tests hold that in place:

* nothing is retained: ``build_report`` over a generator keeps a
  constant number of events alive, whatever the stream's length;
* byte identity: a written file is ``header + events_to_jsonl + "\\n"``
  and the streamed report equals the in-memory one, for a clean fleet,
  CI's faulty sharded fleet and a ring-truncated stream;
* sharing: a loaded trace shares its categories, session ids and
  payload keys;
* the records behave as the dataclasses they were;
* the stream's contract: per-``sid`` emission order, a line-numbered
  error for a bad line or a field of the wrong type, a warning for a
  file shorter than its header says;
* the codec is the stdlib's: the bytes ``json.dumps`` writes, with or
  without the C accelerator, whether payload objects are shared, more
  than the memo holds, or freed after each line, read back as equal
  events; the errors ``json.loads`` raises; no state left behind by a
  failed write or kept past one; a bounded payload memo; and no
  envelope written that the reader would refuse;
* the reader's payload memo: a line read through it, however unusual,
  reads as ``from_dict`` over ``json.loads`` does, or fails with the
  same line-numbered error; each event owns its payload; the memo is
  bounded.
"""

import dataclasses
import hashlib
import json
import json.encoder
import os
import stat
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.fleet import PoolOptions
from repro.runtime import FaultPlan
from repro.trace import (CATEGORIES, Tally, TraceEvent, events_from_jsonl,
                         events_to_jsonl, export, iter_jsonl, load_jsonl,
                         read_jsonl_meta, render_metrics, write_jsonl)
from repro.trace.analysis import (build_report, reconstruct_sessions,
                                  report_to_json)
from repro.trace.export import MEMO_BOUND

from test_trace_tally import _fleet, _fleet_result

# CI's seeded faulty, sharded fleet (.github/workflows/ci.yml,
# FAULTY_FLEET: --workload parallel-micro --devices 6 --servers 4
# --shards 4 --drop-rate 0.3 --disconnect-after 3 --reconnect-rate 0.5
# --seed 7): drops, lost links, one scattered gang, degraded ones.


def _clean():
    result = _fleet_result("contended-fifo")
    return result.merged_events(), result.dropped_events


def _ci_faulty():
    result = _fleet("parallel-micro", b"4000\n", 6,
                    PoolOptions(servers=4, capacity=1, queue_limit=4),
                    seed=7, shards=4, fault_plans=(FaultPlan(
                        drop_rate=0.3, disconnect_after_messages=3,
                        reconnect_rate=0.5),))
    return result.merged_events(), result.dropped_events


def _ring_truncated():
    result = _fleet("fleet-micro", b"60\n", 2,
                    PoolOptions(servers=2, capacity=1, queue_limit=4),
                    seed=7, trace_capacity=16)
    return result.merged_events(), result.dropped_events


@pytest.fixture(scope="module")
def chess_jsonl(tmp_path_factory):
    """``python -m repro trace chess --jsonl``: one session, no sid."""
    path = tmp_path_factory.mktemp("stream") / "chess.jsonl"
    assert main(["trace", "chess", "--jsonl", str(path)]) == 0
    return path


# -- (a) nothing is retained ---------------------------------------------
class _WeakEvent(TraceEvent):
    """A TraceEvent that can be weakly referenced — the production
    class keeps exactly its seven field slots."""

    __slots__ = ("__weakref__",)


def test_build_report_over_a_generator_retains_no_event():
    base, _ = _clean()
    tiles = 10_000 // len(base) + 1
    stride = base[-1].t + 0.010
    refs, alive_at_checkpoints = [], []

    def alive():
        return sum(ref() is not None for ref in refs)

    def stream():
        # tiled as bench/workloads.py tiles it: the same sessions under
        # new ids, later on the clock
        for tile in range(tiles):
            for e in base:
                event = _WeakEvent(
                    t=e.t + tile * stride, seq=e.seq, category=e.category,
                    name=e.name, dur=e.dur, payload=e.payload,
                    sid=f"{e.sid}#{tile:03d}")
                refs.append(weakref.ref(event))
                if len(refs) % 1000 == 0:
                    alive_at_checkpoints.append(alive())
                yield event

    report = build_report(stream())
    assert report["events"] == len(refs) == tiles * len(base) > 10_000
    assert report["warnings"] == []
    assert len(alive_at_checkpoints) >= 10
    # the one being yielded and the one the consumer has not let go of
    assert max(alive_at_checkpoints) <= 3
    assert alive() == 0


# -- (b) byte identity ---------------------------------------------------
@pytest.mark.parametrize("make", [_clean, _ci_faulty, _ring_truncated],
                         ids=["clean", "ci-faulty-sharded",
                              "ring-truncated"])
def test_streamed_report_and_written_bytes_are_the_in_memory_ones(
        make, tmp_path):
    events, dropped = make()
    path = tmp_path / "trace.jsonl"
    assert write_jsonl(events, str(path), dropped=dropped) == len(events)
    assert path.read_text(encoding="utf-8") == (
        f"# repro-trace v1 events={len(events)} dropped={dropped}\n"
        + events_to_jsonl(events) + "\n")

    in_memory = build_report(events, dropped=dropped)
    streamed = build_report(iter_jsonl(str(path)), dropped=dropped,
                            declared_events=len(events))
    assert report_to_json(streamed) == report_to_json(in_memory)
    if make is _ring_truncated:
        assert dropped > 0 and in_memory["fleet"]["partial_sessions"] > 0
    else:
        assert in_memory["warnings"] == []


def test_an_empty_trace_is_its_header_alone(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_jsonl([], str(path)) == 0
    assert path.read_text() == "# repro-trace v1 events=0 dropped=0\n"
    assert load_jsonl(str(path)) == []
    assert read_jsonl_meta(str(path)) == {"events": 0, "dropped": 0}


# -- (c) sharing ---------------------------------------------------------
def test_a_loaded_trace_shares_its_vocabulary(tmp_path):
    events, _ = _clean()
    path = tmp_path / "trace.jsonl"
    write_jsonl(events, str(path))
    loaded = load_jsonl(str(path))
    assert loaded == events

    canonical = {c: c for c in CATEGORIES}
    assert all(e.category is canonical[e.category] for e in loaded)

    sid_objects = {}
    for e in loaded:
        sid_objects.setdefault(e.sid, set()).add(id(e.sid))
    assert len(sid_objects) == 6
    assert all(len(ids) == 1 for ids in sid_objects.values())

    by_category = {}
    for e in loaded:
        by_category.setdefault(e.category, []).append(e)
    compared = 0
    for first, second, *_ in (g for g in by_category.values()
                              if len(g) > 1):
        keys = {key: key for key in first.payload}
        for key in second.payload:
            if key in keys:
                assert key is keys[key]
                compared += 1
    assert compared > 20


# -- (d) the records -----------------------------------------------------
class TestRecords:
    def test_trace_event_defaults_slots_equality_and_hash(self):
        a = TraceEvent(t=1.0, seq=3, category="comm.send", name="to_server")
        b = TraceEvent(t=1.0, seq=3, category="comm.send", name="to_server")
        assert (a.dur, a.payload, a.sid) == (0.0, {}, None)
        assert a.payload is not b.payload
        assert not hasattr(a, "__dict__")
        assert TraceEvent.__slots__ == (
            "t", "seq", "category", "name", "dur", "payload", "sid")
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == b
        for name, other in [("t", 2.0), ("seq", 4), ("category", "rio.op"),
                            ("name", "to_mobile"), ("dur", 0.5),
                            ("payload", {"bytes": 1}), ("sid", "dev00")]:
            assert dataclasses.replace(a, **{name: other}) != a, name
        with pytest.raises(TypeError):
            hash(a)
        assert repr(a) == (
            "TraceEvent(t=1.0, seq=3, category='comm.send', "
            "name='to_server', dur=0.0, payload={}, sid=None)")
        assert TraceEvent.from_dict(a.to_dict()) == a

    def test_tally_has_no_dict_and_keeps_its_dataclass_face(self):
        tally = Tally()
        assert not hasattr(tally, "__dict__")
        assert tally == Tally() and tally != Tally(events=1)
        names = [f.name for f in dataclasses.fields(Tally)]
        assert list(Tally.__slots__) == names
        assert list(Tally.__dataclass_fields__) == names
        assert all(getattr(tally, f.name) == f.default
                   for f in dataclasses.fields(Tally))
        with pytest.raises(TypeError):
            hash(tally)

    def test_render_metrics_of_the_chess_trace_did_not_move(
            self, chess_jsonl):
        """sha256 of the block, captured at 88d11d1 — the commit before
        ``render_metrics`` stopped reading ``vars(tally)`` — and
        re-captured when the ``estimate`` count line left it."""
        block = render_metrics(load_jsonl(str(chess_jsonl)))
        assert hashlib.sha256(block.encode()).hexdigest() == (
            "be5cb0fdc16dceb91357c180f7b0db8e"
            "6fb44ab36f8605e0c5721026427e89a5")


# -- (e) the stream's contract -------------------------------------------
_GOOD = ('{"args":{},"cat":"session.start","dur":0.0,"name":"p",'
         '"seq":0,"t":0.0}')


# A field of the wrong type is refused, never coerced into a number or a
# name the trace did not hold.
_WRONG_FIELDS = [_GOOD.replace(good, wrong) for good, wrong in [
    ('"seq":0', '"seq":2.7'), ('"seq":0', '"seq":true'),
    ('"t":0.0', '"t":NaN'), ('"dur":0.0', '"dur":-Infinity'),
    ('"t":0.0', '"t":1e400'), ('"t":0.0', '"t":"0.5"'),
    ('"t":0.0', '"t":true'), ('"cat":"session.start"', '"cat":5'),
    ('"name":"p"', '"name":null'), ('"t":0.0', '"t":0.0,"sid":7'),
    ('"args":{}', '"args":[]')]]


@pytest.mark.parametrize(
    "bad", ["{not json", '{"t": 0.0}', "[1, 2]"] + _WRONG_FIELDS)
def test_the_error_names_the_line_behind_blank_and_comment_lines(
        bad, tmp_path):
    text = f"# repro-trace v1 events=2 dropped=0\n\n# note\n{_GOOD}\n\n{bad}\n"
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    for parse in (lambda: events_from_jsonl(text),
                  lambda: load_jsonl(str(path))):
        with pytest.raises(ValueError, match="line 6 is not a trace event"):
            parse()
    stream = iter_jsonl(str(path))
    assert next(stream) == events_from_jsonl(_GOOD)[0]
    with pytest.raises(ValueError, match="line 6 is not a trace event"):
        next(stream)


class TestEmissionOrder:
    MESSAGE = ("sid None: seq 0 after seq 69 — not in emission order (two "
               "sessions sharing an id, or a re-sorted file)")

    def test_two_sessions_under_one_sid_are_refused(
            self, chess_jsonl, tmp_path, capsys):
        """``cat c.jsonl c.jsonl``: it used to fold into one session
        with 3 invocations (there are 2 and 6) and exit 0."""
        doubled = tmp_path / "cc.jsonl"
        doubled.write_text(chess_jsonl.read_text() * 2)
        capsys.readouterr()
        assert main(["report", "--from-jsonl", str(doubled)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: {doubled}: {self.MESSAGE}\n"
        for analyse in (build_report, reconstruct_sessions):
            with pytest.raises(ValueError) as raised:
                analyse(load_jsonl(str(doubled)))
            assert str(raised.value) == self.MESSAGE

    def test_two_swapped_lines_are_refused(self, chess_jsonl, tmp_path,
                                           capsys):
        lines = chess_jsonl.read_text().splitlines(keepends=True)
        lines[10], lines[11] = lines[11], lines[10]
        swapped = tmp_path / "swapped.jsonl"
        swapped.write_text("".join(lines))
        assert main(["report", "--from-jsonl", str(swapped)]) == 2
        assert ("sid None: seq 9 after seq 10 — not in emission order"
                in capsys.readouterr().err)

    def test_a_well_formed_trace_reports_clean(self, chess_jsonl, capsys):
        assert main(["report", "--from-jsonl", str(chess_jsonl)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["warnings"] == []
        assert report["fleet"]["invocations"]["total"] == 3


def test_a_file_shorter_than_its_header_says_is_reported_partial(
        tmp_path, capsys):
    """A JSONL cut at a line boundary (here: after the second
    ``session.end``) used to report fewer devices with no warning."""
    full = tmp_path / "fleet.jsonl"
    assert main(["fleet", "--devices", "4", "--spacing", "5", "--seed", "0",
                 "--jsonl", str(full)]) == 0
    lines = full.read_text().splitlines(keepends=True)
    assert lines[0] == "# repro-trace v1 events=112 dropped=0\n"
    assert '"cat":"session.end"' in lines[56]
    capsys.readouterr()

    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:57]))
    warning = ("trace header declares 112 events, file holds 56; every "
               "figure below is PARTIAL")
    assert main(["report", "--from-jsonl", str(cut)]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: {warning}\n"
    report = json.loads(captured.out)
    assert (report["events"], report["fleet"]["sessions"]) == (56, 2)
    assert report["warnings"] == [warning]

    # header-less: the count is unknown, not wrong
    cut.write_text("".join(lines[1:57]))
    assert main(["report", "--from-jsonl", str(cut)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["warnings"] == []

    assert main(["report", "--from-jsonl", str(full)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["events"] == 112


def test_a_reader_accepts_the_fields_a_writer_may_leave_out_or_widen():
    event = TraceEvent.from_dict(
        {"t": 1, "seq": 0, "cat": "decision", "name": "f", "sid": None})
    assert (event.t, type(event.t), event.dur, event.payload, event.sid) \
        == (1.0, float, 0.0, {}, None)


# -- (f) the codec is the stdlib's ---------------------------------------
def _stdlib_jsonl(events):
    """The reference: what ``json.dumps`` writes for each event."""
    return "\n".join(json.dumps(e.to_dict(), separators=(",", ":"),
                                sort_keys=True) for e in events)


class _Seconds(float):
    """A float subclass, which the writer's fast path leaves to the
    stdlib encoder."""


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# An int t or dur is written as an int and read back as the equal float.
_NUMBERS = (_FINITE | st.integers(min_value=-2 ** 53, max_value=2 ** 53)
            | _FINITE.map(_Seconds))
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-2 ** 70, max_value=2 ** 70),
              st.floats(allow_nan=False),
              st.sampled_from([-0.0, 5e-324, 1e308, 2 ** 63, -2 ** 64]),
              st.text(max_size=6),
              st.sampled_from(["\u2028", "caf\u00e9", "\U0001f600", "\x1c"])),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=8)
_PAYLOADS = st.dictionaries(st.text(max_size=6), _VALUES, max_size=4)
_WORDS = st.text(max_size=6) | st.sampled_from(["caf\u00e9", "\U0001f600"])


@st.composite
def _streams(draw):
    """Events whose payloads come from a small pool of shared objects
    (nested lists and dicts among them) or are their own."""
    pool = draw(st.lists(_PAYLOADS, min_size=1, max_size=3))
    return draw(st.lists(st.builds(
        TraceEvent, t=_NUMBERS, seq=st.integers(min_value=0,
                                                max_value=2 ** 40),
        category=st.sampled_from(CATEGORIES) | _WORDS, name=_WORDS,
        dur=_NUMBERS, payload=st.sampled_from(pool) | _PAYLOADS,
        sid=st.none() | _WORDS), max_size=6))


@pytest.mark.parametrize("c_encoder", [True, False],
                         ids=["c-encoder", "without-_json"])
@settings(max_examples=150, deadline=None)
@given(events=_streams(), bound=st.sampled_from([MEMO_BOUND, 1, 2]))
def test_written_lines_are_the_stdlib_encoders_and_read_back_equal(
        c_encoder, events, bound):
    """Written twice over, so every payload and word repeats after up
    to ``bound`` distinct ones have filled the memo; and once more from
    a generator whose fresh payload dicts die after each line, so their
    ids are free for the next one's.  Read back under the same bound,
    every payload text is seen twice or more, so the reader's memo
    route runs, and reads what ``from_dict`` over ``json.loads`` does."""
    stream = events * 2
    expected = _stdlib_jsonl(stream)
    with pytest.MonkeyPatch.context() as patch:
        if not c_encoder:
            patch.setattr(json.encoder, "c_make_encoder", None)
        patch.setattr(export, "MEMO_BOUND", bound)
        text = events_to_jsonl(stream)
        fresh = events_to_jsonl(dataclasses.replace(e, payload=dict(e.payload))
                                for e in stream)
        loaded = events_from_jsonl(text)
    assert text == fresh == expected
    assert loaded == stream == [TraceEvent.from_dict(json.loads(line))
                                for line in text.splitlines()]


@pytest.mark.parametrize("bad", ["{", "nul", '{"t":0} x', "[1] ]"])
def test_a_line_that_is_not_json_fails_as_json_loads_does(bad):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(bad)
    with pytest.raises(ValueError) as raised:
        events_from_jsonl(bad)
    assert str(raised.value) == (
        f"line 1 is not a trace event ({expected.value!r})")
    assert str(raised.value.__cause__) == str(expected.value)


def test_a_failed_write_leaves_nothing_behind_for_the_next(tmp_path):
    """An encode that raises leaves its dicts in the encoder's
    circular-reference markers; writing them again, mended, must not
    trip over them."""
    payload = {"nested": {"ids": {1, 2}}}
    events = [TraceEvent(t=0.5 * i, seq=i, category="decision", name="f",
                         payload=payload) for i in range(3)]
    path = tmp_path / "trace.jsonl"
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        write_jsonl(events, str(path))
    del payload["nested"]["ids"]
    assert write_jsonl(events, str(path)) == 3
    assert path.read_text() == ("# repro-trace v1 events=3 dropped=0\n"
                                + _stdlib_jsonl(events) + "\n")


def test_the_payload_memo_lives_for_one_write(tmp_path):
    """A payload shared by every event, changed between two writes:
    the second file holds the change."""
    payload = {"pages": [1, 2], "hit": True}
    events = [TraceEvent(t=0.5 * i, seq=i, category="uva.prefetch",
                         name="f", payload=payload, sid="d0")
              for i in range(3)]
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_jsonl(events, str(first))
    payload["pages"].append(3)
    payload["hit"] = False
    write_jsonl(events, str(second))
    assert [e.payload for e in load_jsonl(str(first))] == \
        [{"pages": [1, 2], "hit": True}] * 3
    assert [e.payload for e in load_jsonl(str(second))] == [payload] * 3
    assert second.read_text() == ("# repro-trace v1 events=3 dropped=0\n"
                                  + _stdlib_jsonl(events) + "\n")


class _Watched(list):
    """A JSON array that a weak reference can watch."""


def test_the_payload_memo_holds_at_most_its_bound(monkeypatch):
    """A stream of fresh payloads never hits the memo: it holds the
    last ``MEMO_BOUND`` of them at most, then starts over."""
    monkeypatch.setattr(export, "MEMO_BOUND", 4)
    watched, alive = [], []

    def events():
        for i in range(20):
            alive.append(sum(ref() is not None for ref in watched))
            value = _Watched([i])
            watched.append(weakref.ref(value))
            yield TraceEvent(t=float(i), seq=i, category="decision",
                             name="f", payload={"v": value})

    assert events_to_jsonl(events()).count("\n") == 19
    assert max(alive) == 4


# One envelope the reader refuses per field: the writer refuses it too,
# naming the event, instead of writing a line its own reader fails on.
_UNWRITABLE = {
    "t": dict(t=float("nan")), "dur": dict(dur=float("inf")),
    "seq": dict(seq=True), "category": dict(category=5),
    "name": dict(name=None), "sid": dict(sid=7), "payload": dict(payload=[]),
}


@pytest.mark.parametrize("field", sorted(_UNWRITABLE))
def test_an_envelope_the_reader_refuses_is_not_written(field, tmp_path):
    good = TraceEvent(t=0.0, seq=0, category="decision", name="f")
    bad = dataclasses.replace(good, **{"seq": 1, **_UNWRITABLE[field]})
    with pytest.raises(ValueError, match="line 1 is not a trace event"):
        events_from_jsonl(_stdlib_jsonl([bad]))
    for write in (events_to_jsonl,
                  lambda events: write_jsonl(events, str(tmp_path / "t"))):
        with pytest.raises((ValueError, TypeError),
                           match="event 1 is not a trace event"):
            write([good, bad])


def test_a_failed_write_removes_the_file_it_was_writing(tmp_path):
    """The header declares five events before the NaN at position 3 is
    reached: a file left behind would load three of them without an
    error."""
    events = [TraceEvent(t=float("nan") if i == 3 else 0.5 * i, seq=i,
                         category="decision", name="f") for i in range(5)]
    path = tmp_path / "trace.jsonl"
    path.write_text("an older trace\n")
    with pytest.raises(ValueError, match="event 3 is not a trace event"):
        write_jsonl(events, str(path))
    assert not path.exists()


def test_a_failed_write_leaves_a_path_that_is_not_a_file(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(ValueError, match="event 0 is not a trace event"):
            write_jsonl([TraceEvent(t=float("inf"), seq=0,
                                    category="decision", name="f")],
                        str(fifo))
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 100) == b"# repro-trace v1 events=1 dropped=0\n"
    finally:
        os.close(reader)


# -- (g) the reader's payload memo ---------------------------------------
_ENVELOPE = '"cat":"decision","dur":1.5,"name":"f","seq":0,"t":0.5'
_FLAT = '{"hit":true,"pages":3}'
_DEEP = 100_000


def _line(payload, envelope=_ENVELOPE, first='"args"'):
    return f"{{{first}:{payload},{envelope}}}"


def _parent_read(lines):
    """The reference: ``from_dict`` over ``json.loads``, line by line,
    or the error naming the first line that is not an event."""
    events = []
    for number, line in enumerate(lines, 1):
        try:
            events.append(TraceEvent.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            return f"line {number} is not a trace event ({exc!r})"
    return events


def _read(lines):
    try:
        return events_from_jsonl("\n".join(lines))
    except ValueError as exc:
        return str(exc)


# Each payload text is seen twice before the line that matters, so that
# line takes the memo route; the comment names the reader's check that
# the case needs.
_MEMO_CASES = {
    # the end of the payload's scan is the line's last ,"cat": — here
    # the payload's own key, the envelope's being spaced — and then a
    # truncated line holding the same text must not read as an event
    "payload-with-a-nested-cat-key":
        ['{"args":{"a":1,"cat":"x"}, ' + _ENVELOPE + '}'] * 2
        + ['{"args":{"a":1,"cat":"x","dur":1.5,"name":"g","seq":1,"t":0.5}'],
    "payload-string-holding-an-escaped-cat-key":
        [_line('{"s":"a,\\"cat\\":b","n":1}')] * 3,
    # the memo route decodes the envelope, which must hold no "args"
    "duplicate-args-after-the-envelope":
        [_line(_FLAT)] * 2 + [_line(_FLAT, _ENVELOPE + ',"args":{"b":2}')],
    # the scan of the payload ends at the first "cat", not the last
    "duplicate-cat-among-the-envelope":
        [_line(_FLAT, '"cat":"x","dur":1.5,"cat":"y","name":"f",'
                      '"seq":0,"t":0.5')] * 3,
    "duplicate-dur-after-the-envelope":
        [_line(_FLAT, _ENVELOPE + ',"dur":2.5')] * 3,
    "duplicate-sid-after-the-envelope":
        [_line(_FLAT, _ENVELOPE + ',"sid":"d0","sid":"d1"')] * 3,
    # a payload that does not start at column 8 is not scanned there
    "spaces-after-colons":
        ['{"args": {"a": 1},"cat": "decision","dur": 1.5,"name": "f",'
         '"seq": 0,"t": 0.5}'] * 3,
    "spaces-after-commas":
        ['{"args":{"a":1}, "cat":"decision", "dur":1.5, "name":"f", '
         '"seq":0, "t":0.5}'] * 3,
    "unsorted-keys":
        ['{"t":0.5,"seq":0,"name":"f","dur":1.5,"cat":"decision",'
         '"args":{"a":1}}'] * 3,
    # only a line that starts {"args": holds its payload at column 8
    "args-not-first":
        [_line(_FLAT)] * 2 + [_line(_FLAT, first='"xtra"')]
        + [_line(_FLAT, _ENVELOPE + ',"args":{}', first='"xtra"')],
    # a payload that is not an object is never held
    "args-as-a-list":
        [_line("[1,2]", first='"xtra"')] * 2 + [_line("[1,2]")],
    # an envelope the memo route cannot decode is decoded whole, so the
    # error's column is the line's
    "truncated-envelope": [_line(_FLAT)] * 2 + [_line(_FLAT)[:-4]],
    "t-as-a-string":
        [_line(_FLAT)] * 2
        + [_line(_FLAT, _ENVELOPE.replace('"t":0.5', '"t":"0.5"'))],
    "deeply-nested-envelope":
        [_line(_FLAT)] * 2
        + [_line(_FLAT, _ENVELOPE.replace(
            '"name":"f"', '"name":' + "[" * _DEEP + "]" * _DEEP))],
}


@pytest.mark.parametrize("lines", _MEMO_CASES.values(), ids=_MEMO_CASES)
def test_a_line_read_through_the_memo_reads_as_json_loads_does(lines):
    assert _read(lines) == _parent_read(lines)


def test_a_deeply_nested_line_is_a_line_numbered_error(tmp_path, capsys):
    """A RecursionError from the C scanner used to escape as a
    traceback (exit 1) where every other bad line exits 2."""
    deep = _line("[" * _DEEP + "]" * _DEEP)
    with pytest.raises(RecursionError) as expected:
        json.loads(deep)
    message = f"line 2 is not a trace event ({expected.value!r})"
    with pytest.raises(ValueError) as raised:
        events_from_jsonl(f"{_line(_FLAT)}\n{deep}")
    assert str(raised.value) == message

    path = tmp_path / "deep.jsonl"
    path.write_text(f"# repro-trace v1 events=1 dropped=0\n{deep}\n")
    capsys.readouterr()
    assert main(["report", "--from-jsonl", str(path),
                 "--json", str(tmp_path / "report.json")]) == 2
    assert capsys.readouterr().err == f"repro: error: {path}: {message}\n"


def test_each_loaded_event_owns_its_payload(chess_jsonl):
    flat = events_from_jsonl("\n".join([_line(_FLAT)] * 4))
    flat[1].payload["pages"] = 4
    flat[2].payload.clear()
    assert flat[3].payload == {"hit": True, "pages": 3}

    start = next(line for line in chess_jsonl.read_text().splitlines()
                 if '"cat":"session.start"' in line)
    starts = events_from_jsonl("\n".join([start] * 4))
    assert starts[1].payload["targets"]
    starts[1].payload["targets"].append("extra")
    starts[2].payload["targets"].clear()
    assert starts[3].payload == json.loads(start)["args"]


def test_the_reader_memo_holds_at_most_its_bound(monkeypatch):
    """Texts that repeat, then fresh ones: the parser's memo starts over
    each time it would pass the bound."""
    monkeypatch.setattr(export, "MEMO_BOUND", 4)
    lines = ([_line(f'{{"i":{i % 3}}}') for i in range(12)]
             + [_line(f'{{"i":{i}}}') for i in range(20)])
    parser = export._parse_lines(lines)
    sizes, events = [], []
    for event in parser:
        sizes.append(len(parser.gi_frame.f_locals["memo"]))
        events.append(event)
    assert max(sizes) == 4
    assert events == _parent_read(lines)

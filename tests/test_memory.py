"""Tests for the paged address space: mapping, dirty tracking, fault
hooks, and byte-level round trips (hypothesis)."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_c
from repro.machine import AddressSpace, SegmentationFault, boot
from repro.machine.memory import PageViews
from repro.targets import MIPS32BE


class TestBasicAccess:
    def test_roundtrip_within_page(self):
        mem = AddressSpace(page_size=4096)
        mem.map_page(1)
        mem.write(4096 + 100, b"hello")
        assert mem.read(4096 + 100, 5) == b"hello"

    def test_cross_page_write_and_read(self):
        mem = AddressSpace(page_size=256)
        mem.map_page(0)
        mem.map_page(1)
        data = bytes(range(100))
        mem.write(200, data)  # spans pages 0 and 1
        assert mem.read(200, 100) == data

    def test_unmapped_read_faults(self):
        mem = AddressSpace()
        with pytest.raises(SegmentationFault) as err:
            mem.read(0x1000, 4)
        assert err.value.address == 0x1000

    def test_unmapped_write_faults(self):
        mem = AddressSpace()
        with pytest.raises(SegmentationFault):
            mem.write(0x2000, b"xy")

    def test_page_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            AddressSpace(page_size=1000)

    def test_cstring(self):
        mem = AddressSpace()
        mem.map_page(0)
        mem.write(10, b"native\x00junk")
        assert mem.read_cstring(10) == b"native"

    def test_unterminated_cstring_raises(self):
        mem = AddressSpace(page_size=256)
        mem.map_page(0)
        mem.write(0, b"\x01" * 256)
        with pytest.raises((ValueError, SegmentationFault)):
            mem.read_cstring(0)


class TestDirtyTracking:
    def test_writes_mark_dirty(self):
        mem = AddressSpace(page_size=256)
        mem.map_page(3)
        assert mem.dirty_pages() == []
        mem.write(3 * 256 + 5, b"x")
        assert mem.dirty_pages() == [3]

    def test_reads_do_not_mark_dirty(self):
        mem = AddressSpace(page_size=256)
        mem.map_page(2)
        mem.read(512, 10)
        assert mem.dirty_pages() == []

    def test_collect_clears(self):
        mem = AddressSpace(page_size=256)
        mem.map_page(0)
        mem.write(0, b"abc")
        snapshot = mem.collect_dirty_pages()
        assert list(snapshot) == [0]
        assert snapshot[0][:3] == b"abc"
        assert mem.dirty_pages() == []

    def test_cross_page_write_dirties_both(self):
        mem = AddressSpace(page_size=256)
        mem.map_page(0)
        mem.map_page(1)
        mem.write(250, b"0123456789")
        assert mem.dirty_pages() == [0, 1]

    def test_install_pages(self):
        mem = AddressSpace(page_size=256)
        mem.install_pages({5: b"\xAA" * 256}, mark_dirty=True)
        assert mem.read(5 * 256, 1) == b"\xAA"
        assert 5 in mem.dirty


class TestSubPageTracking:
    """Block-granular dirty masks and touched-page sets feeding the
    incremental UVA data plane (docs/uva-data-plane.md)."""

    def make(self, page_size=256):
        mem = AddressSpace(page_size=page_size)
        mem.track_subpage = True
        mem.map_page(0)
        return mem

    def test_untracked_by_default(self):
        mem = AddressSpace(page_size=256)
        mem.map_page(0)
        mem.write(0, b"x")
        assert mem.dirty_blocks == {}

    def test_write_sets_covering_block_bits(self):
        mem = self.make()
        mem.write(0, b"x")                        # block 0
        mem.write(mem.block_size, b"yz")          # block 1
        assert mem.dirty_blocks[0] == 0b11

    def test_spanning_write_sets_a_run_of_bits(self):
        mem = self.make()
        mem.write(mem.block_size - 1, b"ab")      # straddles blocks 0-1
        assert mem.dirty_blocks[0] == 0b11

    def test_cross_page_write_masks_both_pages(self):
        mem = self.make()
        mem.map_page(1)
        mem.write(256 - 2, b"0123")
        assert mem.dirty_blocks[0] & (1 << (mem.blocks_per_page - 1))
        assert mem.dirty_blocks[1] & 1

    def test_collect_dirty_clears_masks(self):
        mem = self.make()
        mem.write(0, b"x")
        mem.collect_dirty_pages()
        assert mem.dirty_blocks == {}

    def test_full_block_mask_covers_page(self):
        mem = self.make()
        mem.write(0, b"\xff" * 256)
        assert mem.dirty_blocks[0] == mem.full_block_mask

    def test_touched_records_reads_and_writes(self):
        mem = self.make()
        mem.map_page(2)
        mem.touched = set()
        mem.read(0, 4)
        mem.write(2 * 256, b"w")
        assert mem.touched == {0, 2}
        mem.touched = None                        # uninstall: no tracking
        mem.read(0, 4)

    def test_apply_delta_patches_in_place(self):
        mem = self.make()
        mem.write(0, bytes(range(256)))
        mem.collect_dirty_pages()
        mem.apply_delta(0, [(10, b"\x00\x00"), (100, b"\xff")],
                        mark_dirty=True)
        expect = bytearray(range(256))
        expect[10:12] = b"\x00\x00"
        expect[100] = 0xff
        assert mem.read(0, 256) == bytes(expect)
        assert 0 in mem.dirty

    def test_apply_delta_to_unmapped_page_faults(self):
        mem = self.make()
        with pytest.raises(SegmentationFault):
            mem.apply_delta(9, [(0, b"x")])


class TestFaultHandler:
    def test_handler_resolves_fault(self):
        mem = AddressSpace(page_size=256)
        fetched = []

        def handler(pidx):
            fetched.append(pidx)
            mem.map_page(pidx, b"\x42" * 256)
            return True

        mem.fault_handler = handler
        assert mem.read(10 * 256 + 3, 1) == b"\x42"
        assert fetched == [10]
        assert mem.fault_count == 1

    def test_handler_refusal_still_faults(self):
        mem = AddressSpace(page_size=256)
        mem.fault_handler = lambda pidx: False
        with pytest.raises(SegmentationFault):
            mem.read(999, 1)

    def test_mapped_pages_skip_handler(self):
        calls = []
        mem = AddressSpace(page_size=256)
        mem.fault_handler = lambda p: calls.append(p) or False
        mem.map_page(0)
        mem.read(0, 4)
        assert calls == []

    def test_unmap(self):
        mem = AddressSpace(page_size=256)
        mem.map_page(0)
        mem.write(0, b"x")
        mem.unmap_page(0)
        assert not mem.is_mapped(0)
        assert mem.dirty_pages() == []


def _snapshot(mem):
    return (mem.fault_count, set(mem.dirty), dict(mem.dirty_blocks),
            None if mem.touched is None else set(mem.touched),
            sorted(mem.pages))


class TestZeroLengthAccess:
    """A zero-length access touches nothing: no fault, no fault handler
    call, no dirty page or block, no touched page."""

    def make(self):
        mem = AddressSpace(page_size=256)
        mem.track_subpage = True
        mem.touched = set()
        mem.map_page(1)
        return mem

    @pytest.mark.parametrize("address", [0, 256, 300, 511, 512, 10_000])
    def test_read_and_write_are_no_ops(self, address):
        mem = self.make()
        calls = []
        mem.fault_handler = lambda pidx: calls.append(pidx) or False
        before = _snapshot(mem)
        assert mem.read(address, 0) == b""
        mem.write(address, b"")
        assert _snapshot(mem) == before
        assert calls == []

    def test_read_past_a_page_aligned_buffer_pulls_nothing_in(self):
        # Copy-on-demand must not fetch the page after the buffer.
        mem = self.make()
        mem.fault_handler = lambda pidx: bool(mem.map_page(pidx)) or True
        assert mem.read(512, 0) == b""
        assert mem.fault_count == 0 and not mem.is_mapped(512)


class TestCString:
    """read_cstring scans a page at a time and behaves as one read(addr, 1)
    per byte would."""

    def make(self, pages=(0, 1, 2)):
        mem = AddressSpace(page_size=256)
        for pidx in pages:
            mem.map_page(pidx)
        mem.touched = set()
        return mem

    @pytest.mark.parametrize("start,length", [
        (250, 20),      # straddles two pages
        (200, 400),     # straddles three pages
        (100, 155),     # NUL is the last byte of page 0
        (100, 156),     # NUL is the first byte of page 1
        (255, 0),       # empty string at the last byte of a page
    ])
    def test_straddling_strings(self, start, length):
        mem = self.make()
        text = bytes(1 + i % 255 for i in range(length))
        mem.write(start, text + b"\x00tail")
        mem.touched = set()
        assert mem.read_cstring(start) == text
        assert mem.touched == set(range(start // 256,
                                        (start + length) // 256 + 1))
        assert mem.fault_count == 0

    def test_unterminated_into_unmapped_faults_at_the_first_unmapped_byte(
            self):
        mem = self.make(pages=(0, 1))
        mem.write(300, b"\x01" * 212)
        with pytest.raises(SegmentationFault) as err:
            mem.read_cstring(300)
        assert (err.value.address, err.value.size) == (512, 1)
        assert str(err.value) == "segmentation fault at 0x200 (size 1)"
        assert mem.fault_count == 1 and mem.touched == {1}

    def test_unmapped_start_faults_at_the_start(self):
        mem = self.make(pages=())
        with pytest.raises(SegmentationFault) as err:
            mem.read_cstring(777)
        assert (err.value.address, err.value.size) == (777, 1)

    def test_handler_mapped_page_mid_string(self):
        mem = self.make(pages=(0,))
        mem.write(0, b"a" * 256)
        fetched = []

        def handler(pidx):
            fetched.append(pidx)
            mem.map_page(pidx, b"b" * 10 + b"\x00" * 246)
            return True

        mem.fault_handler = handler
        assert mem.read_cstring(250) == b"a" * 6 + b"b" * 10
        assert fetched == [1] and mem.fault_count == 1
        assert mem.touched == {0, 1}

    @pytest.mark.parametrize("length,limit,ok", [
        (9, 10, True), (10, 10, False), (300, 300, False), (299, 300, True)])
    def test_limit_counts_the_bytes_before_the_nul(self, length, limit, ok):
        mem = self.make()
        mem.write(5, b"x" * length + b"\x00")
        if ok:
            assert mem.read_cstring(5, limit=limit) == b"x" * length
        else:
            with pytest.raises(ValueError, match="unterminated string at 0x5"):
                mem.read_cstring(5, limit=limit)

    def test_limit_stops_before_an_unmapped_page(self):
        # The byte-at-a-time scan never read byte ``limit``, so it never
        # faulted on the page holding it.
        mem = self.make(pages=(0,))
        mem.write(0, b"y" * 256)
        with pytest.raises(ValueError):
            mem.read_cstring(0, limit=256)
        assert mem.fault_count == 0


# -- hypothesis round trips -------------------------------------------------

@given(st.integers(min_value=0, max_value=2**20),
       st.binary(min_size=1, max_size=600))
@settings(max_examples=150, deadline=None)
def test_write_read_roundtrip(address, data):
    mem = AddressSpace(page_size=256)
    first = address // 256
    last = (address + len(data) - 1) // 256
    for pidx in range(first, last + 1):
        mem.map_page(pidx)
    mem.write(address, data)
    assert mem.read(address, len(data)) == data


@given(st.lists(st.tuples(st.integers(0, 4000),
                          st.binary(min_size=1, max_size=64)),
                min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_overlapping_writes_behave_like_a_flat_buffer(writes):
    """The paged memory is observationally identical to one big buffer."""
    mem = AddressSpace(page_size=256)
    for pidx in range(0, 4096 // 256 + 2):
        mem.map_page(pidx)
    reference = bytearray(8192)
    for address, data in writes:
        mem.write(address, data)
        reference[address:address + len(data)] = data
    assert mem.read(0, 4500) == bytes(reference[:4500])


class TestRecordOnce:
    """``loadable`` and ``storable`` answer the accesses whose
    bookkeeping is already done; every event that makes an answer untrue
    forgets it, and nothing outside the space can change what it
    recorded."""

    def make(self):
        mem = AddressSpace(page_size=256)       # two 128-byte blocks a page
        mem.map_page(0)
        mem.map_page(1)
        return mem

    def test_what_is_recorded_is_read_only(self):
        mem = self.make()
        mem.track_subpage = True
        mem.write(0, b"x")
        with pytest.raises(AttributeError):
            mem.dirty.discard(0)
        with pytest.raises(TypeError):
            mem.dirty_blocks[0] = 0
        with pytest.raises(AttributeError):
            mem.dirty = set()
        assert mem.dirty == {0} and mem.dirty_blocks == {0: 1}

    def test_accesses_enter_the_maps(self):
        mem = self.make()
        assert mem.loadable(0) is None and mem.storable(0) is None
        mem.read(10, 4)
        assert mem.loadable(0).u8 is mem.pages[0] and mem.storable(0) is None
        mem.write(130, b"abcd")                 # block 1 of page 0
        assert mem.storable(1).u8 is mem.pages[0] and mem.storable(0) is None
        mem.write(256 + 126, b"abcd")           # crosses a block: no entry
        assert mem.loadable(1).u8 is mem.pages[1]
        assert mem.storable(2) is None and mem.storable(3) is None

    def test_touched_forgets_unless_a_superset(self):
        mem = self.make()
        mem.touched = set()
        mem.write(0, b"a")
        mem.read(256, 1)
        outer = {0, 1, 7}
        mem.touched = outer                     # a profiler scope's pop
        assert mem.loadable(0) is not None and mem.storable(0) is not None
        mem.touched = None                      # nothing recorded: still true
        assert mem.loadable(1) is not None
        mem.touched = {0}                       # lacks page 1
        assert mem.loadable(0) is None and mem.storable(0) is None

    def test_track_subpage_on_forgets_stores(self):
        mem = self.make()
        mem.write(0, b"a")
        mem.track_subpage = False
        assert mem.storable(0) is not None
        mem.track_subpage = True
        assert mem.storable(0) is None and mem.loadable(0) is not None
        mem.write(0, b"a")
        mem.track_subpage = False
        assert mem.storable(0) is not None

    def test_mark_clean_forgets_the_page_only(self):
        mem = self.make()
        mem.track_subpage = True
        mem.write(0, b"a")
        mem.write(128, b"b")
        mem.write(256, b"c")
        mem.mark_clean(0)
        assert mem.dirty == {1} and mem.dirty_blocks == {1: 1}
        assert mem.storable(0) is None and mem.storable(1) is None
        assert mem.storable(2).u8 is mem.pages[1]
        assert mem.loadable(0).u8 is mem.pages[0]
        assert mem.read(0, 1) == b"a"           # the content stays
        mem.mark_clean(5)                       # neither mapped nor dirty

    def test_write_back_forgets_stores(self):
        for write_back in (AddressSpace.clear_dirty,
                           AddressSpace.collect_dirty_pages):
            mem = self.make()
            mem.write(0, b"a")
            write_back(mem)
            assert mem.storable(0) is None and mem.loadable(0) is not None

    def test_unmap_forgets_both(self):
        mem = self.make()
        mem.write(0, b"a")
        mem.unmap_page(0)
        assert mem.loadable(0) is None and mem.storable(0) is None
        mem.map_page(0)
        assert mem.loadable(0) is None

    def test_refill_in_place_keeps_entries(self):
        mem = self.make()
        mem.write(0, b"a")
        page = mem.pages[0]
        mem.map_page(0, b"\x01" * 256)
        mem.install_pages({0: b"\x02" * 256}, mark_dirty=True)
        mem.apply_delta(0, [(0, b"\x03")])
        assert mem.pages[0] is page
        assert mem.storable(0).u8 is page and mem.loadable(0).u8 is page

    def test_a_big_endian_space_hands_out_typed_views_of_the_page(self):
        mem = boot(compile_c("int main(void) { return 0; }"),
                   MIPS32BE).memory
        mem.map_page(0)
        mem.map_page(1)
        mem.write(8, struct.pack("=I", 0x01020304))
        views = mem.storable(0)
        assert type(views) is PageViews and mem.loadable(0) is views
        assert views.u8 is mem.pages[0] and views.u32[2] == 0x01020304
        mem.read(mem.page_size, 8)              # one PageViews a page
        assert mem.loadable(1).u8 is mem.pages[1]
        mem.map_page(0, b"\x02" * mem.page_size)  # refilled in place
        mem.apply_delta(0, [(16, struct.pack("=d", 1.5))])
        assert views.u64[0] == 0x0202020202020202 and views.f64[2] == 1.5
        mem.unmap_page(0)
        mem.map_page(0)
        mem.read(0, 1)                          # a new page, new views
        assert mem.loadable(0) is not views and mem.loadable(0).u64[0] == 0

    def test_a_page_holds_an_8_byte_item(self):
        with pytest.raises(ValueError):
            AddressSpace(page_size=4)
        assert AddressSpace(page_size=8).page_size == 8


class TestScopes:
    """A scope records into a set of its own; the entries of pages its
    opener knows stay, the rest are set aside and come back at the close
    unless something made entries untrue in between."""

    def make(self):
        mem = AddressSpace(page_size=256)       # two 128-byte blocks a page
        for pidx in (0, 1, 2):
            mem.map_page(pidx)
        mem.write(0, b"a")                      # page 0, block 0
        mem.write(256 + 130, b"b")              # page 1, block 3
        mem.read(512, 1)                        # page 2
        return mem

    @staticmethod
    def entries(mem):
        return sorted(mem._loadable), sorted(mem._storable)

    def test_entries_set_aside_come_back_on_close(self):
        mem = self.make()
        before = self.entries(mem)
        scope = mem.open_scope(set())
        assert self.entries(mem) == ([], []) and mem.touched == set()
        mem.map_page(0, b"\x01" * 256)          # refilled in place
        mem.track_subpage = False               # already off
        assert mem.close_scope(scope) == set()
        assert self.entries(mem) == before and mem.touched is None
        assert mem.storable(3).u8 is mem.pages[1]

    @pytest.mark.parametrize("event", [
        lambda mem: mem.unmap_page(2),
        lambda mem: mem.mark_clean(1),
        AddressSpace.clear_dirty,
        AddressSpace.collect_dirty_pages,
        lambda mem: setattr(mem, "track_subpage", True),
    ], ids=["unmap_page", "mark_clean", "clear_dirty", "collect_dirty_pages",
            "track_subpage-on"])
    def test_entries_do_not_come_back_after_an_event_that_untrues_them(
            self, event):
        mem = self.make()
        scope = mem.open_scope(set())
        event(mem)
        mem.close_scope(scope)
        assert self.entries(mem) == ([], [])

    def test_a_known_page_stays_loadable(self):
        mem = self.make()
        scope = mem.open_scope({0, 7})
        assert self.entries(mem) == ([0], [0])
        assert mem.loadable(0).u8 is mem.pages[0]
        mem.read(256, 1)                        # a miss is recorded
        assert mem.touched == {1}
        assert mem.close_scope(scope) == {1}
        assert self.entries(mem) == ([0, 1, 2], [0, 3])

    def test_nested_scopes_close_to_the_set_each_replaced(self):
        mem = self.make()
        outer = mem.open_scope(set())
        mem.read(0, 1)
        inner = mem.open_scope({0})
        mem.read(256, 1)
        assert mem.touched == {1}
        assert mem.close_scope(inner) == {1}
        assert mem.touched == {0, 1}
        assert mem.close_scope(outer) == {0, 1}
        assert mem.touched is None
        assert self.entries(mem) == ([0, 1, 2], [0, 3])
        mine = mem.touched = {9}                # an installed outer set
        scope = mem.open_scope(set())
        mem.write(512, b"c")
        mem.close_scope(scope)
        assert mem.touched is mine and mine == {2, 9}

    def test_recording_switched_off_inside_a_scope_forgets_on_close(self):
        mem = self.make()
        mine = mem.touched = {0, 1}
        scope = mem.open_scope(set())
        mem.touched = None
        mem.read(768 - 1, 1)                    # page 2: recorded nowhere
        assert mem.close_scope(scope) == set()
        assert mem.touched is mine and self.entries(mem) == ([], [])

    @pytest.mark.parametrize("known", [set(), {0}])
    def test_a_store_after_a_write_back_in_a_scope_marks_dirty_again(
            self, known):
        mem = self.make()
        scope = mem.open_scope(known)
        assert mem.collect_dirty_pages().keys() == {0, 1}
        mem.close_scope(scope)
        assert mem.storable(0) is None and mem.storable(3) is None
        mem.write(1, b"z")
        assert mem.dirty == {0} and mem.storable(0) is not None


def _twins(track_subpage=True):
    """Two equal spaces of 256-byte pages, 0..3 mapped with distinct
    bytes, ``touched`` recording, and entries made by a few accesses."""
    spaces = []
    for _ in range(2):
        mem = AddressSpace(page_size=256)
        mem.track_subpage = track_subpage
        mem.touched = set()
        for pidx in range(4):
            mem.map_page(pidx, bytes((pidx * 37 + i) & 0xFF
                                     for i in range(256)))
        mem.read(4, 4)
        mem.write(256 + 8, b"ab")
        mem.write(512 + 200, b"cd")
        mem.read(768 + 100, 1)
        spaces.append(mem)
    return spaces


def _recorded(mem):
    return ({pidx: bytes(page) for pidx, page in mem.pages.items()},
            list(mem.dirty), dict(mem.dirty_blocks), set(mem.touched),
            mem.fault_count, sorted(mem._loadable), sorted(mem._storable))


def _copy_both(ours, theirs, dst, src, size):
    """``copy`` on ``ours``, ``write(read())`` on ``theirs``: the same
    outcome and the same record."""
    def outcome(action):
        try:
            action()
        except SegmentationFault as fault:
            return ("fault", fault.address, fault.size)
        return None

    assert (outcome(lambda: ours.copy(dst, src, size)) ==
            outcome(lambda: theirs.write(dst, theirs.read(src, size))))
    assert _recorded(ours) == _recorded(theirs)


class TestCopy:
    """``copy`` is ``write(dst, read(src, n))``: it leaves what that
    leaves, and moves bytes itself only where both are already
    recorded."""

    @staticmethod
    def counting(mem):
        calls = []
        read, write = mem.read, mem.write
        mem.read = lambda *a: calls.append("read") or read(*a)
        mem.write = lambda *a: calls.append("write") or write(*a)
        return calls

    @given(st.lists(st.tuples(st.integers(0, 1023), st.integers(0, 1023),
                              st.integers(0, 300)),
                    min_size=1, max_size=12),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_random_copies_match_write_of_read(self, copies, subpage):
        ours, theirs = _twins(subpage)
        for dst, src, size in copies:
            size = min(size, 1024 - max(dst, src))
            _copy_both(ours, theirs, dst, src, size)

    def test_overlap_within_a_page_is_a_memmove(self):
        ours, theirs = _twins()
        calls = self.counting(ours)
        expected = bytearray(ours.pages[1])
        expected[10:40] = expected[0:30]
        _copy_both(ours, theirs, 256 + 10, 256, 30)
        assert calls == [] and bytes(ours.pages[1]) == bytes(expected)
        _copy_both(ours, theirs, 256, 256 + 10, 30)   # backwards too
        assert calls == []

    @pytest.mark.parametrize("dst,src,size", [
        (256 + 120, 4, 16),                     # destination crosses a block
        (256 + 8, 250, 12),                     # source crosses a page
        (200, 600, 100),                        # both cross
    ])
    def test_a_copy_across_a_boundary_reads_and_writes(self, dst, src, size):
        ours, theirs = _twins()
        calls = self.counting(ours)
        _copy_both(ours, theirs, dst, src, size)
        assert calls[0] == "read" and "write" in calls

    @pytest.mark.parametrize("address", [0, 300, 4096])
    def test_zero_bytes_touch_nothing(self, address):
        ours, theirs = _twins()
        calls = []
        for mem in (ours, theirs):
            mem.fault_handler = lambda pidx: calls.append(pidx) or False
        _copy_both(ours, theirs, address, address + 17, 0)
        assert calls == []

    def test_a_clean_destination_block_is_dirtied(self):
        ours, theirs = _twins()
        assert ours.storable(6) is None         # page 3: read, not written
        _copy_both(ours, theirs, 768 + 4, 8, 16)
        assert 3 in ours.dirty and ours.storable(6) is not None
        calls = self.counting(ours)
        _copy_both(ours, theirs, 768 + 40, 8, 16)   # now in place
        assert calls == []

    def test_an_unmapped_source_faults_first(self):
        ours, theirs = _twins()
        faults = {id(ours): [], id(theirs): []}
        for mem in (ours, theirs):
            mem.fault_handler = (lambda mem: lambda pidx: faults[
                id(mem)].append(pidx) or bool(mem.map_page(pidx)))(mem)
        _copy_both(ours, theirs, 9 * 256 + 4, 8 * 256 + 4, 32)
        assert faults[id(ours)] == faults[id(theirs)] == [8, 9]
        for mem in (ours, theirs):
            mem.fault_handler = None
        _copy_both(ours, theirs, 8, 12 * 256, 4)      # refused: no handler
        assert ours.fault_count == 3

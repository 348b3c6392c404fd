"""Paged virtual memory with fault hooks and dirty tracking.

This is the substrate under the Native Offloader runtime's UVA manager
(paper, Section 4): page-granular mapping, a hookable page-fault path (used
for copy-on-demand), and per-page dirty bits (used for write-back at
finalization).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (AbstractSet, Callable, Dict, Iterable, KeysView, List,
                    Mapping, Optional, Set, Tuple)

DEFAULT_PAGE_SIZE = 4096

# Sub-page dirty tracking granularity (docs/uva-data-plane.md).  One bit
# of a page's dirty-block mask covers this many bytes; the UVA manager
# encodes write-back deltas as runs of dirty blocks.
SUBPAGE_BLOCK_BYTES = 128


class SegmentationFault(Exception):
    """Access to an unmapped address that no fault handler resolved."""

    def __init__(self, address: int, size: int = 1):
        super().__init__(f"segmentation fault at {address:#x} (size {size})")
        self.address = address
        self.size = size


FaultHandler = Callable[[int], bool]  # page_index -> handled?


class PageViews:
    """One page as generated code indexes it, in the host's byte order:
    ``u8`` is the page itself and ``u16`` ... ``f64`` are its
    ``memoryview.cast`` views, so ``p.u32[offset >> 2]`` is the aligned
    ``uint32_t`` at ``offset``.  The views reference the page and nothing
    references them but this object, so dropping a space frees its pages
    by reference counting alone.  A space makes one on a page's first
    ``read`` or ``write``, all five views at once: making each on its
    first use needs a ``__getattr__``, which stops CPython 3.11 from
    specializing ``p.u32`` in generated code."""

    __slots__ = ("u8", "u16", "u32", "u64", "f32", "f64")

    def __init__(self, page: bytearray):
        self.u8 = page
        whole = memoryview(page)
        self.u16, self.u32, self.u64 = (whole.cast("H"), whole.cast("I"),
                                        whole.cast("Q"))
        self.f32, self.f64 = whole.cast("f"), whole.cast("d")


class _ViewsOf(dict):
    """Page index -> the ``PageViews`` of that mapped page, made on the
    first lookup."""

    __slots__ = ("pages",)

    def __init__(self, pages: Dict[int, bytearray]):
        super().__init__()
        self.pages = pages

    def __missing__(self, page_index: int) -> PageViews:
        views = self[page_index] = PageViews(self.pages[page_index])
        return views


class AddressSpace:
    """A byte-addressable virtual address space backed by pages.

    Pages are created on :meth:`map_page` (or by a fault handler).  Writes
    set a dirty bit; :meth:`collect_dirty_pages` snapshots and clears them,
    which is exactly the write-back step of the offload life cycle.

    What is recorded — ``dirty``, ``dirty_blocks`` and ``touched`` — is
    recorded once per page or block, not once per access: ``loadable``
    and ``storable`` look up the accesses whose bookkeeping is already
    done, and only this class changes what was recorded, so only it
    decides when such an entry stops being true (docs/architecture.md,
    "The memory path").  They hand out a page's ``PageViews``.  A scope
    (:meth:`open_scope` / :meth:`close_scope`) records into a set of its
    own and keeps the entries its caller says need no recording.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page size must be a positive power of two")
        if page_size < 8:  # a ``PageViews`` casts the page to 8-byte items
            raise ValueError("page size must be at least 8")
        self.page_size = page_size
        self.pages: Dict[int, bytearray] = {}
        # An insertion-ordered set; read through ``dirty``.
        self._dirty: Dict[int, None] = {}
        self.fault_handler: Optional[FaultHandler] = None
        self.fault_count = 0
        # Sub-page dirty-block masks (bit i covers bytes
        # [i*block_size, (i+1)*block_size) of the page).  Off by default;
        # the UVA manager enables it on the server space so write-back
        # can ship deltas instead of whole pages.
        self._track_subpage = False
        self.block_size = min(SUBPAGE_BLOCK_BYTES, page_size)
        self.blocks_per_page = self.page_size // self.block_size
        self._dirty_blocks: Dict[int, int] = {}
        self.block_shift = self.block_size.bit_length() - 1
        # block index >> this = its page index
        self._blocks_shift = self.blocks_per_page.bit_length() - 1
        # Optional touched-page recording (reads and writes).  None means
        # no tracking.  The UVA manager installs a set for the duration of
        # one offloaded invocation to drive adaptive prefetch; the
        # profiler opens a scope per live function or loop activation.
        # They never own the same space: the profiler runs on
        # ``run_local``'s machine, UVA on a session's server.
        self._touched: Optional[Set[int]] = None
        # What the maps below hold for a page: its views.
        self._views = _ViewsOf(self.pages)
        # Page index -> views: the page is mapped to the bytearray they
        # view and, with a ``touched`` set installed, in it or in the
        # ``known`` set of the scope that kept the entry.
        self._loadable: Dict[int, PageViews] = {}
        # Dirty-block index (address >> block_shift) -> views: the page is
        # loadable and dirty and, with ``track_subpage`` on, the block's
        # bit is set in its mask.  Every page here is in ``_loadable``.
        self._storable: Dict[int, PageViews] = {}
        # Generated code binds these; the maps are emptied and trimmed in
        # place, never replaced.
        self.loadable = self._loadable.get
        self.storable = self._storable.get
        # Grows whenever entries stop being true for a reason other than
        # their page leaving ``touched``: a scope puts back the entries
        # it set aside only while this is what it was at the open.
        self._generation = 0
        self._dirty_view = self._dirty.keys()
        self._dirty_blocks_view = MappingProxyType(self._dirty_blocks)

    # -- what is recorded (read-only outside this class) ----------------
    @property
    def dirty(self) -> KeysView:
        """The dirty pages: a live, read-only set view."""
        return self._dirty_view

    @property
    def dirty_blocks(self) -> Mapping[int, int]:
        """Dirty page -> its dirty-block mask: a live, read-only view."""
        return self._dirty_blocks_view

    @property
    def touched(self) -> Optional[Set[int]]:
        return self._touched

    @touched.setter
    def touched(self, pages: Optional[Set[int]]) -> None:
        # A set that lacks a loadable page would miss it: forget them all.
        # A superset keeps them.
        if pages is not None and not pages.issuperset(self._loadable):
            self._loadable.clear()
            self._storable.clear()
        self._touched = pages

    # -- scopes ---------------------------------------------------------
    def open_scope(self, known: AbstractSet[int]) -> tuple:
        """Install an empty ``touched`` set until :meth:`close_scope` is
        given what this returns; scopes nest.  The entries of pages in
        ``known`` stay: the caller credits what the scope touches to a
        set that holds them already, so the scope need not record them
        (the profiler passes its candidate's ``pages_touched``).  Every
        other entry is set aside."""
        loadable, storable = self._loadable, self._storable
        pages = {pidx: views for pidx, views in loadable.items()
                 if pidx not in known}
        blocks = {}
        if pages:
            for pidx in pages:
                del loadable[pidx]
            shift = self._blocks_shift
            blocks = {block: views for block, views in storable.items()
                      if block >> shift in pages}
            for block in blocks:
                del storable[block]
        scope = (self._touched, pages, blocks, self._generation)
        self._touched = set()
        return scope

    def close_scope(self, scope: tuple) -> Set[int]:
        """End ``scope``: union the pages it touched into the set it
        replaced, reinstall that set and put back the entries the open
        set aside, unless something made entries untrue in between
        (``unmap_page``, ``mark_clean``, a write-back, ``track_subpage``
        turned on).  Returns the scope's pages."""
        outer, pages, blocks, generation = scope
        touched = self._touched
        if touched is None:  # recording was switched off inside the scope
            self.touched = outer  # which forgets the entries it lacks
            return set()
        if outer is not None:
            outer |= touched
        self._touched = outer
        if generation == self._generation:
            self._loadable.update(pages)
            self._storable.update(blocks)
        return touched

    @property
    def track_subpage(self) -> bool:
        return self._track_subpage

    @track_subpage.setter
    def track_subpage(self, on: bool) -> None:
        if on and not self._track_subpage:
            self._storable.clear()  # no entry had its block bit set
            self._generation += 1
        self._track_subpage = on

    # -- page management ----------------------------------------------------
    def page_index(self, address: int) -> int:
        return address // self.page_size

    def is_mapped(self, address: int) -> bool:
        return self.page_index(address) in self.pages

    def map_page(self, page_index: int,
                 data: Optional[bytes] = None) -> bytearray:
        # A mapped page is refilled in place, so what was recorded of it
        # stays true, and its views see the new bytes.
        page = self.pages.get(page_index)
        if page is None:
            page = bytearray(self.page_size)
            self.pages[page_index] = page
        if data is not None:
            if len(data) != self.page_size:
                raise ValueError("page data size mismatch")
            page[:] = data
        return page

    def unmap_page(self, page_index: int) -> None:
        self.mark_clean(page_index)
        self.pages.pop(page_index, None)
        self._views.pop(page_index, None)
        self._loadable.pop(page_index, None)
        self._generation += 1

    def mapped_pages(self) -> List[int]:
        return sorted(self.pages)

    def _page_for(self, page_index: int, address: int, size: int) -> bytearray:
        page = self.pages.get(page_index)
        if page is not None:
            return page
        self.fault_count += 1
        if self.fault_handler is not None and self.fault_handler(page_index):
            page = self.pages.get(page_index)
            if page is not None:
                return page
        raise SegmentationFault(address, size)

    # -- raw byte access ------------------------------------------------
    # The interpreter's decoded load/store ops do the accesses ``loadable``
    # and ``storable`` answer themselves; every other access comes here,
    # which records it and enters it in those maps.
    def read(self, address: int, size: int) -> bytes:
        if not size:
            return b""  # touches nothing: no fault, no touched page
        # Fast path: access within one page (the overwhelmingly common
        # case for scalar loads).
        off = address & (self.page_size - 1)
        if off + size <= self.page_size:
            pidx = address // self.page_size
            page = self.pages.get(pidx)
            if page is None:
                page = self._page_for(pidx, address, size)
            if self._touched is not None:
                self._touched.add(pidx)
            self._loadable[pidx] = self._views[pidx]
            return bytes(page[off:off + size])
        # Page by page through the fast path; a missing page faults as
        # the whole access, before its part is read.
        out = bytearray()
        at, end = address, address + size
        while at < end:
            pidx = at // self.page_size
            self._page_for(pidx, address, size)
            chunk = min(end, (pidx + 1) * self.page_size) - at
            out += self.read(at, chunk)
            at += chunk
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        size = len(data)
        if not size:
            return  # touches nothing: no fault, no dirty or touched page
        off = address & (self.page_size - 1)
        if off + size <= self.page_size:
            pidx = address // self.page_size
            page = self.pages.get(pidx)
            if page is None:
                page = self._page_for(pidx, address, size)
            page[off:off + size] = data
            self._dirty[pidx] = None
            shift = self.block_shift
            if self._track_subpage:
                self._dirty_blocks[pidx] = self._dirty_blocks.get(pidx, 0) | (
                    (2 << ((off + size - 1) >> shift)) - (1 << (off >> shift)))
            if self._touched is not None:
                self._touched.add(pidx)
            entry = self._loadable[pidx] = self._views[pidx]
            block = address >> shift
            if (address + size - 1) >> shift == block:  # as a scalar's
                self._storable[block] = entry
            return
        at, end = address, address + size
        while at < end:  # as ``read`` does
            pidx = at // self.page_size
            self._page_for(pidx, address, size)
            chunk = min(end, (pidx + 1) * self.page_size) - at
            self.write(at, data[at - address:at - address + chunk])
            at += chunk

    def copy(self, dst: int, src: int, size: int) -> None:
        """``write(dst, read(src, size))``, as ``memcpy`` and ``memmove``
        move bytes.  A source in one loadable page and a destination in
        one storable block have their bookkeeping done, so the bytes go
        page to page; any other copy reads and writes."""
        mask = self.page_size - 1
        at = src & mask
        if 0 < size and at + size <= self.page_size:
            source = self._loadable.get(src // self.page_size)
            block = dst >> self.block_shift
            if (source is not None
                    and (dst + size - 1) >> self.block_shift == block):
                target = self._storable.get(block)
                if target is not None:
                    to = dst & mask
                    target.u8[to:to + size] = source.u8[at:at + size]
                    return
        self.write(dst, self.read(src, size))

    def read_cstring(self, address: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated byte string, a page at a time."""
        out = bytearray()
        addr = address
        while len(out) < limit:
            pidx = addr // self.page_size
            page = self._page_for(pidx, addr, 1)
            if self._touched is not None:
                self._touched.add(pidx)
            off = addr - pidx * self.page_size
            stop = min(self.page_size, off + limit - len(out))
            nul = page.find(0, off, stop)
            if nul >= 0:
                out += page[off:nul]
                return bytes(out)
            out += page[off:stop]
            addr += stop - off
        raise ValueError(f"unterminated string at {address:#x}")

    # -- dirty-page machinery (write-back) ----------------------------------
    @property
    def full_block_mask(self) -> int:
        """The mask with every sub-page block set."""
        return (1 << self.blocks_per_page) - 1

    def mark_clean(self, page_index: int) -> None:
        """The page's content is what its write-back target holds: it is
        no longer dirty and has no dirty blocks."""
        if page_index not in self._dirty:
            return  # and so has no storable block
        del self._dirty[page_index]
        self._dirty_blocks.pop(page_index, None)
        self._generation += 1
        first = page_index * self.blocks_per_page
        for block in range(first, first + self.blocks_per_page):
            self._storable.pop(block, None)

    def clear_dirty(self) -> None:
        self._dirty.clear()
        self._dirty_blocks.clear()
        self._storable.clear()
        self._generation += 1

    def dirty_pages(self) -> List[int]:
        return sorted(self._dirty)

    def collect_dirty_pages(self) -> Dict[int, bytes]:
        """Snapshot dirty page contents and clear the dirty set."""
        snapshot = {pidx: bytes(self.pages[pidx])
                    for pidx in sorted(self._dirty) if pidx in self.pages}
        self.clear_dirty()
        return snapshot

    def page_bytes(self, page_index: int) -> bytes:
        return bytes(self.pages[page_index])

    def install_pages(self, pages: Dict[int, bytes],
                      mark_dirty: bool = False) -> None:
        for pidx, data in pages.items():
            self.map_page(pidx, data)
            if mark_dirty:
                self._dirty[pidx] = None

    def apply_delta(self, page_index: int,
                    records: Iterable[Tuple[int, bytes]],
                    mark_dirty: bool = False) -> None:
        """Patch an already-mapped page with (offset, bytes) records —
        the receive side of a sub-page delta transfer."""
        page = self.pages.get(page_index)
        if page is None:
            raise SegmentationFault(page_index * self.page_size)
        for offset, data in records:
            page[offset:offset + len(data)] = data
        if mark_dirty:
            self._dirty[page_index] = None

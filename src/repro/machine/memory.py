"""Paged virtual memory with fault hooks and dirty tracking.

This is the substrate under the Native Offloader runtime's UVA manager
(paper, Section 4): page-granular mapping, a hookable page-fault path (used
for copy-on-demand), and per-page dirty bits (used for write-back at
finalization).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

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


class AddressSpace:
    """A byte-addressable virtual address space backed by pages.

    Pages are created on :meth:`map_page` (or by a fault handler).  Writes
    set a dirty bit; :meth:`collect_dirty_pages` snapshots and clears them,
    which is exactly the write-back step of the offload life cycle.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page size must be a positive power of two")
        self.page_size = page_size
        self.pages: Dict[int, bytearray] = {}
        self.dirty: Set[int] = set()
        self.fault_handler: Optional[FaultHandler] = None
        self.fault_count = 0
        # Sub-page dirty-block masks (bit i covers bytes
        # [i*block_size, (i+1)*block_size) of the page).  Off by default;
        # the UVA manager enables it on the server space so write-back
        # can ship deltas instead of whole pages.
        self.track_subpage = False
        self.block_size = min(SUBPAGE_BLOCK_BYTES, page_size)
        self.blocks_per_page = self.page_size // self.block_size
        self.dirty_blocks: Dict[int, int] = {}
        self.block_shift = self.block_size.bit_length() - 1
        # Optional touched-page recording (reads and writes).  None means
        # no tracking.  The UVA manager installs a set for the duration of
        # one offloaded invocation to drive adaptive prefetch; the
        # profiler installs one per live function or loop activation.
        # They never own the same space: the profiler runs on
        # ``run_local``'s machine, UVA on a session's server.
        self.touched: Optional[Set[int]] = None

    # -- page management ----------------------------------------------------
    def page_index(self, address: int) -> int:
        return address // self.page_size

    def page_base(self, page_index: int) -> int:
        return page_index * self.page_size

    def is_mapped(self, address: int) -> bool:
        return self.page_index(address) in self.pages

    def map_page(self, page_index: int,
                 data: Optional[bytes] = None) -> bytearray:
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
        self.pages.pop(page_index, None)
        self.dirty.discard(page_index)
        self.dirty_blocks.pop(page_index, None)

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
    # The interpreter's decoded load/store ops do the in-page, page-mapped
    # case of read/write themselves (docs/architecture.md, "The memory
    # path"), binding ``pages``, ``dirty`` and ``dirty_blocks`` once: those
    # three containers are only ever mutated, never replaced.
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
            if self.touched is not None:
                self.touched.add(pidx)
            return bytes(page[off:off + size])
        out = bytearray()
        remaining = size
        addr = address
        while remaining > 0:
            pidx = self.page_index(addr)
            page = self._page_for(pidx, address, size)
            if self.touched is not None:
                self.touched.add(pidx)
            off = addr - self.page_base(pidx)
            chunk = min(remaining, self.page_size - off)
            out += page[off:off + chunk]
            addr += chunk
            remaining -= chunk
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
            self.dirty.add(pidx)
            if self.track_subpage:
                self.mark_blocks(pidx, off, size)
            if self.touched is not None:
                self.touched.add(pidx)
            return
        addr = address
        pos = 0
        remaining = size
        while remaining > 0:
            pidx = self.page_index(addr)
            page = self._page_for(pidx, address, len(data))
            off = addr - self.page_base(pidx)
            chunk = min(remaining, self.page_size - off)
            page[off:off + chunk] = data[pos:pos + chunk]
            self.dirty.add(pidx)
            if self.track_subpage:
                self.mark_blocks(pidx, off, chunk)
            if self.touched is not None:
                self.touched.add(pidx)
            addr += chunk
            pos += chunk
            remaining -= chunk

    def read_cstring(self, address: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated byte string, a page at a time."""
        out = bytearray()
        addr = address
        while len(out) < limit:
            pidx = addr // self.page_size
            page = self._page_for(pidx, addr, 1)
            if self.touched is not None:
                self.touched.add(pidx)
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
    def mark_blocks(self, page_index: int, offset: int,
                    length: int) -> None:
        b0 = offset >> self.block_shift
        b1 = (offset + length - 1) >> self.block_shift
        mask = ((1 << (b1 + 1)) - 1) & ~((1 << b0) - 1)
        self.dirty_blocks[page_index] = (
            self.dirty_blocks.get(page_index, 0) | mask)

    @property
    def full_block_mask(self) -> int:
        """The mask with every sub-page block set."""
        return (1 << self.blocks_per_page) - 1

    def clear_dirty(self) -> None:
        self.dirty.clear()
        self.dirty_blocks.clear()

    def dirty_pages(self) -> List[int]:
        return sorted(self.dirty)

    def collect_dirty_pages(self) -> Dict[int, bytes]:
        """Snapshot dirty page contents and clear the dirty set."""
        snapshot = {pidx: bytes(self.pages[pidx])
                    for pidx in sorted(self.dirty) if pidx in self.pages}
        self.dirty.clear()
        self.dirty_blocks.clear()
        return snapshot

    def page_bytes(self, page_index: int) -> bytes:
        return bytes(self.pages[page_index])

    def install_pages(self, pages: Dict[int, bytes],
                      mark_dirty: bool = False) -> None:
        for pidx, data in pages.items():
            self.map_page(pidx, data)
            if mark_dirty:
                self.dirty.add(pidx)

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
            self.dirty.add(page_index)

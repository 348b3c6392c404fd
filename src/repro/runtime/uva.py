"""UVA manager: copy-on-demand page sharing and dirty write-back
(paper, Section 4, Figure 5), with an *incremental* data plane layered on
top (docs/uva-data-plane.md).

Both machines address shared data through the same unified virtual
addresses.  At offload initialization the server's view of shared memory
is synchronized with the mobile's (page-table synchronization); hot pages
are prefetched; any other shared page the server touches faults and is
pulled from the mobile device on demand.  At finalization the server's
dirty pages are written back to the mobile device in one compressed batch.

The incremental data plane makes repeated offloads cheap:

* **Cross-invocation page cache** — every shared page carries a version
  (bumped when the mobile writes it between offloads).  Initialization
  ships a version-vector *delta* instead of the whole page table,
  keeps server pages whose versions still match, and skips prefetching
  pages the server already holds clean.
* **Sub-page dirty deltas** — server writes are tracked at
  sub-page-block granularity; write-back and copy-on-demand refills are
  encoded as (offset, length, bytes) records against the cached base and
  fall back to whole pages past a break-even threshold.
* **Adaptive prefetch** — per-target fault history promotes
  frequently-faulted pages into the next invocation's prefetch set and
  demotes pages that were shipped but never touched.

Finalization is stage -> send -> commit over one list: each server
execution's dirty pages are *staged* (one entry for the plan of one, one
per shard for a gang), the payloads and the allocator state are sent,
and only :meth:`UVAManager.commit_finalize` — once every byte is on the
wire — applies them to mobile memory.  If the transport dies
mid-finalize (:class:`LinkDownError` out of the communication manager),
the session calls :meth:`UVAManager.abort_invocation` instead and no
staged state ever touches the mobile device; server pages dirtied by the
failed run are dropped from the cache so a replayed invocation sees
pre-offload state — the abort-and-replay semantics invariant of
DESIGN.md §5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..machine.machine import (Machine, CODE_BASES, GLOBAL_BASES,
                               MOBILE_STACK_TOP, STACK_SIZE, UVA_HEAP_BASE,
                               UVA_HEAP_SIZE)
from ..trace import NULL_TRACER, Tracer
from .comm import (CommunicationManager, delta_records_size,
                   encode_delta_records)

PAGE_TABLE_ENTRY_BYTES = 8
# A delta encoding at or above this fraction of the page size falls back
# to shipping the whole page (docs/uva-data-plane.md, break-even).
DELTA_BREAK_EVEN = 0.75
# Bound on the stale-base shadow cache (pages kept as delta bases after
# invalidation); beyond it, invalidated pages are simply dropped.
MAX_STALE_PAGES = 1024

# One delta transfer: (offset, bytes) patch records against a base the
# receiver already holds.
DeltaRecords = List[Tuple[int, bytes]]
# A staged write-back entry: a whole page or a delta against the
# mobile's current copy.
WritebackEntry = Union[bytes, DeltaRecords]

# Adaptive prefetch tuning: a page faulted this often (decayed score)
# is promoted; a page shipped but untouched this many consecutive
# invocations is demoted until it faults again.
PROMOTE_SCORE = 1.0
DEMOTE_AFTER_WASTED = 2
FAULT_SCORE_DECAY = 0.5


@dataclass
class UVAStats:
    cod_faults: int = 0
    cod_bytes: int = 0
    cod_seconds: float = 0.0
    prefetched_pages: int = 0
    prefetch_bytes: int = 0
    prefetch_seconds: float = 0.0
    written_back_pages: int = 0
    written_back_bytes: int = 0
    writeback_seconds: float = 0.0
    page_table_bytes: int = 0
    # Cross-invocation page cache (docs/uva-data-plane.md).
    cache_kept_pages: int = 0          # server pages surviving a sync
    cache_skipped_prefetch_pages: int = 0
    cache_saved_bytes: int = 0         # prefetch bytes avoided by the cache
    # Sub-page delta transfers.
    delta_pages: int = 0               # transfers encoded as deltas
    delta_records: int = 0
    delta_bytes: int = 0               # encoded delta bytes on the wire
    delta_saved_bytes: int = 0         # full-page bytes avoided
    # Adaptive prefetch.
    prefetch_hits: int = 0             # shipped pages the server touched
    prefetch_wasted: int = 0           # shipped pages never touched
    prefetch_promoted: int = 0
    prefetch_demoted: int = 0

    @property
    def prefetch_hit_ratio(self) -> float:
        total = self.prefetch_hits + self.prefetch_wasted
        return self.prefetch_hits / total if total else 0.0


class PrefetchAdvisor:
    """Per-target fault/usage history driving adaptive prefetch.

    Pages that fault keep a decayed score; a score at or above
    ``PROMOTE_SCORE`` joins the next invocation's prefetch set.  Pages
    shipped but untouched ``DEMOTE_AFTER_WASTED`` invocations in a row
    are demoted until a fault proves them useful again.
    """

    def __init__(self):
        self._fault_score: Dict[str, Dict[int, float]] = {}
        self._wasted_streak: Dict[str, Dict[int, int]] = {}
        self._demoted: Dict[str, Set[int]] = {}

    def adjust(self, target: str,
               pages: Set[int]) -> Tuple[Set[int], int, int]:
        """Apply history to a candidate prefetch set; returns the
        adjusted set plus (promoted, demoted) counts."""
        scores = self._fault_score.get(target, {})
        promoted = {p for p, score in scores.items()
                    if score >= PROMOTE_SCORE} - pages
        demoted = self._demoted.get(target, set()) & pages
        return (pages | promoted) - demoted, len(promoted), len(demoted)

    def observe(self, target: str, shipped: Set[int], touched: Set[int],
                faulted: Set[int]) -> Tuple[int, int]:
        """Record one completed invocation; returns (hits, wasted)."""
        scores = self._fault_score.setdefault(target, {})
        for page in list(scores):
            scores[page] *= FAULT_SCORE_DECAY
            if scores[page] < PROMOTE_SCORE / 4:
                del scores[page]
        for page in faulted:
            scores[page] = scores.get(page, 0.0) + 1.0
        streaks = self._wasted_streak.setdefault(target, {})
        demoted = self._demoted.setdefault(target, set())
        hits = wasted = 0
        for page in shipped:
            if page in touched:
                hits += 1
                streaks.pop(page, None)
            else:
                wasted += 1
                streaks[page] = streaks.get(page, 0) + 1
                if streaks[page] >= DEMOTE_AFTER_WASTED:
                    demoted.add(page)
        # a fault is proof the page is needed: demotion cannot stick
        for page in faulted:
            demoted.discard(page)
            streaks.pop(page, None)
        return hits, wasted


class UVAManager:
    """Coordinates the shared address space between one mobile machine and
    one server machine."""

    def __init__(self, mobile: Machine, server: Machine,
                 comm: CommunicationManager,
                 enable_prefetch: bool = True,
                 enable_incremental_uva: bool = True,
                 tracer: Optional[Tracer] = None):
        if mobile.memory.page_size != server.memory.page_size:
            raise ValueError("page size mismatch between machines")
        self.mobile = mobile
        self.server = server
        self.comm = comm
        self.enable_prefetch = enable_prefetch
        self.incremental = enable_incremental_uva
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.page_size = mobile.memory.page_size
        self.stats = UVAStats()
        self._server_private = self._private_ranges(server)
        # Staged finalization state (see commit_finalize /
        # abort_invocation): one write-back dict per server execution of
        # the invocation, in execution order — one entry for the plan of
        # one, one per shard for a gang (docs/parallel-offload.md).
        # Commit applies them in that order — later shards ran against
        # server memory that already held earlier shards' writes, so
        # in-order application reproduces the sequential k=1 content
        # byte for byte.  A discarded (straggler) capture becomes an
        # empty dict; its writes are re-created by the local replay.
        self._staged: List[Dict[int, WritebackEntry]] = []
        self._pending_alloc_state: Optional[dict] = None
        # Cross-invocation page cache: per-page content versions on the
        # mobile side, the version of the clean base each server copy
        # corresponds to, and the versions last announced to the server
        # (the version vector is shipped as a delta against these).
        self._mobile_version: Dict[int, int] = {}
        self._server_version: Dict[int, int] = {}
        self._announced_version: Dict[int, int] = {}
        # Pages whose server copy matches the mobile's *current* content
        # for this invocation — the precondition for delta write-back.
        self._server_sourced: Set[int] = set()
        # Shadow copies of invalidated server pages kept as delta bases
        # for copy-on-demand refills and re-prefetches.
        self._stale_base: Dict[int, bytes] = {}
        # Adaptive prefetch bookkeeping for the current invocation.
        self.advisor = (PrefetchAdvisor() if enable_incremental_uva
                        else None)
        self._current_target: Optional[str] = None
        self._invocation_faults: Set[int] = set()
        self._invocation_shipped: Set[int] = set()
        if enable_incremental_uva:
            server.memory.track_subpage = True

    def attach(self) -> None:
        """Serve the server's page faults by copy-on-demand from now on.
        The server's memory then points back at this manager, so
        :meth:`detach` ends it."""
        self.server.memory.fault_handler = self._server_fault

    def detach(self) -> None:
        self.server.memory.fault_handler = None

    # -- region classification ----------------------------------------
    def _private_ranges(self, machine: Machine) -> List[Tuple[int, int]]:
        """Address ranges private to the server (never shared/CoD)."""
        return [
            (CODE_BASES["server"], GLOBAL_BASES["mobile"]
             - CODE_BASES["server"]),
            (GLOBAL_BASES["server"], 0x0008_0000),
            (machine.stack_top - STACK_SIZE, STACK_SIZE + self.page_size),
        ]

    def shareable(self, page_index: int) -> bool:
        address = page_index * self.page_size
        return not any(base <= address < base + size
                       for base, size in self._server_private)

    # -- invocation window (adaptive prefetch) -------------------------
    def begin_invocation(self, target: str) -> None:
        """Open one offload invocation's observation window."""
        self._current_target = target
        self._invocation_faults = set()
        self._invocation_shipped = set()
        if self.advisor is not None:
            self.server.memory.touched = set()

    def end_invocation(self) -> None:
        """Close the window after a *successful* invocation and feed the
        fault/usage observations to the adaptive-prefetch advisor."""
        self._close_invocation(aborted=False)

    def _close_invocation(self, aborted: bool) -> None:
        target = self._current_target
        shipped = self._invocation_shipped
        faulted = self._invocation_faults
        touched = self.server.memory.touched
        self._current_target = None
        self._invocation_faults = set()
        self._invocation_shipped = set()
        if self.advisor is None:
            return
        self.server.memory.touched = None
        if aborted or target is None:
            # observations of a failed run describe a partial execution;
            # they must not steer future prefetch sets
            return
        hits, wasted = self.advisor.observe(target, shipped,
                                            touched or set(), faulted)
        self.stats.prefetch_hits += hits
        self.stats.prefetch_wasted += wasted
        tracer = self.tracer
        if tracer.enabled and (hits or wasted or faulted):
            total = hits + wasted
            tracer.emit("uva.cache", "adaptive", target=target,
                        hits=hits, wasted=wasted,
                        hit_ratio=(hits / total if total else 0.0),
                        faults=len(faulted))

    # -- delta encoding helpers ----------------------------------------
    def _mask_records(self, data: bytes, mask: int) -> DeltaRecords:
        """Runs of dirty sub-page blocks -> (offset, bytes) records."""
        block = self.server.memory.block_size
        records: DeltaRecords = []
        bit = 0
        while mask:
            if mask & 1:
                start = bit
                while mask & 1:
                    mask >>= 1
                    bit += 1
                offset = start * block
                length = min(bit * block, len(data)) - offset
                records.append((offset, data[offset:offset + length]))
            else:
                mask >>= 1
                bit += 1
        return records

    def _diff_records(self, data: bytes,
                      base: bytes) -> Optional[DeltaRecords]:
        """Block-granular diff of ``data`` against a stale base the
        server still holds; None when the delta misses break-even."""
        block = self.server.memory.block_size
        records: DeltaRecords = []
        start = None
        for offset in range(0, len(data), block):
            same = (data[offset:offset + block]
                    == base[offset:offset + block])
            if not same and start is None:
                start = offset
            elif same and start is not None:
                records.append((start, data[start:offset]))
                start = None
        if start is not None:
            records.append((start, data[start:]))
        if delta_records_size(records) >= int(
                len(data) * DELTA_BREAK_EVEN):
            return None
        return records

    def _refill_records(self, page_index: int,
                        data: bytes) -> Optional[DeltaRecords]:
        """The delta that refills a page (re-prefetch or CoD fault)
        against the stale base synchronization retained — only ever with
        the page cache and delta transfer both on; consumes the base.
        None ships the whole page."""
        base = self._stale_base.pop(page_index, None)
        return None if base is None else self._diff_records(data, base)

    def _book_deltas(self, kind: str, deltas: List[DeltaRecords]) -> None:
        """Account the pages one transfer shipped as deltas."""
        if not deltas:
            return
        records = sum(len(d) for d in deltas)
        encoded = sum(delta_records_size(d) for d in deltas)
        saved = len(deltas) * self.page_size - encoded
        self.stats.delta_pages += len(deltas)
        self.stats.delta_records += records
        self.stats.delta_bytes += encoded
        self.stats.delta_saved_bytes += saved
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("uva.delta", kind, pages=len(deltas),
                        records=records, encoded_bytes=encoded,
                        saved_bytes=saved)

    def _mark_server_clean(self, page_index: int) -> None:
        """The server just received (or kept) a copy identical to the
        mobile's current page content."""
        self.server.memory.mark_clean(page_index)
        self._server_sourced.add(page_index)
        if self.incremental:
            self._server_version[page_index] = self._mobile_version.get(
                page_index, 0)

    # -- offload life-cycle steps ----------------------------------------
    def synchronize_page_table(self) -> float:
        """Initialization: ship page-table metadata and reconcile the
        server's view of shared memory.  The naive path invalidates the
        whole view and ships one entry per shared mobile page; with the
        page cache, only a version-vector *delta* is shipped, server
        pages whose versions still match survive, and invalidated pages
        are retained as delta bases.  Returns the metadata transfer
        time."""
        shared_mobile_pages = [p for p in self.mobile.memory.mapped_pages()
                               if self.shareable(p)]
        if not self.incremental:
            for pidx in list(self.server.memory.pages):
                if self.shareable(pidx):
                    self.server.memory.unmap_page(pidx)
            self._server_sourced.clear()
            table_bytes = PAGE_TABLE_ENTRY_BYTES * max(
                len(shared_mobile_pages), 1)
            self.stats.page_table_bytes += table_bytes
            return self.comm.send_to_server(
                [b"\x00" * table_bytes]).seconds
        # Advance versions for pages the mobile wrote since last sync.
        mobile_memory = self.mobile.memory
        for pidx in [p for p in mobile_memory.dirty if self.shareable(p)]:
            self._mobile_version[pidx] = (
                self._mobile_version.get(pidx, 0) + 1)
            mobile_memory.mark_clean(pidx)
        # Reconcile the server view against the version vector.
        self._server_sourced.clear()
        mobile_pages = self.mobile.memory.pages
        kept = invalidated = retained = 0
        for pidx in list(self.server.memory.pages):
            if not self.shareable(pidx):
                continue
            if (pidx in mobile_pages
                    and self._server_version.get(pidx)
                    == self._mobile_version.get(pidx, 0)):
                kept += 1
                self._server_sourced.add(pidx)
                continue
            invalidated += 1
            if (pidx in self._server_version
                    and pidx in mobile_pages
                    and len(self._stale_base) < MAX_STALE_PAGES):
                # keep the known-version copy as a delta base for the
                # refill (CoD fault or re-prefetch) of this page
                self._stale_base[pidx] = self.server.memory.page_bytes(
                    pidx)
                retained += 1
            self.server.memory.unmap_page(pidx)
            self._server_version.pop(pidx, None)
        # Version-vector delta: one entry per page whose version differs
        # from what the server last heard (plus one header entry).
        changed = [p for p in shared_mobile_pages
                   if self._announced_version.get(p)
                   != self._mobile_version.get(p, 0)]
        for pidx in changed:
            self._announced_version[pidx] = self._mobile_version.get(
                pidx, 0)
        table_bytes = PAGE_TABLE_ENTRY_BYTES * max(len(changed), 1)
        self.stats.page_table_bytes += table_bytes
        self.stats.cache_kept_pages += kept
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("uva.cache", "sync", kept=kept,
                        invalidated=invalidated, stale_retained=retained,
                        table_entries=len(changed),
                        table_bytes=table_bytes)
        return self.comm.send_to_server([b"\x00" * table_bytes]).seconds

    def live_mobile_pages(self, stack_pointer: int = 0) -> List[int]:
        """Pages "most likely used" by an offloaded task: the mobile's
        mapped UVA-heap pages plus the live top of the mobile stack.  This
        is the prefetch set of the initialization step (Figure 5)."""
        pages: List[int] = []
        for pidx in self.mobile.memory.mapped_pages():
            base = pidx * self.page_size
            if UVA_HEAP_BASE <= base < UVA_HEAP_BASE + UVA_HEAP_SIZE:
                pages.append(pidx)
            elif stack_pointer and (
                    stack_pointer - self.page_size <= base
                    < MOBILE_STACK_TOP):
                pages.append(pidx)
        return pages

    def prefetch(self, pages: Iterable[int]) -> float:
        """Initialization: push likely-used mobile pages to the server in
        one batched transfer.  The page cache skips pages the server
        already holds clean; stale pages ship as deltas against the
        retained base; adaptive prefetch reshapes the candidate set from
        per-target fault history."""
        if not self.enable_prefetch:
            return 0.0
        candidate = {p for p in pages}
        if self.advisor is not None and self._current_target is not None:
            candidate, promoted, demoted = self.advisor.adjust(
                self._current_target, candidate)
            self.stats.prefetch_promoted += promoted
            self.stats.prefetch_demoted += demoted
        payloads = []
        installed = {}
        skipped = 0
        deltas: List[DeltaRecords] = []
        for pidx in sorted(candidate):
            if not self.shareable(pidx):
                continue
            if pidx not in self.mobile.memory.pages:
                continue
            if (self.incremental
                    and pidx in self.server.memory.pages
                    and self._server_version.get(pidx)
                    == self._mobile_version.get(pidx, 0)):
                skipped += 1
                continue
            data = self.mobile.memory.page_bytes(pidx)
            payload = data
            records = self._refill_records(pidx, data)
            if records is not None:
                payload = encode_delta_records(records)
                deltas.append(records)
            payloads.append(payload)
            installed[pidx] = data
        if skipped:
            self.stats.cache_skipped_prefetch_pages += skipped
            self.stats.cache_saved_bytes += skipped * self.page_size
        if not payloads:
            return 0.0
        self.server.memory.install_pages(installed)
        for pidx in installed:
            self._mark_server_clean(pidx)
        self._invocation_shipped |= set(installed)
        self.stats.prefetched_pages += len(installed)
        prefetch_bytes = sum(len(p) for p in payloads)
        self.stats.prefetch_bytes += prefetch_bytes
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("uva.prefetch", "push", pages=len(installed),
                        bytes=prefetch_bytes, cache_skipped=skipped,
                        delta_pages=len(deltas))
        self._book_deltas("prefetch", deltas)
        seconds = self.comm.send_to_server(payloads).seconds
        self.stats.prefetch_seconds += seconds
        return seconds

    def _server_fault(self, page_index: int) -> bool:
        """Copy-on-demand: a server access faulted; pull the page from the
        mobile device over the network (one round trip per fault).  When a
        stale base of the page survives in the shadow cache, only the
        changed sub-page blocks cross the wire."""
        if not self.shareable(page_index):
            return False
        if page_index not in self.mobile.memory.pages:
            return False
        data = self.mobile.memory.page_bytes(page_index)
        records = self._refill_records(page_index, data)
        response_bytes = (len(data) if records is None
                          else delta_records_size(records))
        result = self.comm.round_trip(PAGE_TABLE_ENTRY_BYTES,
                                      response_bytes)
        self.server.memory.map_page(page_index, data)
        # the freshly copied page is not dirty on the server
        self._mark_server_clean(page_index)
        self._invocation_faults.add(page_index)
        self.stats.cod_faults += 1
        self.stats.cod_bytes += response_bytes
        self.stats.cod_seconds += result.seconds
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("uva.fault", f"page-{page_index:#x}",
                        dur=result.seconds, page=page_index,
                        bytes=response_bytes)
        self._book_deltas("cod-refill",
                          [] if records is None else [records])
        return True

    def _stage_dirty_pages(self) -> List[bytes]:
        """Stage one server execution's dirty pages: snapshot and clear
        the server's dirty set, encode pages whose base the mobile
        already holds as sub-page deltas when that beats break-even,
        append the entries to the invocation's staged list and return
        their wire payloads."""
        server_mem = self.server.memory
        masks = (dict(server_mem.dirty_blocks)
                 if self.incremental else {})
        dirty = server_mem.collect_dirty_pages()
        full_mask = server_mem.full_block_mask
        threshold = int(self.page_size * DELTA_BREAK_EVEN)
        payloads: List[bytes] = []
        staged: Dict[int, WritebackEntry] = {}
        for pidx, data in dirty.items():
            if not self.shareable(pidx):
                continue
            entry: WritebackEntry = data
            payload = data
            if (self.incremental
                    and pidx in self._server_sourced
                    and pidx in self.mobile.memory.pages):
                mask = masks.get(pidx, full_mask)
                if mask != full_mask:
                    records = self._mask_records(data, mask)
                    if delta_records_size(records) < threshold:
                        entry = records
                        payload = encode_delta_records(records)
            payloads.append(payload)
            staged[pidx] = entry
        self._staged.append(staged)
        return payloads

    def write_back(self) -> Tuple[float, int]:
        """Finalization of the plan of one: stage the server's dirty
        pages (in the shared region) and send them to the mobile device
        — transmitted, or queued on an open batching window, but applied
        only by :meth:`commit_finalize`, once the whole finalization
        message survived.  Returns (seconds, payload_bytes)."""
        payloads = self._stage_dirty_pages()
        return (self.send_writeback(payloads),
                sum(len(p) for p in payloads))

    def send_writeback(self, payloads: List[bytes]) -> float:
        """Send staged write-back payloads to the mobile device and book
        the seconds the send charged as ``writeback_seconds`` — the one
        booking point for a plan of any width."""
        if not payloads:
            return 0.0
        seconds = self.comm.send_to_mobile(payloads).seconds
        self.stats.writeback_seconds += seconds
        return seconds

    def capture_shard_writeback(self) -> Tuple[int, List[bytes]]:
        """Stage one shard's dirty pages without touching the wire and
        return ``(capture_index, wire_payloads)``.  The gather step
        transmits the payloads itself; :meth:`commit_finalize` applies
        every surviving capture in shard order."""
        payloads = self._stage_dirty_pages()
        return len(self._staged) - 1, payloads

    def discard_shard_writeback(self, index: int) -> None:
        """Drop a straggler shard's capture: nothing it staged may reach
        the mobile device.  The server's copy of those pages is left in
        place — the straggler's local replay rewrites the same elements
        on the mobile side, marking the pages dirty, so the next
        synchronization bumps their versions and invalidates the
        diverged server copies (no stale read is possible within this
        invocation: shards never read shard-written data)."""
        self._staged[index] = {}

    def _apply_writeback(self, staged: Dict[int, WritebackEntry]) -> None:
        full: Dict[int, bytes] = {}
        bytes_back = 0
        deltas: List[DeltaRecords] = []
        for pidx, entry in staged.items():
            if isinstance(entry, (bytes, bytearray)):
                full[pidx] = bytes(entry)
                bytes_back += len(entry)
            else:
                self.mobile.memory.apply_delta(pidx, entry,
                                               mark_dirty=True)
                bytes_back += delta_records_size(entry)
                deltas.append(entry)
        self.mobile.memory.install_pages(full, mark_dirty=True)
        if self.incremental:
            # Both sides now hold identical content: bump the page
            # version once and record the server copy as that version,
            # so the next sync neither re-announces nor invalidates it.
            for pidx in staged:
                version = self._mobile_version.get(pidx, 0) + 1
                self._mobile_version[pidx] = version
                self._server_version[pidx] = version
                self._announced_version[pidx] = version
                self.mobile.memory.mark_clean(pidx)
        self.stats.written_back_pages += len(staged)
        self.stats.written_back_bytes += bytes_back
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("uva.writeback", "dirty-pages",
                        pages=len(staged), bytes=bytes_back,
                        delta_pages=len(deltas))
        self._book_deltas("writeback", deltas)

    def commit_finalize(self) -> None:
        """Apply staged finalization state, in staging order, after the
        transfer succeeded."""
        for staged in self._staged:
            if staged:
                self._apply_writeback(staged)
        self._staged = []
        if self._pending_alloc_state is not None:
            self.mobile.uva_heap.restore(self._pending_alloc_state)
            self._pending_alloc_state = None

    def abort_invocation(self) -> None:
        """Discard every piece of staged UVA state: nothing from the
        failed invocation may reach the mobile device, and server pages
        the failed run dirtied are dropped from the cache (their content
        diverged from every mobile version)."""
        dirtied = set(self.server.memory.dirty).union(*self._staged)
        self._staged = []
        self._pending_alloc_state = None
        if self.incremental:
            for pidx in filter(self.shareable, dirtied):
                self.server.memory.unmap_page(pidx)
                self._server_version.pop(pidx, None)
                self._server_sourced.discard(pidx)
                self._stale_base.pop(pidx, None)
        self.server.memory.clear_dirty()
        self._close_invocation(aborted=True)

    # -- allocator state synchronization ----------------------------------
    def push_allocator_state(self) -> float:
        """Ship the UVA allocator state mobile->server so server-side
        u_malloc continues from the same heap."""
        state = self.mobile.uva_heap.snapshot()
        self.server.uva_heap.restore(state)
        approx = 32 + 16 * len(state["free_list"])
        return self.comm.send_to_server([b"\x00" * approx]).seconds

    def pull_allocator_state(self) -> float:
        """Ship the allocator state server->mobile; staged like the
        write-back and restored by :meth:`commit_finalize`."""
        state = self.server.uva_heap.snapshot()
        approx = 32 + 16 * len(state["free_list"])
        seconds = self.comm.send_to_mobile([b"\x00" * approx]).seconds
        self._pending_alloc_state = state
        return seconds

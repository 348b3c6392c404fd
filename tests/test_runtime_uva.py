"""Tests for the UVA manager: copy-on-demand, write-back, prefetch, and
allocator synchronization."""

import pytest

from repro.ir import Module
from repro.machine import Machine, UVA_HEAP_BASE, boot
from repro.runtime import (CommunicationManager, FAST_WIFI, UVAManager)
from repro.targets import ARM32, X86_64


def make_pair(prefetch=True):
    mobile = boot(Module(), ARM32, "mobile")
    server = boot(Module(), X86_64, "server")
    comm = CommunicationManager(FAST_WIFI)
    uva = UVAManager(mobile, server, comm, enable_prefetch=prefetch)
    uva.attach()
    return mobile, server, comm, uva


class TestCopyOnDemand:
    def test_fault_pulls_page_from_mobile(self):
        mobile, server, comm, uva = make_pair()
        addr = UVA_HEAP_BASE + 0x100
        mobile.map_range(addr, 8)
        mobile.memory.write(addr, b"COPYONDM")
        assert server.memory.read(addr, 8) == b"COPYONDM"
        assert uva.stats.cod_faults == 1
        assert uva.stats.cod_bytes == server.memory.page_size

    def test_fetched_page_cached(self):
        mobile, server, comm, uva = make_pair()
        addr = UVA_HEAP_BASE
        mobile.map_range(addr, 4)
        mobile.memory.write(addr, b"once")
        server.memory.read(addr, 4)
        server.memory.read(addr + 1, 2)
        assert uva.stats.cod_faults == 1  # second access hits the copy

    def test_server_private_pages_not_shared(self):
        from repro.machine import SegmentationFault
        mobile, server, comm, uva = make_pair()
        # server stack is private: a fault there must not consult mobile
        with pytest.raises(SegmentationFault):
            server.memory.read(server.stack_top - 64, 4)

    def test_missing_mobile_page_faults(self):
        from repro.machine import SegmentationFault
        mobile, server, comm, uva = make_pair()
        with pytest.raises(SegmentationFault):
            server.memory.read(UVA_HEAP_BASE + 0x5000, 4)

    def test_cod_charges_round_trip(self):
        mobile, server, comm, uva = make_pair()
        mobile.map_range(UVA_HEAP_BASE, 4)
        before = comm.stats.comm_seconds
        server.memory.read(UVA_HEAP_BASE, 4)
        assert comm.stats.comm_seconds > before
        assert uva.stats.cod_seconds > 0


class TestSynchronizeAndWriteBack:
    def test_sync_invalidates_stale_server_pages(self):
        mobile, server, comm, uva = make_pair()
        addr = UVA_HEAP_BASE
        mobile.map_range(addr, 4)
        mobile.memory.write(addr, b"new!")
        server.memory.map_page(server.memory.page_index(addr))  # stale
        uva.synchronize_page_table()
        assert server.memory.read(addr, 4) == b"new!"

    def test_write_back_applies_dirty_pages(self):
        mobile, server, comm, uva = make_pair()
        addr = UVA_HEAP_BASE + 0x40
        mobile.map_range(addr, 8)
        mobile.memory.write(addr, b"original")
        server.memory.read(addr, 8)          # CoD copy
        server.memory.clear_dirty()
        server.memory.write(addr, b"MODIFIED")
        seconds, payload = uva.write_back()
        assert seconds > 0 and payload > 0
        # staged, not applied: only the commit touches mobile memory
        assert mobile.memory.read(addr, 8) == b"original"
        uva.commit_finalize()
        assert mobile.memory.read(addr, 8) == b"MODIFIED"

    def test_write_back_skips_private_pages(self):
        mobile, server, comm, uva = make_pair()
        server.map_range(server.stack_top - 4096, 64)
        server.memory.clear_dirty()
        server.memory.write(server.stack_top - 4096, b"private")
        seconds, payload = uva.write_back()
        assert payload == 0

    def test_clean_pages_not_written_back(self):
        mobile, server, comm, uva = make_pair()
        addr = UVA_HEAP_BASE
        mobile.map_range(addr, 4)
        mobile.memory.write(addr, b"same")
        server.memory.read(addr, 4)
        server.memory.clear_dirty()
        _, payload = uva.write_back()
        assert payload == 0


class TestPrefetch:
    def test_prefetch_installs_pages(self):
        mobile, server, comm, uva = make_pair()
        addr = UVA_HEAP_BASE
        mobile.map_range(addr, 4096 * 3)
        mobile.memory.write(addr, b"P0")
        pages = [mobile.memory.page_index(addr) + i for i in range(3)]
        seconds = uva.prefetch(pages)
        assert seconds > 0
        assert uva.stats.prefetched_pages == 3
        # no fault needed now
        assert server.memory.read(addr, 2) == b"P0"
        assert uva.stats.cod_faults == 0

    def test_prefetch_disabled_is_noop(self):
        mobile, server, comm, uva = make_pair(prefetch=False)
        mobile.map_range(UVA_HEAP_BASE, 4096)
        assert uva.prefetch([UVA_HEAP_BASE // 4096]) == 0.0
        assert uva.stats.prefetched_pages == 0

    def test_live_mobile_pages_covers_uva_heap(self):
        mobile, server, comm, uva = make_pair()
        mobile.map_range(UVA_HEAP_BASE, 4096 * 2)
        live = uva.live_mobile_pages()
        assert UVA_HEAP_BASE // 4096 in live
        assert UVA_HEAP_BASE // 4096 + 1 in live


class TestAllocatorSync:
    def test_push_pull_roundtrip(self):
        mobile, server, comm, uva = make_pair()
        a1 = mobile.uva_heap.alloc(100)
        uva.push_allocator_state()
        # server continues from the same heap state
        a2 = server.uva_heap.alloc(100)
        assert a2 > a1
        uva.pull_allocator_state()
        uva.commit_finalize()
        a3 = mobile.uva_heap.alloc(100)
        assert a3 > a2

    def test_page_size_mismatch_rejected(self):
        # bare machines: the manager refuses before it looks at a module
        mobile = Machine(ARM32, "mobile", page_size=4096)
        server = Machine(X86_64, "server", page_size=1024)
        with pytest.raises(ValueError):
            UVAManager(mobile, server, CommunicationManager(FAST_WIFI))

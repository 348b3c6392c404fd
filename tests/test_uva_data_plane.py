"""Tests for the incremental UVA data plane (docs/uva-data-plane.md):
cross-invocation page cache, sub-page dirty deltas, adaptive prefetch.

Two layers of coverage:

* unit tests drive a ``UVAManager`` pair directly through sync /
  prefetch / fault / write-back / abort cycles and check the cache,
  delta, and advisor bookkeeping in isolation;
* a differential suite runs a multi-invocation workload end to end with
  the three features on vs. off and asserts identical program output
  and byte-identical mobile memory — including under injected link
  faults that kill the link mid-finalize, which exercises the
  DESIGN.md §5 abort-and-replay rollback of the cache state.
"""

import pytest

from repro.ir import Module
from repro.machine import GLOBAL_BASES, UVA_HEAP_BASE, UVA_HEAP_SIZE, boot
from repro.offload import CompilerOptions
from repro.runtime import (CommunicationManager, FAST_WIFI, FaultPlan,
                           OffloadSession, PrefetchAdvisor, SessionOptions,
                           UVAManager)
from repro.runtime.uva import DELTA_BREAK_EVEN
from repro.targets import ARM32, X86_64
from repro.workloads import workload

from conftest import build_c


def make_pair(**uva_flags):
    mobile = boot(Module(), ARM32, "mobile")
    server = boot(Module(), X86_64, "server")
    comm = CommunicationManager(FAST_WIFI)
    uva = UVAManager(mobile, server, comm, **uva_flags)
    uva.attach()
    return mobile, server, comm, uva


def offload_cycle(uva, pages, target="kernel"):
    """One minimal invocation: sync, prefetch, (caller runs server
    accesses), then ``finish_cycle`` below commits."""
    uva.begin_invocation(target)
    uva.synchronize_page_table()
    uva.prefetch(pages)


def finish_cycle(uva):
    uva.write_back()
    uva.commit_finalize()
    uva.end_invocation()


PAGE0 = UVA_HEAP_BASE


class TestPageCache:
    def test_unchanged_pages_survive_sync_and_skip_prefetch(self):
        mobile, server, comm, uva = make_pair()
        mobile.map_range(PAGE0, 8)
        mobile.memory.write(PAGE0, b"const!!!")
        pidx = mobile.memory.page_index(PAGE0)

        offload_cycle(uva, [pidx])
        server.memory.read(PAGE0, 8)
        finish_cycle(uva)
        assert uva.stats.prefetched_pages == 1

        # no mobile write in between: the server copy is still valid
        sent_before = comm.stats.bytes_to_server
        offload_cycle(uva, [pidx])
        finish_cycle(uva)
        assert uva.stats.cache_kept_pages >= 1
        assert uva.stats.cache_skipped_prefetch_pages == 1
        assert uva.stats.prefetched_pages == 1  # nothing re-shipped
        # only the (minimal) version-vector metadata crossed the wire
        metadata = comm.stats.bytes_to_server - sent_before
        assert metadata < uva.page_size

    def test_mobile_write_bumps_version_and_invalidates(self):
        mobile, server, comm, uva = make_pair()
        mobile.map_range(PAGE0, 8)
        mobile.memory.write(PAGE0, b"version1")
        pidx = mobile.memory.page_index(PAGE0)

        offload_cycle(uva, [pidx])
        finish_cycle(uva)
        mobile.memory.write(PAGE0, b"version2")
        offload_cycle(uva, [pidx])
        finish_cycle(uva)
        # the stale server copy must not be kept...
        assert uva.stats.cache_skipped_prefetch_pages == 0
        # ...and the refreshed content must be what the server reads next
        offload_cycle(uva, [pidx])
        assert server.memory.read(PAGE0, 8) == b"version2"
        finish_cycle(uva)

    def test_naive_mode_invalidates_everything(self):
        mobile, server, comm, uva = make_pair(
            enable_page_cache=False, enable_delta_transfer=False,
            enable_adaptive_prefetch=False)
        mobile.map_range(PAGE0, 8)
        mobile.memory.write(PAGE0, b"whatever")
        pidx = mobile.memory.page_index(PAGE0)
        for _ in range(3):
            offload_cycle(uva, [pidx])
            finish_cycle(uva)
        assert uva.stats.cache_kept_pages == 0
        assert uva.stats.cache_skipped_prefetch_pages == 0
        assert uva.stats.prefetched_pages == 3


class TestSubPageDeltas:
    def test_small_server_write_ships_as_delta(self):
        mobile, server, comm, uva = make_pair()
        mobile.map_range(PAGE0, uva.page_size)
        pidx = mobile.memory.page_index(PAGE0)
        offload_cycle(uva, [pidx])
        server.memory.write(PAGE0 + 64, b"tinydelta")
        finish_cycle(uva)
        assert uva.stats.delta_pages == 1
        assert uva.stats.delta_records == 1
        assert uva.stats.delta_saved_bytes > 0
        assert uva.stats.written_back_bytes < uva.page_size
        assert mobile.memory.read(PAGE0 + 64, 9) == b"tinydelta"

    def test_rewritten_page_falls_back_to_full_transfer(self):
        mobile, server, comm, uva = make_pair()
        mobile.map_range(PAGE0, uva.page_size)
        pidx = mobile.memory.page_index(PAGE0)
        offload_cycle(uva, [pidx])
        # dirty more than the break-even fraction of the page
        span = int(uva.page_size * DELTA_BREAK_EVEN) + 64
        server.memory.write(PAGE0, b"\xab" * span)
        finish_cycle(uva)
        assert uva.stats.delta_pages == 0
        assert uva.stats.written_back_bytes == uva.page_size
        assert mobile.memory.read(PAGE0, span) == b"\xab" * span

    def test_cod_refill_uses_stale_base_delta(self):
        mobile, server, comm, uva = make_pair()
        mobile.map_range(PAGE0, uva.page_size)
        mobile.memory.write(PAGE0, bytes(range(256)) * (uva.page_size // 256))
        pidx = mobile.memory.page_index(PAGE0)
        offload_cycle(uva, [pidx])
        finish_cycle(uva)
        # small mobile churn invalidates the server copy but leaves a
        # known-version stale base behind
        mobile.memory.write(PAGE0 + 8, b"!!")
        offload_cycle(uva, [])
        assert server.memory.read(PAGE0 + 8, 2) == b"!!"  # CoD fault
        assert uva.stats.cod_faults == 1
        assert uva.stats.cod_bytes < uva.page_size  # delta refill
        assert uva.stats.delta_pages >= 1
        finish_cycle(uva)

    def test_delta_disabled_ships_full_pages(self):
        mobile, server, comm, uva = make_pair(enable_delta_transfer=False)
        mobile.map_range(PAGE0, uva.page_size)
        pidx = mobile.memory.page_index(PAGE0)
        offload_cycle(uva, [pidx])
        server.memory.write(PAGE0 + 64, b"tinydelta")
        finish_cycle(uva)
        assert uva.stats.delta_pages == 0
        assert uva.stats.written_back_bytes == uva.page_size


class TestAbortRollback:
    def test_abort_discards_staged_writeback_and_cache_state(self):
        mobile, server, comm, uva = make_pair()
        mobile.map_range(PAGE0, uva.page_size)
        mobile.memory.write(PAGE0, b"original")
        pidx = mobile.memory.page_index(PAGE0)
        offload_cycle(uva, [pidx])
        server.memory.write(PAGE0, b"poisoned")
        uva.write_back()
        uva.abort_invocation()
        # nothing from the failed run reached the mobile device
        assert mobile.memory.read(PAGE0, 8) == b"original"
        # the diverged server copy is gone from the cache: a replayed
        # invocation re-ships pre-offload state instead of keeping it
        offload_cycle(uva, [pidx])
        assert server.memory.read(PAGE0, 8) == b"original"
        finish_cycle(uva)

    def test_replay_after_abort_matches_pre_offload_state(self):
        mobile, server, comm, uva = make_pair()
        mobile.map_range(PAGE0, uva.page_size)
        mobile.memory.write(PAGE0, b"preoffld")
        pidx = mobile.memory.page_index(PAGE0)
        offload_cycle(uva, [pidx])
        finish_cycle(uva)
        snapshot = bytes(mobile.memory.pages[pidx])
        offload_cycle(uva, [pidx])
        server.memory.write(PAGE0 + 100, b"garbage")
        uva.write_back()
        uva.abort_invocation()
        assert bytes(mobile.memory.pages[pidx]) == snapshot


@pytest.mark.parametrize("k", [1, 3])
class TestStagedWriteback:
    """One staged list serves the plan of one (k=1, staged by
    ``write_back``) and the gang (k=3, one ``capture_shard_writeback``
    per execution): stage -> commit in order, or discard, or abort."""

    SHARED = PAGE0 + 8          # every execution overwrites this word

    def _open(self, k):
        """An open invocation over k+1 prefetched pages: page 0 holds
        the shared word, page i+1 belongs to execution i."""
        mobile, server, comm, uva = make_pair()
        mobile.map_range(PAGE0, uva.page_size * (k + 1))
        mobile.memory.write(PAGE0, b"pre-offload state")
        first = mobile.memory.page_index(PAGE0)
        pages = list(range(first, first + k + 1))
        offload_cycle(uva, pages)
        return mobile, server, uva, pages

    def _execute(self, server, uva, i):
        server.memory.write(self.SHARED, bytes([i + 1]) * 4)
        server.memory.write(PAGE0 + uva.page_size * (i + 1) + 64,
                            b"exec-%d" % i)

    def _stage(self, server, uva, k):
        """Run and stage k server executions; returns the captures."""
        captures = []
        for i in range(k):
            self._execute(server, uva, i)
            if k == 1:
                uva.write_back()
                captures.append(0)
            else:
                captures.append(uva.capture_shard_writeback()[0])
        return captures

    def _snapshot(self, memory, pages):
        return [memory.page_bytes(p) for p in pages]

    def test_commit_applies_in_staging_order(self, k):
        mobile, server, uva, pages = self._open(k)
        before = self._snapshot(mobile.memory, pages)
        assert self._stage(server, uva, k) == list(range(k))
        assert self._snapshot(mobile.memory, pages) == before  # staged only
        uva.commit_finalize()
        uva.end_invocation()
        # the last staged entry wins the word every execution wrote
        assert mobile.memory.read(self.SHARED, 4) == bytes([k]) * 4
        assert uva.stats.written_back_pages == 2 * k
        # byte-identical to one sequential execution of the same writes
        ref_mobile, ref_server, ref_uva, _ = self._open(k)
        for i in range(k):
            self._execute(ref_server, ref_uva, i)
        finish_cycle(ref_uva)
        assert (self._snapshot(mobile.memory, pages)
                == self._snapshot(ref_mobile.memory, pages))

    def test_discarded_capture_contributes_nothing(self, k):
        mobile, server, uva, pages = self._open(k)
        before = self._snapshot(mobile.memory, pages)
        captures = self._stage(server, uva, k)
        dropped = captures[k // 2]
        uva.discard_shard_writeback(dropped)
        uva.commit_finalize()
        uva.end_invocation()
        after = self._snapshot(mobile.memory, pages)
        assert after[dropped + 1] == before[dropped + 1]
        assert uva.stats.written_back_pages == 2 * (k - 1)
        if k == 1:
            assert after == before
        else:
            assert mobile.memory.read(self.SHARED, 4) == bytes([k]) * 4

    def test_abort_after_staging_purges_every_staged_page(self, k):
        mobile, server, uva, pages = self._open(k)
        before = self._snapshot(mobile.memory, pages)
        self._stage(server, uva, k)
        uva.abort_invocation()
        uva.commit_finalize()        # nothing left to apply
        assert self._snapshot(mobile.memory, pages) == before
        assert uva.stats.written_back_pages == 0
        assert not set(pages) & set(server.memory.pages)
        # a replayed invocation re-ships pre-offload state
        offload_cycle(uva, pages)
        assert self._snapshot(server.memory, pages) == before
        finish_cycle(uva)


class TestWritebackSeconds:
    """``writeback_seconds`` books what the write-back payload sends
    charged, for a plan of any width: 0 inside a batching window (the
    flush carries the wall time), the sends' seconds without one."""

    @pytest.fixture(scope="class")
    def built(self):
        return workload("parallel-micro").build()

    @pytest.mark.parametrize("k", [1, 4])
    def test_batched_sends_book_nothing(self, built, k):
        session = built.session(FAST_WIFI, SessionOptions(shards=k))
        result = session.run()
        assert max(r.shards for r in result.invocations) == k
        assert session.uva.stats.written_back_pages > 0
        assert session.uva.stats.writeback_seconds == 0.0

    @pytest.mark.parametrize("k", [1, 4])
    def test_unbatched_sends_book_their_seconds(self, built, k):
        session = built.session(
            FAST_WIFI, SessionOptions(shards=k, enable_batching=False))
        session.run()
        assert session.uva.stats.writeback_seconds > 0.0


class TestAdaptivePrefetch:
    def test_faulted_page_promoted_into_next_prefetch(self):
        advisor = PrefetchAdvisor()
        advisor.observe("k", shipped=set(), touched=set(), faulted={7})
        adjusted, promoted, _ = advisor.adjust("k", {1, 2})
        assert 7 in adjusted
        assert promoted == 1

    def test_untouched_page_demoted_after_wasted_streak(self):
        advisor = PrefetchAdvisor()
        # shipped twice, never touched -> demoted from the third set
        for _ in range(2):
            advisor.observe("k", shipped={3}, touched=set(), faulted=set())
        adjusted, _, demoted = advisor.adjust("k", {3, 4})
        assert 3 not in adjusted
        assert 4 in adjusted
        assert demoted == 1

    def test_fault_resurrects_demoted_page(self):
        advisor = PrefetchAdvisor()
        for _ in range(2):
            advisor.observe("k", shipped={3}, touched=set(), faulted=set())
        advisor.observe("k", shipped=set(), touched=set(), faulted={3})
        adjusted, _, _ = advisor.adjust("k", {3})
        assert 3 in adjusted

    def test_histories_are_per_target(self):
        advisor = PrefetchAdvisor()
        advisor.observe("a", shipped=set(), touched=set(), faulted={9})
        adjusted, promoted, _ = advisor.adjust("b", {1})
        assert 9 not in adjusted and promoted == 0

    def test_session_records_hits_and_waste(self):
        mobile, server, comm, uva = make_pair()
        mobile.map_range(PAGE0, uva.page_size * 2)
        p0 = mobile.memory.page_index(PAGE0)
        p1 = p0 + 1
        offload_cycle(uva, [p0, p1])
        server.memory.read(PAGE0, 4)      # p0 used, p1 wasted
        finish_cycle(uva)
        assert uva.stats.prefetch_hits == 1
        assert uva.stats.prefetch_wasted == 1
        assert uva.stats.prefetch_hit_ratio == 0.5


# -- differential: features on vs. off, end to end ----------------------
#
# The workload offloads the same hot function five times with small
# working-set churn between calls — the shape the cross-invocation
# cache is built for.  ``forced_targets`` pins the offload target to the
# function itself so each call is a separate invocation (left to its own
# devices the outliner would lift main's loop and fuse all five).
MULTI_SRC = r"""
int *buf;
int n;

int crunch(int salt) {
    int i, r, acc = 0;
    for (r = 0; r < 4; r++) {
        for (i = 0; i < n; i++) {
            acc += ((buf[i] ^ salt) * (i & 7)) + (acc >> 5);
        }
    }
    for (i = 0; i < 64; i++) {
        buf[i] = acc + i;
    }
    return acc;
}

int main() {
    int i, k, total = 0;
    scanf("%d", &n);
    buf = (int*) malloc(n * sizeof(int));
    for (i = 0; i < n; i++) buf[i] = i * 2654435761u;
    for (k = 0; k < 5; k++) {
        buf[100 + k] = buf[100 + k] ^ (k * 97);
        total = total ^ crunch(k);
        printf("%d %d\n", k, total);
    }
    printf("total=%d\n", total);
    return 0;
}
"""
MULTI_STDIN = b"1500\n"

NAIVE_FLAGS = dict(enable_page_cache=False, enable_delta_transfer=False,
                   enable_adaptive_prefetch=False)


@pytest.fixture(scope="module")
def multi():
    built = build_c(MULTI_SRC, MULTI_STDIN, name="multi",
                    compiler_options=CompilerOptions(
                        forced_targets=["crunch"]))
    return built.program, built.local()


def run_session(program, fault_plan=None, **flags):
    options = SessionOptions(enable_dynamic_estimation=False,
                             fault_plan=fault_plan, **flags)
    session = OffloadSession(program, FAST_WIFI, options=options,
                             stdin=MULTI_STDIN)
    return session.run(), session


def shared_pages(machine):
    """Mobile pages holding program state the data plane is responsible
    for: the UVA heap and the globals segment."""
    mem = machine.memory
    lo_heap = UVA_HEAP_BASE
    hi_heap = UVA_HEAP_BASE + UVA_HEAP_SIZE
    lo_glob = GLOBAL_BASES["mobile"]
    hi_glob = GLOBAL_BASES["server"]
    out = {}
    for pidx, page in mem.pages.items():
        base = pidx * mem.page_size
        if lo_heap <= base < hi_heap or lo_glob <= base < hi_glob:
            out[pidx] = bytes(page)
    return out


class TestDifferential:
    def test_identical_output_and_memory(self, multi):
        program, local = multi
        naive, s_naive = run_session(program, **NAIVE_FLAGS)
        incr, s_incr = run_session(program)
        assert naive.output == local.output
        assert incr.output == local.output
        # whole-memory comparison: every mapped mobile page byte-equal
        mn, mi = s_naive.mobile.memory, s_incr.mobile.memory
        assert sorted(mn.pages) == sorted(mi.pages)
        for pidx in mn.pages:
            assert bytes(mn.pages[pidx]) == bytes(mi.pages[pidx]), (
                f"page {pidx:#x} diverged")

    def test_repeated_offloads_and_reduced_traffic(self, multi):
        program, _ = multi
        naive, _ = run_session(program, **NAIVE_FLAGS)
        incr, _ = run_session(program)
        assert len(incr.invocations) == 5
        assert incr.offloaded_invocations == naive.offloaded_invocations
        total_naive = naive.bytes_to_server + naive.bytes_to_mobile
        total_incr = incr.bytes_to_server + incr.bytes_to_mobile
        # the formal >=40% bar lives in benchmarks/test_bytes_on_wire.py;
        # here we pin that the features engage and traffic drops
        assert total_incr < total_naive
        us = incr.uva_stats
        assert us.cache_kept_pages > 0
        assert us.cache_skipped_prefetch_pages > 0
        assert us.delta_saved_bytes > 0

    def test_stats_surface_phase_seconds(self, multi):
        program, _ = multi
        result, _ = run_session(program,
                                enable_batching=False)
        us = result.uva_stats
        # outside a batching window the phases charge real link time
        assert us.prefetch_seconds > 0
        assert us.writeback_seconds > 0


class TestDifferentialUnderFaults:
    """Link dies after N messages — for small N during init, for larger
    N mid-finalize — then recovers.  Every schedule must end with output
    identical to local and shared memory identical to the fault-free
    ground truth (abort rollback + local replay)."""

    SWEEP = (1, 2, 3, 4, 6, 8, 11)

    @pytest.fixture(scope="class")
    def ground_truth(self, multi):
        program, local = multi
        naive, session = run_session(program, **NAIVE_FLAGS)
        assert naive.output == local.output
        return shared_pages(session.mobile)

    @pytest.mark.parametrize("after", SWEEP)
    def test_fault_schedule(self, multi, ground_truth, after):
        program, local = multi
        plan = FaultPlan(seed=7, disconnect_after_messages=after,
                         reconnect_rate=0.6)
        result, session = run_session(program, fault_plan=plan)
        assert result.output == local.output
        assert shared_pages(session.mobile) == ground_truth

    def test_sweep_exercises_aborts(self, multi):
        program, local = multi
        aborted = 0
        for after in self.SWEEP:
            plan = FaultPlan(seed=7, disconnect_after_messages=after,
                             reconnect_rate=0.6)
            result, _ = run_session(program, fault_plan=plan)
            aborted += result.aborted_invocations
        assert aborted > 0  # the sweep really hit mid-flight failures

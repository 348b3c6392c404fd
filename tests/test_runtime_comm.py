"""Tests for networks, the communication manager (batching, compression)
and the function address table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_c
from repro.machine import boot
from repro.runtime import (CommunicationManager, FAST_WIFI,
                           FunctionAddressTable, IDEAL_NETWORK,
                           MESSAGE_HEADER_BYTES, NetworkModel,
                           SLOW_WIFI, UnmappableFunctionPointer)
from repro.runtime.comm import INPUT_REQUEST_BYTES, PER_ITEM_HEADER_BYTES
from repro.targets import ARM32, X86_64


class TestNetworkModel:
    def test_one_way_time(self):
        net = NetworkModel("t", bandwidth_bps=8e6, latency_s=0.001)
        # 1 MB/s effective: 1000 bytes + 64-byte message header
        # -> 1.064 ms serialize + 1 ms latency
        assert net.one_way_time(1000) == pytest.approx(0.002064)

    def test_round_trip(self):
        net = NetworkModel("t", bandwidth_bps=8e6, latency_s=0.001)
        assert net.round_trip_time(0, 0) == pytest.approx(0.002128)

    def test_zero_byte_message_pays_header(self):
        """Regression: a zero-byte payload is not free — it pays the
        link latency plus serialization of the per-message header, and
        round_trip_time agrees with one_way_time in both directions."""
        net = NetworkModel("t", bandwidth_bps=8e6, latency_s=0.001)
        header_s = MESSAGE_HEADER_BYTES / net.bandwidth_bytes_per_s
        assert net.one_way_time(0) == pytest.approx(
            net.latency_s + header_s)
        assert net.one_way_time(0) > net.latency_s
        assert net.round_trip_time(123, 456) == pytest.approx(
            net.one_way_time(123) + net.one_way_time(456))

    def test_presets_ordering(self):
        assert SLOW_WIFI.bandwidth_bps < FAST_WIFI.bandwidth_bps
        assert SLOW_WIFI.slow and not FAST_WIFI.slow
        assert IDEAL_NETWORK.one_way_time(10**9) < 1e-6


class TestBatching:
    def test_batching_amortizes_latency(self):
        payloads = [b"x" * 100 for _ in range(50)]
        batched = CommunicationManager(SLOW_WIFI, enable_batching=True)
        unbatched = CommunicationManager(SLOW_WIFI, enable_batching=False)
        t_batched = batched.send_to_server(list(payloads)).seconds
        t_unbatched = unbatched.send_to_server(list(payloads)).seconds
        assert t_batched < t_unbatched / 5

    def test_batch_window_flushes_once(self):
        comm = CommunicationManager(FAST_WIFI)
        comm.begin_batch(to_server=True)
        r1 = comm.send_to_server([b"a" * 100])
        r2 = comm.send_to_server([b"b" * 100])
        assert r1.seconds == 0 and r2.seconds == 0
        flush = comm.flush_batch()
        assert flush.seconds > 0
        assert comm.stats.bytes_to_server == 200
        assert comm.stats.messages == 1

    def test_batch_window_direction_isolated(self):
        comm = CommunicationManager(FAST_WIFI)
        comm.begin_batch(to_server=True)
        reverse = comm.send_to_mobile([b"y" * 2000])
        assert reverse.seconds > 0  # opposite direction not captured
        comm.flush_batch()

    def test_empty_flush(self):
        comm = CommunicationManager(FAST_WIFI)
        comm.begin_batch(to_server=False)
        assert comm.flush_batch().seconds == 0

    def test_empty_flush_sends_nothing(self):
        """An empty batching window costs nothing and moves nothing —
        no message, no wire bytes, no simulated time."""
        comm = CommunicationManager(FAST_WIFI)
        comm.begin_batch(to_server=True)
        result = comm.flush_batch()
        assert result.seconds == 0 and result.wire_bytes == 0
        assert comm.stats.messages == 0
        assert comm.stats.comm_seconds == 0.0
        assert comm.stats.wire_bytes_to_server == 0
        # flushing again with no open window is also a no-op
        assert comm.flush_batch().seconds == 0

    def test_single_item_batch_framing(self):
        """A batch of one item pays exactly one per-item header plus one
        per-message header over the payload."""
        comm = CommunicationManager(FAST_WIFI, enable_compression=False)
        comm.begin_batch(to_server=True)
        payload = b"z" * 1000
        comm.send_to_server([payload])
        result = comm.flush_batch()
        assert result.wire_bytes == (len(payload) + PER_ITEM_HEADER_BYTES
                                     + MESSAGE_HEADER_BYTES)
        assert result.seconds == pytest.approx(
            FAST_WIFI.one_way_time(len(payload) + PER_ITEM_HEADER_BYTES))

    def test_discard_batch_transmits_nothing(self):
        """The abort path: a discarded batching window never reaches the
        wire."""
        comm = CommunicationManager(FAST_WIFI)
        comm.begin_batch(to_server=True)
        comm.send_to_server([b"q" * 4096])
        comm.discard_batch()
        assert comm.flush_batch().seconds == 0
        assert comm.stats.messages == 0
        assert comm.stats.wire_bytes_to_server == 0
        assert comm.stats.comm_seconds == 0.0


class TestCompression:
    def test_compressible_payload_shrinks_wire_bytes(self):
        comm = CommunicationManager(SLOW_WIFI, enable_compression=True)
        payload = b"A" * 65536
        result = comm.send_to_mobile([payload])
        assert result.wire_bytes < len(payload) // 10
        assert comm.stats.compression_saved_bytes > 0
        assert comm.stats.bytes_to_mobile == 65536  # logical payload

    def test_compression_only_server_to_mobile(self):
        comm = CommunicationManager(SLOW_WIFI, enable_compression=True)
        payload = b"A" * 65536
        result = comm.send_to_server([payload])
        assert result.wire_bytes >= len(payload)

    def test_incompressible_payload_not_inflated(self):
        comm = CommunicationManager(SLOW_WIFI, enable_compression=True)
        payload = bytes(range(256)) * 16
        result = comm.send_to_mobile([payload])
        assert result.wire_bytes <= len(payload) + 128

    def test_incompressible_wire_bytes_bounded_by_framing(self):
        """Server->mobile payloads the codec cannot shrink must never
        inflate the wire bytes beyond payload + framing: the manager
        keeps the raw bytes whenever deflate would grow them."""
        import random as _random
        rng = _random.Random(1234)
        payloads = [bytes(rng.getrandbits(8) for _ in range(3000))
                    for _ in range(3)]
        comm = CommunicationManager(SLOW_WIFI, enable_compression=True,
                                    enable_batching=True)
        result = comm.send_to_mobile(list(payloads))
        total = sum(len(p) for p in payloads)
        framing = (PER_ITEM_HEADER_BYTES * len(payloads)
                   + MESSAGE_HEADER_BYTES)
        assert result.wire_bytes <= total + framing
        # unbatched: each item pays its own message framing, still no
        # inflation beyond it
        comm2 = CommunicationManager(SLOW_WIFI, enable_compression=True,
                                     enable_batching=False)
        result2 = comm2.send_to_mobile(list(payloads))
        framing2 = ((PER_ITEM_HEADER_BYTES + MESSAGE_HEADER_BYTES)
                    * len(payloads))
        assert result2.wire_bytes <= total + framing2

    def test_disable_compression(self):
        on = CommunicationManager(SLOW_WIFI, enable_compression=True)
        off = CommunicationManager(SLOW_WIFI, enable_compression=False)
        payload = b"B" * 32768
        assert off.send_to_mobile([payload]).seconds > \
            on.send_to_mobile([payload]).seconds

    def test_compression_charges_codec_time(self):
        comm = CommunicationManager(SLOW_WIFI, enable_compression=True)
        comm.send_to_mobile([b"C" * 65536])
        assert comm.stats.compression_seconds > 0


class TestStreamAndRoundTrip:
    def test_stream_cheaper_than_message(self):
        comm = CommunicationManager(SLOW_WIFI)
        streamed = comm.stream_to_mobile(b"line\n").seconds
        messaged = comm.round_trip(5, 0).seconds
        assert streamed < messaged

    def test_stream_without_batching_pays_latency(self):
        comm = CommunicationManager(SLOW_WIFI, enable_batching=False)
        assert comm.stream_to_mobile(b"x").seconds >= SLOW_WIFI.latency_s

    def test_input_stream_is_one_pipelined_delivery(self):
        """The data goes to the server, the request that asked for it to
        the phone, and the seconds are the pipelined figure."""
        comm = CommunicationManager(SLOW_WIFI)
        seconds = comm.stream_to_server(1000).seconds
        assert seconds == (max(100e-6, SLOW_WIFI.latency_s / 8.0)
                           + 1000 / SLOW_WIFI.bandwidth_bytes_per_s)
        assert comm.stats.messages == 1
        assert (comm.stats.bytes_to_server,
                comm.stats.bytes_to_mobile) == (1000, INPUT_REQUEST_BYTES)
        assert comm.stats.wire_bytes_to_server == 1000 + PER_ITEM_HEADER_BYTES

    def test_round_trip_counts_two_messages(self):
        comm = CommunicationManager(FAST_WIFI)
        comm.round_trip(100, 200)
        assert comm.stats.messages == 2
        assert comm.stats.bytes_to_server == 100
        assert comm.stats.bytes_to_mobile == 200


@given(st.lists(st.binary(min_size=1, max_size=512), min_size=1,
                max_size=12),
       st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_accounting_invariants(payloads, batching, compression):
    """Payload accounting is exact and time is nonnegative and finite,
    whatever the feature flags."""
    comm = CommunicationManager(FAST_WIFI, enable_batching=batching,
                                enable_compression=compression)
    total = sum(len(p) for p in payloads)
    up = comm.send_to_server(list(payloads))
    down = comm.send_to_mobile(list(payloads))
    assert comm.stats.bytes_to_server == total
    assert comm.stats.bytes_to_mobile == total
    assert up.seconds > 0 and down.seconds > 0
    assert comm.stats.comm_seconds == pytest.approx(
        up.seconds + down.seconds)


class TestFunctionAddressTable:
    def _machines(self):
        src = """
        int f(int x) { return x; }
        int g(int x) { return -x; }
        int main() { return f(1) + g(2); }
        """
        module = compile_c(src, "m")
        return (boot(module.clone(), ARM32, "mobile"),
                boot(module.clone(), X86_64, "server"))

    def test_bidirectional_mapping(self):
        mobile, server = self._machines()
        table = FunctionAddressTable(mobile, server)
        m_addr = mobile.address_of_function("f")
        s_addr = server.address_of_function("f")
        assert m_addr != s_addr  # different back ends, different addresses
        assert table.map_m2s(m_addr) == s_addr
        assert table.map_s2m(s_addr) == m_addr

    def test_unmappable_address_raises(self):
        mobile, server = self._machines()
        table = FunctionAddressTable(mobile, server)
        with pytest.raises(UnmappableFunctionPointer):
            table.map_m2s(0xDEADBEEF)

    def test_lookup_counter(self):
        mobile, server = self._machines()
        table = FunctionAddressTable(mobile, server)
        table.map_m2s(mobile.address_of_function("f"))
        table.map_s2m(server.address_of_function("g"))
        assert table.total_lookups == 2

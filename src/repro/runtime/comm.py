"""Communication manager: batching and compression (paper, Section 4).

All mobile<->server traffic funnels through one :class:`CommunicationManager`
so the runtime can (a) batch many page payloads into one network message,
amortizing per-message overheads, and (b) compress server-to-mobile
payloads with a real codec (zlib).  Compression is applied only in the
server-to-mobile direction, exactly as in the paper: compressing on the
slow mobile CPU would cost more than it saves, while mobile-side
*decompression* is cheap.

The manager is the top of the layered communication stack
(docs/fault-model.md): it frames and shapes traffic, then hands every
message to a :class:`repro.runtime.transport.Transport` for delivery.
When the transport declares the link dead mid-delivery
(:class:`repro.runtime.transport.LinkDownError`), the manager charges the
burned time to ``stats.comm_seconds`` — the timeline must reflect every
simulated second, including failed ones — and re-raises so the session
can abort the invocation and fall back to local execution.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional

from ..trace import NULL_TRACER, Tracer
from .network import FaultPlan, Link, MESSAGE_HEADER_BYTES, NetworkModel
from .transport import LinkDownError, RetryPolicy, Transport

# Cost model for the codec itself (cycles per byte on the executing core).
COMPRESS_CYCLES_PER_BYTE = 12.0     # server-side deflate
DECOMPRESS_CYCLES_PER_BYTE = 3.0    # mobile-side inflate
PER_ITEM_HEADER_BYTES = 16          # per-batched-item framing
STREAM_OP_OVERHEAD_S = 25e-6        # per-op cost of pipelined output I/O
INPUT_OP_OVERHEAD_S = 100e-6        # least per-op cost of pipelined input
INPUT_REQUEST_BYTES = 24            # the request a pipelined input answers

# Per-record framing of one (offset, length) sub-page delta record
# (docs/uva-data-plane.md).  The framing lives here with the rest of the
# wire layout: the UVA layer decides *what* to diff, the communication
# layer owns how a record looks on the wire.
DELTA_RECORD_HEADER_BYTES = 8


def delta_records_size(records) -> int:
    """Wire size of a sub-page delta: per-record header + patch bytes."""
    return sum(DELTA_RECORD_HEADER_BYTES + len(data)
               for _, data in records)


def encode_delta_records(records) -> bytes:
    """The wire form of a delta: per-record framing plus the patch bytes
    themselves (real content, so one-way compression still applies)."""
    return b"".join(b"\x00" * DELTA_RECORD_HEADER_BYTES + data
                    for _, data in records)


@dataclass
class CommStats:
    messages: int = 0
    bytes_to_server: int = 0          # uncompressed payload
    bytes_to_mobile: int = 0
    wire_bytes_to_server: int = 0     # after framing
    wire_bytes_to_mobile: int = 0     # after compression + framing
    compression_saved_bytes: int = 0
    comm_seconds: float = 0.0
    compression_seconds: float = 0.0

    @property
    def total_payload_bytes(self) -> int:
        return self.bytes_to_server + self.bytes_to_mobile


@dataclass
class TransferResult:
    seconds: float
    wire_bytes: int
    payload_bytes: int


class CommunicationManager:
    def __init__(self, network: NetworkModel,
                 enable_batching: bool = True,
                 enable_compression: bool = True,
                 server_clock_hz: float = 3.6e9,
                 mobile_clock_hz: float = 2.5e9,
                 tracer: Optional[Tracer] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None):
        self.network = network
        self.enable_batching = enable_batching
        self.enable_compression = enable_compression
        self.server_clock_hz = server_clock_hz
        self.mobile_clock_hz = mobile_clock_hz
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.transport = Transport(Link(network, fault_plan),
                                   policy=retry_policy, tracer=self.tracer)
        self.stats = CommStats()
        self._active_batch = None  # (to_server, payload list) or None

    def set_network(self, network: NetworkModel) -> None:
        """Re-point the comm path at a different link profile.

        Used by the fleet's tiered pools (docs/placement.md): a
        cloud-tier admission swaps the device onto the tier's WAN for
        the invocation and swaps the original link back afterwards.
        The :class:`~repro.runtime.network.Link` reads its network at
        transmit time, so the swap takes effect immediately; fault
        plans and transport retry state carry over unchanged.
        """
        self.network = network
        self.transport.link.network = network

    # -- explicit batching windows --------------------------------------
    def begin_batch(self, to_server: bool) -> None:
        """Open a batching window: subsequent sends in this direction are
        accumulated and shipped as one message by :meth:`flush_batch`.
        A no-op when batching is disabled."""
        if self.enable_batching:
            self._active_batch = (to_server, [])

    def flush_batch(self) -> TransferResult:
        if self._active_batch is None:
            return TransferResult(0.0, 0, 0)
        to_server, payloads = self._active_batch
        self._active_batch = None
        if not payloads:
            return TransferResult(0.0, 0, 0)
        return self._send(payloads, to_server=to_server)

    def discard_batch(self) -> None:
        """Drop an open batching window without transmitting — the abort
        path of a failed invocation."""
        self._active_batch = None

    # -- mobile -> server -------------------------------------------------
    def send_to_server(self, payloads: List[bytes]) -> TransferResult:
        """Send payload items from the mobile device to the server.

        With batching, all items travel in one message; without it, each
        item pays its own message latency and header.
        """
        return self._send(payloads, to_server=True)

    # -- server -> mobile (compressed) ---------------------------------
    def send_to_mobile(self, payloads: List[bytes]) -> TransferResult:
        return self._send(payloads, to_server=False)

    def _send(self, payloads: List[bytes], to_server: bool) -> TransferResult:
        if not payloads:
            return TransferResult(0.0, 0, 0)
        if (self._active_batch is not None
                and self._active_batch[0] == to_server):
            self._active_batch[1].extend(payloads)
            return TransferResult(0.0, 0, sum(len(p) for p in payloads))
        payload_bytes = sum(len(p) for p in payloads)
        direction = "to_server" if to_server else "to_mobile"
        groups: List[List[bytes]] = (
            [payloads] if self.enable_batching else [[p] for p in payloads])
        seconds = 0.0
        wire_total = 0
        saved_bytes = 0
        compression_seconds = 0.0
        for group in groups:
            raw = b"".join(group)
            if not to_server and self.enable_compression and len(raw) >= 128:
                compressed = zlib.compress(raw, 1)
                if len(compressed) < len(raw):
                    saved_bytes += len(raw) - len(compressed)
                    self.stats.compression_saved_bytes += (
                        len(raw) - len(compressed))
                    comp_secs = (len(raw) * COMPRESS_CYCLES_PER_BYTE
                                 / self.server_clock_hz
                                 + len(compressed)
                                 * DECOMPRESS_CYCLES_PER_BYTE
                                 / self.mobile_clock_hz)
                    self.stats.compression_seconds += comp_secs
                    compression_seconds += comp_secs
                    seconds += comp_secs
                    raw = compressed
            # The message body: compressed payload plus per-item framing.
            # The per-message header is charged by the network time model
            # itself (MESSAGE_HEADER_BYTES) and added back into the
            # wire-byte accounting below.
            body = len(raw) + PER_ITEM_HEADER_BYTES * len(group)
            try:
                seconds += self.transport.deliver(body, direction)
            except LinkDownError as err:
                self._charge_failure(seconds + err.elapsed_seconds,
                                     direction, payload_bytes)
                raise
            wire_total += body + MESSAGE_HEADER_BYTES
            self.stats.messages += 1
        if to_server:
            self.stats.bytes_to_server += payload_bytes
            self.stats.wire_bytes_to_server += wire_total
        else:
            self.stats.bytes_to_mobile += payload_bytes
            self.stats.wire_bytes_to_mobile += wire_total
        self.stats.comm_seconds += seconds
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("comm.send", direction, dur=seconds,
                        payload_bytes=payload_bytes, wire_bytes=wire_total,
                        items=len(payloads), messages=len(groups),
                        saved_bytes=saved_bytes,
                        compression_seconds=compression_seconds)
        return TransferResult(seconds, wire_total, payload_bytes)

    def stream_to_mobile(self, payload: bytes) -> TransferResult:
        """Asynchronous one-way output forwarding (remote *output* I/O).

        With batching, outputs ride an established stream whose latency is
        pipelined away and only a small per-operation overhead remains;
        without batching every operation pays the full message latency —
        this is exactly the overhead the runtime's batching amortizes.
        """
        try:
            if self.enable_batching:
                seconds = self.transport.deliver(
                    len(payload), "to_mobile", pipelined=True,
                    overhead_s=STREAM_OP_OVERHEAD_S)
                wire = len(payload) + PER_ITEM_HEADER_BYTES
            else:
                seconds = self.transport.deliver(len(payload), "to_mobile")
                wire = len(payload) + MESSAGE_HEADER_BYTES
        except LinkDownError as err:
            self._charge_failure(err.elapsed_seconds, "to_mobile",
                                 len(payload))
            raise
        self.stats.messages += 1
        self.stats.bytes_to_mobile += len(payload)
        self.stats.wire_bytes_to_mobile += wire
        self.stats.comm_seconds += seconds
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("comm.stream", "to_mobile", dur=seconds,
                        payload_bytes=len(payload), wire_bytes=wire,
                        pipelined=self.enable_batching)
        return TransferResult(seconds, wire, len(payload))

    def stream_to_server(self, payload_bytes: int) -> TransferResult:
        """Pipelined remote *input* I/O: the phone's file data, read for
        the server.  File input is remotely executable because the
        runtime prefetches file data and pipelines requests (paper,
        Section 3.4 / Rio [23]), so a read pays no network round trip —
        one delivery on the established stream with a pipelined-RPC
        overhead, its retries included.  The data is booked to_server
        and the request that asked for it to_mobile."""
        request_bytes = INPUT_REQUEST_BYTES
        overhead = max(INPUT_OP_OVERHEAD_S, self.network.latency_s / 8.0)
        try:
            seconds = self.transport.deliver(payload_bytes, "to_server",
                                             pipelined=True,
                                             overhead_s=overhead)
        except LinkDownError as err:
            self._charge_failure(err.elapsed_seconds, "to_server",
                                 payload_bytes + request_bytes)
            raise
        wire = payload_bytes + PER_ITEM_HEADER_BYTES
        wire_request = request_bytes + PER_ITEM_HEADER_BYTES
        self.stats.messages += 1
        self.stats.bytes_to_server += payload_bytes
        self.stats.bytes_to_mobile += request_bytes
        self.stats.wire_bytes_to_server += wire
        self.stats.wire_bytes_to_mobile += wire_request
        self.stats.comm_seconds += seconds
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("comm.stream", "to_server", dur=seconds,
                        payload_bytes=payload_bytes, wire_bytes=wire,
                        request_bytes=request_bytes,
                        wire_request_bytes=wire_request, pipelined=True)
        return TransferResult(seconds, wire + wire_request,
                              payload_bytes + request_bytes)

    def round_trip(self, request_bytes: int,
                   response_bytes: int) -> TransferResult:
        """A small control round trip (offload request, control I/O)."""
        seconds = 0.0
        try:
            seconds += self.transport.deliver(request_bytes, "to_server")
            seconds += self.transport.deliver(response_bytes, "to_mobile")
        except LinkDownError as err:
            self._charge_failure(seconds + err.elapsed_seconds, "control",
                                 request_bytes + response_bytes)
            raise
        self.stats.messages += 2
        self.stats.bytes_to_server += request_bytes
        self.stats.bytes_to_mobile += response_bytes
        self.stats.wire_bytes_to_server += (request_bytes
                                            + MESSAGE_HEADER_BYTES)
        self.stats.wire_bytes_to_mobile += (response_bytes
                                            + MESSAGE_HEADER_BYTES)
        self.stats.comm_seconds += seconds
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("comm.rtt", "control", dur=seconds,
                        request_bytes=request_bytes,
                        response_bytes=response_bytes,
                        wire_request_bytes=(request_bytes
                                            + MESSAGE_HEADER_BYTES),
                        wire_response_bytes=(response_bytes
                                             + MESSAGE_HEADER_BYTES))
        return TransferResult(seconds,
                              request_bytes + response_bytes
                              + 2 * MESSAGE_HEADER_BYTES,
                              request_bytes + response_bytes)

    def _charge_failure(self, seconds: float, direction: str,
                        payload_bytes: int) -> None:
        """Account a failed delivery: the simulated time burned on
        retries, timeouts and backoff is real wall-clock time for the
        mobile device even though no payload arrived."""
        self.stats.comm_seconds += seconds
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("comm.send", direction, dur=seconds,
                        payload_bytes=payload_bytes, wire_bytes=0,
                        items=0, messages=0, saved_bytes=0,
                        compression_seconds=0.0, failed=True)

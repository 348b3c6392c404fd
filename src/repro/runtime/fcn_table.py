"""Function address table (paper, Section 3.4).

Back ends place the same function at different addresses on the mobile
device and the server.  Shared memory canonically holds *mobile* function
addresses; the server maps mobile->server before an indirect call (m2s) and
server->mobile when storing a function address (s2m).  Each lookup costs
real time — Figure 7 shows this as a first-order overhead for 445.gobmk,
458.sjeng and 464.h264ref.
"""

from __future__ import annotations

from typing import Dict

from ..machine.machine import Machine

# Cost of one table lookup on the server, in raw machine cycles (hash,
# validation, and the indirect-branch misprediction it induces).
MAP_LOOKUP_CYCLES = 300.0


class UnmappableFunctionPointer(Exception):
    def __init__(self, address: int, direction: str):
        super().__init__(
            f"no {direction} mapping for function address {address:#x}")
        self.address = address


class FunctionAddressTable:
    """Bidirectional mobile<->server function address map."""

    def __init__(self, mobile: Machine, server: Machine):
        self.m2s: Dict[int, int] = {}
        self.s2m: Dict[int, int] = {}
        for name, mobile_addr in mobile.function_addresses.items():
            server_addr = server.function_addresses.get(name)
            if server_addr is None:
                continue
            self.m2s[mobile_addr] = server_addr
            self.s2m[server_addr] = mobile_addr
        self.m2s_lookups = 0
        self.s2m_lookups = 0

    def map_m2s(self, address: int) -> int:
        self.m2s_lookups += 1
        try:
            return self.m2s[address]
        except KeyError:
            # Address may already be a server address (e.g. stored by the
            # server itself without s2m canonicalization disabled).
            if address in self.s2m:
                return address
            raise UnmappableFunctionPointer(address, "m2s") from None

    def map_s2m(self, address: int) -> int:
        self.s2m_lookups += 1
        try:
            return self.s2m[address]
        except KeyError:
            if address in self.m2s:
                return address
            raise UnmappableFunctionPointer(address, "s2m") from None

    @property
    def total_lookups(self) -> int:
        return self.m2s_lookups + self.s2m_lookups

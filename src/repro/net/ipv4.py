"""The IPv4 header (RFC 791), built and parsed at the byte level.

The fields the paper cares about are all here: TTL (traceroute's probe
mechanism), Identification (varied by tcptraceroute, and the "IP ID" that
Paris traceroute reads from responses), TOS (observed by the authors to
be hashed by some load balancers), Protocol, and the Source/Destination
addresses that anchor every flow identifier.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import ChecksumError, FieldValueError, TruncatedPacketError
from repro.net.inet import (
    IPv4Address,
    checksum,
    checksum_without,
    require_u8,
    require_u16,
)

#: Length in octets of an IPv4 header without options.
IPV4_HEADER_LENGTH = 20

#: Default initial TTL used by simulated routers for ICMP responses.  The
#: paper notes "most routers use the default TTL for ICMP, which is 255".
DEFAULT_ROUTER_TTL = 255

#: A common alternative initial TTL (hosts, some vendors).
DEFAULT_HOST_TTL = 64

_STRUCT = struct.Struct("!BBHHHBBH4s4s")

#: Instance allocation without ``__init__``, for the trusted copies.
_new = object.__new__


class IPProtocol(enum.IntEnum):
    """Protocol numbers for the IPv4 Protocol field (subset we use)."""

    ICMP = 1
    TCP = 6
    UDP = 17
    # Used only to discuss the authors' IPSec probing experiments.
    ESP = 50


@dataclass(frozen=True)
class IPv4Header:
    """An immutable IPv4 header without options (IHL = 5).

    ``total_length`` covers header plus payload; :meth:`build` fills it in
    from the payload length when left at 0.  The header checksum is always
    computed on serialization; on parse it is verified unless
    ``verify_checksum=False``.
    """

    src: IPv4Address
    dst: IPv4Address
    protocol: int
    ttl: int = DEFAULT_HOST_TTL
    identification: int = 0
    tos: int = 0
    flags: int = 0
    fragment_offset: int = 0
    total_length: int = 0

    def __post_init__(self) -> None:
        if type(self.src) is not IPv4Address:
            object.__setattr__(self, "src", IPv4Address(self.src))
        if type(self.dst) is not IPv4Address:
            object.__setattr__(self, "dst", IPv4Address(self.dst))
        # One chained range check covers every well-formed header (the
        # response-construction hot path); only a failure pays for the
        # per-field validators and their precise error messages.
        if (type(self.protocol) is int and 0 <= self.protocol <= 0xFF
                and type(self.ttl) is int and 0 <= self.ttl <= 0xFF
                and type(self.identification) is int
                and 0 <= self.identification <= 0xFFFF
                and type(self.tos) is int and 0 <= self.tos <= 0xFF
                and 0 <= self.flags <= 0b111
                and 0 <= self.fragment_offset <= 0x1FFF
                and type(self.total_length) is int
                and 0 <= self.total_length <= 0xFFFF):
            return
        require_u8("protocol", int(self.protocol))
        require_u8("ttl", self.ttl)
        require_u16("identification", self.identification)
        require_u8("tos", self.tos)
        if not 0 <= self.flags <= 0b111:
            raise FieldValueError("flags", self.flags, "3-bit field")
        if not 0 <= self.fragment_offset <= 0x1FFF:
            raise FieldValueError("fragment_offset", self.fragment_offset, "13-bit field")
        require_u16("total_length", self.total_length)

    def build(self, payload_length: int = 0) -> bytes:
        """Serialize to 20 bytes with a correct header checksum.

        If ``total_length`` is 0, it is computed as header + ``payload_length``.
        """
        total = self.total_length or IPV4_HEADER_LENGTH + payload_length
        version_ihl = (4 << 4) | 5
        flags_frag = (self.flags << 13) | self.fragment_offset
        raw = _STRUCT.pack(
            version_ihl,
            self.tos,
            total,
            self.identification,
            flags_frag,
            self.ttl,
            int(self.protocol),
            0,
            self.src.packed,
            self.dst.packed,
        )
        ck = checksum(raw)
        return raw[:10] + struct.pack("!H", ck) + raw[12:]

    @classmethod
    def parse(cls, data: bytes, verify_checksum: bool = True) -> tuple["IPv4Header", bytes]:
        """Parse a header from ``data``; return ``(header, payload)``.

        Raises :class:`TruncatedPacketError` on short input,
        :class:`FieldValueError` on a non-IPv4 version or IHL < 5, and
        :class:`ChecksumError` if verification is on and the stored
        checksum is wrong.
        """
        if len(data) < IPV4_HEADER_LENGTH:
            raise TruncatedPacketError("IPv4 header", IPV4_HEADER_LENGTH, len(data))
        (
            version_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            stored_ck,
            src,
            dst,
        ) = _STRUCT.unpack(data[:IPV4_HEADER_LENGTH])
        version = version_ihl >> 4
        ihl = version_ihl & 0x0F
        if version != 4:
            raise FieldValueError("version", version, "not IPv4")
        if ihl < 5:
            raise FieldValueError("ihl", ihl, "below minimum of 5")
        header_length = ihl * 4
        if len(data) < header_length:
            raise TruncatedPacketError("IPv4 options", header_length, len(data))
        if verify_checksum:
            computed = checksum_without(data[:header_length], 10)
            if computed != stored_ck:
                raise ChecksumError("IPv4 header", computed, stored_ck)
        header = cls(
            src=IPv4Address(src),
            dst=IPv4Address(dst),
            protocol=protocol,
            ttl=ttl,
            identification=identification,
            tos=tos,
            flags=flags_frag >> 13,
            fragment_offset=flags_frag & 0x1FFF,
            total_length=total_length,
        )
        payload_end = min(len(data), total_length) if total_length else len(data)
        return header, data[header_length:payload_end]

    def decremented(self) -> "IPv4Header":
        """A copy with TTL reduced by one (router forwarding step)."""
        if self.ttl == 0:
            raise FieldValueError("ttl", self.ttl, "cannot decrement below zero")
        return self._derived(self.ttl - 1, self.identification)

    def with_ttl(self, ttl: int) -> "IPv4Header":
        """A copy with the TTL replaced."""
        if type(ttl) is not int or not 0 <= ttl <= 0xFF:
            require_u8("ttl", ttl)
        return self._derived(ttl, self.identification)

    def with_identification(self, identification: int) -> "IPv4Header":
        """A copy with the Identification field replaced."""
        if (type(identification) is not int
                or not 0 <= identification <= 0xFFFF):
            require_u16("identification", identification)
        return self._derived(self.ttl, identification)

    def _derived(self, ttl: int, identification: int) -> "IPv4Header":
        """A copy with TTL and Identification set, without re-validation.

        Every other field comes from this already-validated header and
        the caller has range-checked the two it sets, so ``__init__``
        and ``__post_init__`` (what ``dataclasses.replace`` would run)
        have nothing left to catch.  Byte-identical to the validated
        copy: checksums are computed at build time.
        """
        copy = _new(IPv4Header)
        fields = copy.__dict__
        fields.update(self.__dict__)
        fields["ttl"] = ttl
        fields["identification"] = identification
        return copy

    def reply(self, src: IPv4Address, protocol: int, ttl: int,
              identification: int) -> "IPv4Header":
        """The header of a datagram answering this one, unvalidated.

        Addressed from ``src`` back to this header's source, with zero
        TOS, flags and fragment offset.  The caller vouches for the
        values it passes: ``src`` is an :class:`IPv4Address`,
        ``protocol`` and ``ttl`` fit 8 bits and ``identification`` 16.
        The simulator's nodes check their initial TTL and fake source
        address when they are built, and their IP-ID counters wrap at
        16 bits, which is what lets every response skip the checks.
        """
        header = _new(IPv4Header)
        header.__dict__.update(
            src=src, dst=self.src, protocol=protocol, ttl=ttl,
            identification=identification, tos=0, flags=0,
            fragment_offset=0, total_length=0)
        return header

    def summary(self) -> str:
        """One-line human-readable rendering used in logs and examples."""
        try:
            proto = IPProtocol(int(self.protocol)).name
        except ValueError:
            proto = str(int(self.protocol))
        return (
            f"IPv4 {self.src} > {self.dst} proto={proto} "
            f"ttl={self.ttl} id={self.identification}"
        )

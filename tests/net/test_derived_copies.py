"""The unvalidated copies equal the validated ones, field for field.

:meth:`Packet.with_ttl`, :meth:`Packet.decremented`,
:meth:`Packet.with_ip_identification` and :meth:`Packet.reply` (and the
header copies under them) skip ``__init__``/``__post_init__``.  These
properties pin them to what ``dataclasses.replace`` and
:meth:`Packet.make` — the checked paths — produce.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FieldValueError
from repro.net.icmp import (
    ICMPDestinationUnreachable,
    ICMPEchoReply,
    ICMPEchoRequest,
    ICMPTimeExceeded,
)
from repro.net.inet import IPv4Address
from repro.net.ipv4 import IPv4Header
from repro.net.packet import Packet
from repro.net.tcp import TCPHeader
from repro.net.udp import UDPHeader

u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
addresses = st.integers(0, 0xFFFFFFFF).map(IPv4Address)
payloads = st.binary(max_size=24)

udp = st.builds(UDPHeader, src_port=u16, dst_port=u16)
tcp = st.builds(TCPHeader, src_port=u16, dst_port=u16,
                seq=st.integers(0, 0xFFFFFFFF), flags=st.integers(0, 0x3F))
echo = st.builds(ICMPEchoRequest, identifier=u16, sequence=u16,
                 payload=payloads)
quoted = st.builds(IPv4Header, src=addresses, dst=addresses,
                   protocol=st.just(17), ttl=u8, identification=u16)
icmp_error = st.builds(ICMPTimeExceeded, quoted_header=quoted,
                       quoted_payload=st.binary(min_size=8, max_size=8))


@st.composite
def packets(draw):
    transport = draw(st.one_of(udp, tcp, echo, icmp_error))
    payload = (draw(payloads)
               if isinstance(transport, (UDPHeader, TCPHeader)) else b"")
    return Packet.make(draw(addresses), draw(addresses), transport,
                       payload=payload, ttl=draw(u8),
                       identification=draw(u16), tos=draw(u8))


def assert_same(fast, slow):
    """Equal field for field (types included) and on the wire."""
    assert fast == slow
    for f in dataclasses.fields(IPv4Header):
        a, b = getattr(fast.ip, f.name), getattr(slow.ip, f.name)
        assert a == b and type(a) is type(b), f.name
    assert fast.build() == slow.build()


def snapshot(packet):
    return (packet.ip, packet.transport, packet.payload, packet.build())


def fresh_transport_bytes(packet):
    return Packet(ip=packet.ip, transport=packet.transport,
                  payload=packet.payload).transport_bytes()


@given(packets(), u8)
def test_with_ttl_matches_replace(packet, ttl):
    packet.transport_bytes()
    before = snapshot(packet)
    fast = packet.with_ttl(ttl)
    assert_same(fast, dataclasses.replace(
        packet, ip=dataclasses.replace(packet.ip, ttl=ttl)))
    # The adopted memo is the one a fresh serialisation computes.
    assert fast.__dict__["_transport_wire"] == fresh_transport_bytes(fast)
    assert snapshot(packet) == before


@given(packets(), u16)
def test_with_ip_identification_matches_replace(packet, identification):
    packet.transport_bytes()
    before = snapshot(packet)
    fast = packet.with_ip_identification(identification)
    assert_same(fast, dataclasses.replace(
        packet, ip=dataclasses.replace(packet.ip,
                                       identification=identification)))
    assert fast.__dict__["_transport_wire"] == fresh_transport_bytes(fast)
    assert snapshot(packet) == before


@given(packets().filter(lambda p: p.ttl > 0))
def test_decremented_matches_replace(packet):
    packet.transport_bytes()
    before = snapshot(packet)
    fast = packet.decremented()
    assert_same(fast, dataclasses.replace(
        packet, ip=dataclasses.replace(packet.ip, ttl=packet.ttl - 1)))
    assert fast.__dict__["_transport_wire"] == fresh_transport_bytes(fast)
    assert snapshot(packet) == before


@given(packets(), u8)
def test_copy_without_memo_serialises_fresh(packet, ttl):
    # No memo on the source: the copy computes its own transport bytes.
    fast = packet.with_ttl(ttl)
    assert "_transport_wire" not in fast.__dict__
    assert fast.transport_bytes() == fresh_transport_bytes(fast)


@given(packets(), addresses, u8, u16, st.sampled_from(
    [ICMPTimeExceeded, ICMPDestinationUnreachable]))
def test_reply_matches_make(offending, src, ttl, identification, kind):
    before = snapshot(offending)
    message = kind(quoted_header=offending.ip,
                   quoted_payload=offending.first_eight_transport_octets())
    fast = offending.reply(src, message, ttl, identification)
    assert_same(fast, Packet.make(src, offending.src, message, ttl=ttl,
                                  identification=identification))
    assert snapshot(offending) == before


@given(echo, addresses, addresses, u8, u16)
def test_echo_reply_matches_make(request, prober, target, ttl,
                                 identification):
    ping = Packet.make(prober, target, request)
    answer = ICMPEchoReply(identifier=request.identifier,
                           sequence=request.sequence, payload=request.payload)
    fast = ping.reply(target, answer, ttl, identification)
    assert_same(fast, Packet.make(target, prober, answer, ttl=ttl,
                                  identification=identification))


@pytest.mark.parametrize("ttl", [-1, 256, 1000, 1.5, "3"])
def test_public_with_ttl_still_checks(ttl):
    packet = Packet.make("10.0.0.1", "10.0.0.2", UDPHeader(1, 2))
    with pytest.raises(FieldValueError):
        packet.with_ttl(ttl)
    with pytest.raises(FieldValueError):
        packet.ip.with_ttl(ttl)


@pytest.mark.parametrize("identification", [-1, 0x10000, 2.5, "7"])
def test_public_with_identification_still_checks(identification):
    packet = Packet.make("10.0.0.1", "10.0.0.2", UDPHeader(1, 2))
    with pytest.raises(FieldValueError):
        packet.with_ip_identification(identification)
    with pytest.raises(FieldValueError):
        packet.ip.with_identification(identification)


def test_decrement_below_zero_still_raises():
    packet = Packet.make("10.0.0.1", "10.0.0.2", UDPHeader(1, 2), ttl=0)
    with pytest.raises(FieldValueError):
        packet.decremented()

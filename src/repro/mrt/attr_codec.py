"""Path-attribute wire codec (RFC 4271 §4.3, RFC 4760, RFC 6793).

Encodes/decodes the attribute block of a BGP UPDATE.  AS paths are
always encoded 4-byte (AS4); IPv6 reachability travels in
MP_REACH_NLRI / MP_UNREACH_NLRI as on the real wire.  TABLE_DUMP_V2 RIB
entries use the RFC 6396 §4.3.4 abbreviated MP_REACH_NLRI (next hop
only), selected with ``rib_entry=True``.
"""

from __future__ import annotations

import ipaddress
import struct
from typing import Optional

from repro.bgp.attributes import (
    ATTR_AGGREGATOR,
    ATTR_AS_PATH,
    ATTR_COMMUNITIES,
    ATTR_MP_REACH_NLRI,
    ATTR_MP_UNREACH_NLRI,
    ATTR_NEXT_HOP,
    ATTR_ORIGIN,
    Aggregator,
    ASPath,
    PathAttributes,
)
from repro.mrt.constants import SAFI_UNICAST
from repro.net.address import address_text
from repro.net.prefix import AFI_IPV4, AFI_IPV6, Prefix

__all__ = ["encode_attributes", "decode_attributes", "DecodedUpdateBody"]

_FLAG_OPTIONAL = 0x80
_FLAG_TRANSITIVE = 0x40
_FLAG_EXTENDED = 0x10

_AS_SEQUENCE = 2
_AS_SET = 1


def _attribute(flags: int, type_code: int, payload: bytes) -> bytes:
    """Frame one attribute, using extended length when needed."""
    if len(payload) > 255:
        flags |= _FLAG_EXTENDED
        return struct.pack("!BBH", flags, type_code, len(payload)) + payload
    return struct.pack("!BBB", flags, type_code, len(payload)) + payload


def _encode_as_path(path: ASPath) -> bytes:
    """AS_PATH as one or more AS_SEQUENCE segments of <=255 ASNs."""
    out = bytearray()
    asns = list(path.asns)
    for start in range(0, len(asns), 255):
        chunk = asns[start:start + 255]
        out += struct.pack("!BB", _AS_SEQUENCE, len(chunk))
        for asn in chunk:
            out += struct.pack("!I", asn)
    return bytes(out)


def _decode_as_path(payload: bytes) -> ASPath:
    asns: list[int] = []
    offset = 0
    while offset < len(payload):
        seg_type, count = struct.unpack_from("!BB", payload, offset)
        offset += 2
        segment = [struct.unpack_from("!I", payload, offset + 4 * i)[0]
                   for i in range(count)]
        offset += 4 * count
        if seg_type not in (_AS_SEQUENCE, _AS_SET):
            raise ValueError(f"unsupported AS_PATH segment type {seg_type}")
        asns.extend(segment)  # AS_SETs flattened
    return ASPath(tuple(asns))


def encode_attributes(attrs: PathAttributes,
                      announced: Optional[list[Prefix]] = None,
                      withdrawn_mp: Optional[list[Prefix]] = None,
                      rib_entry: bool = False) -> bytes:
    """Encode the attribute block.

    ``announced`` prefixes that are IPv6 are folded into MP_REACH_NLRI;
    IPv4 announcements are carried in the UPDATE's NLRI field by the
    caller.  ``withdrawn_mp`` lists IPv6 prefixes for MP_UNREACH_NLRI.
    With ``rib_entry=True`` the MP_REACH_NLRI contains only the next hop
    (RFC 6396 §4.3.4).
    """
    announced = announced or []
    withdrawn_mp = withdrawn_mp or []
    out = bytearray()

    out += _attribute(_FLAG_TRANSITIVE, ATTR_ORIGIN, bytes([attrs.origin]))
    out += _attribute(_FLAG_TRANSITIVE, ATTR_AS_PATH, _encode_as_path(attrs.as_path))

    next_hop = ipaddress.ip_address(attrs.next_hop)
    if next_hop.version == 4:
        out += _attribute(_FLAG_TRANSITIVE, ATTR_NEXT_HOP, next_hop.packed)

    if attrs.aggregator is not None:
        payload = struct.pack("!I", attrs.aggregator.asn) + attrs.aggregator.address_bytes()
        out += _attribute(_FLAG_OPTIONAL | _FLAG_TRANSITIVE, ATTR_AGGREGATOR, payload)

    if attrs.communities:
        payload = b"".join(struct.pack("!HH", high, low)
                           for high, low in attrs.communities)
        out += _attribute(_FLAG_OPTIONAL | _FLAG_TRANSITIVE, ATTR_COMMUNITIES, payload)

    v6_announced = [p for p in announced if p.is_ipv6]
    if v6_announced or (rib_entry and next_hop.version == 6):
        body = bytearray()
        if not rib_entry:
            body += struct.pack("!HB", AFI_IPV6, SAFI_UNICAST)
        body += bytes([16]) + next_hop.packed if next_hop.version == 6 else bytes([4]) + next_hop.packed
        if not rib_entry:
            body += b"\x00"  # reserved
            for prefix in v6_announced:
                body += prefix.wire_bytes()
        out += _attribute(_FLAG_OPTIONAL, ATTR_MP_REACH_NLRI, bytes(body))

    if withdrawn_mp:
        body = bytearray(struct.pack("!HB", AFI_IPV6, SAFI_UNICAST))
        for prefix in withdrawn_mp:
            body += prefix.wire_bytes()
        out += _attribute(_FLAG_OPTIONAL, ATTR_MP_UNREACH_NLRI, bytes(body))

    return bytes(out)


class DecodedUpdateBody:
    """Result of :func:`decode_attributes`: the attribute bundle plus any
    NLRI carried inside MP_REACH/MP_UNREACH attributes."""

    def __init__(self):
        self.origin: int = 0
        self.as_path: Optional[ASPath] = None
        self.next_hop: str = "0.0.0.0"
        self.aggregator: Optional[Aggregator] = None
        self.communities: tuple[tuple[int, int], ...] = ()
        self.mp_announced: list[Prefix] = []
        self.mp_withdrawn: list[Prefix] = []

    def to_path_attributes(self) -> PathAttributes:
        if self.as_path is None:
            raise ValueError("attribute block carried no AS_PATH")
        return PathAttributes(
            as_path=self.as_path,
            next_hop=self.next_hop,
            origin=self.origin,
            aggregator=self.aggregator,
            communities=self.communities,
        )


def decode_attributes(data: bytes, rib_entry: bool = False) -> DecodedUpdateBody:
    """Decode an attribute block (inverse of :func:`encode_attributes`)."""
    result = DecodedUpdateBody()
    offset = 0
    while offset < len(data):
        flags, type_code = struct.unpack_from("!BB", data, offset)
        offset += 2
        if flags & _FLAG_EXTENDED:
            (length,) = struct.unpack_from("!H", data, offset)
            offset += 2
        else:
            length = data[offset]
            offset += 1
        payload = data[offset:offset + length]
        if len(payload) != length:
            raise ValueError("truncated path attribute")
        offset += length

        if type_code == ATTR_ORIGIN:
            result.origin = payload[0]
        elif type_code == ATTR_AS_PATH:
            result.as_path = _decode_as_path(payload)
        elif type_code == ATTR_NEXT_HOP:
            if len(payload) != 4:
                raise ValueError(
                    f"NEXT_HOP must be 4 bytes, got {len(payload)}")
            result.next_hop = address_text(payload)
        elif type_code == ATTR_AGGREGATOR:
            asn = struct.unpack("!I", payload[:4])[0]
            result.aggregator = Aggregator.from_bytes(asn, payload[4:8])
        elif type_code == ATTR_COMMUNITIES:
            count = len(payload) // 4
            result.communities = tuple(
                struct.unpack_from("!HH", payload, 4 * i) for i in range(count))
        elif type_code == ATTR_MP_REACH_NLRI:
            result.next_hop, nlri = _decode_mp_reach(payload, rib_entry)
            result.mp_announced.extend(nlri)
        elif type_code == ATTR_MP_UNREACH_NLRI:
            result.mp_withdrawn.extend(_decode_mp_unreach(payload))
        else:
            raise ValueError(f"unsupported attribute type {type_code}")
    return result


def _decode_mp_reach(payload: bytes, rib_entry: bool) -> tuple[str, list[Prefix]]:
    offset = 0
    if not rib_entry:
        afi, safi = struct.unpack_from("!HB", payload, 0)
        if safi != SAFI_UNICAST:
            raise ValueError(f"unsupported SAFI {safi}")
        offset = 3
    else:
        afi = AFI_IPV6
    nh_len = payload[offset]
    offset += 1
    nh_bytes = payload[offset:offset + nh_len]
    offset += nh_len
    next_hop = address_text(nh_bytes[:16] if nh_len >= 16 else nh_bytes)
    prefixes: list[Prefix] = []
    if not rib_entry:
        offset += 1  # reserved byte
        while offset < len(payload):
            prefix, consumed = Prefix.from_wire(payload[offset:], afi)
            prefixes.append(prefix)
            offset += consumed
    return next_hop, prefixes


def _decode_mp_unreach(payload: bytes) -> list[Prefix]:
    afi, safi = struct.unpack_from("!HB", payload, 0)
    if safi != SAFI_UNICAST:
        raise ValueError(f"unsupported SAFI {safi}")
    offset = 3
    prefixes: list[Prefix] = []
    while offset < len(payload):
        prefix, consumed = Prefix.from_wire(payload[offset:], afi)
        prefixes.append(prefix)
        offset += consumed
    return prefixes

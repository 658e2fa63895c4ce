"""BGP4MP MRT records: UPDATE messages and session state changes.

The encoder always emits BGP4MP_MESSAGE_AS4 / BGP4MP_STATE_CHANGE_AS4
(4-byte peer ASNs), as RIPE RIS has done for many years; the decoder
additionally accepts the 2-byte legacy subtypes.
"""

from __future__ import annotations

import ipaddress
import struct
from typing import Iterable, Optional

from repro.bgp.attributes import (
    ATTR_MP_REACH_NLRI,
    ATTR_MP_UNREACH_NLRI,
    PathAttributes,
)
from repro.bgp.messages import (
    Announcement,
    PeerState,
    StateRecord,
    UpdateRecord,
    Withdrawal,
)
from repro.mrt.attr_codec import decode_attributes, encode_attributes
from repro.mrt.constants import (
    BGP4MP_MESSAGE,
    BGP4MP_MESSAGE_AS4,
    BGP4MP_STATE_CHANGE,
    BGP4MP_STATE_CHANGE_AS4,
    BGP_MARKER,
    BGP_MSG_UPDATE,
    MRT_BGP4MP,
)
from repro.net.address import address_text
from repro.net.prefix import AFI_IPV4, AFI_IPV6, Prefix

__all__ = [
    "encode_update_record",
    "encode_state_record",
    "decode_bgp4mp",
    "iter_update_prefixes",
    "prematch_bgp4mp",
    "MRTRecordHeader",
    "encode_mrt_record",
    "decode_mrt_header",
]

#: A collector-side placeholder address/ASN for the "local" side of the
#: BGP4MP header (the collector itself).
COLLECTOR_ASN = 12654  # RIPE NCC RIS AS

# Precompiled wire codecs — the decode path runs once per record of
# every archive file, so repeated format-string parsing is measurable.
_MRT_HDR = struct.Struct("!IHHI")
_ASN_PAIR_AS4 = struct.Struct("!II")
_ASN_PAIR_AS2 = struct.Struct("!HH")
_U16_PAIR = struct.Struct("!HH")
_U16 = struct.Struct("!H")
_U16_U8 = struct.Struct("!HB")
_LEN_TYPE = struct.Struct("!HB")
_FLAG_EXTENDED_LENGTH = 0x10


class MRTRecordHeader:
    """Parsed MRT common header."""

    __slots__ = ("timestamp", "mrt_type", "subtype", "length")

    def __init__(self, timestamp: int, mrt_type: int, subtype: int, length: int):
        self.timestamp = timestamp
        self.mrt_type = mrt_type
        self.subtype = subtype
        self.length = length


def encode_mrt_record(timestamp: int, mrt_type: int, subtype: int,
                      body: bytes) -> bytes:
    """Wrap a record body in the MRT common header."""
    return _MRT_HDR.pack(timestamp, mrt_type, subtype, len(body)) + body


def decode_mrt_header(data: bytes, offset: int = 0) -> MRTRecordHeader:
    timestamp, mrt_type, subtype, length = _MRT_HDR.unpack_from(data, offset)
    return MRTRecordHeader(timestamp, mrt_type, subtype, length)


def _bgp4mp_header(peer_asn: int, peer_address: str,
                   local_address: str) -> tuple[bytes, int]:
    """The AS4 BGP4MP per-record header; returns (bytes, afi)."""
    peer_ip = ipaddress.ip_address(peer_address)
    local_ip = ipaddress.ip_address(local_address)
    if peer_ip.version != local_ip.version:
        raise ValueError("peer and local addresses must share a family")
    afi = AFI_IPV4 if peer_ip.version == 4 else AFI_IPV6
    header = struct.pack("!IIHH", peer_asn, COLLECTOR_ASN, 0, afi)
    header += peer_ip.packed + local_ip.packed
    return header, afi


def _encode_bgp_update(announced_v4: list[Prefix],
                       withdrawn_v4: list[Prefix],
                       announced_v6: list[Prefix],
                       withdrawn_v6: list[Prefix],
                       attrs: Optional[PathAttributes]) -> bytes:
    """Build the BGP UPDATE message bytes (marker + length + type + body)."""
    withdrawn_bytes = b"".join(p.wire_bytes() for p in withdrawn_v4)
    if attrs is not None:
        attr_bytes = encode_attributes(attrs, announced=announced_v6,
                                       withdrawn_mp=withdrawn_v6)
    elif withdrawn_v6:
        attr_bytes = _mp_unreach_only(withdrawn_v6)
    else:
        attr_bytes = b""
    nlri = b"".join(p.wire_bytes() for p in announced_v4)
    body = (struct.pack("!H", len(withdrawn_bytes)) + withdrawn_bytes
            + struct.pack("!H", len(attr_bytes)) + attr_bytes + nlri)
    total = len(BGP_MARKER) + 2 + 1 + len(body)
    return BGP_MARKER + struct.pack("!HB", total, BGP_MSG_UPDATE) + body


def _mp_unreach_only(withdrawn_v6: list[Prefix]) -> bytes:
    """Attribute block holding only MP_UNREACH_NLRI (pure v6 withdrawal)."""
    payload = bytearray(struct.pack("!HB", AFI_IPV6, 1))
    for prefix in withdrawn_v6:
        payload += prefix.wire_bytes()
    if len(payload) > 255:
        return struct.pack("!BBH", 0x90, 15, len(payload)) + bytes(payload)
    return struct.pack("!BBB", 0x80, 15, len(payload)) + bytes(payload)


def encode_update_record(record: UpdateRecord,
                         local_address: Optional[str] = None) -> bytes:
    """Serialise one :class:`UpdateRecord` as a BGP4MP_MESSAGE_AS4 record."""
    if local_address is None:
        peer_ip = ipaddress.ip_address(record.peer_address)
        local_address = "192.0.2.1" if peer_ip.version == 4 else "2001:db8::1"
    header, _ = _bgp4mp_header(record.peer_asn, record.peer_address, local_address)

    announced_v4: list[Prefix] = []
    withdrawn_v4: list[Prefix] = []
    announced_v6: list[Prefix] = []
    withdrawn_v6: list[Prefix] = []
    attrs: Optional[PathAttributes] = None
    message = record.message
    if isinstance(message, Announcement):
        attrs = message.attributes
        (announced_v4 if message.prefix.is_ipv4 else announced_v6).append(message.prefix)
    elif isinstance(message, Withdrawal):
        (withdrawn_v4 if message.prefix.is_ipv4 else withdrawn_v6).append(message.prefix)
    else:
        raise TypeError(f"cannot encode message of type {type(message).__name__}")

    bgp_message = _encode_bgp_update(announced_v4, withdrawn_v4,
                                     announced_v6, withdrawn_v6, attrs)
    return encode_mrt_record(record.timestamp, MRT_BGP4MP, BGP4MP_MESSAGE_AS4,
                             header + bgp_message)


def encode_state_record(record: StateRecord,
                        local_address: Optional[str] = None) -> bytes:
    """Serialise one :class:`StateRecord` as BGP4MP_STATE_CHANGE_AS4."""
    if local_address is None:
        peer_ip = ipaddress.ip_address(record.peer_address)
        local_address = "192.0.2.1" if peer_ip.version == 4 else "2001:db8::1"
    header, _ = _bgp4mp_header(record.peer_asn, record.peer_address, local_address)
    body = header + struct.pack("!HH", record.old_state.value, record.new_state.value)
    return encode_mrt_record(record.timestamp, MRT_BGP4MP,
                             BGP4MP_STATE_CHANGE_AS4, body)


def decode_bgp4mp(header: MRTRecordHeader, body: bytes,
                  collector: str) -> list:
    """Decode one BGP4MP record body into Update/State records.

    A single MRT record can carry several NLRI and withdrawals; each
    becomes its own :class:`UpdateRecord` (mirroring how pybgpstream
    explodes updates into elems).
    """
    as4 = header.subtype in (BGP4MP_MESSAGE_AS4, BGP4MP_STATE_CHANGE_AS4)
    asn_codec = _ASN_PAIR_AS4 if as4 else _ASN_PAIR_AS2
    asn_size = 8 if as4 else 4
    peer_asn, _local_asn = asn_codec.unpack_from(body, 0)
    _ifindex, afi = _U16_PAIR.unpack_from(body, asn_size)
    offset = asn_size + 4
    addr_len = 4 if afi == AFI_IPV4 else 16
    peer_address = address_text(body[offset:offset + addr_len])
    offset += 2 * addr_len  # skip local address too

    if header.subtype in (BGP4MP_STATE_CHANGE, BGP4MP_STATE_CHANGE_AS4):
        old_state, new_state = _U16_PAIR.unpack_from(body, offset)
        return [StateRecord(header.timestamp, collector, peer_address, peer_asn,
                            PeerState(old_state), PeerState(new_state))]

    if header.subtype not in (BGP4MP_MESSAGE, BGP4MP_MESSAGE_AS4):
        raise ValueError(f"unsupported BGP4MP subtype {header.subtype}")

    marker = body[offset:offset + 16]
    if marker != BGP_MARKER:
        raise ValueError("bad BGP marker")
    offset += 16
    _msg_len, msg_type = _LEN_TYPE.unpack_from(body, offset)
    offset += 3
    if msg_type != BGP_MSG_UPDATE:
        return []

    (withdrawn_len,) = _U16.unpack_from(body, offset)
    offset += 2
    records: list = []
    end = offset + withdrawn_len
    while offset < end:
        prefix, consumed = Prefix.from_wire(body[offset:end], AFI_IPV4)
        offset += consumed
        records.append(UpdateRecord(header.timestamp, collector, peer_address,
                                    peer_asn, Withdrawal(prefix)))

    (attr_len,) = _U16.unpack_from(body, offset)
    offset += 2
    attr_block = body[offset:offset + attr_len]
    offset += attr_len

    decoded = decode_attributes(attr_block) if attr_block else None
    if decoded is not None:
        for prefix in decoded.mp_withdrawn:
            records.append(UpdateRecord(header.timestamp, collector, peer_address,
                                        peer_asn, Withdrawal(prefix)))
        if decoded.as_path is not None:
            attrs = decoded.to_path_attributes()
            for prefix in decoded.mp_announced:
                records.append(UpdateRecord(header.timestamp, collector,
                                            peer_address, peer_asn,
                                            Announcement(prefix, attrs)))
            # IPv4 NLRI at the tail of the message.
            while offset < len(body):
                prefix, consumed = Prefix.from_wire(body[offset:], AFI_IPV4)
                offset += consumed
                records.append(UpdateRecord(header.timestamp, collector,
                                            peer_address, peer_asn,
                                            Announcement(prefix, attrs)))
    return records


def iter_update_prefixes(header: MRTRecordHeader, body: bytes) -> Iterable[Prefix]:
    """Cheaply yield every NLRI prefix in a BGP4MP UPDATE record.

    This walks only the NLRI fields (withdrawn routes, MP_REACH /
    MP_UNREACH payloads and the trailing IPv4 NLRI) without decoding
    path-attribute *values* — no AS path, community or aggregator
    objects are built.  It is the prefix prematch used by filter
    push-down: a superset of the prefixes :func:`decode_bgp4mp` would
    attach to records.  State-change and non-UPDATE records yield
    nothing.
    """
    as4 = header.subtype in (BGP4MP_MESSAGE_AS4, BGP4MP_STATE_CHANGE_AS4)
    asn_size = 8 if as4 else 4
    _ifindex, afi = _U16_PAIR.unpack_from(body, asn_size)
    offset = asn_size + 4 + 2 * (4 if afi == AFI_IPV4 else 16)

    if header.subtype in (BGP4MP_STATE_CHANGE, BGP4MP_STATE_CHANGE_AS4):
        return
    if header.subtype not in (BGP4MP_MESSAGE, BGP4MP_MESSAGE_AS4):
        raise ValueError(f"unsupported BGP4MP subtype {header.subtype}")
    if body[offset:offset + 16] != BGP_MARKER:
        raise ValueError("bad BGP marker")
    offset += 16
    _msg_len, msg_type = _LEN_TYPE.unpack_from(body, offset)
    offset += 3
    if msg_type != BGP_MSG_UPDATE:
        return

    (withdrawn_len,) = _U16.unpack_from(body, offset)
    offset += 2
    end = offset + withdrawn_len
    while offset < end:
        prefix, consumed = Prefix.from_wire(body[offset:end], AFI_IPV4)
        offset += consumed
        yield prefix

    (attr_len,) = _U16.unpack_from(body, offset)
    offset += 2
    attrs_end = offset + attr_len
    while offset < attrs_end:
        flags = body[offset]
        type_code = body[offset + 1]
        if flags & _FLAG_EXTENDED_LENGTH:
            (length,) = _U16.unpack_from(body, offset + 2)
            payload_start = offset + 4
        else:
            length = body[offset + 2]
            payload_start = offset + 3
        offset = payload_start + length
        if type_code == ATTR_MP_REACH_NLRI:
            mp_afi, _safi = _U16_U8.unpack_from(body, payload_start)
            nh_len = body[payload_start + 3]
            pos = payload_start + 4 + nh_len + 1  # next hop + reserved byte
            while pos < payload_start + length:
                prefix, consumed = Prefix.from_wire(
                    body[pos:payload_start + length], mp_afi)
                pos += consumed
                yield prefix
        elif type_code == ATTR_MP_UNREACH_NLRI:
            mp_afi, _safi = _U16_U8.unpack_from(body, payload_start)
            pos = payload_start + 3
            while pos < payload_start + length:
                prefix, consumed = Prefix.from_wire(
                    body[pos:payload_start + length], mp_afi)
                pos += consumed
                yield prefix
        # Other attribute types are skipped without decoding.

    while offset < len(body):
        prefix, consumed = Prefix.from_wire(body[offset:], AFI_IPV4)
        offset += consumed
        yield prefix


def prematch_bgp4mp(header: MRTRecordHeader, body: bytes,
                    record_filter) -> bool:
    """Pre-decode test: can this record produce a match for
    ``record_filter`` (a :class:`repro.ris.pushdown.RecordFilter`)?

    False only when no decoded record could match; True is conservative
    (the record-level filter still runs after the full decode).  Peer
    clauses are checked from the BGP4MP per-record header alone; prefix
    clauses via :func:`iter_update_prefixes`, skipping the expensive
    path-attribute decode for records carrying no matching NLRI.
    """
    if record_filter.peers:
        as4 = header.subtype in (BGP4MP_MESSAGE_AS4, BGP4MP_STATE_CHANGE_AS4)
        asn_codec = _ASN_PAIR_AS4 if as4 else _ASN_PAIR_AS2
        peer_asn, _local = asn_codec.unpack_from(body, 0)
        if peer_asn not in record_filter.peers:
            return False
    if not record_filter.has_prefix_clause:
        return True
    if header.subtype in (BGP4MP_STATE_CHANGE, BGP4MP_STATE_CHANGE_AS4):
        return True  # state decode is cheap; matches_record decides
    return any(record_filter.match_prefix(prefix)
               for prefix in iter_update_prefixes(header, body))

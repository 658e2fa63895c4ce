"""IP prefix primitives.

A thin, hashable wrapper over :mod:`ipaddress` networks that adds the
operations the zombie pipeline needs: family tagging, containment tests,
wire encoding for MRT, and the "BGP clock" text round-trips used by the
beacon prefix codecs.
"""

from __future__ import annotations

import ipaddress
from functools import lru_cache, total_ordering
from typing import Union

__all__ = ["Prefix", "AFI_IPV4", "AFI_IPV6"]

AFI_IPV4 = 1
AFI_IPV6 = 2

_Network = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


@total_ordering
class Prefix:
    """An immutable IPv4/IPv6 prefix.

    >>> p = Prefix("2a0d:3dc1:1145::/48")
    >>> p.afi == AFI_IPV6
    True
    >>> Prefix("10.0.0.0/8").contains(Prefix("10.1.0.0/16"))
    True
    """

    # ``_text`` and ``_hash`` cache ``str()`` and ``hash()`` of the
    # network: prefixes are hashed and printed on every hot path.  The
    # hash stays exactly ``hash(self._network)`` because set and dict
    # iteration order (and so every recorded digest) depends on it.
    __slots__ = ("_network", "_text", "_hash")

    def __init__(self, text: Union[str, _Network, "Prefix"]):
        if isinstance(text, Prefix):
            self._network = text._network
            self._text = text._text
            self._hash = text._hash
            return
        if isinstance(text, (ipaddress.IPv4Network, ipaddress.IPv6Network)):
            self._network = text
        else:
            self._network = ipaddress.ip_network(text, strict=True)
        self._text = None
        self._hash = hash(self._network)

    @property
    def network(self) -> _Network:
        """The wrapped :mod:`ipaddress` network object."""
        return self._network

    @property
    def afi(self) -> int:
        """Address Family Identifier: 1 for IPv4, 2 for IPv6."""
        return AFI_IPV4 if self._network.version == 4 else AFI_IPV6

    @property
    def is_ipv4(self) -> bool:
        return self._network.version == 4

    @property
    def is_ipv6(self) -> bool:
        return self._network.version == 6

    @property
    def prefixlen(self) -> int:
        return self._network.prefixlen

    @property
    def network_address(self) -> str:
        return str(self._network.network_address)

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        if self.afi != other.afi:
            return False
        return other._network.subnet_of(self._network)

    def packed(self) -> bytes:
        """Full-width network address bytes (4 or 16 bytes)."""
        return self._network.network_address.packed

    def wire_bytes(self) -> bytes:
        """NLRI encoding: length octet + minimal prefix bytes (RFC 4271)."""
        nbytes = (self.prefixlen + 7) // 8
        return bytes([self.prefixlen]) + self.packed()[:nbytes]

    @classmethod
    def from_wire(cls, data: bytes, afi: int) -> tuple["Prefix", int]:
        """Decode one NLRI entry; returns (prefix, bytes consumed)."""
        if not data:
            raise ValueError("empty NLRI buffer")
        plen = data[0]
        nbytes = (plen + 7) // 8
        width = 4 if afi == AFI_IPV4 else 16
        if plen > width * 8:
            raise ValueError(f"prefix length {plen} too large for AFI {afi}")
        if len(data) < 1 + nbytes:
            raise ValueError("truncated NLRI entry")
        return _wire_prefix(cls, data[:1 + nbytes], width), 1 + nbytes

    def __reduce__(self):
        # Rebuild the caches on unpickling rather than shipping them.
        return type(self), (self._network,)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = str(self._network)
        return text

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return self._network == other._network
        if isinstance(other, str):
            return str(self) == other
        return NotImplemented

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        # v4 sorts before v6; within a family sort by address then length.
        key_self = (self._network.version, int(self._network.network_address),
                    self._network.prefixlen)
        key_other = (other._network.version, int(other._network.network_address),
                     other._network.prefixlen)
        return key_self < key_other


@lru_cache(maxsize=4096)
def _wire_prefix(cls: type, entry: bytes, width: int) -> Prefix:
    """The prefix of one validated NLRI entry, built from its integer
    value (no text round-trip).  Memoised: an archive repeats the same
    prefixes record after record, and :class:`Prefix` is immutable."""
    nbytes = len(entry) - 1
    address = int.from_bytes(entry[1:], "big") << 8 * (width - nbytes)
    network_type = (ipaddress.IPv4Network if width == 4
                    else ipaddress.IPv6Network)
    return cls(network_type((address, entry[0]), strict=False))

"""Network-layer primitives: prefixes, addresses and ASNs."""

from repro.net.address import address_text
from repro.net.asn import ASInfo, WELL_KNOWN_ASES, asdot, is_private_asn, validate_asn
from repro.net.prefix import AFI_IPV4, AFI_IPV6, Prefix

__all__ = [
    "AFI_IPV4",
    "AFI_IPV6",
    "Prefix",
    "address_text",
    "ASInfo",
    "WELL_KNOWN_ASES",
    "asdot",
    "is_private_asn",
    "validate_asn",
]

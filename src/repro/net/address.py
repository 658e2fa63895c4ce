"""Packed IP address → text, memoised for MRT decode.

Every BGP4MP record carries its peer address and most carry a next hop;
both repeat on nearly every record of an archive, so decode keeps a
bounded cache instead of formatting through :mod:`ipaddress` each time.
"""

from __future__ import annotations

import ipaddress
from functools import lru_cache

__all__ = ["address_text"]


@lru_cache(maxsize=4096)
def address_text(raw: bytes) -> str:
    """Text form of a 4- or 16-byte packed address.

    Raises :class:`ValueError` for any other length, exactly as
    ``ipaddress.ip_address(raw)`` does (failures are not cached).
    """
    return str(ipaddress.ip_address(raw))

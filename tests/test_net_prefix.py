"""Unit tests for repro.net.prefix and repro.net.address."""

import ipaddress
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.messages import UpdateRecord, Withdrawal
from repro.net import AFI_IPV4, AFI_IPV6, Prefix, address_text


class TestConstruction:
    def test_ipv4(self):
        p = Prefix("93.175.144.0/24")
        assert p.is_ipv4
        assert p.afi == AFI_IPV4
        assert p.prefixlen == 24

    def test_ipv6(self):
        p = Prefix("2a0d:3dc1:1145::/48")
        assert p.is_ipv6
        assert p.afi == AFI_IPV6
        assert p.prefixlen == 48

    def test_from_network_object(self):
        net = ipaddress.ip_network("10.0.0.0/8")
        assert str(Prefix(net)) == "10.0.0.0/8"

    def test_copy_constructor(self):
        p = Prefix("10.0.0.0/8")
        assert Prefix(p) == p

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix("10.0.0.1/8")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            Prefix("not-a-prefix")


class TestSemantics:
    def test_equality_and_hash(self):
        a = Prefix("2001:db8::/32")
        b = Prefix("2001:db8::/32")
        assert a == b
        assert hash(a) == hash(b)
        assert a == "2001:db8::/32"

    def test_inequality_across_family(self):
        assert Prefix("10.0.0.0/8") != Prefix("2001:db8::/32")

    def test_contains_more_specific(self):
        assert Prefix("2001:db8::/32").contains(Prefix("2001:db8::/48"))

    def test_contains_self(self):
        p = Prefix("10.0.0.0/8")
        assert p.contains(p)

    def test_not_contains_less_specific(self):
        assert not Prefix("2001:db8::/48").contains(Prefix("2001:db8::/32"))

    def test_contains_rejects_cross_family(self):
        assert not Prefix("10.0.0.0/8").contains(Prefix("2001:db8::/32"))

    def test_ordering_v4_before_v6(self):
        assert Prefix("255.0.0.0/8") < Prefix("::/0")

    def test_sortable(self):
        prefixes = [Prefix("10.2.0.0/16"), Prefix("10.1.0.0/16")]
        assert sorted(prefixes)[0] == Prefix("10.1.0.0/16")


class TestWire:
    def test_roundtrip_v4(self):
        p = Prefix("93.175.144.0/20")
        wire = p.wire_bytes()
        decoded, consumed = Prefix.from_wire(wire, AFI_IPV4)
        assert decoded == p
        assert consumed == len(wire)

    def test_roundtrip_v6(self):
        p = Prefix("2a0d:3dc1:1145::/48")
        decoded, consumed = Prefix.from_wire(p.wire_bytes(), AFI_IPV6)
        assert decoded == p
        assert consumed == 1 + 6

    def test_zero_length_prefix(self):
        p = Prefix("::/0")
        decoded, consumed = Prefix.from_wire(p.wire_bytes(), AFI_IPV6)
        assert decoded == p
        assert consumed == 1

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            Prefix.from_wire(b"\x30\x2a", AFI_IPV6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Prefix.from_wire(b"", AFI_IPV6)

    def test_overlong_length_raises(self):
        with pytest.raises(ValueError):
            Prefix.from_wire(bytes([129]) + b"\x00" * 17, AFI_IPV6)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=32))
    def test_wire_roundtrip_v4_property(self, addr, plen):
        network = ipaddress.ip_network((addr, plen), strict=False)
        p = Prefix(network)
        decoded, consumed = Prefix.from_wire(p.wire_bytes(), AFI_IPV4)
        assert decoded == p
        assert consumed == 1 + (plen + 7) // 8

    @given(st.integers(min_value=0, max_value=2**128 - 1),
           st.integers(min_value=0, max_value=128))
    def test_wire_roundtrip_v6_property(self, addr, plen):
        network = ipaddress.IPv6Network((addr, plen), strict=False)
        p = Prefix(network)
        decoded, _ = Prefix.from_wire(p.wire_bytes(), AFI_IPV6)
        assert decoded == p


def text_path_from_wire(data, afi):
    """The decode ``Prefix.from_wire`` used before it built networks from
    integers: format the padded address as text and parse it again."""
    plen = data[0]
    nbytes = (plen + 7) // 8
    width = 4 if afi == AFI_IPV4 else 16
    raw = data[1:1 + nbytes] + b"\x00" * (width - nbytes)
    address = ipaddress.ip_address(raw)
    return ipaddress.ip_network(f"{address}/{plen}", strict=False), 1 + nbytes


class TestFromWireMatchesTextPath:
    """Every prefix length, random host bits past it, trailing bytes."""

    @staticmethod
    def check_every_length(afi, width, raw, tail):
        for plen in range(width * 8 + 1):
            nbytes = (plen + 7) // 8
            data = bytes([plen]) + raw[:nbytes] + tail
            network, consumed = text_path_from_wire(data, afi)
            prefix, used = Prefix.from_wire(data, afi)
            assert used == consumed == 1 + nbytes
            assert prefix.network == network
            assert prefix == Prefix(network)
            assert str(prefix) == str(network)
            assert hash(prefix) == hash(network)
            assert prefix.afi == afi and prefix.prefixlen == plen

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=4, max_size=4), st.binary(max_size=3))
    def test_v4(self, raw, tail):
        self.check_every_length(AFI_IPV4, 4, raw, tail)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=16, max_size=16), st.binary(max_size=3))
    def test_v6(self, raw, tail):
        self.check_every_length(AFI_IPV6, 16, raw, tail)

    @pytest.mark.parametrize("data, afi, message", [
        (b"", AFI_IPV6, "empty NLRI buffer"),
        (bytes([33]) + b"\x00" * 5, AFI_IPV4,
         "prefix length 33 too large for AFI 1"),
        (bytes([129]) + b"\x00" * 17, AFI_IPV6,
         "prefix length 129 too large for AFI 2"),
        (b"\x30\x2a", AFI_IPV6, "truncated NLRI entry"),
        (b"\x18\x0a\x00", AFI_IPV4, "truncated NLRI entry"),
    ])
    def test_error_messages_unchanged(self, data, afi, message):
        with pytest.raises(ValueError) as info:
            Prefix.from_wire(data, afi)
        assert str(info.value) == message


class TestCachedTextAndHash:
    @given(st.integers(min_value=0, max_value=2**128 - 1),
           st.integers(min_value=0, max_value=128))
    def test_str_and_hash_are_the_networks(self, addr, plen):
        network = ipaddress.IPv6Network((addr, plen), strict=False)
        for prefix in (Prefix(network), Prefix(str(network)),
                       Prefix(Prefix(network))):
            assert str(prefix) == str(network)
            assert hash(prefix) == hash(network)
            assert repr(prefix) == f"Prefix({str(network)!r})"

    @pytest.mark.parametrize("text", ["0.0.0.0/0", "93.175.144.0/24",
                                      "2a0d:3dc1:1145::/48", "::/0"])
    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, text, protocol):
        prefix = Prefix(text)
        clone = pickle.loads(pickle.dumps(prefix, protocol))
        assert clone == prefix and clone is not prefix
        assert str(clone) == text
        assert hash(clone) == hash(prefix) == hash(prefix.network)
        assert {clone: 1}[prefix] == 1

    def test_decoded_record_pickles(self):
        prefix, _ = Prefix.from_wire(
            Prefix("2a0d:3dc1:1145::/48").wire_bytes(), AFI_IPV6)
        record = UpdateRecord(1_717_200_000, "rrc00", "2001:db8::1", 64500,
                              Withdrawal(prefix))
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert hash(clone.message.prefix) == hash(prefix)


class TestAddressText:
    @given(st.binary(min_size=4, max_size=4))
    def test_v4(self, raw):
        assert address_text(raw) == str(ipaddress.ip_address(raw))

    @given(st.binary(min_size=16, max_size=16))
    def test_v6(self, raw):
        assert address_text(raw) == str(ipaddress.ip_address(raw))

    @pytest.mark.parametrize("raw", [b"", b"\x0a\x00\x00", b"\x00" * 5,
                                     b"\x00" * 15, b"\x00" * 17])
    def test_other_lengths_raise_value_error(self, raw):
        with pytest.raises(ValueError):
            address_text(raw)

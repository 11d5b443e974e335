"""Tests for the declarative header codec (pack/unpack roundtrips)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.framework.packet import FieldSpec, Header, HeaderLayout, LayoutField


class TinyHeader(Header):
    FIELDS = (
        FieldSpec("version", 4, default=1),
        FieldSpec("flags", 4),
        FieldSpec("length", 8),
        FieldSpec("token", 16),
    )


class TestFieldSpec:
    def test_max_value(self):
        assert FieldSpec("x", 4).max_value == 15
        assert FieldSpec("x", 16).max_value == 0xFFFF

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            FieldSpec("x", 0)


class TestHeaderPacking:
    def test_defaults_apply(self):
        header = TinyHeader()
        assert header.version == 1
        assert header.flags == 0

    def test_pack_layout_is_big_endian_bit_order(self):
        header = TinyHeader(version=0xA, flags=0x5, length=0xFF, token=0x1234)
        assert header.pack() == bytes([0xA5, 0xFF, 0x12, 0x34])

    def test_unpack_reverses_pack(self):
        header = TinyHeader(version=2, flags=7, length=42, token=999, payload=b"xy")
        again = TinyHeader.unpack(header.pack())
        assert again == header
        assert again.payload == b"xy"

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            TinyHeader(bogus=1)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError):
            TinyHeader(version=16)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            TinyHeader(version="1")

    def test_truncated_unpack_raises(self):
        with pytest.raises(ValueError):
            TinyHeader.unpack(b"\x00\x00")

    def test_len_includes_payload(self):
        assert len(TinyHeader(payload=b"abc")) == 4 + 3

    def test_copy_is_independent(self):
        header = TinyHeader(token=5)
        clone = header.copy()
        clone.token = 6
        assert header.token == 5

    @given(
        version=st.integers(0, 15),
        flags=st.integers(0, 15),
        length=st.integers(0, 255),
        token=st.integers(0, 0xFFFF),
        payload=st.binary(max_size=64),
    )
    def test_roundtrip_property(self, version, flags, length, token, payload):
        header = TinyHeader(
            version=version, flags=flags, length=length, token=token, payload=payload
        )
        assert TinyHeader.unpack(header.pack()) == header


class TestHeaderLayout:
    def layout(self):
        return HeaderLayout(
            protocol="demo",
            fields=[LayoutField("type", 8), LayoutField("code", 8), LayoutField("checksum", 16)],
        )

    def test_total_bits(self):
        assert self.layout().total_bits() == 32

    def test_generated_class_roundtrips(self):
        cls = self.layout().to_header_class()
        instance = cls(type=3, code=1, checksum=0xBEEF, payload=b"z")
        assert cls.unpack(instance.pack()) == instance

    def test_offsets(self):
        offsets = dict(
            (field.name, offset) for field, offset in self.layout().iter_offsets()
        )
        assert offsets == {"type": 0, "code": 8, "checksum": 16}

    def test_c_struct_rendering(self):
        struct_text = self.layout().to_c_struct()
        assert "struct demo_hdr {" in struct_text
        assert "uint8_t type;" in struct_text
        assert "uint16_t checksum;" in struct_text

    def test_c_struct_bitfields_for_sub_byte(self):
        layout = HeaderLayout("v", [LayoutField("version", 4), LayoutField("ihl", 4)])
        struct_text = layout.to_c_struct()
        assert "uint8_t version : 4;" in struct_text


class TestCompiledCodec:
    def test_compiled_once_on_first_use(self):
        cls = type("Lazy", (Header,), {"FIELDS": (FieldSpec("a", 8),)})
        assert "_codec_source" not in vars(cls)
        assert cls(a=1).pack() == b"\x01"
        source = cls._codec_source
        assert cls.unpack(b"\x02").a == 2
        assert cls._codec_source is source
        assert "    for " not in source  # straight-line: no per-field loop

    def test_subclass_of_compiled_class_uses_its_own_fields(self):
        TinyHeader(token=1).pack()

        class Wider(TinyHeader):
            FIELDS = TinyHeader.FIELDS + (FieldSpec("extra", 8),)

        assert Wider(extra=9).pack() == bytes([0x10, 0, 0, 0, 9])
        assert TinyHeader().pack() == bytes([0x10, 0, 0, 0])

    def test_codec_methods_cannot_be_overridden(self):
        with pytest.raises(TypeError, match="generated from FIELDS"):
            class Custom(Header):  # noqa: F841
                FIELDS = (FieldSpec("a", 8),)

                def pack(self):
                    return b""

    def test_any_name_but_payload_can_be_a_field(self):
        names = ("self", "_h", "from", "Group Address", "0_reserved", "type")
        cls = type("Odd", (Header,), {"FIELDS": tuple(FieldSpec(n, 8) for n in names)})
        header = cls(payload=b"p", **{name: i for i, name in enumerate(names)})
        assert header.pack() == bytes(range(len(names))) + b"p"
        assert cls.unpack(header.pack()) == header
        assert header.copy() == header

    @pytest.mark.parametrize("names", [("a", "a"), ("payload",)])
    def test_clashing_field_names_rejected(self, names):
        cls = type("Clash", (Header,), {"FIELDS": tuple(FieldSpec(n, 8) for n in names)})
        with pytest.raises(ValueError, match="must be unique"):
            cls()

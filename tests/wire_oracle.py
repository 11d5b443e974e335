"""Reference implementations of the wire layer, kept as test oracles.

:class:`OracleHeader` is the generic bit-loop header codec that the
compiled codec in :mod:`repro.framework.packet` replaced, and
:func:`oracle_ones_complement_sum` is the RFC 1071 word loop that
:func:`repro.framework.checksum.ones_complement_sum` replaced.  The
differential tests in ``test_wire_compiled.py`` demand that the fast
versions agree with them on results and on exception types and messages.
"""

from __future__ import annotations

from typing import Any

from repro.framework.packet import FieldSpec


def oracle_ones_complement_sum(data: bytes) -> int:
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


class OracleHeader:
    """The per-field loop codec: same interface as ``Header``."""

    FIELDS: tuple[FieldSpec, ...] = ()

    def __init__(self, payload: bytes = b"", **fields: int) -> None:
        known = {spec.name for spec in self.FIELDS}
        unknown = set(fields) - known
        if unknown:
            raise TypeError(f"unknown fields for {type(self).__name__}: {sorted(unknown)}")
        for spec in self.FIELDS:
            value = fields.get(spec.name, spec.default)
            self._check_range(spec, value)
            setattr(self, spec.name, value)
        self.payload = bytes(payload)

    @staticmethod
    def _check_range(spec: FieldSpec, value: int) -> None:
        if not isinstance(value, int):
            raise TypeError(f"field {spec.name!r} must be an int, got {type(value).__name__}")
        if not 0 <= value <= spec.max_value:
            raise ValueError(
                f"field {spec.name!r} value {value} does not fit in {spec.bits} bits"
            )

    @classmethod
    def header_bits(cls) -> int:
        return sum(spec.bits for spec in cls.FIELDS)

    @classmethod
    def header_len(cls) -> int:
        bits = cls.header_bits()
        if bits % 8:
            raise ValueError(f"{cls.__name__} is not byte aligned ({bits} bits)")
        return bits // 8

    def field_values(self) -> dict[str, int]:
        return {spec.name: getattr(self, spec.name) for spec in self.FIELDS}

    def pack(self) -> bytes:
        accumulator = 0
        bit_count = 0
        for spec in self.FIELDS:
            value = getattr(self, spec.name)
            self._check_range(spec, value)
            accumulator = (accumulator << spec.bits) | value
            bit_count += spec.bits
        if bit_count % 8:
            raise ValueError(f"{type(self).__name__} is not byte aligned ({bit_count} bits)")
        header = accumulator.to_bytes(bit_count // 8, "big") if bit_count else b""
        return header + self.payload

    @classmethod
    def unpack(cls, data: bytes) -> "OracleHeader":
        length = cls.header_len()
        if len(data) < length:
            raise ValueError(
                f"truncated {cls.__name__}: need {length} bytes, got {len(data)}"
            )
        accumulator = int.from_bytes(data[:length], "big")
        values: dict[str, int] = {}
        remaining = cls.header_bits()
        for spec in cls.FIELDS:
            remaining -= spec.bits
            values[spec.name] = (accumulator >> remaining) & spec.max_value
        return cls(payload=data[length:], **values)

    def copy(self) -> "OracleHeader":
        return type(self)(payload=self.payload, **self.field_values())

    def __len__(self) -> int:
        return self.header_len() + len(self.payload)

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.field_values() == other.field_values() and self.payload == other.payload

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value}" for name, value in self.field_values().items())
        return f"{type(self).__name__}({fields}, payload={len(self.payload)}B)"

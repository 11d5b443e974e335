"""Differential property tests: the compiled wire layer against its oracles.

Every layout is built twice, once on the compiled :class:`Header` and once
on the bit-loop :class:`wire_oracle.OracleHeader`, under the same class
name so error messages compare equal.  Each operation must give the same
result on both sides, or raise the same exception type with the same
message.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework.checksum import ones_complement_sum
from repro.framework.packet import FieldSpec, Header, HeaderLayout, LayoutField
from wire_oracle import OracleHeader, oracle_ones_complement_sum

# Plain identifiers, builtins the generated code must not be shadowed by,
# keywords, names with spaces or a leading digit, and names that look like
# the generated code's own locals.
NAMES = (
    "version", "flags", "length", "token", "type", "len", "int", "bytes",
    "sorted", "cls", "data", "from", "class", "Group Address",
    "0_reserved", "_h", "_a", "_v0", "_fields", "_check", "TypeError",
)

# "payload" names the bytes after the header, never a field.
IDENTIFIERS = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda name: name != "payload")

NOT_INTS = st.one_of(st.text(max_size=3), st.floats(allow_nan=False),
                     st.none(), st.binary(max_size=2))


def outcome(action):
    """``("ok", value)`` or ``("raise", type, message)`` for ``action()``."""
    try:
        value = action()
    except Exception as error:  # noqa: BLE001 — the exception is the result
        return ("raise", type(error), str(error))
    if isinstance(value, (Header, OracleHeader)):
        return ("ok", type(value).__name__, value.field_values(), value.payload)
    return ("ok", value)


def twin(specs, name="Layout"):
    return (type(name, (Header,), {"FIELDS": specs}),
            type(name, (OracleHeader,), {"FIELDS": specs}))


def field_value(bits):
    """In range, out of range, a bool, or not an int."""
    return st.one_of(
        st.integers(0, (1 << bits) - 1),
        st.integers(0, (1 << bits) - 1),
        st.integers(1 << bits, 1 << (bits + 2)),
        st.integers(-(1 << bits), -1),
        st.booleans(),
        NOT_INTS,
    )


@st.composite
def layouts(draw):
    """Fields of 1-64 bits with sub-byte runs; the total is byte aligned
    unless the draw chooses otherwise."""
    names = draw(st.lists(st.one_of(st.sampled_from(NAMES), IDENTIFIERS),
                          min_size=0, max_size=10, unique=True))
    specs = []
    for name in names:
        bits = draw(st.one_of(st.integers(1, 7), st.integers(1, 64)))
        default = draw(st.one_of(st.integers(0, (1 << bits) - 1), st.just(0),
                                 field_value(bits)))
        specs.append(FieldSpec(name, bits, default))
    if draw(st.booleans()):
        pad = -sum(spec.bits for spec in specs) % 8
        if pad:
            specs.append(FieldSpec("pad_bits", pad))
    return tuple(specs)


@st.composite
def construction(draw):
    specs = draw(layouts())
    fields = {}
    for spec in specs:
        if draw(st.booleans()):
            fields[spec.name] = draw(field_value(spec.bits))
    if draw(st.integers(0, 5)) == 0:
        fields[draw(st.sampled_from(("bogus", "Bogus Field", "_x")))] = 1
    payload = draw(st.binary(max_size=8))
    return specs, fields, payload


@settings(max_examples=150, deadline=None)
@given(construction())
def test_construction_and_pack_match_the_oracle(case):
    specs, fields, payload = case
    compiled, oracle = twin(specs)
    built = outcome(lambda: compiled(payload, **fields))
    assert built == outcome(lambda: oracle(payload, **fields))
    if built[0] != "ok":
        return
    left, right = compiled(payload, **fields), oracle(payload, **fields)
    for method in ("pack", "field_values", "copy", "__repr__", "__len__"):
        assert outcome(getattr(left, method)) == outcome(getattr(right, method))
    for method in ("header_bits", "header_len"):
        assert outcome(getattr(compiled, method)) == outcome(getattr(oracle, method))


@settings(max_examples=150, deadline=None)
@given(layouts(), st.data())
def test_fields_changed_after_construction_are_checked_by_pack(specs, data):
    compiled, oracle = twin(specs)
    try:
        left, right = compiled(), oracle()
    except (TypeError, ValueError):
        return  # a default the layout itself rejects
    for spec in specs:
        if data.draw(st.booleans()):
            value = data.draw(field_value(spec.bits))
            setattr(left, spec.name, value)
            setattr(right, spec.name, value)
    assert outcome(left.pack) == outcome(right.pack)
    assert outcome(left.field_values) == outcome(right.field_values)


@settings(max_examples=150, deadline=None)
@given(layouts(), st.data())
def test_unpack_matches_the_oracle_including_truncation(specs, data):
    compiled, oracle = twin(specs)
    size = sum(spec.bits for spec in specs) // 8
    blob = data.draw(st.binary(min_size=max(0, size - 3), max_size=size + 6))
    parsed = outcome(lambda: compiled.unpack(blob))
    assert parsed == outcome(lambda: oracle.unpack(blob))
    if parsed[0] == "ok":
        assert compiled.unpack(blob).pack() == blob


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.from_regex(r"[a-z0-9][a-z0-9_ ]{0,8}", fullmatch=True)
                          .filter(lambda name: name != "payload"),
                          st.integers(1, 64)),
                max_size=8, unique_by=lambda item: item[0]),
       st.binary(max_size=40))
def test_to_header_class_matches_the_oracle(fields, blob):
    layout = HeaderLayout("demo_proto", [LayoutField(name, bits) for name, bits in fields])
    compiled = layout.to_header_class()
    oracle = type(compiled.__name__, (OracleHeader,), {"FIELDS": layout.field_specs()})
    parsed = outcome(lambda: compiled.unpack(blob))
    assert parsed == outcome(lambda: oracle.unpack(blob))
    values = {name: bits for name, bits in fields}
    assert outcome(lambda: compiled(**values).pack()) == outcome(lambda: oracle(**values).pack())


@given(st.binary(max_size=300))
def test_checksum_matches_the_rfc1071_loop(data):
    assert ones_complement_sum(data) == oracle_ones_complement_sum(data)


@given(st.integers(0, 300), st.sampled_from((b"\x00", b"\xff")))
def test_checksum_of_constant_bytes_matches_the_rfc1071_loop(length, byte):
    data = byte * length
    assert ones_complement_sum(data) == oracle_ones_complement_sum(data)

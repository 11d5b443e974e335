"""Declarative wire-format header codec.

Each protocol header is described as an ordered sequence of bit-aligned
fields; :class:`Header` subclasses pack and unpack themselves to network
byte order.  This plays the role of the C structs that SAGE's header-struct
extraction stage generates from RFC ASCII art; `repro.rfc.header_diagram`
produces :class:`HeaderLayout` objects compatible with this module, so the
struct used on the wire is literally derived from the RFC drawing.

A subclass's ``FIELDS`` table is compiled, once per class on first use,
into straight-line codec methods (:func:`_compile`): every field's shift,
mask and the header's byte length become constants of generated Python
source, so packing and parsing run no per-field loop.
"""

from __future__ import annotations

import keyword
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(frozen=True)
class FieldSpec:
    """One fixed-width header field.

    ``bits`` is the width on the wire; fields need not be byte aligned
    (e.g. IPv4 version/IHL are two 4-bit fields) but every header's total
    width must be a whole number of bytes.
    """

    name: str
    bits: int
    default: int = 0

    def __post_init__(self) -> None:
        if self.bits <= 0 or self.bits > 128:
            raise ValueError(f"field {self.name!r} has unsupported width {self.bits}")

    @property
    def max_value(self) -> int:
        return (1 << self.bits) - 1


def _check_range(spec: FieldSpec, value: int) -> None:
    """The full field check; generated code calls it only for values that
    are not a plain in-range ``int`` (so it raises, or accepts a ``bool``
    or other ``int`` subclass)."""
    if not isinstance(value, int):
        raise TypeError(f"field {spec.name!r} must be an int, got {type(value).__name__}")
    if not 0 <= value <= spec.max_value:
        raise ValueError(
            f"field {spec.name!r} value {value} does not fit in {spec.bits} bits"
        )


#: Methods generated per class from ``FIELDS``; subclasses may not define them.
_GENERATED = ("__init__", "pack", "unpack", "field_values", "header_bits", "header_len")
_CLASSMETHODS = frozenset({"unpack", "header_bits", "header_len"})


def _is_attribute(name: str) -> bool:
    """True when ``name`` can be written as ``obj.name`` in source (ASCII,
    so identifier normalisation cannot change it)."""
    return name.isascii() and name.isidentifier() and not keyword.iskeyword(name)


def _compile(cls: type[Header]) -> None:
    """Generate ``cls``'s codec methods from its ``FIELDS`` and install them.

    A field whose name is a plain identifier becomes a keyword parameter of
    ``__init__`` and an attribute access; any other name (spaces, keywords,
    a leading underscore) goes through ``**fields`` and
    ``getattr``/``setattr``, so every layout takes the same code path.
    Generated code names its own locals and helpers with a leading
    underscore, which no parameter can shadow, and takes the instance
    positionally only, so any name but ``payload`` can be a field.  A
    value is range-checked inline when it is an exact ``int``; anything
    else takes :func:`_check_range`, which raises the same errors for
    every layout.
    """
    if "_codec_source" in cls.__dict__:
        return
    specs = tuple(cls.FIELDS)
    clashes = sorted(name for name, count in Counter(
        spec.name for spec in specs).items() if count > 1 or name == "payload")
    if clashes:
        raise ValueError(f"{cls.__name__} field names must be unique and not "
                         f"'payload': {clashes}")
    total = sum(spec.bits for spec in specs)
    length, unaligned = divmod(total, 8)
    namespace: dict[str, Any] = {
        "_int": int, "_bytes": bytes, "_len": len, "_sorted": sorted,
        "_getattr": getattr, "_setattr": setattr, "_new": object.__new__,
        "_from_bytes": int.from_bytes, "_check": _check_range,
        "_TypeError": TypeError, "_ValueError": ValueError,
    }

    def param(spec: FieldSpec) -> bool:
        return _is_attribute(spec.name) and not spec.name.startswith("_")

    def read(name: str) -> str:
        if _is_attribute(name):
            return f"_h.{name}"
        return f"_getattr(_h, {name!r})"

    def write(name: str, value: str) -> str:
        if _is_attribute(name):
            return f"_h.{name} = {value}"
        return f"_setattr(_h, {name!r}, {value})"

    def check(index: int, value: str) -> str:
        return (f"    if {value}.__class__ is not _int or {value} >> {specs[index].bits}: "
                f"_check(_s{index}, {value})")

    def misaligned(owner: str) -> str:
        return (f"    raise _ValueError(f'{{{owner}.__name__}} is not byte aligned "
                f"({total} bits)')")

    extras = frozenset(spec.name for spec in specs if not param(spec))
    namespace["_extras"] = extras
    for index, spec in enumerate(specs):
        namespace[f"_s{index}"] = spec
        namespace[f"_d{index}"] = spec.default

    keywords = [f"{spec.name}=_d{index}" for index, spec in enumerate(specs) if param(spec)]
    signature = ", ".join(["_h", "/", "payload=b''", *(["*", *keywords] if keywords else []),
                           "**_fields"])
    lines = [
        f"def __init__({signature}):",
        "    if _fields and _fields.keys() - _extras:",
        "        raise _TypeError(f'unknown fields for {_h.__class__.__name__}: '",
        "                         f'{_sorted(_fields.keys() - _extras)}')",
    ]
    for index, spec in enumerate(specs):
        value = spec.name if param(spec) else f"_v{index}"
        if not param(spec):
            lines.append(f"    {value} = _fields.get({spec.name!r}, _d{index})")
        lines += [check(index, value), f"    {write(spec.name, value)}"]
    lines += ["    _h.payload = _bytes(payload)", ""]

    lines.append("def pack(_h):")
    terms = []
    shift = total
    for index, spec in enumerate(specs):
        shift -= spec.bits
        lines += [f"    _v{index} = {read(spec.name)}", check(index, f"_v{index}")]
        terms.append(f"_v{index} << {shift}" if shift else f"_v{index}")
    if unaligned:
        lines.append(misaligned("_h.__class__"))
    elif terms:
        lines.append(f"    return ({' | '.join(terms)}).to_bytes({length}, 'big') + _h.payload")
    else:
        lines.append("    return b'' + _h.payload")
    lines.append("")

    lines.append("def unpack(_cls, _data):")
    if unaligned:
        lines.append(misaligned("_cls"))
    else:
        lines += [
            f"    if _len(_data) < {length}:",
            f"        raise _ValueError(f'truncated {{_cls.__name__}}: need {length} bytes, "
            f"got {{_len(_data)}}')",
            f"    _a = _from_bytes(_data[:{length}], 'big')",
            "    _h = _new(_cls)",
        ]
        shift = total
        for index, spec in enumerate(specs):
            shift -= spec.bits
            value = f"_a >> {shift}" if shift else "_a"
            if index:
                value = f"({value}) & {spec.max_value}"
            lines.append(f"    {write(spec.name, value)}")
        lines += [f"    _h.payload = _bytes(_data[{length}:])", "    return _h"]
    lines.append("")

    items = ", ".join(f"{spec.name!r}: {read(spec.name)}" for spec in specs)
    lines += ["def field_values(_h):", f"    return {{{items}}}", ""]
    lines += ["def header_bits(_cls):", f"    return {total}", ""]
    lines.append("def header_len(_cls):")
    lines.append(misaligned("_cls") if unaligned else f"    return {length}")

    source = "\n".join(lines) + "\n"
    exec(compile(source, f"<{cls.__qualname__} codec>", "exec"), namespace)
    for name in _GENERATED:
        function = namespace[name]
        function.__qualname__ = f"{cls.__qualname__}.{name}"
        function.__module__ = cls.__module__
        setattr(cls, name, classmethod(function) if name in _CLASSMETHODS else function)
    cls._codec_source = source


class Header:
    """Base class for fixed-layout protocol headers with a byte payload.

    Subclasses define ``FIELDS`` (a tuple of :class:`FieldSpec`).  Instances
    carry one attribute per field plus ``payload`` (bytes following the fixed
    header).  Packing is big-endian in field order, so arbitrary sub-byte
    fields compose correctly.

    The codec methods below only compile the class on its first use: the
    generated ones (:func:`_compile`) then replace them on that class, so a
    subclass cannot override them and must treat ``FIELDS`` as fixed once it
    is used.  Values are checked at construction and again by :meth:`pack`,
    since fields are plain mutable attributes.
    """

    FIELDS: tuple[FieldSpec, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        overridden = [name for name in _GENERATED if name in cls.__dict__]
        if overridden:
            raise TypeError(
                f"{cls.__name__} may not define {overridden}: Header codecs are "
                "generated from FIELDS"
            )
        # A compiled parent's methods encode the parent's FIELDS.
        for name in _GENERATED:
            setattr(cls, name, _LAZY[name])

    def __init__(self, /, payload: bytes = b"", **fields: int) -> None:
        _compile(type(self))
        type(self).__init__(self, payload, **fields)

    def pack(self) -> bytes:
        """Serialize the header fields followed by the payload."""
        _compile(type(self))
        return type(self).pack(self)

    @classmethod
    def unpack(cls, data: bytes) -> "Header":
        """Parse ``data`` into a header instance; trailing bytes form payload."""
        _compile(cls)
        return cls.unpack(data)

    def field_values(self) -> dict[str, int]:
        _compile(type(self))
        return type(self).field_values(self)

    @classmethod
    def header_bits(cls) -> int:
        _compile(cls)
        return cls.header_bits()

    @classmethod
    def header_len(cls) -> int:
        _compile(cls)
        return cls.header_len()

    def copy(self) -> "Header":
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


_LAZY = {name: Header.__dict__[name] for name in _GENERATED}


@dataclass(frozen=True)
class LayoutField:
    """A field recovered from an RFC ASCII-art header diagram."""

    name: str
    bits: int


@dataclass
class HeaderLayout:
    """A header layout extracted from an RFC drawing.

    ``to_header_class`` materializes a :class:`Header` subclass, which is the
    Python analogue of the C struct SAGE emits for each packet format; both
    it and ``to_c_struct`` are rendered from the one ``FIELDS`` table that
    :meth:`field_specs` returns.
    """

    protocol: str
    fields: list[LayoutField]

    def total_bits(self) -> int:
        return sum(field.bits for field in self.fields)

    def field_names(self) -> list[str]:
        return [field.name for field in self.fields]

    def iter_offsets(self) -> Iterator[tuple[LayoutField, int]]:
        """Yield (field, bit offset from header start) pairs."""
        offset = 0
        for field in self.fields:
            yield field, offset
            offset += field.bits

    def field_specs(self) -> tuple[FieldSpec, ...]:
        """The layout as a ``FIELDS`` table."""
        return tuple(FieldSpec(field.name, field.bits) for field in self.fields)

    def to_header_class(self) -> type[Header]:
        name = "".join(part.capitalize() for part in self.protocol.split("_")) + "Header"
        return type(name, (Header,), {"FIELDS": self.field_specs()})

    def to_c_struct(self) -> str:
        """Render the layout as the C struct SAGE's paper pipeline emits."""
        lines = [f"struct {self.protocol.lower()}_hdr {{"]
        for spec in self.field_specs():
            c_name = spec.name.lower().replace(" ", "_")
            if spec.bits in (8, 16, 32, 64):
                lines.append(f"    uint{spec.bits}_t {c_name};")
            else:
                base = 8 if spec.bits < 8 else 16 if spec.bits < 16 else 32
                lines.append(f"    uint{base}_t {c_name} : {spec.bits};")
        lines.append("};")
        return "\n".join(lines)

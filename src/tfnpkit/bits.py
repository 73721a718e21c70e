"""Fixed-width bit string helpers.

Bit strings are plain ``str`` over '0'/'1' with the most significant bit
first, so lexicographic comparison of equal-length strings coincides with
comparison of their binary values.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DimensionError


def is_bits(s) -> bool:
    """Is ``s`` a string over '0'/'1' (the empty string included)?"""
    return isinstance(s, str) and s.count("0") + s.count("1") == len(s)


def check_bits(s: str, width: int | None = None) -> str:
    if not is_bits(s):
        raise DimensionError(f"not a bit string: {s!r}")
    if width is not None and len(s) != width:
        raise DimensionError(f"expected {width} bits, got {len(s)}: {s!r}")
    return s


def to_int(s: str) -> int:
    return int(s, 2) if s else 0


def from_int(value: int, width: int) -> str:
    if value < 0 or value >= 1 << width:
        raise DimensionError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b") if width else ""


def zeros(width: int) -> str:
    return "0" * width


def all_bitstrings(width: int) -> Iterator[str]:
    for v in range(1 << width):
        yield from_int(v, width)


def splice(s: str, position: int, bit: int) -> str:
    """Insert ``bit`` at 1-based ``position``, shifting the rest right."""
    if not 1 <= position <= len(s) + 1:
        raise DimensionError(f"splice position {position} out of range for {s!r}")
    return s[: position - 1] + str(bit) + s[position - 1 :]


_COMPLEMENT = str.maketrans("01", "10")


def complement(s: str) -> str:
    return s.translate(_COMPLEMENT)


def parity(s: str) -> str:
    return str(s.count("1") & 1)


def xor_bits(a: str, b: str) -> str:
    if len(a) != len(b):
        raise DimensionError("xor needs equal widths")
    return from_int(to_int(a) ^ to_int(b), len(a))

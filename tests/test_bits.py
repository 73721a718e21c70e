import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfnpkit.bits import (
    all_bitstrings,
    check_bits,
    complement,
    from_int,
    is_bits,
    parity,
    splice,
    to_int,
    xor_bits,
    zeros,
)
from tfnpkit.errors import DimensionError


@given(st.integers(min_value=0, max_value=2**20 - 1), st.integers(min_value=20, max_value=24))
def test_int_roundtrip(value, width):
    assert to_int(from_int(value, width)) == value


@given(st.integers(min_value=1, max_value=10))
def test_lexicographic_order_matches_integer_order(width):
    strings = list(all_bitstrings(width))
    assert strings == sorted(strings)
    assert [to_int(s) for s in strings] == list(range(1 << width))


@given(st.text(alphabet="01", min_size=1, max_size=12), st.integers(0, 13), st.booleans())
def test_splice_inserts_at_position(s, pos, bit):
    if not 1 <= pos <= len(s) + 1:
        with pytest.raises(DimensionError):
            splice(s, pos, int(bit))
        return
    out = splice(s, pos, int(bit))
    assert len(out) == len(s) + 1
    assert out[pos - 1] == str(int(bit))
    assert out[: pos - 1] + out[pos:] == s


def test_helpers():
    assert complement("0110") == "1001"
    assert parity("01") == "1"
    assert parity("11") == "0"
    assert xor_bits("0110", "1100") == "1010"
    assert zeros(3) == "000"
    with pytest.raises(DimensionError):
        check_bits("012")
    with pytest.raises(DimensionError):
        from_int(8, 3)


@given(st.text(alphabet=st.sampled_from("01 2²\n\t\x00\u0660\u0661"), max_size=12) | st.text(max_size=12))
def test_is_bits_accepts_exactly_the_binary_alphabet(s):
    assert is_bits(s) == all(ch in "01" for ch in s)
    assert not is_bits(s.encode()) and not is_bits(None)


@given(st.integers(0, 16).flatmap(lambda w: st.tuples(*[st.text(alphabet="01", min_size=w, max_size=w)] * 2)))
def test_xor_and_complement_match_their_per_bit_definitions(pair):
    a, b = pair
    assert xor_bits(a, b) == "".join("1" if x != y else "0" for x, y in zip(a, b))
    assert complement(a) == "".join("1" if x == "0" else "0" for x in a)


@given(st.text(alphabet="01", max_size=8), st.text(alphabet="01", max_size=8))
def test_xor_refuses_unequal_widths(a, b):
    if len(a) != len(b):
        with pytest.raises(DimensionError):
            xor_bits(a, b)


@pytest.mark.parametrize("s", ["0_1", "1_0", " 01", "01 ", "\t1\n", "\u0661", "1\u0660"])
def test_is_bits_refuses_what_int_reads_as_binary(s):
    int(s, 2)  # Python reads each of these as a binary numeral
    assert not is_bits(s)
    with pytest.raises(DimensionError):
        check_bits(s)

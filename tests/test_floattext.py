"""The block encoder writes every float64 as ``repr`` (CSV) or ``json.dumps``
(JSON) writes it, byte for byte."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import schubfach_rows_per_k, text_rows_per_text
from thermaljc import floattext
from thermaljc.floattext import FloatText


def _from_bits(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


EDGES = _from_bits([0x0000000000000001, 0x000FFFFFFFFFFFFF]).tolist() + [
    0.0,
    -0.0,
    2.2250738585072014e-308,  # the least normal
    9.999999999999999e-05,
    1e-4,
    1e-5,
    1e15,
    1e16,
    1e17,
    2.0**53 - 1,
    2.0**53,
    2.0**53 + 2,
    math.nan,
    math.inf,
    -math.inf,
    *(2.0**e for e in range(-1074, 1024)),
]


def _encoded(values, json_format):
    text = FloatText([b";"], json=json_format)
    blocks = (text.encode([values], lo) for lo in range(0, len(values), text.rows))
    return b"".join(blocks).decode("ascii")


def _spelled(values, json_format):
    spell = json.dumps if json_format else repr
    return "".join(spell(value) + ";" for value in values.tolist())


@pytest.mark.parametrize("json_format", [False, True], ids=["repr", "json"])
def test_edge_values(json_format):
    values = np.array(EDGES)
    values = np.concatenate([values, -values])
    assert _encoded(values, json_format) == _spelled(values, json_format)


@pytest.mark.parametrize("json_format", [False, True], ids=["repr", "json"])
def test_random_bit_patterns(json_format):
    patterns = np.random.default_rng(20201).integers(0, 2**64, 50_000, dtype=np.uint64)
    values = patterns.view(np.float64)
    assert _encoded(values, json_format) == _spelled(values, json_format)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern_is_spelled_as_repr_and_json_dumps(patterns):
    values = _from_bits(patterns)
    assert _encoded(values, False) == _spelled(values, False)
    assert _encoded(values, True) == _spelled(values, True)



def test_tables_equal_the_per_k_formula():
    tables = floattext._tables()
    g, log2 = schubfach_rows_per_k(floattext._K_MIN, floattext._K_MAX)
    for got, want in ((tables["g"], g), (tables["log2"], log2)):
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


@pytest.mark.parametrize("width", [1, 5, 6])
def test_text_rows_equal_the_per_text_loop(width):
    texts = ["", "-", "0.", "-0.000", "e+308", ".0", "e-324", "x"]
    texts = [text for text in texts if len(text) <= width]
    got, want = floattext._text_rows(texts, width), text_rows_per_text(texts, width)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# One value of every layout case: the sign; the prefixes 0. to 0.000 (decpt 0
# to -3); the point after digit 1 to 16; integral with '.0' up to 16 digits;
# the exponent with one digit and with 17, from e-308 to e+308; and zero.
LAYOUTS = [
    0.5, 0.05, 0.005, 0.0005, 0.0001, 0.12345678901234568, 0.00012345678901234567,
    *(float("7" * p + "." + "3" * (17 - p)) for p in range(1, 17)),
    *(float("9" * p + ".5") for p in range(1, 16)),
    1234567890123456.8, 1.0, 10.0, 1e15, 9007199254740993.0, 123456789012345.0,
    1e16, 1e17, 1.2345678901234567e16, 1e-05, 2.5e-05, 1.2345678901234567e-5,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e100, 1e-100,
    0.0,
]
LAYOUTS += [-value for value in LAYOUTS]


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["block-1", "block", "block+1"])
@pytest.mark.parametrize("separators", [[b",", b",", b"\n"], [b",\n      "]], ids=["csv", "json"])
def test_every_layout_case_at_the_block_edges(separators, offset):
    text = FloatText(separators, json=len(separators) == 1)
    rows = text.rows + offset
    values = np.resize(np.array(LAYOUTS), rows * len(separators))
    columns = list(values.reshape(rows, len(separators)).T)
    for _ in range(2):  # a writer's second use sees the separators of its first
        got = b"".join(text.encode(columns, lo) for lo in range(0, rows, text.rows))
        spelled = (repr(value) + sep.decode() for value, sep in
                   zip(values.tolist(), separators * rows))
        assert got.decode("ascii") == "".join(spelled)


def test_a_separator_longer_than_8_bytes_is_refused():
    assert FloatText([b",", b",\n      "]).rows  # 8 bytes is the most
    with pytest.raises(ValueError, match="a separator takes at most 8 bytes"):
        FloatText([b",", b",\n       "])

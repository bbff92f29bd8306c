"""The block encoder writes every float64 as ``repr`` (CSV) or ``json.dumps``
(JSON) writes it, byte for byte."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


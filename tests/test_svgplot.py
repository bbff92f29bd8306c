"""SVG rendering: a curve's points are mapped as whole arrays, with the bytes a
per-point scalar evaluation of the same map gives."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermaljc import svgplot
from thermaljc.svgplot import render_plot


def _scalar_polyline(mapper, xs, ys, color):
    """The per-point polyline the array one replaced, kept as its reference."""
    points = " ".join(
        "%.2f,%.2f" % (mapper.x(float(xv)), mapper.y(float(yv)))
        for xv, yv in zip(xs, ys)
    )
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'


def _assert_matches_the_scalar_reference(monkeypatch, curves):
    svg = render_plot(curves, "gt", "y", "title")
    with monkeypatch.context() as patch:
        patch.setattr(svgplot, "_polyline", _scalar_polyline)
        reference = render_plot(curves, "gt", "y", "title")
    assert svg == reference
    assert svg.count("<polyline") == len(curves)


_rng = np.random.default_rng(8)
_t = np.linspace(0.0, 25.0, 2001)
CURVES = {
    "random": [("a", _t, _rng.standard_normal(_t.size))],
    "flat": [("a", _t, np.full(_t.size, 0.25))],
    "negative": [("a", -_t[::-1] - 3.0, -np.exp(_rng.uniform(0.0, 9.0, _t.size)))],
    "two-points": [("a", np.array([0.1, 0.3]), np.array([-1e-9, 2e-9]))],
    "three-curves": [
        ("c", _t, np.cos(_t) ** 2),
        ("p", _t, 0.5 + 0.5 * np.cos(_t / 3.0) ** 2),
        ("u", _t, 1e-3 * np.sin(7.0 * _t)),
    ],
    "projection": [("c", np.cos(_t) ** 2, np.sin(_t) * 1e5)],
    "lists": [("a", [0.0, 1.0, 2.0], [3.0, -1.0, 0.125])],
}


@pytest.mark.parametrize("name", sorted(CURVES))
def test_polylines_equal_the_per_point_reference(monkeypatch, name):
    _assert_matches_the_scalar_reference(monkeypatch, CURVES[name])


_values = st.floats(min_value=-1e12, max_value=1e12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_values, _values), min_size=2, max_size=60),
    st.lists(_values, min_size=2, max_size=60),
)
def test_random_curves_equal_the_per_point_reference(pairs, ys):
    xs, first = (np.array(column) for column in zip(*pairs))
    curves = [("a", xs, first), ("b", np.arange(len(ys), dtype=float), np.array(ys))]
    with pytest.MonkeyPatch.context() as patch:
        _assert_matches_the_scalar_reference(patch, curves)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_a_non_finite_value_is_refused(bad, axis):
    xs, ys = np.linspace(0.0, 1.0, 5), np.zeros(5)
    (xs if axis == "x" else ys)[2] = bad
    with pytest.raises(ValueError, match="curve 'a' has a non-finite value"):
        render_plot([("a", xs, ys)], "gt", "y")


@pytest.mark.parametrize("value", [0.25, -3.0, 2.0**49, -(2.0**49)])
def test_flat_data_is_framed_half_a_unit_either_side(value):
    assert svgplot._data_range([np.full(3, value)]) == (value - 0.5, value + 0.5)


@pytest.mark.parametrize("value", [1e17, -2.0**60, 1e300])
def test_flat_data_past_2_to_the_52_still_gets_a_nonzero_span(value):
    # value +- 0.5 rounds back to value there, and the map divided by zero
    svg = render_plot([("a", np.arange(3.0), np.full(3, value))], "gt", "y")
    assert "nan" not in svg and "inf" not in svg
    lo, hi = svgplot._data_range([np.full(3, value)])
    assert lo < value < hi


def test_a_span_past_the_largest_float_is_refused():
    xs = np.array([0.0, 1e308, -1e308])
    with pytest.raises(ValueError, match="span more than the largest float"):
        render_plot([("a", xs, np.arange(3.0))], "gt", "y")
    with pytest.raises(ValueError, match="span more than the largest float"):
        render_plot([("a", np.arange(2.0), np.full(2, 1.7976931348623157e308))], "gt", "y")


def test_titles_and_labels_are_escaped_as_xml_text():
    labels = {"title": "C & P <1>", "x": "t > 0", "y": "a<b / c&d", "curve": "<&>"}
    svg = render_plot([(labels["curve"], np.arange(3.0), np.arange(3.0))],
                      labels["x"], labels["y"], labels["title"])
    root = ET.fromstring(svg)
    texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
    assert all(text in texts for text in labels.values())


def _points_reference(pixels):
    return " ".join("%.2f,%.2f" % (x, y) for x, y in pixels.tolist())


def _as_points(values):
    """Each value as an x and as a y pixel: (v, 1), (1, v) ..."""
    values = np.asarray(values, float)
    ones = np.ones_like(values)
    return np.concatenate([np.stack((values, ones), 1), np.stack((ones, values), 1)])


TIES = [0.125, 72.125, 439.875]  # exact half cents, which '%.2f' rounds half to even
NEAR_TIES = TIES + [np.nextafter(v, side) for v in TIES for side in (-np.inf, np.inf)]
SIGNED = [-0.0, -0.001, -0.005, -3.0, -1e300]
LARGE = [9999.994, 9999.995, 9999.996, 1e4, 12345.678, 2.0**53, 1e300, 1.7976931348623157e308]


@pytest.mark.parametrize("values", [NEAR_TIES, SIGNED, LARGE], ids=["ties", "signed", "large"])
def test_array_text_equals_percent_formatting(values):
    pixels = _as_points(values)
    assert svgplot._points(pixels) == _points_reference(pixels)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30))
def test_any_finite_values_are_formatted_as_percent_two_f(values):
    pixels = _as_points(values)
    assert svgplot._points(pixels) == _points_reference(pixels)


def test_only_ties_signs_and_large_values_take_the_per_value_fallback():
    _, per_value = svgplot._cents(np.array(NEAR_TIES + SIGNED + LARGE[1:]))
    assert per_value.all()
    mapper = svgplot._Mapper((0.0, 25.0), (-1.0, 1.0))
    t = np.linspace(0.0, 25.0, 2001)
    ordinary = np.concatenate([mapper.x(t), mapper.y(np.sin(t)), [0.0, 72.12, 439.88, 9999.99]])
    cents, per_value = svgplot._cents(ordinary)
    assert not per_value.any()
    assert np.array_equal(cents, [int(("%.2f" % v).replace(".", "")) for v in ordinary.tolist()])

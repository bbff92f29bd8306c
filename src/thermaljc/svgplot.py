"""Self-contained SVG line plots: fixed geometry, no external assets, and
deterministic output so rendered files are byte-stable across runs."""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 72
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 56
TICK_COUNT = 6
PALETTE = ("#1b6ca8", "#c4452c", "#3a8a3d", "#7b4fa6", "#b8860b", "#444444")
# XML text escapes, as xml.sax.saxutils.escape (which imports urllib: 30-45 ms)
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

Curve = tuple[str, np.ndarray, np.ndarray]  # (label, x values, y values)


def _data_range(values: Sequence[np.ndarray]) -> tuple[float, float]:
    lo = min(float(np.min(v)) for v in values)
    hi = max(float(np.max(v)) for v in values)
    if hi == lo:  # flat data still needs a nonzero span to map onto pixels
        pad = max(0.5, abs(lo) * 2.0**-50)  # lo +- 0.5 rounds back to lo above 2^52
        lo, hi = lo - pad, hi + pad
    if not hi - lo < np.inf:
        raise ValueError(f"values from {lo!r} to {hi!r} span more than the largest float")
    return lo, hi


def _fmt(value: float) -> str:
    return "%g" % (value,)


class _Mapper:
    """Affine map from data coordinates to the pixel frame, of a float (a tick)
    or elementwise of an array (a curve)."""

    def __init__(self, x_range: tuple[float, float], y_range: tuple[float, float]):
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        self.frame_left = MARGIN_LEFT
        self.frame_right = WIDTH - MARGIN_RIGHT
        self.frame_top = MARGIN_TOP
        self.frame_bottom = HEIGHT - MARGIN_BOTTOM

    def x(self, v: float | np.ndarray) -> float | np.ndarray:
        span = self.x_hi - self.x_lo
        return self.frame_left + (v - self.x_lo) / span * (self.frame_right - self.frame_left)

    def y(self, v: float | np.ndarray) -> float | np.ndarray:
        span = self.y_hi - self.y_lo
        return self.frame_bottom - (v - self.y_lo) / span * (self.frame_bottom - self.frame_top)


# 100 v is within 1.2e-10 of the exact product below 1e4, so np.rint gives the
# cents '%.2f' gives unless 100 v lies this near a half cent
_NEAR_TIE = 1e-6


@functools.cache
def _digit_texts() -> tuple[np.ndarray, np.ndarray]:
    """0..9999 as four digit bytes (the float encoder's table), and as ASCII
    with its leading zeros NUL, each in one little-endian word."""
    from .floattext import _tables  # on first use: most commands draw no curve

    digits = _tables()["digits"]
    integers = digits | np.uint64(0x30303030)
    for byte, below in enumerate((1000, 100, 10)):
        integers[:below] &= ~np.uint64(0xFF << 8 * byte)
    return digits, integers


def _cents(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.rint(100 v), and the mask of the values whose '%.2f' is left to '%'
    itself (their cents read 0): half-cent near-ties, a set sign bit (-0.00
    included), and 9999.995 up."""
    with np.errstate(over="ignore", invalid="ignore"):  # 100 v past 1.8e306
        cents = values * 100.0
        whole = np.rint(cents)
        per_value = ~(np.abs(cents - whole) < 0.5 - _NEAR_TIE)
    per_value |= np.signbit(values)
    per_value |= ~(whole < 1e6)
    whole[per_value] = 0.0
    return whole, per_value


def _points(pixels: np.ndarray) -> str:
    """'x,y x,y ...' of (n, 2) pixels, each value as '%.2f' gives it.  A value
    takes one 8-byte word, NUL-padded: its integer part right-aligned in bytes
    0-3, the point and two decimals in bytes 4-6, the separator in byte 7; one
    ``translate`` deletes the NULs.  The ``_cents`` mask's values are '%s'
    there, and '%.2f' fills them in."""
    digits, integers = _digit_texts()
    values = pixels.ravel()
    cents, per_value = _cents(values)
    quot, rest = np.divmod(cents.astype(np.int64), 100)
    words = integers.take(quot)
    decimals = digits.take(rest)  # "00ab" in bytes 0-3: a and b go to bytes 5 and 6
    decimals <<= np.uint64(24)
    words |= decimals
    words |= np.uint64(ord(".") << 32 | 0x3030 << 40)
    words[per_value] = ord("%") | ord("s") << 8
    words[0::2] |= np.uint64(ord(",") << 56)
    words[1::2] |= np.uint64(ord(" ") << 56)
    text = words.tobytes().translate(None, b"\0")[:-1].decode("ascii")
    if per_value.any():
        text %= tuple("%.2f" % value for value in values[per_value].tolist())
    return text


def _polyline(mapper: _Mapper, xs: np.ndarray, ys: np.ndarray, color: str) -> str:
    points = _points(np.stack((mapper.x(xs), mapper.y(ys)), axis=1))
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{points}"/>'
    )


def _axes(mapper: _Mapper, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<rect x="{mapper.frame_left}" y="{mapper.frame_top}" '
        f'width="{mapper.frame_right - mapper.frame_left}" '
        f'height="{mapper.frame_bottom - mapper.frame_top}" '
        'fill="none" stroke="#222222" stroke-width="1"/>'
    ]
    for tick in np.linspace(mapper.x_lo, mapper.x_hi, TICK_COUNT):
        px = mapper.x(float(tick))
        parts.append(
            f'<line x1="{px:.2f}" y1="{mapper.frame_bottom}" '
            f'x2="{px:.2f}" y2="{mapper.frame_bottom + 5}" '
            'stroke="#222222" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{mapper.frame_bottom + 20}" '
            f'text-anchor="middle" font-size="12">{_fmt(float(tick))}</text>'
        )
    for tick in np.linspace(mapper.y_lo, mapper.y_hi, TICK_COUNT):
        py = mapper.y(float(tick))
        parts.append(
            f'<line x1="{mapper.frame_left - 5}" y1="{py:.2f}" '
            f'x2="{mapper.frame_left}" y2="{py:.2f}" '
            'stroke="#222222" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{mapper.frame_left - 9}" y="{py + 4:.2f}" '
            f'text-anchor="end" font-size="12">{_fmt(float(tick))}</text>'
        )
    parts.append(
        f'<text x="{(mapper.frame_left + mapper.frame_right) / 2:.2f}" '
        f'y="{HEIGHT - 14}" text-anchor="middle" font-size="14">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{(mapper.frame_top + mapper.frame_bottom) / 2:.2f}" '
        'text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {(mapper.frame_top + mapper.frame_bottom) / 2:.2f})">'
        f"{y_label}</text>"
    )
    return parts


def _legend(labels: Sequence[str]) -> list[str]:
    parts = []
    x0 = WIDTH - MARGIN_RIGHT - 150
    for i, label in enumerate(labels):
        y = MARGIN_TOP + 16 + 18 * i
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<line x1="{x0}" y1="{y - 4}" x2="{x0 + 24}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x0 + 30}" y="{y}" font-size="12">{label}</text>'
        )
    return parts


def render_plot(
    curves: Sequence[Curve],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Render labeled curves into a standalone SVG document string."""
    if len(curves) == 0:
        raise ValueError("at least one curve is required")
    curves = [(label, np.asarray(xs, float), np.asarray(ys, float)) for label, xs, ys in curves]
    for label, xs, ys in curves:
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError(f"curve {label!r} needs two or more paired points")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError(f"curve {label!r} has a non-finite value")
    x_label, y_label, title = (text.translate(_XML_TEXT) for text in (x_label, y_label, title))
    mapper = _Mapper(
        _data_range([xs for _, xs, _ in curves]), _data_range([ys for _, _, ys in curves])
    )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-size="15">{title}</text>'
        )
    parts.extend(_axes(mapper, x_label, y_label))
    for i, (_, xs, ys) in enumerate(curves):
        parts.append(_polyline(mapper, xs, ys, PALETTE[i % len(PALETTE)]))
    parts.extend(_legend([label.translate(_XML_TEXT) for label, _, _ in curves]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

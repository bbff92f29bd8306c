"""Python's ``repr`` of float64 values, a block of them at a time.

``FloatText.encode`` writes rows of float columns as the text a
``",".join(map(repr, row))`` writer gives, each value followed by its
column's separator.  Nothing is formatted per value.  The shortest round-trip
digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; a sibling of Adams' Ryu, PLDI 2018) in numpy ``uint64``
arithmetic.  CPython's ``'r'`` layout is then filled into a fixed-width slot
per value, NUL wherever nothing is printed, and ``bytearray.translate``
deletes the NULs.

A slot holds the sign and ``0.000`` (head); 17 digit columns for 10**16 ..
10**0, each followed by a column that holds ``.`` where the point falls;
``.0`` or the exponent ``e±XX`` (tail); and the separator.  Zeros of either
sign take this path too.  Subnormal and non-finite values are spelled one by
one, as ``repr`` (or ``json.dumps``) spells them.
"""

from __future__ import annotations

import functools
import json as _json
from typing import Iterable, Sequence

import numpy as np

# Values per block.  The workspaces take about 250 bytes a value, so a writer's
# memory is bounded whatever it writes; 4096-value blocks measured no faster.
BLOCK = 2048

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of Schubfach's table
_HEAD = 6  # "-0.000"
_DIGITS = 17  # the digits d < 10**17 of a normal double, 10**16 .. 10**0
_TAIL = 5  # ".0", or the exponent "e-324"
_TEXT = _HEAD + 2 * _DIGITS + _TAIL
_NO_DOT = _DIGITS  # the point column of a value printed without one
_EXP_ROW = 2 + 324 - 1  # the tail row of the exponent decpt - 1 is _EXP_ROW + decpt

_U32 = np.uint64(0xFFFFFFFF)
# s (vb >> 2) is nearer than s + 1, or as near and even, by vb mod 8
_NEARER = np.array([v % 4 + v // 4 < 3 for v in range(8)])


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Schubfach's g per k (Giulietti, sec. 9.8.3): 10**-k = beta 2**r with
    2**125 <= beta < 2**126 and g = floor(beta) + 1, as the rows
    [g mod 2**63, g >> 63]; floor(log2 10**-k) per k; and the texts."""
    pow10 = [1]
    for _ in range(max(-_K_MIN, _K_MAX)):
        pow10.append(pow10[-1] * 10)
    low, high, log2 = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:  # beta = 10**-k 2**-r, a shift
            log2.append(pow10[-k].bit_length() - 1)
            r = log2[-1] - 125
            beta = pow10[-k] << -r if r < 0 else pow10[-k] >> r
        else:  # 10**k is not a power of two, so floor(-k log2 10) = -bit_length
            log2.append(-pow10[k].bit_length())
            beta = (1 << 125 - log2[-1]) // pow10[k]
        low.append((beta + 1) & ((1 << 63) - 1))
        high.append((beta + 1) >> 63)
    # 0..9999 as four little-endian (digit, 0xFF) pairs, and their trailing zeros
    number = np.arange(10000, dtype=np.int16)
    four = np.full((10000, 8), 0xFF, np.uint8)
    zeros, zero = np.zeros(10000, np.int8), np.ones(10000, bool)
    for column, power in ((6, 1), (4, 10), (2, 100), (0, 1000)):
        four[:, column] = number // power % 10 + ord("0")
        zero &= four[:, column] == ord("0")
        zeros += zero
    # the digit columns' mask by (first column 0 or 1, last column, point
    # column): 0xFF keeps a digit, '.' in the high byte prints the point
    mask = np.zeros((2, _DIGITS, _DIGITS + 1, _DIGITS), "<u2")
    for first in range(2):
        for last in range(_DIGITS):
            mask[first, last, :, first : last + 1] = 0x00FF
    for dot in range(_DIGITS):
        mask[:, :, dot, dot] |= ord(".") << 8
    head = [sign + lead for sign in ("", "-") for lead in ("", "0.", "0.0", "0.00", "0.000")]
    tail = [".0", ""] + [f"e{x:+03d}" for x in range(-324, 309)]
    return {
        "g": np.array([low, high], np.uint64),
        "log2": np.array(log2, np.int64),
        "four": four.view("<u8").ravel(),
        "zeros": zeros,
        "mask": mask.reshape(-1, _DIGITS),
        "head": _text_rows(head, _HEAD),
        "tail": _text_rows(tail, _TAIL),
    }


def _text_rows(texts: list[str], width: int) -> np.ndarray:
    padded = "".join(text.ljust(width, "\0") for text in texts)
    return np.frombuffer(padded.encode(), np.uint8).reshape(len(texts), width)


class FloatText:
    """Rows of float columns, ``rows`` rows a block, as the text of each
    value's ``repr`` followed by its column's separator (``separators``: one
    per column, all of one length).  With ``json``, non-finite values are
    spelled as ``json.dumps`` spells them (``NaN``, ``Infinity``)."""

    def __init__(self, separators: Sequence[bytes], json: bool = False) -> None:
        width = len(separators[0])
        self._spell = _json.dumps if json else repr
        self.rows = max(1, BLOCK // len(separators))
        n = self.rows * len(separators)
        self._values = np.empty((self.rows, len(separators)))
        self._text = bytearray(n * (_TEXT + width))
        self._slot = np.frombuffer(self._text, np.uint8).reshape(n, -1)
        seps = np.frombuffer(b"".join(separators), np.uint8).reshape(-1, width)
        self._slot[:, _TEXT:] = np.tile(seps, (self.rows, 1))
        # workspaces for every block; the layout reuses the digit search's words
        self._words = np.empty(15 * n, np.uint64)
        self._u = [np.empty(n, np.uint64) for _ in range(6)]
        self._k = np.empty(n, np.int64)
        self._b = [np.empty(n, bool) for _ in range(4)]
        self._carry = np.empty((2, n), bool)
        self._head = np.empty((n, _HEAD), np.uint8)
        self._tail = np.empty((n, _TAIL), np.uint8)
        self._zeros = np.empty(n, np.int8)

    def encode(self, columns: Iterable[np.ndarray], lo: int) -> bytearray:
        """The text of rows ``lo`` up to ``lo + rows`` of ``columns``."""
        for j, column in enumerate(columns):
            part = column[lo : lo + self.rows]
            self._values[: len(part), j] = part
        m = len(part) * self._values.shape[1]
        x = self._values.reshape(-1)[:m]
        special = self._fill(x, m)
        if special.any():
            for index in np.flatnonzero(special).tolist():
                text = self._spell(float(x[index])).encode()
                self._slot[index, :_TEXT] = 0
                self._slot[index, : len(text)] = np.frombuffer(text, np.uint8)
        size = m * self._slot.shape[1]
        text = self._text if size == len(self._text) else self._text[:size]
        return text.translate(None, b"\0")

    def _fill(self, x: np.ndarray, m: int) -> np.ndarray:
        """Write the text of every value of ``x`` into the slot; return the
        mask of values (subnormal, non-finite) whose text it left to ``encode``."""
        tables = _tables()
        n = len(self._slot)
        g, sh, hs, lo, hi, t = (w[:, :m] for w in self._words[: 12 * n].reshape(6, 2, n))
        bq, c, h, cp, c0, c1 = (w[:m] for w in self._u)
        irregular, zero, special, pick = (w[:m] for w in self._b)
        carry = self._carry[:, :m]
        k = self._k[:m]
        idx = c0.view(np.int64)
        bits = x.view(np.uint64)

        # x = (-1)**sign c 2**q, where c = 2**52 + (the low 52 bits) when normal
        np.right_shift(bits, 52, out=bq)
        bq &= 0x7FF
        np.bitwise_and(bits, (1 << 52) - 1, out=c)
        np.equal(c, 0, out=irregular)  # c = 2**52 above the least normal:
        np.greater(bq, 1, out=special)  # the lower neighbour is nearer
        irregular &= special
        np.left_shift(bits, 1, out=cp)
        np.equal(cp, 0, out=zero)
        np.subtract(bq, 1, out=cp)
        np.greater_equal(cp, 2046, out=special)  # bq is 0 or 2047,
        np.greater(special, zero, out=special)  # and x is not a zero
        c |= 1 << 52
        q = bq.view(np.int64)
        q -= 1075
        # k = floor(log10 2**q), or floor(log10 (3/4 2**q)) when irregular
        np.multiply(q, 661971961083, out=k)
        np.multiply(irregular, 274743187321, out=idx)
        k -= idx
        k >>= 41
        np.subtract(k, _K_MIN, out=idx)
        np.take(tables["g"], idx, axis=1, out=g, mode="clip")
        np.take(tables["log2"], idx, out=h.view(np.int64), mode="clip")
        q += 2
        h += q.view(np.uint64)

        # g cp for cp = 4c 2**h, as 128-bit words 2**64 hi + lo for the rows
        # [g0 cp, g1 cp], from the 32-bit halves of both factors
        np.left_shift(c, 2, out=cp)
        cp <<= h
        np.bitwise_and(cp, _U32, out=c0)
        np.right_shift(cp, 32, out=c1)
        np.right_shift(g, 32, out=hi)
        np.multiply(hi, c1, out=t)  # high x high
        hi *= c0
        np.bitwise_and(g, _U32, out=lo)
        np.multiply(lo, c1, out=sh)
        lo *= c0  # low x low
        np.right_shift(sh, 32, out=hs)
        t += hs
        sh &= _U32
        np.right_shift(hi, 32, out=hs)
        t += hs
        hi &= _U32
        sh += hi
        np.right_shift(lo, 32, out=hs)
        sh += hs  # the middle column
        lo &= _U32
        np.right_shift(sh, 32, out=hi)
        hi += t
        sh <<= 32
        lo |= sh
        vb, vbl, vbr = cp, c0, c1
        self._round_to_odd(hi, lo, vb, bq)
        # the interval's ends take cp + 2**(h + 1) and cp - 2**(h + 1), or
        # cp - 2**h when irregular (Giulietti, fig. 7): add g 2**j to g cp
        j = c
        np.add(h, 1, out=j)
        for out, up in ((vbr, True), (vbl, False)):
            if not up:
                j -= irregular
            np.left_shift(g, j, out=sh)
            np.subtract(64, j, out=bq)
            np.right_shift(g, bq, out=hs)
            if up:
                np.add(lo, sh, out=t)
                np.less(t, lo, out=carry)
                np.add(hi, hs, out=sh)
                sh += carry
            else:
                np.subtract(lo, sh, out=t)
                np.greater(t, lo, out=carry)
                np.subtract(hi, hs, out=sh)
                sh -= carry
            self._round_to_odd(sh, t, out, bq)

        # the shortest digits in the interval (Giulietti, fig. 7): s = vb >> 2
        # or s + 1, whichever lies in it, the nearer when both do (s on a tie
        # when even); but 10 floor(s/10) or the next multiple of ten if in it
        np.bitwise_and(bits, 1, out=bq)  # an odd c leaves the ends out
        vbl += bq
        vbr -= bq
        s, low, down, d = bq, c, h, t[0]
        s_in, up_in = carry
        np.right_shift(vb, 2, out=s)
        np.bitwise_and(vb, ~np.uint64(3), out=low)
        np.less_equal(vbl, low, out=s_in)
        low += 4
        np.less_equal(low, vbr, out=up_in)
        np.bitwise_and(vb, 7, out=d)
        np.take(_NEARER, d.view(np.int64), out=pick)
        np.less_equal(up_in, pick, out=pick)
        pick &= s_in
        np.add(s, 1, out=vb)
        vb -= pick
        np.floor_divide(s, 10, out=down)
        down *= 10
        np.left_shift(down, 2, out=low)
        np.less_equal(vbl, low, out=s_in)
        np.copyto(vb, down, where=s_in)
        low += 40
        np.less_equal(low, vbr, out=up_in)
        down += 10
        np.copyto(vb, down, where=up_in)
        np.copyto(vb, 0, where=zero)
        np.copyto(k, -15, where=zero)  # 0 as the digit at 10**15
        self._layout(x, vb.view(np.int64), k, zero, m, tables)
        return special

    @staticmethod
    def _round_to_odd(hi, lo, out, z) -> None:
        """out = g cp / 2**127 rounded to odd, from the words of g0 cp and
        g1 cp (Giulietti, fig. 8: the low word of g0 cp cannot change it)."""
        np.right_shift(lo[1], 1, out=z)
        z += hi[0]
        np.right_shift(z, 63, out=out)
        out += hi[1]
        z <<= 1  # the bits below the result:
        np.minimum(z, 1, out=z)
        out |= z  # odd when any is set

    def _layout(self, x, d, k, zero, m, tables) -> None:
        """CPython's 'r' layout of x = d 10**k: fixed for -4 < decpt <= 16
        (decpt: the digits before the point), else d.ddde±XX; '.0' when
        integral."""
        n = len(self._slot)
        slot = self._slot[:m]
        chunks = self._words[: 5 * n].view(np.int64).reshape(n, 5)[:m]
        digits = self._words[5 * n : 10 * n].view("<u8").reshape(n, 5)[:m]
        mask = self._words[10 * n : 15 * n].view("<u2")[: _DIGITS * m].reshape(m, _DIGITS)
        rest, quot, tmp, _, first, last = (w[:m].view(np.int64) for w in self._u)
        short = fixed = self._b[0][:m]  # fixed once short is used
        point = self._b[3][:m]
        # the 20 digits of d, four a chunk, as (digit, 0xFF) pairs
        np.copyto(rest, d)
        for j in (4, 3, 2, 1):
            np.floor_divide(rest, 10000, out=quot)
            np.multiply(quot, 10000, out=tmp)
            np.subtract(rest, tmp, out=chunks[:, j])
            rest, quot = quot, rest
        chunks[:, 0] = rest
        np.take(tables["four"], chunks, out=digits, mode="clip")
        # the first and the last digit printed: d >= 10**15 starts in column 0
        # or 1 of the 17, and its trailing zeros end it
        np.less(d, 10**16, out=short)
        first[...] = short
        zeros = self._zeros[:m]
        np.take(tables["zeros"], chunks[:, 4], out=zeros)
        last[...] = zeros
        np.equal(chunks[:, 4], 0, out=point)
        for j in (3, 2, 1):
            np.take(tables["zeros"], chunks[:, j], out=zeros)
            np.multiply(zeros, point, out=tmp)
            last += tmp
            np.equal(chunks[:, j], 0, out=fixed)
            point &= fixed
        np.subtract(_DIGITS - 1, last, out=last)
        np.copyto(last, 1, where=zero)
        nd, decpt, dot = tmp, rest, d
        np.subtract(last, first, out=nd)
        nd += 1
        np.subtract(k + _DIGITS, first, out=decpt)
        np.add(decpt, 3, out=quot)
        np.less_equal(quot.view(np.uint64), 19, out=fixed)
        integral = self._carry[0, :m]  # prints its digits through the units one
        np.greater_equal(decpt, nd, out=integral)
        integral &= fixed
        # the point follows digit decpt (fixed) or the first digit (exponent)
        np.subtract(decpt, 1, out=dot)
        dot *= fixed
        nd -= 1
        np.less(dot.view(np.uint64), nd.view(np.uint64), out=point)
        dot += first
        np.copyto(last, dot, where=integral)
        np.copyto(dot, _NO_DOT, where=~point)
        dot += first * (_DIGITS * (_DIGITS + 1)) + last * (_DIGITS + 1)
        np.take(tables["mask"], dot, axis=0, out=mask, mode="clip")
        np.bitwise_and(digits.view("<u2")[:, 3:], mask, out=mask)
        slot[:, _HEAD : _HEAD + 2 * _DIGITS] = mask.view(np.uint8)
        # tail: '.0' when integral, the exponent decpt - 1, or nothing
        tail = quot
        np.subtract(1, integral, out=tail)
        np.copyto(tail, decpt + _EXP_ROW, where=~fixed)
        text = np.take(tables["tail"], tail, axis=0, out=self._tail[:m], mode="clip")
        slot[:, _TEXT - _TAIL : _TEXT] = text
        # head: the sign, and '0.' with up to three zeros when decpt <= 0
        head = decpt
        np.subtract(1, decpt, out=head)
        np.maximum(head, 0, out=head)
        head *= fixed
        np.signbit(x, out=point)
        np.multiply(point, 5, out=tmp)
        head += tmp
        text = np.take(tables["head"], head, axis=0, out=self._head[:m], mode="clip")
        slot[:, :_HEAD] = text

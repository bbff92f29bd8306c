"""Python's ``repr`` of float64 values, a block of them at a time.

``FloatText.encode`` writes rows of float columns as the text a
``",".join(map(repr, row))`` writer gives, each value followed by its
column's separator.  Nothing is formatted per value.  The shortest round-trip
digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; a sibling of Adams' Ryu, PLDI 2018) in numpy ``uint64``
arithmetic.  CPython's ``'r'`` layout is then built in three little-endian
``uint64`` words a value (24 bytes, as in ``-2.2250738585072014e-308``), NUL
wherever nothing is printed; a fourth word holds the separator, and
``bytearray.translate`` deletes the NULs.

The words hold the sign in byte 0; the digits from byte 1, with ``0.000`` or
the point inserted; and the suffix ``.0`` or ``e±XX`` from byte 19, which the
text before a suffix never reaches.  Zeros of either sign take this path too.
Subnormal and non-finite values are spelled one by one, as ``repr`` (or
``json.dumps``) spells them.
"""

from __future__ import annotations

import functools
import json as _json
from typing import Iterable, Sequence

import numpy as np

# Values per block.  The workspaces take about 180 bytes a value, so a writer's
# memory is bounded whatever it writes (under 1 MiB with its tables).
BLOCK = 4096

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of Schubfach's table
_SUFFIX = 19  # the suffix's first byte
_SHIFTS = 6  # bytes inserted after the digits before the point: up to '0.000'
_DECPT = 400  # the layout table's column of decpt = 0 (decpt: digits before the point)
_SCALES = np.array([[1.0], [2.0**64], [2.0**128]])  # the digit words' weights

_U32 = np.uint64(0xFFFFFFFF)
# s (vb >> 2) is nearer than s + 1, or as near and even, by vb mod 8
_NEARER = np.array([v % 4 + v // 4 < 3 for v in range(8)])


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Schubfach's g per k (Giulietti, sec. 9.8.3): 10**-k = beta 2**r with
    2**125 <= beta < 2**126 and g = floor(beta) + 1, as the rows
    [g mod 2**63, g >> 63]; floor(log2 10**-k) per k; and the tables of the
    layout."""
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
    # 0..9999 as four digit bytes (0..9, not yet ASCII), the first the lowest
    ten = digits = np.arange(10, dtype=np.uint64)
    for shift in (8, 16, 24):
        digits = (digits[:, None] | ten << shift).ravel()
    # per decpt (column decpt + _DECPT): p, the digits before the point; the
    # bytes of 0.000 but the point, which the point inserts; the suffix row,
    # one more when p = e: '' then '.0' when fixed, each exponent twice if not
    layout = []
    for decpt in range(-_DECPT, _DECPT):
        fixed = -4 < decpt <= 16
        layout.append([max(decpt, 0) if fixed else 1, 1 - decpt if fixed and decpt <= 0 else 0,
                       0 if fixed else 2 + 2 * (decpt - 1 + 324)])
    tail = ["", ".0"] + [f"e{x:+03d}" for x in range(-324, 309) for _ in range(2)]
    return {
        "g": np.array([low, high], np.uint64),
        "log2": np.array(log2, np.int64),
        "digits": digits,
        "layout": np.array(layout, np.int64).T.copy(),
        # word j (row j) of the 24 bytes with '0' in bytes 1 .. i (column i)
        "ascii": _word_rows([b"\0" + b"0" * i for i in range(18)]),
        # inserting `count` bytes after digit p: column p _SHIFTS + count
        "insert": _word_rows([_insertion(p + 1, count)
                              for p in range(17) for count in range(_SHIFTS)]),
        # the suffixes, in the last word's bytes from _SUFFIX on
        "tail": _text_rows(["\0" * (_SUFFIX - 16) + text for text in tail], 8).view("<u8").ravel(),
    }


def _insertion(start: int, count: int) -> bytes:
    """The 24-byte masks of `count` bytes inserted at byte `start`: 0xFF below
    it, the inserted text (0.000 at byte 1, else a point) from it on, and 0xFF
    above the inserted bytes."""
    end = start + count
    text = (b"\x000.000" if start == 1 else b"." * 24)[start:end]
    below = (b"\xff" * start).ljust(24, b"\0")
    above = (b"\xff" * (24 - end)).rjust(24, b"\0")
    return below + text.rjust(end, b"\0").ljust(24, b"\0") + above


def _word_rows(texts: list[bytes]) -> np.ndarray:
    """Texts of whole words, NUL-padded to the longest, one column each: row
    j holds word j of every text."""
    width = -(-max(map(len, texts)) // 8) * 8
    padded = b"".join(text.ljust(width, b"\0") for text in texts)
    return np.frombuffer(padded, "<u8").reshape(len(texts), -1).T.copy()


def _text_rows(texts: list[str], width: int) -> np.ndarray:
    padded = "".join(text.ljust(width, "\0") for text in texts)
    return np.frombuffer(padded.encode(), np.uint8).reshape(len(texts), width)


class FloatText:
    """Rows of float columns, ``rows`` rows a block, as the text of each
    value's ``repr`` followed by its column's separator (``separators``: one
    per column, each of at most 8 bytes).  With ``json``, non-finite values
    are spelled as ``json.dumps`` spells them (``NaN``, ``Infinity``)."""

    def __init__(self, separators: Sequence[bytes], json: bool = False) -> None:
        if any(len(separator) > 8 for separator in separators):
            raise ValueError("a separator takes at most 8 bytes")
        self._spell = _json.dumps if json else repr
        self._tables = _tables()  # built before the workspaces, so as not to add to their peak
        self.rows = max(1, BLOCK // len(separators))
        n = self.rows * len(separators)
        self._values = np.empty((self.rows, len(separators)))
        # a value's text in words 0-2 of its row, its separator in word 3
        self._text = bytearray(32 * n)
        self._word = np.frombuffer(self._text, "<u8").reshape(n, 4)
        seps = b"".join(separator.ljust(8, b"\0") for separator in separators)
        self._seps = np.frombuffer(seps, "<u8")
        self._word[:, 3].reshape(self.rows, -1)[...] = self._seps
        # workspaces for every block; the layout reuses the digit search's
        self._words = np.empty(10 * n, np.uint64)
        self._u = np.empty(6 * n, np.uint64)
        self._k = np.empty(n, np.int64)
        self._b = [np.empty(n, bool) for _ in range(4)]
        self._carry = np.empty((2, n), bool)

    def encode(self, columns: Iterable[np.ndarray], lo: int) -> bytearray:
        """The text of rows ``lo`` up to ``lo + rows`` of ``columns``."""
        for j, column in enumerate(columns):
            part = column[lo : lo + self.rows]
            self._values[: len(part), j] = part
        m = len(part) * self._values.shape[1]
        x = self._values.reshape(-1)[:m]
        special = self._fill(x, m)
        if special.any():
            slot = self._word.view(np.uint8)
            for index in np.flatnonzero(special).tolist():
                text = self._spell(float(x[index])).encode()
                self._word[index, :3] = 0
                slot[index, : len(text)] = np.frombuffer(text, np.uint8)
        if m == len(self._word):
            return self._text.translate(None, b"\0")
        # a last, shorter block: blank the rows past it rather than copy the rest
        self._word[m:] = 0
        text = self._text.translate(None, b"\0")
        self._word[m:, 3].reshape(-1, len(self._seps))[...] = self._seps
        return text

    def _fill(self, x: np.ndarray, m: int) -> np.ndarray:
        """Write the text of every value of ``x`` into its words; return the
        mask of values (subnormal, non-finite) whose text it left to ``encode``."""
        tables = self._tables
        g, sh, lo, hi, t = self._words[: 10 * m].reshape(5, 2, m)  # contiguous, for take
        u = self._u[: 6 * m].reshape(6, m)
        bq, c, h, cp, c0, c1 = u
        hs = u[4:]  # c0 and c1, free while the columns are summed
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
        np.subtract(k, 274743187321, out=k, where=irregular)
        k >>= 41
        np.subtract(k, _K_MIN, out=idx)
        np.take(tables["g"], idx, axis=1, out=g, mode="wrap")
        np.take(tables["log2"], idx, out=h.view(np.int64), mode="wrap")
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
                np.subtract(j, 1, out=j, where=irregular)
            np.left_shift(g, j, out=sh)
            if up:
                np.add(lo, sh, out=t)
                np.less(t, lo, out=carry)
            else:
                np.subtract(lo, sh, out=t)
                np.greater(t, lo, out=carry)
            np.subtract(64, j, out=bq)
            np.right_shift(g, bq, out=sh)
            if up:
                sh += hi
                sh += carry
            else:
                np.subtract(hi, sh, out=sh)
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
        np.take(_NEARER, d.view(np.int64), out=pick, mode="wrap")
        np.less_equal(up_in, pick, out=pick)
        pick &= s_in
        np.add(s, 1, out=vb)
        vb -= pick
        np.floor_divide(s, 10, out=down)
        down *= 10
        np.left_shift(down, 2, out=low)
        np.less_equal(vbl, low, out=s_in)
        np.putmask(vb, s_in, down)  # copyto(where=) branches per value
        low += 40
        np.less_equal(low, vbr, out=up_in)
        down += 10
        np.putmask(vb, up_in, down)
        np.copyto(vb, 0, where=zero)
        np.copyto(k, -15, where=zero)  # 0 as the digit at 10**15
        self._layout(x, vb.view(np.int64), k, m, tables)
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

    def _layout(self, x, d, k, m, tables) -> None:
        """CPython's 'r' layout of x = d 10**k into the value's three words:
        fixed for -4 < decpt <= 16 (decpt: the digits before the point), else
        d.ddde±XX; '.0' when integral."""
        u = self._u[: 6 * m].reshape(6, m)
        w, s = u[:3], u[3:]  # the digit words, and them shifted; d is in s[0]
        r = self._words[: 10 * m].reshape(10, m)  # contiguous, for take
        short, point = self._b[0][:m], self._b[3][:m]
        # 10**16 <= d < 10**17 once a 16-digit d is scaled; decpt + _DECPT
        np.less(d, 10**16, out=short)
        np.multiply(d, 10, out=s[1].view(np.int64))
        np.putmask(d, short, s[1].view(np.int64))  # copyto(where=) branches per value
        decpt = k
        decpt += 17 + _DECPT
        decpt -= short
        # the digits (0..9, not yet ASCII) of the chunks d = c0 10**14 +
        # c1 10**10 + c2 10**6 + c3 10**2 + c4 in bytes 1 to 17 of the words
        # (c0 < 1000 leaves byte 0, the sign's, zero): c0, c2 in r[5:7] give
        # the low halves of w[0] and w[1], c1, c3 in r[7:9] the high halves
        for whole, quot, rest, power in (
            (d.view(np.uint64), r[7], r[9], 10**10), (r[7], r[5], r[7], 10**4),
            (r[9], r[8], r[9], 100), (r[8], r[6], r[8], 10**4),
        ):
            np.floor_divide(whole, power, out=quot)
            np.multiply(quot, power, out=s[2])
            np.subtract(whole, s[2], out=rest)
        digits = tables["digits"]
        np.take(digits, r[5:7].view(np.int64), out=w[:2], mode="wrap")
        np.take(digits, r[7:9].view(np.int64), out=s[:2], mode="wrap")
        s[:2] <<= 32
        w[:2] |= s[:2]
        np.take(digits, r[9].view(np.int64), out=w[2], mode="wrap")
        w[2] >>= 16
        # nd, the digits through the last nonzero one: the byte of the highest
        # set bit of the words, from the exponent of the largest as a float
        f, nd = r[:3].view(np.float64), r[3].view(np.int64)
        np.copyto(f, w, casting="unsafe")
        f *= _SCALES
        np.maximum.reduce(f, axis=0, out=nd.view(np.float64))
        nd >>= 52
        nd -= 1023
        nd >>= 3  # negative when d = 0
        # p digits before the point, e digits printed; `shift` bytes inserted
        # after digit p: the point when p < e, with 0.000 when p = 0; the
        # suffix '.0' when fixed and p = e, 'e±XX' when not fixed
        p, shift, suffix, e = r[5:9].view(np.int64)
        np.take(tables["layout"], decpt, axis=1, out=r[5:8].view(np.int64), mode="wrap")
        np.maximum(nd, p, out=e)
        np.less(p, e, out=point)
        shift += point
        np.equal(p, e, out=point)
        suffix += point
        # ASCII digits through the e-th, then the sign
        np.take(tables["ascii"], e, axis=1, out=r[:3], mode="wrap")
        w |= r[:3]
        np.right_shift(x.view(np.uint64), 63, out=s[0])
        s[0] *= ord("-")
        w[0] |= s[0]
        # the words shifted by `shift` bytes, and the suffix from byte _SUFFIX
        bits = r[3]
        np.left_shift(shift.view(np.uint64), 3, out=bits)
        np.left_shift(w, bits, out=s)
        np.subtract(64, bits, out=bits)
        np.right_shift(w[:2], bits, out=r[:2])
        s[1:] |= r[:2]
        np.take(tables["tail"], suffix, out=r[0], mode="wrap")
        s[2] |= r[0]
        # the text: the words below byte p + 1, the inserted bytes, and the
        # shifted words above them
        column = k
        np.multiply(p, _SHIFTS, out=column)
        column += shift
        np.take(tables["insert"], column, axis=1, out=r[:9], mode="wrap")
        w &= r[:3]
        s &= r[6:9]
        w |= s
        np.bitwise_or(w, r[3:6], out=self._word[:m, :3].T)

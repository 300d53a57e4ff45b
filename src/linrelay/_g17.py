"""Python's "%.17g" text of float64 entries, formatted by numpy.

G17Lines writes lines of entries to a text stream, byte for byte as
" ".join("%.17g" % x for x in line) would, at a fraction of the cost:
"%.17g" takes CPython about 640 ns per entry.  numpy formats only the
entries with |x| in [1e-99, 1), where a relay code's entries lie: those
of the codes built at eight channel points for k = 1, 2, 4, ..., 4096 lie
in [3.9e-12, 0.43].  Their text is fixed notation with a decimal exponent
p = -4..-1 or exponent notation with two exponent digits; "%.17g" writes
every other entry.  codes.export_code imports this module at its first
call, so importing the package does not load it, and its tables are built
at the first export.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TextIO

import numpy as np

__all__ = ["G17Lines"]

# An entry is laid out in a fixed slot of _W bytes, and a per-entry mask of
# 0s and 1s keeps the bytes of its text: the slots times their masks, with
# the zero bytes deleted, are the joined texts.  The slot columns are
# grouped in 4-byte words, so that digit quadruples and the exponent are
# written as uint32:
#
#   0 '-' | 1-5 "0.000" | 6 first digit | 7 '.' | 8-23 (words 2-5) digits
#   2-17 | 24-27 (word 6) "e-" and two exponent digits | 28 separator
#
# Fixed notation below one keeps "0." and -p - 1 zeros from columns 1-5,
# then the digits without the point; exponent notation keeps the point.
_W = 32
_C_LEAD, _C_DIGITS, _C_E, _C_SEP = 1, 6, 24, 28
_SPACE, _NEWLINE = ord(" "), ord("\n")
# The entries formatted in numpy have |x| in [1e-99, 1), so their decimal
# exponents p = floor(log10|x|) lie in [-99, -1]; log10's rounding can put
# them one off, in [_P_MIN, _P_MAX], where the digits show it and "%.17g"
# takes the entry.  Tables are indexed by p - _P_MIN.
_P_MIN, _P_MAX = -100, 0
# Layouts: 0-3 fixed with p = -4..-1, 4 exponent notation.
_LAYOUTS = 5


@dataclass(frozen=True)
class _Tables:
    """Tables of the numpy "%.17g", built at the first export.

    Attributes:
        pow10: Shape (3, P), column p - _P_MIN: 10^(16-p) as hi + lo + tail,
            where hi + lo is the double nearest 10^(16-p) and hi is that
            double rounded to 26 significant bits, as Veltkamp's split
            gives it for Dekker's product; tail is the double nearest the
            rest.
        layout: 17 times the layout of exponent p, column p - _P_MIN.
        exponent: The ASCII of "e-" and the last two digits of p as uint32,
            column p - _P_MIN.
        quads: The ASCII of "0000".."9999" as uint32.
        sig: Shape (4, 10000) uint8: for group j of digits 2-17 with value
            g, 4j plus the digits of g up to its last nonzero one, or 0 if
            g is 0; the most over j is the count of significant digits
            after the first.
        masks: Shape (17 * _LAYOUTS, _W) uint8, row 17 * layout + that
            count: the columns to keep, but for the sign.
        template: The constant bytes of a slot.
    """

    pow10: np.ndarray
    layout: np.ndarray
    exponent: np.ndarray
    quads: np.ndarray
    sig: np.ndarray
    masks: np.ndarray
    template: np.ndarray


@functools.cache
def _tables() -> _Tables:
    # Python's int-to-float conversion rounds correctly, so exact integers
    # give each power of ten, an integer above 2^53, and its tail.
    p = np.arange(_P_MIN, _P_MAX + 1)
    pow10 = np.empty((3, p.size))
    for col, q in enumerate((16 - p).tolist()):
        m = int(float(10**q))
        # Veltkamp's split: m_hi is m rounded to 26 significant bits.
        shift = m.bit_length() - 26
        m_hi = (m + (1 << shift >> 1)) >> shift << shift
        pow10[:, col] = m_hi, m - m_hi, 10**q - m
    layout = 17 * np.where(p >= -4, p + 4, 4)
    exponent = np.empty((p.size, 4), np.uint8)
    exponent[:, :2] = np.frombuffer(b"e-", np.uint8)
    exponent[:, 2:] = 48 + np.abs(p)[:, None] // np.array([10, 1]) % 10
    exponent = exponent.view(np.uint32).ravel()

    # Built a column at a time in uint8, to hold little beside the tables.
    g = np.arange(10000, dtype=np.uint16)
    quads = np.empty((10000, 4), np.uint8)
    length = np.zeros(10000, np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        digit = (g // unit % 10).astype(np.uint8)
        quads[:, j] = 48 + digit
        length[digit != 0] = j + 1
    quads = quads.view(np.uint32).ravel()
    sig = 4 * np.arange(4, dtype=np.uint8)[:, None] + length
    sig *= length != 0

    # The masks over (layout, significant digits m, column).
    lay = np.arange(_LAYOUTS)[:, None, None]
    m = np.arange(1, 18)[None, :, None]
    col = np.arange(_W)[None, None, :]
    fixed = lay < 4
    # In the 18 columns from _C_DIGITS: the first digit, digits 2..m, and
    # in exponent notation the point if a digit follows it.
    r = col - _C_DIGITS
    keep_digits = (r == 0) | ((r >= 2) & (r <= m)) | (~fixed & (m > 1) & (r == 1))
    # "0." and then -p - 1 zeros, where p = lay - 4.
    keep_lead = fixed & (col >= _C_LEAD) & (col < _C_LEAD + 5 - lay)
    keep_exp = ~fixed & (col >= _C_E) & (col < _C_E + 4)
    masks = (keep_lead | keep_digits | keep_exp | (col == _C_SEP)).astype(np.uint8)

    template = np.zeros(_W, np.uint8)
    template[0] = ord("-")
    template[_C_LEAD : _C_LEAD + 5] = np.frombuffer(b"0.000", np.uint8)
    template[_C_DIGITS + 1] = ord(".")
    template[_C_SEP] = _SPACE

    tables = (pow10, layout, exponent, quads, sig, masks.reshape(-1, _W), template)
    # Every export shares them.
    for table in tables:
        table.flags.writeable = False
    return _Tables(*tables)


class G17Lines:
    """Writes lines of float64 entries to a text stream, each entry as the
    text of "%.17g" % x, separated by spaces.

    Entries are buffered in chunks of `size` entries whatever the line
    lengths, and each chunk is formatted in numpy with work buffers that
    are reused.  An entry x with |x| in [1e-99, 1) gets exactly the text of
    "%.17g" % x because:

    - With p = floor(log10|x|), the value |x| 10^(16-p) is formed as a
      double-double: Dekker's exact product of |x| and the double nearest
      10^(16-p), plus |x| times the tail of the power.  numpy has no FMA,
      so Veltkamp's split of |x| and the table's split of the power make
      the product exact.  The error is below 1e-13 units, and the leading
      double is an integer, since the value is above 2^53.
    - p is the decimal exponent exactly when the value's floor lies in
      [1e16, 1e17).  The value then rounds to the 17 digits N that %.17g
      prints, unless its fractional part is within 1e-6 of one half, where
      the error could decide the rounding.  Exact ties, such as 2^-25 with
      its 18 digits, are among these.
    - %g prints N in fixed notation when -4 <= p, else as d.ddd...e-XX
      with two exponent digits, and strips trailing zeros, and the point
      if no digit follows it.

    "%.17g" % x itself formats every other entry: |x| >= 1 or below 1e-99,
    zeros, subnormals, infinities and nan, entries within 1e-6 of a half,
    entries whose log10 is one off (the floor outside [1e16, 1e17)), and
    those whose rounding carries to 1e17.
    """

    def __init__(self, fh: TextIO, size: int):
        self._fh = fh
        self._t = _tables()
        self._x = np.empty(size)
        self._slots = np.empty((size, _W), np.uint8)
        self._slots[:] = self._t.template
        self._mask = np.empty((size, _W), np.uint8)
        self._n = 0

    def write(self, row: np.ndarray) -> None:
        """Append one line holding the entries of row, at least one."""
        size = self._x.shape[0]
        j = 0
        while j < row.shape[0]:
            take = min(row.shape[0] - j, size - self._n)
            self._x[self._n : self._n + take] = row[j : j + take]
            self._n += take
            j += take
            if j == row.shape[0]:
                self._slots[self._n - 1, _C_SEP] = _NEWLINE
            if self._n == size:
                self.flush()

    def flush(self) -> None:
        """Write the buffered entries."""
        if self._n:
            self._fh.write(self._format(self._n).decode("ascii"))
            self._n = 0

    def _format(self, n: int) -> bytes:
        t = self._t
        x = self._x[:n]
        slots = self._slots[:n]
        N, ip, ok = _decimal(x, t.pow10)
        sig = _digits(N, slots, t)
        slots.view(np.uint32)[:, _C_E // 4] = t.exponent[ip]
        mask = t.masks.take(t.layout[ip] + sig, axis=0, out=self._mask[:n])
        mask[:, 0] = x < 0

        fallback = np.flatnonzero(~ok)
        for i in fallback.tolist():
            text = np.frombuffer(("%.17g" % x[i]).encode("ascii"), np.uint8)
            slots[i, : text.size] = text
            mask[i] = 0
            mask[i, : text.size] = 1
            mask[i, _C_SEP] = 1

        # No byte of a text is 0, so the masked slots with their zeros
        # deleted are the texts.
        mask *= slots
        # Restore what the chunk changed beyond the columns every entry sets.
        slots[fallback] = t.template
        slots[:, _C_SEP] = _SPACE
        return mask.tobytes().translate(None, b"\0")


def _decimal(x: np.ndarray, pow10: np.ndarray):
    """The 17 digits N and exponent column p - _P_MIN of each entry of x,
    and whether they are certain; N = 1e16 and p = -1 where they are not."""
    a = np.abs(x)
    with np.errstate(invalid="ignore"):
        ok = (a >= 1e-99) & (a < 1.0)
    a[~ok] = 0.5
    ip = np.floor(np.log10(a)).astype(np.intp) - _P_MIN
    hi, lo, tail = pow10.take(ip, axis=1)
    # Veltkamp's split of a; hi and lo come split.
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    a_lo = a - a_hi
    prod = a * (hi + lo)
    # Dekker's exact error of prod, then a times the power's tail.
    err = a_hi * hi - prod
    err += a_hi * lo
    err += a_lo * hi
    err += a_lo * lo
    err += a * tail
    floor = np.floor(err)
    err -= floor
    N = prod.astype(np.int64) + floor.astype(np.int64)
    ok &= (N >= 10**16) & (np.abs(err - 0.5) >= 1e-6)
    N += err > 0.5
    ok &= N < 10**17
    N[~ok] = 10**16
    ip[~ok] = -1 - _P_MIN
    return N, ip, ok


def _digits(N: np.ndarray, slots: np.ndarray, t: _Tables) -> np.ndarray:
    """Write the digits of N into their slot columns; the count of
    significant digits after the first."""
    upper = N // 10**8
    lower = N - upper * 10**8
    first = upper // 10**8
    slots[:, _C_DIGITS] = 48 + first
    upper -= first * 10**8
    groups = (upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4)
    words = slots.view(np.uint32)
    for j, g in enumerate(groups):
        words[:, 2 + j] = t.quads[g]
    return np.maximum(
        np.maximum(t.sig[0][groups[0]], t.sig[1][groups[1]]),
        np.maximum(t.sig[2][groups[2]], t.sig[3][groups[3]]),
    )

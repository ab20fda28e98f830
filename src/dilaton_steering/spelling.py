"""The text of one slice of sweep columns: CSV rows or the objects of a JSON array.

`csv_text` writes each float as the bytes of '%.17g', with '\\n' line endings, and `json_text` the
objects as `json.dump(indent=2)` lays them out, with native numbers, the bytes of repr. Both take a
block, column name to numpy array, and the names in output order, and share one assembly,
`_slice_text`, which spells each distinct column once; a float column at a time with numpy
(`_csv_floats`, `_json_floats`).

'%.17g' writes a finite nonzero v from its 17 significant digits D, 10**16 <= D < 10**17: the exact
|v| * 10**(16 - X) rounded half to even, X = floor(log10|v|), plus one where the rounding carries D to
10**17. It writes them in fixed notation where -4 <= X <= 16, else as d.ddd...e+XX with at least two
exponent digits, and drops the trailing zeros of the fraction, and the point where none is left. repr,
which json uses for a finite float, writes the shortest digits that read back as v, the nearest of them
to v (Steele & White, PLDI 1990; Gay's dtoa): the same way, as D with zeros after them, but in fixed
notation only where -4 <= X < 16, and with '.0' after an integral value there. `_scaled` computes
|v| * 10**(16 - X) for a whole column by Dekker's exact product of |v| and 10**(16 - X), a double-double
hi + lo, to an error below 1e-14. Where |16 - X| > 250, |v| and the power are scaled by 2**+-512 first,
which is exact and keeps every partial product normal, subnormal |v| included. So the digits are exact
wherever the integer part lies in [10**16, 10**17) and every comparison that decides them clears
SETTLE_MARGIN, 1e5 times that error: the one rule of both notations. '%.17g' or json spells every other
cell: inf, NaN, a value just below a power of ten, where log10 rounds up, a tie and a near-tie.
`_float_cells` writes the digits as 8-byte words from a table: the lead (comma, sign, '0.' and zeros,
first digit, point), four groups of 4 digits, the tail (the exponent, or '.0').
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np

SETTLE_MARGIN = 1e-9  # of the 17th digit: 1e5 times the 1e-14 that tests/test_spelling_bound.py holds `_scaled` to
_LEAD = 12 * 10_000  # the words: 12 forms of each group of 4 digits, 240 leads, then the exponents
_EXPONENT = _LEAD + 240 + 324  # + X
_BLANK = _EXPONENT + 309
_POINT_ZERO = _BLANK + 1


@functools.cache
def _spelling_tables():
    """(powers, words, bases), built on first use, the powers with int arithmetic only.

    Column X + 324 of `powers` and of each `bases` serves X = floor(log10|v|), -324 <= X <= 308.
    powers[:, X + 324] is (2**s, hi, hi's top 26 bits, the rest of hi, lo): hi + lo is
    10**(16 - X) * 2**-s to 106 bits, with s = 512 where 16 - X > 250, -512 where 16 - X < -250,
    else 0. `words` holds the 8-byte pieces of a cell, NUL-padded: each group of 4 digits in 12
    forms (6 places of the point: none in a fraction group, before one of its digits, none in an
    integer group; by 2: as it is, or for where every later group is 0, without its trailing fraction
    zeros and a bare point), then the 240 leads, the exponents, a blank and '.0'. bases[0] serves
    '%.17g' and bases[1] repr: bases[i][:, X + 324] is the offset of a cell's lead, of the form of
    each of its groups and of its tail, in halves of 4 bytes.
    """
    xs = np.arange(-324, 309)
    ps = 16 - xs
    shifts = np.where(ps > 250, 512, np.where(ps < -250, -512, 0))
    his, los = [], []
    for p, s in zip(ps.tolist(), shifts.tolist()):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        num, den = (num, den << s) if s > 0 else (num << -s, den)
        hi = num / den  # int / int rounds correctly
        n, d = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * d - n * den) / (den * d))
    hi = np.array(his)
    powers = np.stack([np.ldexp(1.0, shifts), hi, *_veltkamp(hi), np.array(los)])
    leads = (  # by form, the rest is 0, sign, first digit
        "," + "-" * sign + zeros + str(first) + "." * (form == 1 and not rest_zero)
        for form, zeros in enumerate(("", "", "0.", "0.0", "0.00", "0.000"))
        for rest_zero, sign, first in itertools.product((0, 1), (0, 1), range(10))
    )
    exponents = ("e%+03d" % x for x in xs.tolist())  # then a blank and '.0'
    pieces = "".join(text.ljust(8, "\0") for text in itertools.chain(leads, exponents, ["", ".0"]))
    words = np.zeros(8 * _LEAD + len(pieces), np.uint8)  # the groups are written in place, not copied
    words[8 * _LEAD :] = np.frombuffer(pieces.encode("ascii"), np.uint8)
    q = np.arange(10_000, dtype=np.int16)
    digits = (q // np.array([[1000], [100], [10], [1]], np.int16) % 10 + ord("0")).astype(np.uint8)
    # Where every later group is 0, digit j stays up to the last nonzero digit of q.
    stays = np.arange(4)[:, None] < 4 - (q % 10 == 0) - (q % 100 == 0) - (q % 1000 == 0) - (q == 0)
    for k, (plain, last) in enumerate(words[: 8 * _LEAD].reshape(6, 2, 10_000, 8)):
        # 0: a fraction group; 1..4: the point before digit k - 1; 5: an integer group
        m, point = min(max(k - 1, 0), 4), k in range(1, 5)  # m: digits before the point
        places = np.arange(4) + (point & (np.arange(4) >= m))
        plain[:, places] = digits.T
        if point:
            plain[:, m] = ord(".")
        last[:] = plain
        if k < 5:
            last[:, places[m:]] *= stays[m:].T
            if point:
                last[:, m] *= stays[m]
    words = words.view(np.uint64)
    fixed = (xs >= -4) & (xs <= np.array([[16], [15]]))  # by notation: '%.17g', repr
    # The lead's form: 0, the first digit alone; 1, with the point after it; 1 - X, after '0.' and zeros.
    form = np.where(~fixed | (xs == 0), 1, np.clip(1 - xs, 0, 5))
    # Digits of each group before the point, where X >= 1 puts the point among the groups.
    before = np.where(fixed & (xs > 0), xs, -1)[:, None] - np.array([[0], [4], [8], [12]])
    bases = np.empty((2, 6, len(xs)), np.intp)
    bases[:, 0] = 2 * (_LEAD + form * 40)
    bases[:, 1:5] = 2 * 20_000 * (np.clip(before, -1, 4) + 1)
    bases[:, 4] += 2 * 10_000  # no group follows the last
    bases[:, 5] = 2 * np.where(fixed, _BLANK, _EXPONENT + xs)
    tables = (powers, words, bases)
    for table in tables:
        table.setflags(write=False)
    return tables


def _veltkamp(x):
    """(top, x - top): the top 26 bits of each x and the rest, by Veltkamp's split (2**27 + 1)."""
    c = 134217729.0 * x
    top = c - (c - x)
    return top, x - top


def _scaled(a):
    """(X, n, frac, finite, power) of each cell v of float column a: |v| * 10**(16 - X) = n + frac.

    X = floor(log10|v|), n is an int64 and frac lies in [0, 1); power holds the cells' columns of the
    powers table. Where X is not finite (0, inf, NaN), finite is False and X is 0.
    """
    powers = _spelling_tables()[0]
    with np.errstate(all="ignore"):  # log10 of 0, inf and NaN; their cells are not finite
        mag = np.abs(a)
        x10 = np.floor(np.log10(mag))
        finite = np.isfinite(x10)
        x10 = np.where(finite, x10, 0.0).astype(np.intp)
        power = np.take(powers, x10 + 324, axis=1)
        scale, hi, h, l, lo = power
        v = mag * scale
        prod = hi * v  # an integer from 2**53 on, so n is prod + floor(err) where it is in range
        v_top, v_low = _veltkamp(v)
        err = ((v_top * h - prod) + v_top * l + v_low * h) + v_low * l
        err += v * lo
        step = np.floor(err)
        frac = err - step
        n = prod.astype(np.int64) + step.astype(np.int64)
    return x10, n, frac, finite, power


def _carry(d, x10):
    """Where d, the digits, rounded up to 10**17, make them 10**16 and add one to X."""
    rounded_up = d == 10**17
    if rounded_up.any():
        d[rounded_up] = 10**16
        x10 += rounded_up


def _csv_digits(a):
    """(D, X, ok): the 17 digits and exponent of each cell of float column a, and where they are exact.

    A zero has D = 0 and X = 0; a cell not ok (inf, NaN, a log10 one off, a tie within SETTLE_MARGIN)
    has D = 0.
    """
    x10, n, frac, finite, _ = _scaled(a)
    ok = finite & (n >= 10**16) & (n < 10**17) & (np.abs(frac - 0.5) > SETTLE_MARGIN)
    d = np.where(ok, n + (frac > 0.5), 0)
    _carry(d, x10)
    ok |= a == 0.0
    return d, x10, ok


def _split(g, hi, lo):
    """(whole, frac): the int64 and the part in [0, 1) of g * (hi + lo), g a power of two."""
    top = g * hi  # exact
    whole = np.floor(top)
    rest = (top - whole) + g * lo
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _json_digits(a):
    """(D, X, ok) as `_csv_digits` gives them, but D holds repr's digits, followed by zeros up to 17.

    A double reads back from every number within half the gap to its neighbour on either side; at a
    power of two the gap below is half as wide. In units of the 17th digit, [low, high] are the
    integers in that interval around n + frac. repr writes, of the multiples of the largest 10**j of
    which one lies in [low, high], the one nearest to n + frac: of the multiple just below and the one
    just above, the one inside, or the nearer. For j = 0 that is n + frac rounded. j goes up over the
    cells still inside until 10**j > high - low, for then the multiple inside is the only one, and so
    is that of any larger power: for a normal double, by j = 2. A cell is ok where every comparison
    that decides its digits clears SETTLE_MARGIN: no tie, and no end of its interval near a multiple
    of 10, where whether an end counts (on the parity of the significand) would matter.
    """
    x10, n, frac, finite, (scale, hi, _, _, lo) = _scaled(a)
    ok = finite & (n >= 10**16) & (n < 10**17)
    kept = np.flatnonzero(ok)
    v = a
    if len(kept) < len(a):
        v, n, frac, scale, hi, lo = a[kept], n[kept], frac[kept], scale[kept], hi[kept], lo[kept]
    bits = np.abs(v).view(np.int64)
    biased = bits >> 52
    # Half the gap above, times scale, is 2**(max(biased, 1) - 1076 + log2 scale), a normal double:
    # made from its bits.
    above = ((np.maximum(biased, 1) + (scale.view(np.int64) >> 52) - 1076) << 52).view(np.float64)
    h_above, f_above = _split(above, hi, lo)
    halved = (bits & (2**52 - 1) == 0) & (biased > 1)  # a power of two, but the least normal
    h_below = np.where(halved, h_above >> 1, h_above)
    f_below = np.where(halved, 0.5 * (f_above + (h_above & 1)), f_above)
    # The ends are n - h_below + f_lower and n + h_above + f_upper; an end that is an integer counts.
    f_lower, f_upper = frac - f_below, frac + f_above  # in (-1, 1) and [0, 2)
    low = (n - h_below) + (f_lower > 0)
    high = (n + h_above) + (f_upper >= 1)
    # An end near an integer is undecided; past j = 0 that matters only for a multiple of 10.
    ends = np.zeros(len(n), bool)
    for whole, f in ((n - h_below, f_lower), (n + h_above, f_upper)):
        k = np.rint(f)
        ends |= (np.abs(f - k) <= SETTLE_MARGIN) & ((whole + k.astype(np.int64)) % 10 == 0)
    digits = n + (frac > 0.5)
    unsettled = np.abs(frac - 0.5) <= SETTLE_MARGIN
    live = [np.arange(len(n)), n, frac, low, high]
    p = 1
    while len(live[0]):
        p *= 10
        cells, n, frac, low, high = live
        below = n // p * p
        in_lower, in_upper = below >= low, below + p <= high
        nearer = (p - 2 * (n - below)) - 2 * frac  # above 0, the lower multiple is the nearer
        up = in_upper & ~(in_lower & (nearer > 0))
        inside = in_lower | in_upper
        near = in_lower & in_upper & (np.abs(nearer) <= SETTLE_MARGIN)
        # A cell no longer inside keeps the digits and the standing of the power before.
        unsettled[cells] = near | (unsettled[cells] & ~inside)
        digits[cells[inside]] = (below + p * up)[inside]
        more = inside & (p <= high - low)
        live = [column[more] for column in live]
    unsettled |= ends
    d = np.zeros(len(a), np.int64)
    ok[kept] = ~unsettled
    d[kept] = np.where(unsettled, 0, digits)
    _carry(d, x10)
    ok |= a == 0.0
    return d, x10, ok


def _float_cells(a, d, x10, ok, bases, slow, whole=None):
    """',' and the bytes of each cell of float column a, from its (D, X, ok): one row per cell, NUL-padded.

    bases is the table of one notation; a cell where whole is True takes '.0' for its tail, and slow(v)
    spells each cell not ok.
    """
    words = _spelling_tables()[1]
    base = np.take(bases, x10 + 324, axis=1)
    lead, groups, tail = base[0], base[1:5], base[5]
    if whole is not None:
        tail[whole] = 2 * _POINT_ZERO
    first = d // 10**16
    rest = d - first * 10**16
    top = rest // 10**8
    low = rest - top * 10**8
    q = np.empty((4, len(a)), np.intp)  # the groups of 4 digits
    np.floor_divide(top, 10**4, out=q[0])
    np.subtract(top, q[0] * 10**4, out=q[1])
    np.floor_divide(low, 10**4, out=q[2])
    np.subtract(low, q[2] * 10**4, out=q[3])
    lead += 2 * first + 20 * np.signbit(a) + 40 * (rest == 0)
    groups += 2 * q  # and, where every later group is 0, the form without trailing fraction zeros
    groups[0] += 20_000 * ((low == 0) & (q[1] == 0))
    groups[1] += 20_000 * (low == 0)
    groups[2] += 20_000 * (q[3] == 0)
    # Each word is gathered as two halves of 4 bytes. A group's second half holds only a point that
    # falls in it, from 1 <= X <= 15; the tail's, only where some cell has a tail.
    low_x, high_x = x10.min(), x10.max()
    inner_point, has_tail = low_x <= 15 and high_x >= 1, bool((tail != 2 * _BLANK).any())
    halves = np.empty((len(a), 2 + 4 * (1 + inner_point) + 2 * has_tail), np.intp)
    halves[:, 0], halves[:, 1] = lead, lead + 1
    if inner_point:
        halves[:, 2:10:2], halves[:, 3:10:2] = groups.T, groups.T + 1
    else:
        halves[:, 2:6] = groups.T
    if has_tail:
        halves[:, -2], halves[:, -1] = tail, tail + 1
    cells = words.view(np.uint32)[halves].view(np.uint8)
    slow_cells = np.flatnonzero(~ok)
    if len(slow_cells):
        # Each text fits its row: X is off by one at most, so where every X is in the fixed notation's
        # range and the row has no tail, '%.17g' and repr write at most 23 bytes, and the comma makes 24:
        # 6 halves. inf and NaN take at most 10 ('-Infinity').
        text = "".join(("," + slow(v)).ljust(cells.shape[1], "\0") for v in a[slow_cells].tolist())
        cells[slow_cells] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(slow_cells), -1)
    return cells


def _csv_floats(a):
    """',' and the '%.17g' bytes of each cell of float column a: one row per cell, NUL-padded."""
    return _float_cells(a, *_csv_digits(a), _spelling_tables()[2][0], "%.17g".__mod__)


def _json_floats(a):
    """',' and the bytes json gives each cell of float column a: one row per cell, NUL-padded.

    A finite cell's bytes are those of repr; json.dumps spells the cells not ok, inf and NaN included.
    """
    d, x10, ok = _json_digits(a)
    # An integral value in fixed notation, where repr's digits are the integer's.
    whole = ok & (x10 >= 0) & (x10 < 16) & (np.floor(a) == a)
    return _float_cells(a, d, x10, ok, _spelling_tables()[2][1], json.dumps, whole)


def _text_cells(text, quote=""):
    """',' and each cell of text, between quotes: one row per cell, NUL-padded to a multiple of 8 bytes.

    text is an array of bytes, or of str whose characters are ASCII (`_ascii`).
    """
    text = np.ascontiguousarray(text)
    codes = text.view(np.uint32 if text.dtype.kind == "U" else np.uint8).reshape(len(text), -1)
    k, q = codes.shape[1], len(quote)
    cells = np.zeros((len(text), -(-(1 + k + 2 * q) // 8) * 8), np.uint8)
    cells[:, 0] = ord(",")
    cells[:, 1 + q : 1 + q + k] = codes  # a shorter string's NULs fall before its closing quote
    if quote:
        cells[:, 1] = cells[:, 1 + q + k] = ord(quote)
    return cells


def _ascii(labels, json_safe=False):
    """Whether each character of the str array labels is ASCII and, with json_safe, one json writes as is."""
    codes = np.ascontiguousarray(labels).view(np.uint32)
    if not json_safe:
        return bool((codes < 128).all())
    return bool((((codes >= 32) & (codes < 127)) | (codes == 0)).all() and not np.isin(codes, (34, 92)).any())


# Float columns shorter than this are spelled by Python, one format call per cell: numpy's fixed cost, some
# 60 calls per column, is the larger below it. On a 2-core VM (python 3.11.7, numpy 2.4.6), one cell took
# 88 us for CSV and 161 us for JSON, against 4 and 7 us by Python; 128 cells 90 against 93 us and 167
# against 110 us; 256 cells 117 against 185 us and 214 against 231 us.
FEW_CELLS = 128


def _csv_bytes(a):
    """',' and the CSV bytes of each cell of column a: one row per cell, NUL-padded to a multiple of 8."""
    if a.dtype.kind == "f":
        if len(a) < FEW_CELLS:
            return _text_cells(np.array(["%.17g" % v for v in a.tolist()], "S"))
        return _csv_floats(a)
    if a.dtype == bool:
        return _text_cells(np.where(a, b"true", b"false"))
    # Not np.char, whose first use imports numpy.strings at run time, nor astype("S"), which is slow.
    return _text_cells(a if a.dtype.kind == "U" and _ascii(a) else a.astype("S"))


def _json_bytes(a):
    """',' and the JSON bytes of each cell of column a: one row per cell, NUL-padded to a multiple of 8."""
    if a.dtype == bool:
        return _csv_bytes(a)
    if a.dtype.kind == "U" and _ascii(a, json_safe=True):
        return _text_cells(a, '"')
    if a.dtype.kind == "f" and len(a) >= FEW_CELLS:
        return _json_floats(a)
    # json spells any other labels and a short float column; no cell holds ", ".
    return _text_cells(np.array(json.dumps(a.tolist())[1:-1].split(", "), "S"))


def _words(text: str, n: int):
    """text, NUL-padded to 8-byte words, as the same row n times."""
    row = np.frombuffer(text.encode("ascii").ljust(-(-len(text) // 8) * 8, b"\0"), np.uint64)
    return np.broadcast_to(row, (n, len(row)))


# Rows of a slice put side by side and stripped of their NULs at a time: a slice's padded rows, wider
# than its text, never exist whole. Small chunks keep each piece of text small enough for the allocator
# to reuse its memory: on a 2-core VM (python 3.11.7, numpy 2.4.6), spelling the `sweep_json` grid's 8
# slices once in a fresh process took 123 ms with 128 rows against 136 ms with 512 (6 200 against
# 10 800 page faults, median of 7), and the `sweep_csv` grid's 20 slices 302 against 299 ms.
CHUNK_ROWS = 128


def _slice_text(block: dict, names, spell, prefixes, ends) -> str:
    """The text of one slice: each row, each column's prefix and cell, then ends[0], or ends[1] in the last.

    spell(a) gives each cell of column a after a comma, as a row of NUL-padded bytes, a multiple of 8 long.
    The comma stays where a column's prefix is None, and the prefix stands in its place elsewhere. Each
    distinct column is spelled once into such a block: columns are keyed by dtype and raw bytes, so two
    columns match, or a column is constant, only bit for bit (-0.0 is not 0.0, and NaNs match only with
    one payload). A constant column is spelled from one cell and broadcast, and a bitwise copy reuses its
    source's block; the prefixes and ends are broadcast too. The blocks side by side, CHUNK_ROWS rows at a
    time, are the text once the NULs are dropped. `block` is emptied once every column is spelled.
    """
    n = len(block[names[0]])
    spelled, parts, commas = {}, [], []
    for name, prefix in zip(names, prefixes):
        if prefix is not None:
            parts.append(_words(prefix, n))
            commas.append(len(parts))  # the part whose comma is dropped
        a = block[name]
        key = (a.dtype.str, a.tobytes())
        if key not in spelled:
            constant = key[1] == a[:1].tobytes() * n
            cells = spell(a[:1] if constant else a).view(np.uint64)
            spelled[key] = np.broadcast_to(cells, (n, cells.shape[1]))
        parts.append(spelled[key])
    block.clear()  # the slice is held once: as columns, then blocks, then text
    del spelled
    parts.append(_words(ends[0], n))
    last = _words(ends[1], 1)[0]  # in place of ends[0]'s last words
    offsets = np.cumsum([0] + [part.shape[1] for part in parts])
    commas, width = 8 * offsets[commas], offsets[-1]  # in bytes; in words
    # One buffer for every chunk, translated where it is: rows past the slice's end are zeroed, all NULs.
    buffer = bytearray(8 * width * min(n, CHUNK_ROWS))
    rows = np.frombuffer(buffer, np.uint64).reshape(-1, width)
    pieces = []
    for start in range(0, n, CHUNK_ROWS):
        chunk = rows[: n - start]
        np.concatenate([part[start : start + len(chunk)] for part in parts], axis=1, out=chunk)
        chunk.view(np.uint8)[:, commas] = 0
        if start + len(chunk) == n:
            chunk[-1, width - len(last) :] = last
            rows[len(chunk) :] = 0
        pieces.append(buffer.translate(None, b"\0").decode("ascii"))
    del parts, rows, chunk, buffer
    return "".join(pieces)


def csv_text(block: dict, names) -> str:
    """The CSV rows of one slice: each float as '%.17g' spells it, '\\n' line endings."""
    prefixes = [""] + [None] * (len(names) - 1)  # the first column's comma dropped
    return _slice_text(block, names, _csv_bytes, prefixes, ("\n", "\n"))


def json_text(block: dict, names) -> str:
    """The JSON objects of one slice, joined by ',\\n', as `json.dump(indent=2)` lays them out."""
    prefixes = [("," if k else "  {") + f'\n    "{name}": ' for k, name in enumerate(names)]
    return _slice_text(block, names, _json_bytes, prefixes, ("\n  },\n", "\n  }"))

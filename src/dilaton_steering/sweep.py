"""Grid sweeps over the dilaton charge: columns, verification, output.

A sweep row is one (omega, dilaton) grid point; its columns are fixed by
`columns()`. One grid walk (`_slices`) feeds every consumer here: it cuts
each omega's dilaton grid into ascending slices of near-equal size, at most
SLICE_ROWS points, and one function per step computes a slice: `_walk_slice`
its amplitudes, `_closed_slice` its closed-form measures and monogamy
residuals, and `_block` its numpy columns, which `sweep_blocks` yields.
So the memory of a run does not grow with the grid. The writers format
the slices either as CSV (the bytes of '%.17g', '\\n' line endings) or as
a JSON array of objects with native numbers (the bytes of repr), and both
share one assembly, `_slice_text`: every distinct column of a slice is
spelled once, a column constant over the slice from one cell, and a column
with a bitwise copy once for every place. Columns match only bit for bit,
so -0.0 never stands for 0.0. A float column is spelled at a time with
numpy (`_csv_floats`, `_json_floats`) into NUL-padded bytes, which go side
by side with the other columns and the text between them, a chunk of rows
at a time, before the NULs are dropped. `_on_cpus` forks one worker per
available CPU once per command, unless the walk is too small to pay for
the forks: worker k takes slices k, k + workers, ..., and sends one item
per slice, which the parent reads in walk order, so a worker that dies
raises ChildProcessError at its next turn, within one slice. The writers'
item is a slice's text, so identical configurations produce identical
bytes, whatever the number of CPUs.

Both routes, the regime rule and the domain rule of `SweepConfig.validate`
(`check_mass_and_omegas`, `ConfigError`), live in `dilaton`. `verify_grid`
adds the batch density-matrix route (`pipeline_measure_arrays`) to each
slice and compares it with the closed forms at a 1e-10 gate;
`monogamy_grid` gates the four identities. A gate's item is the
`GateReport` of one slice's peaks, and the reports merge in walk order
under `fold`'s own rule, so the report is the one a whole-grid pass
gives; it holds the one rule of a gate, under which a NaN fails and is
the worst.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field

import numpy as np

from .dilaton import (
    REGIMES,
    ConfigError,
    Pair,
    amplitude_arrays,
    check_mass_and_omegas,
    closed_measure_arrays,
    critical_dilatons,
    monogamy_residual_arrays,
    pipeline_measure_arrays,
    regime_index,
)

ALL_PAIRS = (Pair.AB, Pair.ABBAR, Pair.BBBAR)
MEASURE_FIELDS = (
    "s_forward",
    "s_backward",
    "bell_max",
    "bell_branch2",
    "concurrence",
    "asymmetry",
    "regime",
)
RESIDUALS = ("r1", "r2", "r3", "r4")
VERIFY_GATE = 1e-10
MONOGAMY_GATE = 1e-10

DEFAULT_OMEGAS = (0.5, 1.0, 1.5, 2.0)
# Past 2**53 grid indices are no longer exact in float64, so `grid_slice`
# would stop being np.linspace.
MAX_POINTS = 2**53


@dataclass
class SweepConfig:
    """Parameters of a dilaton-grid run.

    d_max defaults to mass*(1 - 1e-6), or to the float just below the
    mass where that product rounds to the mass (a subnormal mass); the
    grid is inclusive on both ends and never touches D = mass, which is
    outside the model domain.
    """

    mass: float = 1.0
    omegas: tuple = DEFAULT_OMEGAS
    d_min: float = 0.0
    d_max: float | None = None
    points: int = 2001
    pairs: tuple = ALL_PAIRS

    @property
    def resolved_d_max(self) -> float:
        if self.d_max is not None:
            return self.d_max
        return min(self.mass * (1.0 - 1e-6), math.nextafter(self.mass, 0.0))

    def validate(self) -> None:
        check_mass_and_omegas(self.mass, self.omegas)
        if self.points < 2:
            raise ConfigError(f"points must be >= 2, got {self.points}")
        if self.points > MAX_POINTS:
            raise ConfigError(f"points must be <= 2**53, got {self.points}")
        if self.d_max is None and self.resolved_d_max == 0.0:
            raise ConfigError(f"no grid of two points fits in [0, mass) for mass={self.mass}")
        if not (0.0 <= self.d_min < self.resolved_d_max < self.mass):
            raise ConfigError(
                f"need 0 <= d_min < d_max < mass, got d_min={self.d_min}, "
                f"d_max={self.resolved_d_max}, mass={self.mass}"
            )
        if not self.pairs or any(p not in ALL_PAIRS for p in self.pairs):
            raise ConfigError(f"pairs must be a nonempty subset of {[p.value for p in ALL_PAIRS]}")

    def dilaton_grid(self) -> np.ndarray:
        """The whole grid, np.linspace(d_min, d_max, points)."""
        return np.linspace(self.d_min, self.resolved_d_max, self.points)

    def grid_slice(self, start: int, stop: int) -> np.ndarray:
        """`dilaton_grid()[start:stop]`, bit for bit, without building the whole grid.

        As np.linspace does: i * step + d_min, or (i / div) * delta + d_min
        where the step underflows to 0, and the last point set to d_max.
        """
        d_max = self.resolved_d_max
        div = self.points - 1
        delta = d_max - self.d_min
        step = delta / div
        y = np.arange(start, stop, dtype=np.float64)
        if step == 0.0:
            y /= div
            y *= delta
        else:
            y *= step
        y += self.d_min
        if stop == self.points:
            y[-1] = d_max
        return y

    def sorted_omegas(self) -> list:
        return sorted(self.omegas)


def columns(pairs=ALL_PAIRS) -> list:
    """Column names of a sweep record, in output order."""
    cols = ["omega", "dilaton", "x"]
    for pair in ALL_PAIRS:
        if pair in pairs:
            cols.extend(f"{pair.value}_{name}" for name in MEASURE_FIELDS)
    cols.extend(RESIDUALS + ("r3_valid", "r4_valid"))
    return cols


# --- the grid walk, blocks and writers --------------------------------------

# Grid points per slice of the walk: every column, density-matrix stack
# and formatted write holds one slice at a time.
SLICE_ROWS = 4096

# glibc gives a freed block above its mmap threshold (128 KiB at start) back to the OS, and trims the heap
# top past twice it, so every slice would fault in again the pages of the blocks the last one freed. The
# free of an mmapped block under 32 MiB, its header and page rounding included, raises the threshold to
# its size and the trim threshold to twice that (mallopt(3)): this block, never touched, makes the walk
# reuse its memory from the first slice on, in the forked workers too. Done at import, so no traced walk
# sees it; with another libc, or with MALLOC_MMAP_THRESHOLD_ set, it is an alloc and a free.
np.empty(2**25 - 2**16, np.uint8)


def _slices(cfg: SweepConfig):
    """Validate `cfg`, then return (n, job): the number of slices of its grid walk, and job(i), slice i.

    Each slice is (omega, start, stop, d0): the omegas ascend, each omega's dilaton grid is cut into
    ceil(points / SLICE_ROWS) slices [start, stop) whose sizes differ by at most one point, and d0 is
    that omega's birth dilaton, which the monogamy residuals need. Slice i is computed from i, so a
    share of the 2**41 slices of the largest grid is as lazy as the whole walk.
    """
    cfg.validate()
    omegas = cfg.sorted_omegas()
    d0s = critical_dilatons(cfg.mass, omegas)["d0"]
    cuts = -(-cfg.points // SLICE_ROWS)

    def job(i):
        k, j = divmod(i, cuts)
        return omegas[k], j * cfg.points // cuts, (j + 1) * cfg.points // cuts, d0s[k]

    return len(omegas) * cuts, job


def _walk_slice(cfg: SweepConfig, omega, start, stop):
    """(dilatons, x, c2, s2, c, s) of the slice [start, stop) of omega's grid.

    The dilatons come from `grid_slice`, so the whole grid is never
    built. Every later step is elementwise, so a slice holds the values
    a whole-grid pass gives at its points.
    """
    dslice = cfg.grid_slice(start, stop)
    return (dslice, *amplitude_arrays(cfg.mass, omega, dslice))


def _closed_slice(cfg: SweepConfig, omega, start, stop, d0):
    """`_walk_slice` with the slice's closed forms and monogamy residuals.

    Returns (dilatons, x, closed, mono): `closed[pair]` holds the
    closed-form measures of all three pairs, and `mono` the monogamy
    residuals, which always take all three.
    """
    dslice, x, c2, s2, c, s = _walk_slice(cfg, omega, start, stop)
    closed = {pair: closed_measure_arrays(c2, s2, c, s, pair) for pair in ALL_PAIRS}
    mono = monogamy_residual_arrays(
        closed[Pair.AB], closed[Pair.ABBAR], closed[Pair.BBBAR], dslice, d0
    )
    return dslice, x, closed, mono


def _block(cfg: SweepConfig, omega, start, stop, d0) -> dict:
    """The sweep rows of one slice, as `sweep_blocks` yields them."""
    dslice, x, closed, mono = _closed_slice(cfg, omega, start, stop, d0)
    block = {"omega": np.full(dslice.shape, omega), "dilaton": dslice, "x": x}
    for pair in ALL_PAIRS:
        if pair not in cfg.pairs:
            continue
        vals = closed[pair]
        vals["regime"] = np.array(REGIMES)[regime_index(vals["s_forward"], vals["s_backward"])]
        for name in MEASURE_FIELDS:
            block[f"{pair.value}_{name}"] = vals[name]
    for name in RESIDUALS:
        block[name] = mono[name]
    block["r3_valid"] = block["r4_valid"] = mono["valid"]
    return block


def sweep_blocks(cfg: SweepConfig):
    """Yield the sweep in blocks of at most SLICE_ROWS rows, in ascending (omega, dilaton).

    Each block maps every column of `columns(cfg.pairs)` to an array over
    its rows: floats, regime labels as strings, and the monogamy validity
    flags as booleans. Monogamy residuals are always computed from all
    three bipartitions, regardless of which pair columns were requested.
    """
    n, job = _slices(cfg)
    for i in range(n):
        yield _block(cfg, *job(i))


# --- float spelling: '%.17g' for CSV and repr for JSON, a column at a time
#
# '%.17g' writes a finite nonzero v from its 17 significant digits D, 10**16 <= D < 10**17: the exact
# |v| * 10**(16 - X) rounded half to even, X = floor(log10|v|), plus one where the rounding carries D to
# 10**17. It writes them in fixed notation where -4 <= X <= 16, else as d.ddd...e+XX with at least two
# exponent digits, and drops the trailing zeros of the fraction, and the point where none is left. repr,
# which json uses for a finite float, writes the shortest digits that read back as v, the nearest of them
# to v (Steele & White, PLDI 1990; Gay's dtoa): the same way, as D with zeros after them, but in fixed
# notation only where -4 <= X < 16, and with '.0' after an integral value there. `_scaled` computes
# |v| * 10**(16 - X) for a whole column by Dekker's exact product of |v| and 10**(16 - X), a double-double
# hi + lo, to an error below 1e-14. Where |16 - X| > 250, |v| and the power are scaled by 2**+-512 first,
# which is exact and keeps every partial product normal, subnormal |v| included. So the digits are exact
# wherever the integer part lies in [10**16, 10**17) and every comparison that decides them clears
# SETTLE_MARGIN, 1e5 times that error: the one rule of both notations. '%.17g' or json spells every other
# cell: inf, NaN, a value just below a power of ten, where log10 rounds up, a tie and a near-tie.
# `_float_cells` writes the digits as 8-byte words from a table: the lead (comma, sign, '0.' and zeros,
# first digit, point), four groups of 4 digits, the tail (the exponent, or '.0').
SETTLE_MARGIN = 1e-9  # in units of the 17th digit
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


def _slice_text(cfg: SweepConfig, job, spell, prefixes, ends) -> str:
    """The text of one slice: each row, each column's prefix and cell, then ends[0], or ends[1] in the last.

    spell(a) gives each cell of column a after a comma, as a row of NUL-padded bytes, a multiple of 8 long.
    The comma stays where a column's prefix is None, and the prefix stands in its place elsewhere. Each
    distinct column is spelled once into such a block: columns are keyed by dtype and raw bytes, so two
    columns match, or a column is constant, only bit for bit (-0.0 is not 0.0, and NaNs match only with
    one payload). A constant column is spelled from one cell and broadcast, and a bitwise copy reuses its
    source's block; the prefixes and ends are broadcast too. The blocks side by side, CHUNK_ROWS rows at a
    time, are the text once the NULs are dropped.
    """
    block = _block(cfg, *job)
    n = len(block["omega"])
    spelled, parts, commas = {}, [], []
    for name, prefix in zip(columns(cfg.pairs), prefixes):
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
    del block, spelled  # the slice is held once: as columns, then blocks, then text
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


def _csv_text(cfg: SweepConfig, job) -> str:
    """The CSV rows of one slice: each float as '%.17g' spells it, '\\n' line endings."""
    prefixes = [""] + [None] * (len(columns(cfg.pairs)) - 1)  # the first column's comma dropped
    return _slice_text(cfg, job, _csv_bytes, prefixes, ("\n", "\n"))


def _json_text(cfg: SweepConfig, job) -> str:
    """The JSON objects of one slice, joined by ',\\n', as `json.dump(indent=2)` lays them out."""
    prefixes = [("," if k else "  {") + f'\n    "{name}": ' for k, name in enumerate(columns(cfg.pairs))]
    return _slice_text(cfg, job, _json_bytes, prefixes, ("\n  },\n", "\n  }"))


def _on_cpus(cfg: SweepConfig, work, grain: int):
    """Validate `cfg`, then yield the items of work(slices), one per slice, in walk order, on one worker per CPU.

    The w workers, one per available CPU, at most one per slice and one per `grain` points of the
    walk, so that each has work enough to pay for its fork, are forked once. Worker k takes the
    slices k, k + w, ... of the walk's n and pickles the items of work(its slices) to its own pipe;
    item i is read from worker i mod w, so the items come in walk order. A worker that ends with a
    status other than 0, by an exception or a kill, raises ChildProcessError at its next turn, which
    comes within one slice. However the reading ends, the read ends are closed and the workers
    killed and reaped: a share can take days. With one CPU, one slice or fewer than 2 * grain
    points, work runs in process over the whole walk.
    """
    n, job = _slices(cfg)
    # Missing where the OS cannot pin CPUs (macOS, Windows); every OS that has it can fork.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    w = min(cpus, n, len(cfg.omegas) * cfg.points // grain)
    if w < 2:
        yield from work(map(job, range(n)))
        return
    workers = []  # (pid, read end of its pipe), in k order
    try:
        # While forking, SIGINT stays blocked here and in the workers, and the main thread, which
        # runs the handler wherever it lands, only notes it: `workers` loses no pid.
        main = threading.current_thread() is threading.main_thread()
        noted = []
        handler = signal.signal(signal.SIGINT, lambda *_: noted.append(1)) if main else None
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            for k in range(w):
                read, write = os.pipe()
                workers.append((os.fork(), open(read, "rb")))
                if workers[-1][0] == 0:
                    try:
                        for _, pipe in workers:  # the read ends, its own and those of the workers before
                            pipe.close()
                        with open(write, "wb") as out:
                            for item in work(map(job, range(k, n, w))):
                                pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
                                out.flush()
                                del item  # sent; not held while the next is made
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(write)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
            if main:
                signal.signal(signal.SIGINT, handler)
        if noted:
            signal.raise_signal(signal.SIGINT)
        turns = collections.deque(workers)
        while turns:
            pid, pipe = turns.popleft()
            try:
                item = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                # Its share is done, or it died. The status is read, the zombie left for the teardown.
                info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                status = info.si_status if info.si_code == os.CLD_EXITED else -info.si_status
                if status:
                    raise ChildProcessError(f"a sweep worker ended with status {status}; the output is incomplete")
                continue
            turns.append((pid, pipe))
            yield item
            del item  # written now, and dropped before the next is read: one at a time
    finally:
        for _, pipe in workers:
            pipe.close()
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# Points of the walk per formatting worker. On a 2-core VM (python 3.11.7, numpy 2.4.6), in process
# against 2 workers, medians of 101 alternating in-process `cli.main` runs over the 4 default omegas,
# each run building the spelling tables, as a CLI run does: CSV took 42.6 against 50.0 ms at 4000
# points (2 workers won 14 runs), 62.3 against 63.9 ms at 8000 (47 runs; 74.1 against 69.3 ms, 38 of
# 61, in another series) and 74.0 against 74.1 ms at 10 000 (57 runs). JSON, in 61 runs, took 105.5
# against 93.4 ms at 4000 points (41 runs) and 142.6 against 122.7 ms at 8000 (54 runs). So 2 workers
# format CSV from about 8000 points on, JSON from 4096, and both fork on the default grid, 8004 points:
# there the CLI takes as long either way, and its peak RSS is 3 MB lower with workers. The protocol
# drifts between series taken at different times by more than the effect it sets: at 8000 points 2
# workers won 34 of 101 runs in one, then 38 of 61 and 47 of 101 in a later one: a grain may be 2x off.
CSV_GRAIN = 4_000
JSON_GRAIN = SLICE_ROWS // 2


def _write_slices(cfg: SweepConfig, stream, text, grain: int, lead: str, sep: str) -> None:
    """Write lead and the text of the walk's first slice, then sep and that of each next one.

    `_on_cpus` owns the workers, and validates the config before its first text, so before anything
    is written. It is closed however the writing ends, so that it reaps them.
    """
    texts = _on_cpus(cfg, lambda jobs: (text(cfg, job) for job in jobs), grain)
    with contextlib.closing(texts):
        for piece in texts:
            # Two writes, not lead + piece, and the text dropped before the next slice's:
            # another copy of a slice's text would add to the peak.
            stream.write(lead)
            stream.write(piece)
            del piece
            lead = sep


def write_csv(cfg: SweepConfig, stream) -> None:
    """Write the sweep as CSV: 17 significant digits, '\\n' line endings."""
    # The header goes out with the first slice, after the config validated.
    _write_slices(cfg, stream, _csv_text, CSV_GRAIN, ",".join(columns(cfg.pairs)) + "\n", "")


def write_json(cfg: SweepConfig, stream) -> None:
    """Write the sweep as a JSON array of objects, as `json.dump(indent=2)` would."""
    _write_slices(cfg, stream, _json_text, JSON_GRAIN, "[\n", ",\n")
    stream.write("\n]\n")


# --- the gates ------------------------------------------------------------


def _rank(value: float) -> tuple:
    # Order for "worst": NaN above every number, so a NaN fails its gate.
    return (math.isnan(value), value)


@dataclass
class GateReport:
    """Peak deviations over a grid, each held against one gate.

    `peaks` maps each key, in the order it was first folded, to the
    (value, omega, dilaton) of its largest deviation.
    """

    gate: float
    peaks: dict = field(default_factory=dict)

    def fold(self, key, dev: np.ndarray, omega: float, dilatons: np.ndarray) -> None:
        """Fold one slice's peak of `dev` into peaks[key], in grid order."""
        if dev.size:
            i = int(np.argmax(dev))
            self._hold(key, (float(dev[i]), omega, float(dilatons[i])))

    def merge(self, later: GateReport) -> GateReport:
        """Fold in the peaks of `later`, a report on the grid points after this one's; return self."""
        for key, peak in later.peaks.items():
            self._hold(key, peak)
        return self

    def _hold(self, key, peak) -> None:
        # A held peak stays unless the new one ranks strictly higher, so on a tie the earlier
        # grid point stays, as np.argmax keeps the first; a new key goes last.
        old = self.peaks.get(key)
        if old is None or _rank(peak[0]) > _rank(old[0]):
            self.peaks[key] = peak

    def select(self, keep) -> GateReport:
        """The report on the keys for which keep(key) is true, in the same order."""
        return GateReport(self.gate, {key: peak for key, peak in self.peaks.items() if keep(key)})

    @property
    def passed(self) -> bool:
        return all(value <= self.gate for value, _, _ in self.peaks.values())

    @property
    def worst(self):
        """(key, value, omega, dilaton) of the first highest-ranked peak; None if there is none."""
        entries = ((key, *peak) for key, peak in self.peaks.items())
        return max(entries, key=lambda entry: _rank(entry[1]), default=None)


# Points of the walk per gate worker. A fold takes far less time a point than formatting: on a
# 2-core VM (python 3.11.7, numpy 2.4.6), in process against 2 workers, medians of 61 alternating
# in-process `cli.main` runs, verify took 28.0 against 29.4 ms at 32 000 points (2 workers won 17
# runs), 45.4 against 45.7 ms at 48 000 (34 runs) and 56.9 against 51.1 ms at 56 000 (56 runs); in
# 101 runs, monogamy took 29.7 against 36.9 ms at 200 000 (21 runs), 34.2 against 38.7 ms at 240 000
# (45 runs) and 58.3 against 52.1 ms at 280 000 (66 runs; 40.6 against 42.5 ms, 47 runs, in another
# series). So the default grid, 8004 points, folds in process, and 2 workers fold from 56 000 and
# 280 000 points on. The protocol drifts between series taken at different times by more than the
# effect it sets: before the freed-memory block above, monogamy at 160 000 points, where 2 workers had
# won in one series, lost all 61 runs in a later one. Each grain rests on one series: it may be 2x off.
VERIFY_GRAIN = 28_000
MONOGAMY_GRAIN = 140_000


def _gate(cfg: SweepConfig, fold, grain: int) -> GateReport:
    """The reports of fold(cfg, slices), one per slice, from `_on_cpus` with `grain`, merged in walk
    order into the one a whole-grid pass gives."""
    reports = _on_cpus(cfg, functools.partial(fold, cfg), grain)
    with contextlib.closing(reports):
        return functools.reduce(GateReport.merge, reports)


def _verify_fold(cfg: SweepConfig, jobs):
    for omega, start, stop, _ in jobs:
        report = GateReport(VERIFY_GATE)
        dslice, _, c2, s2, c, s = _walk_slice(cfg, omega, start, stop)
        for pair in cfg.pairs:
            closed = closed_measure_arrays(c2, s2, c, s, pair)
            pipe = pipeline_measure_arrays(c, s, pair)
            for key, value in pipe.items():
                report.fold((pair, key), np.abs(closed[key] - value), omega, dslice)
        yield report


def verify_grid(cfg: SweepConfig) -> GateReport:
    """Compare the closed-form and pipeline routes on the whole grid.

    Each (pair, measure) key holds its largest |closed - pipeline|, for
    the measures `pipeline_measure_arrays` returns, in its order. The
    density-matrix stacks are built one slice of the grid walk at a
    time, so they, and the memory of a run, do not grow with the grid.
    Bell values are compared branch to branch, plus the branch maximum
    against the correlation-matrix value.
    """
    return _gate(cfg, _verify_fold, VERIFY_GRAIN)


def _monogamy_fold(cfg: SweepConfig, jobs):
    for omega, start, stop, d0 in jobs:
        report = GateReport(MONOGAMY_GATE)
        dslice, x, closed, mono = _closed_slice(cfg, omega, start, stop, d0)
        del x, closed  # the fold needs only the residuals; hold one slice at a time
        for name in RESIDUALS:
            rows = mono["valid"] if name in ("r3", "r4") else slice(None)
            report.fold((omega, name), np.abs(mono[name][rows]), omega, dslice[rows])
        yield report


def monogamy_grid(cfg: SweepConfig) -> GateReport:
    """Evaluate the four identities over the grid, one key per (omega, residual).

    r3/r4 count only where they apply: an omega with no grid point above
    its birth dilaton d0 has no r3/r4 key. Keys enter in (omega, r1..r4)
    order, so ties go to the first in (omega, r1..r4, grid point) order.
    """
    return _gate(cfg, _monogamy_fold, MONOGAMY_GRAIN)

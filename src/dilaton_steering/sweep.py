"""Grid sweeps over the dilaton charge: columns, verification, output.

A sweep row is one (omega, dilaton) grid point; its columns are fixed by
`columns()`. One grid walk (`_slices`) feeds every consumer here: it cuts
each omega's dilaton grid into ascending slices of near-equal size, at most
SLICE_ROWS points, and one function per step computes a slice: `_walk_slice`
its amplitudes, `_closed_slice` its closed-form measures and monogamy
residuals, and `_block` its numpy columns, which `sweep_blocks` yields.
So the memory of a run does not grow with the grid. The writers format
the slices either as CSV (17 significant digits, '\\n' line endings) or
as a JSON array of objects with native numbers, through one row template
per slice in which each distinct column is formatted once
(`_distinct_columns`): a column constant over the slice is written into
the template as a literal, and a column with a copy is formatted once
into strings that fill each place. Columns match only bit for bit, so
-0.0 never stands for 0.0. `_on_cpus` forks one worker per available CPU
once per command, unless the walk is too small to pay for the forks: for
the writers, worker k formats slices k, k + workers, ..., and the texts
are written in walk order; a worker that dies raises ChildProcessError
as soon as the parent waits on any worker. Identical configurations
produce identical bytes, whatever the number of CPUs.

Both routes, the regime rule and the domain rule of `SweepConfig.validate`
(`check_mass_and_omegas`, `ConfigError`), live in `dilaton`. `verify_grid`
adds the batch density-matrix route (`pipeline_measure_arrays`) to each
slice and compares it with the closed forms at a 1e-10 gate;
`monogamy_grid` gates the four identities. Each worker folds the peaks of
a contiguous run of slices into a `GateReport`, and the reports merge in
walk order under `fold`'s own rule, so the report is the one a whole-grid
pass gives; it holds the one rule of a gate, under which a NaN fails and
is the worst.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import itertools
import json
import math
import os
import pickle
import select
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


def _slices(cfg: SweepConfig, share: range | None = None):
    """Validate `cfg`, then return an iterator over the slices of its grid walk, or over those at `share`.

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

    return map(job, range(len(omegas) * cuts) if share is None else share)


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
    for job in _slices(cfg):
        yield _block(cfg, *job)


def _distinct_columns(arrays, spell):
    """(parts, rows): each column's part of a slice's row template, and the tuples that fill it, one per row.

    spell(array) gives a column's conversion and the cells it fills, as (conversion, cells). Each
    distinct column is formatted once: columns are keyed by dtype and raw bytes, so two columns match,
    or a column is constant, only bit for bit (-0.0 is not 0.0, and NaNs match only with one payload).
    A constant column's part is its value's text, as a literal; a column with a bitwise copy is
    formatted into strings, which fill the part of each copy with %s; any other column keeps its
    conversion, and its cells go to the template as they are.
    """
    keys = [(a.dtype.str, a.tobytes()) for a in arrays]
    copied = {key for key, count in collections.Counter(keys).items() if count > 1}
    made, parts, cells = {}, [], []
    for key, a in zip(keys, arrays):
        if key not in made:
            if key[1] == a[:1].tobytes() * len(a):
                conversion, value = spell(a[:1])
                made[key] = (conversion % value[0]).replace("%", "%%"), None
            elif key in copied:
                conversion, values = spell(a)
                made[key] = "%s", list(map(conversion.__mod__, values))
            else:
                made[key] = spell(a)
        part, column = made[key]
        parts.append(part)
        if column is not None:
            cells.append(column)
    # A slice whose every column is constant fills each row's template with nothing.
    return parts, zip(*cells) if cells else itertools.repeat((), len(arrays[0]))


def _csv_cells(a):
    if a.dtype.kind == "f":
        return "%.17g", a.tolist()
    return "%s", (np.where(a, "true", "false") if a.dtype == bool else a).tolist()


def _csv_text(cfg: SweepConfig, job) -> str:
    """The CSV rows of one slice: 17 significant digits, '\\n' line endings."""
    block = _block(cfg, *job)
    parts, rows = _distinct_columns([block[name] for name in columns(cfg.pairs)], _csv_cells)
    return "".join(map((",".join(parts) + "\n").__mod__, rows))


def _json_cells(a):
    # json spells the labels, the flags and any column with inf or NaN; no cell holds ", ".
    if a.dtype.kind == "f" and np.isfinite(a).all():
        return "%r", a.tolist()
    return "%s", json.dumps(a.tolist())[1:-1].split(", ")


def _json_text(cfg: SweepConfig, job) -> str:
    """The JSON objects of one slice, joined by ',\\n', as `json.dump(indent=2)` lays them out."""
    block = _block(cfg, *job)
    header = columns(cfg.pairs)
    parts, rows = _distinct_columns([block[name] for name in header], _json_cells)
    fields = ",\n".join(f'    "{name}": {part}' for name, part in zip(header, parts))
    return ",\n".join(map(("  {\n" + fields + "\n  }").__mod__, rows))


def _check_ended(pid: int) -> None:
    """Raise ChildProcessError if worker `pid`, which has ended or is ending, did so with a status
    other than 0. The status is read, the zombie left for the teardown, so no pid can be reused."""
    info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    status = info.si_status if info.si_code == os.CLD_EXITED else -info.si_status
    if status:
        raise ChildProcessError(f"a sweep worker ended with status {status}; the output is incomplete")


class _WorkerPipe(io.RawIOBase):
    """The read end of one worker's pipe, whose reads also watch the pipes of the other workers.

    `running` maps the read end of each worker not yet seen to end to its pid; the pipes of one
    `_on_cpus` run share it. Each worker alone holds its write end, so its pipe hangs up once it
    ends. A read that waits raises ChildProcessError as soon as a watched worker ends with a status
    other than 0, whichever pipe is being read.
    """

    def __init__(self, fd: int, running: dict):
        self.fd, self.running = fd, running

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        poll = select.poll()
        poll.register(self.fd, select.POLLIN)
        for fd in self.running.keys() - {self.fd}:
            poll.register(fd, 0)  # a hang-up is reported whatever the mask
        while True:
            events = dict(poll.poll())
            for fd in events.keys() - {self.fd}:
                poll.unregister(fd)
                _check_ended(self.running.pop(fd))
            if self.fd in events:
                return os.readv(self.fd, [buffer])

    def close(self) -> None:
        if not self.closed:
            os.close(self.fd)
        super().close()


def _on_cpus(cfg: SweepConfig, work, runs: bool, grain: int):
    """Validate `cfg`, then yield the items of work(slices) over the walk's slices, on one worker per CPU.

    The w workers, one per available CPU, at most one per slice and one per `grain` points of the
    walk, so that each has work enough to pay for its fork, are forked once. Worker k takes a share
    of the walk's n slices, the contiguous run k*n//w .. (k+1)*n//w with `runs`, else the slices
    k, k + w, ...; it pickles the items of work(share) to its own pipe, and item i is read from
    worker i mod w, so round-robin shares give the items in walk order. A worker that ends with a
    status other than 0, by an exception or a kill, raises ChildProcessError as soon as a read
    waits. However the reading ends, the read ends are closed and the workers killed and reaped: a
    share can take days. With one CPU, one slice or fewer than 2 * grain points, work runs in
    process over the whole walk.
    """
    jobs = _slices(cfg)
    n = len(cfg.omegas) * -(-cfg.points // SLICE_ROWS)
    # Missing where the OS cannot pin CPUs (macOS, Windows); every OS that has it can fork.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    w = min(cpus, n, len(cfg.omegas) * cfg.points // grain)
    if w < 2:
        yield from work(jobs)
        return
    workers = []  # (pid, read end of its pipe), in k order
    running = {}  # read end: pid, of each worker not yet seen to end
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
                workers.append((os.fork(), io.BufferedReader(_WorkerPipe(read, running))))
                if workers[-1][0] == 0:
                    try:
                        for _, pipe in workers:  # the read ends, its own and those of the workers before
                            pipe.close()
                        with open(write, "wb") as out:
                            share = range(k * n // w, (k + 1) * n // w) if runs else range(k, n, w)
                            for item in work(_slices(cfg, share)):
                                pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
                                out.flush()
                                del item  # sent; not held while the next is made
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(write)
                running[read] = workers[-1][0]
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
                _check_ended(pid)  # its share is done, or it died
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


def _write_slices(cfg: SweepConfig, stream, text, lead: str, sep: str) -> None:
    """Write lead and the text of the walk's first slice, then sep and that of each next one.

    `_on_cpus` owns the workers, and validates the config before its first text, so before anything
    is written. It is closed however the writing ends, so that it reaps them.
    """
    # On 2 CPUs, workers that format win from about 3000 points of the walk on (4000 for JSON), so
    # the default grid, 8004 points, forks.
    texts = _on_cpus(cfg, lambda jobs: (text(cfg, job) for job in jobs), False, SLICE_ROWS // 2)
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
    _write_slices(cfg, stream, _csv_text, ",".join(columns(cfg.pairs)) + "\n", "")


def write_json(cfg: SweepConfig, stream) -> None:
    """Write the sweep as a JSON array of objects, as `json.dump(indent=2)` would."""
    _write_slices(cfg, stream, _json_text, "[\n", ",\n")
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


def _gate(cfg: SweepConfig, fold) -> GateReport:
    """fold(cfg, slices) over the whole walk: each worker of `_on_cpus` folds a contiguous run of
    slices, and their reports merge in walk order into the one a whole-grid pass gives."""
    # One worker per slice's worth of points folds the default grid, 8004 points, in process. A fold
    # takes far less time a point than formatting: on 2 CPUs the workers win only from about 24 000
    # points of the walk on for verify and 128 000 for monogamy, and below that lose a few ms.
    reports = _on_cpus(cfg, lambda jobs: [fold(cfg, jobs)], True, SLICE_ROWS)
    with contextlib.closing(reports):
        return functools.reduce(GateReport.merge, reports)


def _verify_fold(cfg: SweepConfig, jobs) -> GateReport:
    report = GateReport(VERIFY_GATE)
    for omega, start, stop, _ in jobs:
        dslice, _, c2, s2, c, s = _walk_slice(cfg, omega, start, stop)
        for pair in cfg.pairs:
            closed = closed_measure_arrays(c2, s2, c, s, pair)
            pipe = pipeline_measure_arrays(c, s, pair)
            for key, value in pipe.items():
                report.fold((pair, key), np.abs(closed[key] - value), omega, dslice)
    return report


def verify_grid(cfg: SweepConfig) -> GateReport:
    """Compare the closed-form and pipeline routes on the whole grid.

    Each (pair, measure) key holds its largest |closed - pipeline|, for
    the measures `pipeline_measure_arrays` returns, in its order. The
    density-matrix stacks are built one slice of the grid walk at a
    time, so they, and the memory of a run, do not grow with the grid.
    Bell values are compared branch to branch, plus the branch maximum
    against the correlation-matrix value.
    """
    return _gate(cfg, _verify_fold)


def _monogamy_fold(cfg: SweepConfig, jobs) -> GateReport:
    report = GateReport(MONOGAMY_GATE)
    for omega, start, stop, d0 in jobs:
        dslice, x, closed, mono = _closed_slice(cfg, omega, start, stop, d0)
        del x, closed  # the fold needs only the residuals; hold one slice at a time
        for name in RESIDUALS:
            rows = mono["valid"] if name in ("r3", "r4") else slice(None)
            report.fold((omega, name), np.abs(mono[name][rows]), omega, dslice[rows])
    return report


def monogamy_grid(cfg: SweepConfig) -> GateReport:
    """Evaluate the four identities over the grid, one key per (omega, residual).

    r3/r4 count only where they apply: an omega with no grid point above
    its birth dilaton d0 has no r3/r4 key. Keys enter in (omega, r1..r4)
    order, so ties go to the first in (omega, r1..r4, grid point) order.
    """
    return _gate(cfg, _monogamy_fold)

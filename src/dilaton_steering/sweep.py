"""Grid sweeps over the dilaton charge: columns, verification, output.

A sweep row is one (omega, dilaton) grid point; its columns are fixed by
`columns()`. One grid walk (`_slices`) feeds every consumer here: it cuts
each omega's dilaton grid into ascending slices of near-equal size, at most
SLICE_ROWS points, and one function per step computes a slice: `_walk_slice`
its amplitudes, `_closed_slice` its closed-form measures and monogamy
residuals, and `_block` its numpy columns, which `sweep_blocks` yields.
So the memory of a run does not grow with the grid. The writers write
each block as `spelling` spells it, CSV or JSON, after the CSV header or
between the JSON array's brackets. `_on_cpus` forks one worker per
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
from .spelling import csv_text, json_text

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


def _csv_text(cfg: SweepConfig, job) -> str:
    return csv_text(_block(cfg, *job), columns(cfg.pairs))


def _json_text(cfg: SweepConfig, job) -> str:
    return json_text(_block(cfg, *job), columns(cfg.pairs))


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

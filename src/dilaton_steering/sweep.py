"""Grid sweeps over the dilaton charge: columns, verification, output.

A sweep row is one (omega, dilaton) grid point; its columns are fixed by
`columns()`. One grid walk (`_slices`) feeds every consumer here: it takes
each omega's dilaton grid in ascending slices of at most SLICE_ROWS
points, and one function per step computes a slice: `_walk_slice` its
amplitudes, `_closed_slice` its closed-form measures and monogamy
residuals, and `_block` its numpy columns, which `sweep_blocks` yields.
So the memory of a run does not grow with the grid. The writers format
the slices either as CSV (17 significant digits, '\\n' line endings) or
as a JSON array of objects with native numbers. Formatting is most of a
sweep's time, so `_texts` formats each slice in a forked child, at most
one per available CPU plus one, which sends it back on a pipe; it yields
the texts in walk order, and a child that dies raises ChildProcessError.
Identical configurations produce identical bytes, whatever the number of CPUs.

Both routes, the regime rule and the domain rule of `SweepConfig.validate`
(`check_mass_and_omegas`, `ConfigError`), live in `dilaton`. `verify_grid`
adds the batch density-matrix route (`pipeline_measure_arrays`) to each
slice and compares it with the closed forms at a 1e-10 gate;
`monogamy_grid` gates the four identities. Both fold each slice's peaks
into a `GateReport`, so the report is the one a whole-grid pass gives;
it holds the one rule of a gate, under which a NaN fails and is the worst.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
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


def _slices(cfg: SweepConfig):
    """Validate `cfg`, then return an iterator over the slices of its grid walk.

    Each slice is (omega, start, d0): the omegas ascend, the slices of an
    omega's dilaton grid start at 0, SLICE_ROWS, ... and hold at most
    SLICE_ROWS points, and d0 is that omega's birth dilaton, which the
    monogamy residuals need.
    """
    cfg.validate()
    omegas = cfg.sorted_omegas()
    d0s = critical_dilatons(cfg.mass, omegas)["d0"]
    starts = range(0, cfg.points, SLICE_ROWS)
    return ((omega, start, d0) for omega, d0 in zip(omegas, d0s) for start in starts)


def _walk_slice(cfg: SweepConfig, omega, start):
    """(dilatons, x, c2, s2, c, s) of the slice of omega's grid at `start`.

    The dilatons come from `grid_slice`, so the whole grid is never
    built. Every later step is elementwise, so a slice holds the values
    a whole-grid pass gives at its points.
    """
    dslice = cfg.grid_slice(start, min(start + SLICE_ROWS, cfg.points))
    return (dslice, *amplitude_arrays(cfg.mass, omega, dslice))


def _closed_slice(cfg: SweepConfig, omega, start, d0):
    """`_walk_slice` with the slice's closed forms and monogamy residuals.

    Returns (dilatons, x, closed, mono): `closed[pair]` holds the
    closed-form measures of all three pairs, and `mono` the monogamy
    residuals, which always take all three.
    """
    dslice, x, c2, s2, c, s = _walk_slice(cfg, omega, start)
    closed = {pair: closed_measure_arrays(c2, s2, c, s, pair) for pair in ALL_PAIRS}
    mono = monogamy_residual_arrays(
        closed[Pair.AB], closed[Pair.ABBAR], closed[Pair.BBBAR], dslice, d0
    )
    return dslice, x, closed, mono


def _block(cfg: SweepConfig, omega, start, d0) -> dict:
    """The sweep rows of one slice, as `sweep_blocks` yields them."""
    dslice, x, closed, mono = _closed_slice(cfg, omega, start, d0)
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


def _cells(array) -> list:
    if array.dtype == bool:
        array = np.where(array, "true", "false")
    return array.tolist()


def _csv_text(cfg: SweepConfig, job) -> str:
    """The CSV rows of one slice: 17 significant digits, '\\n' line endings."""
    block = _block(cfg, *job)
    arrays = [block[name] for name in columns(cfg.pairs)]
    template = ",".join("%s" if a.dtype.kind in "bU" else "%.17g" for a in arrays) + "\n"
    return "".join(map(template.__mod__, zip(*map(_cells, arrays))))


def _json_text(cfg: SweepConfig, job) -> str:
    """The JSON objects of one slice, joined by ',\\n', as `json.dump(indent=2)` lays them out."""
    block = _block(cfg, *job)
    header = columns(cfg.pairs)
    specs, cells = [], []
    for name in header:
        a = block[name]
        # json spells the labels, the flags and any column with inf or NaN; no cell holds ", ".
        finite = a.dtype.kind == "f" and np.isfinite(a).all()
        specs.append("%r" if finite else "%s")
        cells.append(a.tolist() if finite else json.dumps(a.tolist())[1:-1].split(", "))
    fields = ",\n".join(f'    "{name}": {spec}' for name, spec in zip(header, specs))
    template = "  {\n" + fields + "\n  }"
    return ",\n".join(map(template.__mod__, zip(*cells)))


def _texts(cfg: SweepConfig, text):
    """Validate `cfg`, then yield text(cfg, job) for each slice of `_slices`, in walk order.

    Each slice is formatted in a forked child, which writes the text to its own pipe; at most
    workers + 1 are alive, one per available CPU and one more, so that a CPU which ends a short
    slice (the last of an omega) starts the next at once. Memory holds at most one slice per
    child. A child that ends with a status other than 0, by an exception or a kill, leaves the
    output incomplete: ChildProcessError. With one CPU or one slice, they are formatted in process.
    """
    jobs = _slices(cfg)
    # Missing where the OS cannot pin CPUs (macOS, Windows); every OS that has it can fork.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(cfg.omegas) * len(range(0, cfg.points, SLICE_ROWS)))
    if workers < 2:
        yield from (text(cfg, job) for job in jobs)
        return
    children = []  # (pid, read end of its pipe), oldest first
    main = threading.current_thread() is threading.main_thread()
    try:
        while True:
            # Until a text is taken, SIGINT stays blocked here and in the children forked, and the main
            # thread, which runs the handler wherever it lands, only notes it: `children` loses no pid.
            noted = []
            handler = signal.signal(signal.SIGINT, lambda *_: noted.append(1)) if main else None
            blocked = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
            try:
                for job in itertools.islice(jobs, workers + 1 - len(children)):
                    read, write = os.pipe()
                    children.append((os.fork(), open(read, "rb", buffering=0)))
                    if children[-1][0] == 0:
                        try:
                            for _, pipe in children:  # one left open keeps its writer blocked in the teardown
                                pipe.close()
                            with open(write, "wb") as out:
                                out.write(text(cfg, job).encode())
                            os._exit(0)
                        finally:
                            os._exit(1)
                    os.close(write)
                if not children:
                    return
                pid, pipe = children[0]
                piece = pipe.read().decode()
                pipe.close()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                children.pop(0)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
                if main:
                    signal.signal(signal.SIGINT, handler)
            if noted:
                signal.raise_signal(signal.SIGINT)
            if status:
                raise ChildProcessError(f"a sweep worker ended with status {status}; the output is incomplete")
            yield piece
            del piece  # written now; the children forked next would map it too
    finally:
        for _, pipe in children:  # all read ends first: a child blocked on a full pipe ends only then
            pipe.close()
        for pid, _ in children:
            os.waitpid(pid, 0)


def _write_slices(cfg: SweepConfig, stream, text, lead: str, sep: str) -> None:
    """Write lead and the text of the walk's first slice, then sep and that of each next one.

    `_texts` owns the children, and validates the config before its first text, so before anything
    is written. It is closed however the writing ends, so that it reaps them.
    """
    with contextlib.closing(_texts(cfg, text)) as texts:
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
        """Fold one slice's peak of `dev` into peaks[key], in grid order.

        An entry stays unless a later one ranks strictly higher, so on a tie
        the earlier grid point stays, as np.argmax keeps the first.
        """
        if dev.size:
            i = int(np.argmax(dev))
            old = self.peaks.get(key)
            if old is None or _rank(dev[i]) > _rank(old[0]):
                self.peaks[key] = (float(dev[i]), omega, float(dilatons[i]))

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


def verify_grid(cfg: SweepConfig) -> GateReport:
    """Compare the closed-form and pipeline routes on the whole grid.

    Each (pair, measure) key holds its largest |closed - pipeline|, for
    the measures `pipeline_measure_arrays` returns, in its order. The
    density-matrix stacks are built one slice of the grid walk at a
    time, so they, and the memory of a run, do not grow with the grid.
    Bell values are compared branch to branch, plus the branch maximum
    against the correlation-matrix value.
    """
    report = GateReport(VERIFY_GATE)
    for omega, start, _ in _slices(cfg):
        dslice, _, c2, s2, c, s = _walk_slice(cfg, omega, start)
        for pair in cfg.pairs:
            closed = closed_measure_arrays(c2, s2, c, s, pair)
            pipe = pipeline_measure_arrays(c, s, pair)
            for key, value in pipe.items():
                report.fold((pair, key), np.abs(closed[key] - value), omega, dslice)
    return report


def monogamy_grid(cfg: SweepConfig) -> GateReport:
    """Evaluate the four identities over the grid, one key per (omega, residual).

    r3/r4 count only where they apply: an omega with no grid point above
    its birth dilaton d0 has no r3/r4 key. Keys enter in (omega, r1..r4)
    order, so ties go to the first in (omega, r1..r4, grid point) order.
    """
    report = GateReport(MONOGAMY_GATE)
    for omega, start, d0 in _slices(cfg):
        dslice, x, closed, mono = _closed_slice(cfg, omega, start, d0)
        del x, closed  # the fold needs only the residuals; hold one slice at a time
        for name in RESIDUALS:
            rows = mono["valid"] if name in ("r3", "r4") else slice(None)
            report.fold((omega, name), np.abs(mono[name][rows]), omega, dslice[rows])
    return report

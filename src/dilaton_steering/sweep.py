"""Grid sweeps over the dilaton charge: columns, verification, output.

A sweep row is one (omega, dilaton) grid point; its columns are fixed by
`columns()`. One grid walk (`_walk`) feeds every consumer here: it takes
each omega's dilaton grid in ascending slices of at most SLICE_ROWS
points with their amplitudes, and `_closed_walk` adds each slice's
closed-form measures and monogamy residuals, so the memory of a run does
not grow with the grid. `sweep_blocks` turns the slices into numpy
columns, and the writers stream them either as CSV (17 significant
digits, '\\n' line endings) or as a JSON array of objects with native
numbers. Output is deterministic: identical configurations produce
identical bytes.

Both routes, and the domain rule of `SweepConfig.validate`
(`check_mass_and_omegas`, `ConfigError`), live in `dilaton`. `verify_grid`
adds the batch density-matrix route (`pipeline_measure_arrays`) to each
slice and compares it with the closed forms at a 1e-10 gate;
`monogamy_grid` gates the four identities. Both fold each slice's peaks
into a `GateReport`, so the report is the one a whole-grid pass gives;
it holds the one rule of a gate, under which a NaN fails and is the worst.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dilaton import (
    ConfigError,
    Pair,
    amplitude_arrays,
    check_mass_and_omegas,
    closed_measure_arrays,
    critical_dilatons,
    monogamy_residual_arrays,
    pipeline_measure_arrays,
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
# Measure columns that `verify_grid` compares, under the same key in both routes.
_VERIFY_KEYS = (
    "s_forward",
    "s_backward",
    "concurrence",
    "bell_branch1",
    "bell_branch2",
    "bell_max",
)

DEFAULT_OMEGAS = (0.5, 1.0, 1.5, 2.0)
# Past 2**53 grid indices are no longer exact in float64, so `grid_slice`
# would stop being np.linspace.
MAX_POINTS = 2**53


@dataclass
class SweepConfig:
    """Parameters of a dilaton-grid run.

    d_max defaults to mass*(1 - 1e-6); the grid is inclusive on both
    ends and never touches D = mass, which is outside the model domain.
    """

    mass: float = 1.0
    omegas: tuple = DEFAULT_OMEGAS
    d_min: float = 0.0
    d_max: float | None = None
    points: int = 2001
    pairs: tuple = ALL_PAIRS

    @property
    def resolved_d_max(self) -> float:
        return self.mass * (1.0 - 1e-6) if self.d_max is None else self.d_max

    def validate(self) -> None:
        check_mass_and_omegas(self.mass, self.omegas)
        if self.points < 2:
            raise ConfigError(f"points must be >= 2, got {self.points}")
        if self.points > MAX_POINTS:
            raise ConfigError(f"points must be <= 2**53, got {self.points}")
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


# Steerability below this counts as "not witnessed" when classifying regimes.
STEERING_ZERO_THRESHOLD = 1e-12
# Regime labels in the order of 2 * (forward witnessed) + (backward
# witnessed). "no_way" means no steering was witnessed in either
# direction, not a proof that the state is unsteerable.
REGIMES = ("no_way", "one_way_bwd", "one_way_fwd", "two_way")
_REGIME_LABELS = np.array(REGIMES)


def regime_index(s_forward, s_backward):
    """Position in `REGIMES` of the witnessed directions; elementwise on arrays."""
    return 2 * (s_forward > STEERING_ZERO_THRESHOLD) + (s_backward > STEERING_ZERO_THRESHOLD)


def _regime_labels(s_forward, s_backward) -> np.ndarray:
    return _REGIME_LABELS[regime_index(s_forward, s_backward)]


# --- the grid walk, blocks and writers --------------------------------------

# Grid points per slice of the walk: every column, density-matrix stack
# and formatted write holds one slice at a time.
SLICE_ROWS = 4096


def _walk(cfg: SweepConfig):
    """Yield each omega's dilaton grid in ascending slices of at most SLICE_ROWS.

    Each item is (omega, dilatons, x, c2, s2, c, s): the slice's
    dilatons (from `grid_slice`, so the whole grid is never built),
    thermal arguments and amplitudes. Every later step is
    elementwise, so a slice holds the values a whole-grid pass gives at
    its points. Consumers drop a slice before they ask for the next, so
    that a run holds one slice at a time.
    """
    cfg.validate()
    for omega in cfg.sorted_omegas():
        for start in range(0, cfg.points, SLICE_ROWS):
            dslice = cfg.grid_slice(start, min(start + SLICE_ROWS, cfg.points))
            yield (omega, dslice, *amplitude_arrays(cfg.mass, omega, dslice))


def _closed_walk(cfg: SweepConfig):
    """`_walk` with each slice's closed forms and monogamy residuals.

    Yields (omega, dilatons, x, closed, mono): `closed[pair]` holds the
    closed-form measures of all three pairs, and `mono` the monogamy
    residuals, which always take all three.
    """
    # From the omegas as given, so a bad list raises as `SweepConfig.validate` does.
    d0 = dict(zip(cfg.omegas, critical_dilatons(cfg.mass, cfg.omegas)["d0"]))
    for omega, dslice, x, c2, s2, c, s in _walk(cfg):
        closed = {pair: closed_measure_arrays(c2, s2, c, s, pair) for pair in ALL_PAIRS}
        mono = monogamy_residual_arrays(
            closed[Pair.AB], closed[Pair.ABBAR], closed[Pair.BBBAR], dslice, d0[omega]
        )
        yield omega, dslice, x, closed, mono
        del x, c2, s2, c, s, closed, mono


def sweep_blocks(cfg: SweepConfig):
    """Yield the sweep in blocks of at most SLICE_ROWS rows, in ascending (omega, dilaton).

    Each block maps every column of `columns(cfg.pairs)` to an array over
    its rows: floats, regime labels as strings, and the monogamy validity
    flags as booleans. Monogamy residuals are always computed from all
    three bipartitions, regardless of which pair columns were requested.
    """
    for omega, dslice, x, closed, mono in _closed_walk(cfg):
        block = {"omega": np.full(dslice.shape, omega), "dilaton": dslice, "x": x}
        for pair in ALL_PAIRS:
            if pair not in cfg.pairs:
                continue
            vals = closed[pair]
            vals["regime"] = _regime_labels(vals["s_forward"], vals["s_backward"])
            for name in MEASURE_FIELDS:
                block[f"{pair.value}_{name}"] = vals[name]
        for name in RESIDUALS:
            block[name] = mono[name]
        block["r3_valid"] = block["r4_valid"] = mono["valid"]
        yield block
        del block, x, closed, mono


def _cells(array) -> list:
    if array.dtype == bool:
        array = np.where(array, "true", "false")
    return array.tolist()


def _json_number(value) -> str:
    # json spells the non-finite floats as JavaScript constants.
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return repr(value)


def write_csv(cfg: SweepConfig, stream) -> None:
    """Write the sweep as CSV: 17 significant digits, '\\n' line endings."""
    header = columns(cfg.pairs)
    # The header goes out with the first slice, after the config validated.
    head = ",".join(header) + "\n"
    for block in sweep_blocks(cfg):
        arrays = [block[name] for name in header]
        template = ",".join("%s" if a.dtype.kind in "bU" else "%.17g" for a in arrays) + "\n"
        stream.write(head + "".join(map(template.__mod__, zip(*map(_cells, arrays)))))
        head = ""


def write_json(cfg: SweepConfig, stream) -> None:
    """Write the sweep as a JSON array of objects, as `json.dump(indent=2)` would."""
    header = columns(cfg.pairs)
    sep = "[\n"
    for block in sweep_blocks(cfg):
        arrays = [block[name] for name in header]
        specs, cells = [], []
        for a in arrays:
            values = _cells(a)
            if a.dtype.kind == "U":
                specs.append('"%s"')
            elif a.dtype.kind == "b":
                specs.append("%s")
            elif np.isfinite(a).all():
                specs.append("%r")
            else:
                specs.append("%s")
                values = [_json_number(v) for v in values]
            cells.append(values)
        fields = ",\n".join(f'    "{name}": {spec}' for name, spec in zip(header, specs))
        template = "  {\n" + fields + "\n  }"
        stream.write(sep + ",\n".join(map(template.__mod__, zip(*cells))))
        sep = ",\n"
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

    Each (pair, measure) key holds its largest |closed - pipeline|. The
    density-matrix stacks are built one slice of the grid walk at a
    time, so they, and the memory of a run, do not grow with the grid.
    Bell values are compared branch to branch, plus the branch maximum
    against the correlation-matrix value.
    """
    report = GateReport(VERIFY_GATE)
    for omega, dslice, _, c2, s2, c, s in _walk(cfg):
        for pair in cfg.pairs:
            closed = closed_measure_arrays(c2, s2, c, s, pair)
            pipe = pipeline_measure_arrays(c, s, pair)
            for key in _VERIFY_KEYS:
                report.fold((pair, key), np.abs(closed[key] - pipe[key]), omega, dslice)
    return report


def monogamy_grid(cfg: SweepConfig) -> GateReport:
    """Evaluate the four identities over the grid, one key per (omega, residual).

    r3/r4 count only where they apply: an omega with no grid point above
    its birth dilaton d0 has no r3/r4 key. Keys enter in (omega, r1..r4)
    order, so ties go to the first in (omega, r1..r4, grid point) order.
    """
    report = GateReport(MONOGAMY_GATE)
    for omega, dslice, x, closed, mono in _closed_walk(cfg):
        del x, closed  # the fold needs only the residuals (see `_walk`)
        for name in RESIDUALS:
            rows = mono["valid"] if name in ("r3", "r4") else slice(None)
            report.fold((omega, name), np.abs(mono[name][rows]), omega, dslice[rows])
    return report

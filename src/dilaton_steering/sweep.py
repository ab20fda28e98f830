"""Grid sweeps over the dilaton charge: columns, verification, output.

A sweep row is one (omega, dilaton) grid point; its columns are fixed by
`columns()`. `sweep_blocks` yields them as numpy columns, one block per
omega, and the writers stream them in row slices either as CSV (17
significant digits, '\\n' line endings) or as a JSON array of objects
with native numbers. Output is deterministic: identical configurations
produce identical bytes.

The grid engine is vectorized end to end. The closed-form route uses the
analytic expressions in the thermal argument; the pipeline route builds
every three-mode density matrix, partial-traces it, and runs the batch
kernels. `verify_grid` compares the two at a 1e-10 gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .dilaton import (
    PAIR_MODES,
    Pair,
    amplitude_arrays,
    closed_measure_arrays,
    critical_dilatons,
    monogamy_residual_arrays,
)
from .measures import STEERING_ZERO_THRESHOLD, Regime

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
VERIFY_GATE = 1e-10
MONOGAMY_GATE = 1e-10
# Compared measure columns: closed-form key -> pipeline key.
_VERIFY_KEYS = (
    "s_forward",
    "s_backward",
    "concurrence",
    "bell_branch1",
    "bell_branch2",
    "bell_max",
)

DEFAULT_OMEGAS = (0.5, 1.0, 1.5, 2.0)


class ConfigError(ValueError):
    """A sweep configuration violates its invariants."""


def check_mass_and_omegas(mass, omegas) -> None:
    """Reject a mass or a frequency that is not positive and finite."""
    if not (mass > 0.0 and math.isfinite(mass)):
        raise ConfigError(f"mass must be positive and finite, got {mass}")
    if not omegas:
        raise ConfigError("at least one omega is required")
    if any(not (w > 0.0 and math.isfinite(w)) for w in omegas):
        raise ConfigError(f"omegas must all be positive and finite, got {list(omegas)}")


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
    fmt: str = "csv"
    out: str | None = None

    @property
    def resolved_d_max(self) -> float:
        return self.mass * (1.0 - 1e-6) if self.d_max is None else self.d_max

    def validate(self) -> None:
        check_mass_and_omegas(self.mass, self.omegas)
        if self.points < 2:
            raise ConfigError(f"points must be >= 2, got {self.points}")
        if not (0.0 <= self.d_min < self.resolved_d_max < self.mass):
            raise ConfigError(
                f"need 0 <= d_min < d_max < mass, got d_min={self.d_min}, "
                f"d_max={self.resolved_d_max}, mass={self.mass}"
            )
        if not self.pairs or any(p not in ALL_PAIRS for p in self.pairs):
            raise ConfigError(f"pairs must be a nonempty subset of {[p.value for p in ALL_PAIRS]}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.fmt!r}")

    def dilaton_grid(self) -> np.ndarray:
        return np.linspace(self.d_min, self.resolved_d_max, self.points)

    def sorted_omegas(self) -> list:
        return sorted(self.omegas)


def columns(pairs=ALL_PAIRS) -> list:
    """Column names of a sweep record, in output order."""
    cols = ["omega", "dilaton", "x"]
    for pair in ALL_PAIRS:
        if pair in pairs:
            cols.extend(f"{pair.value}_{name}" for name in MEASURE_FIELDS)
    cols.extend(["r1", "r2", "r3", "r4", "r3_valid", "r4_valid"])
    return cols


# --- batch pipeline route -------------------------------------------------

_PTRACE_SUBSCRIPTS = {
    (0, 1): "nabxcdx->nabcd",
    (0, 2): "naxbcxd->nabcd",
    (1, 2): "nxabxcd->nabcd",
}


def tripartite_batch(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Stacked three-mode density matrices from amplitude arrays."""
    n = c.shape[0]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    v = np.zeros((n, 8), dtype=np.complex128)
    v[:, 0] = c * inv_sqrt2
    v[:, 3] = s * inv_sqrt2
    v[:, 6] = inv_sqrt2
    return v[:, :, None] * v[:, None, :].conj()


def partial_trace_batch(rho8: np.ndarray, keep: tuple) -> np.ndarray:
    """Partial trace of stacked 8x8 matrices down to the kept mode pair."""
    n = rho8.shape[0]
    t = rho8.reshape(n, 2, 2, 2, 2, 2, 2)
    return np.ascontiguousarray(np.einsum(_PTRACE_SUBSCRIPTS[keep], t).reshape(n, 4, 4))


def pipeline_measure_arrays(c: np.ndarray, s: np.ndarray, pair: Pair, rho8=None) -> dict:
    """Density-matrix-route measures of one bipartition, vectorized.

    Accepts a precomputed tripartite stack to share it across pairs.
    `concurrence` is the spin-flip value and `bell_max` the
    correlation-matrix value; the steerabilities and the branch values
    come from the extracted X parameters.
    """
    if rho8 is None:
        rho8 = tripartite_batch(c, s)
    rho4 = partial_trace_batch(rho8, PAIR_MODES[pair])
    d11 = rho4[:, 0, 0].real.copy()
    d22 = rho4[:, 1, 1].real.copy()
    d33 = rho4[:, 2, 2].real.copy()
    d44 = rho4[:, 3, 3].real.copy()
    a14 = np.abs(rho4[:, 0, 3])
    a23 = np.abs(rho4[:, 1, 2])
    s_fwd, s_bwd, b1, b2, _ = kernels.xstate_measures(d11, d22, d33, d44, a14, a23)
    return {
        "s_forward": s_fwd,
        "s_backward": s_bwd,
        "bell_max": kernels.chsh_max(rho4),
        "bell_branch1": b1,
        "bell_branch2": b2,
        "concurrence": kernels.spinflip_concurrence(rho4),
        "asymmetry": np.abs(s_fwd - s_bwd),
    }


# Regime labels indexed by 2 * (forward witnessed) + (backward witnessed).
_REGIME_LABELS = np.array(
    [
        r.value
        for r in (Regime.NO_WAY, Regime.ONE_WAY_BACKWARD, Regime.ONE_WAY_FORWARD, Regime.TWO_WAY)
    ]
)


def _regime_labels(s_forward, s_backward, threshold=STEERING_ZERO_THRESHOLD) -> np.ndarray:
    return _REGIME_LABELS[2 * (s_forward > threshold) + (s_backward > threshold)]


# --- blocks and writers ---------------------------------------------------

# Rows per formatted write: the writers hold one slice of text at a time,
# so their memory does not grow with the grid.
SLICE_ROWS = 4096


def sweep_blocks(cfg: SweepConfig):
    """Yield the sweep one omega at a time, in ascending omega.

    Each block maps every column of `columns(cfg.pairs)` to an array over
    the dilaton grid: floats, regime labels as strings, and the monogamy
    validity flags as booleans. Monogamy residuals are always computed
    from all three bipartitions, regardless of which pair columns were
    requested.
    """
    cfg.validate()
    dgrid = cfg.dilaton_grid()
    for omega in cfg.sorted_omegas():
        x, c2, s2, c, s = amplitude_arrays(cfg.mass, omega, dgrid)
        closed = {pair: closed_measure_arrays(c2, s2, c, s, pair) for pair in ALL_PAIRS}
        d0 = critical_dilatons(cfg.mass, omega).d0
        mono = monogamy_residual_arrays(
            closed[Pair.AB], closed[Pair.ABBAR], closed[Pair.BBBAR], dgrid, d0
        )
        block = {"omega": np.full(dgrid.shape, omega), "dilaton": dgrid, "x": x}
        for pair in ALL_PAIRS:
            if pair not in cfg.pairs:
                continue
            vals = closed[pair]
            vals["regime"] = _regime_labels(vals["s_forward"], vals["s_backward"])
            for name in MEASURE_FIELDS:
                block[f"{pair.value}_{name}"] = vals[name]
        for name in ("r1", "r2", "r3", "r4"):
            block[name] = mono[name]
        block["r3_valid"] = block["r4_valid"] = mono["valid"]
        yield block


def _slices(cfg: SweepConfig, header):
    """Row slices of at most SLICE_ROWS rows, as one array per header column."""
    for block in sweep_blocks(cfg):
        arrays = [block[name] for name in header]
        for start in range(0, len(arrays[0]), SLICE_ROWS):
            yield [a[start : start + SLICE_ROWS] for a in arrays]


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
    for arrays in _slices(cfg, header):
        template = ",".join("%s" if a.dtype.kind in "bU" else "%.17g" for a in arrays) + "\n"
        stream.write(head + "".join(map(template.__mod__, zip(*map(_cells, arrays)))))
        head = ""


def write_json(cfg: SweepConfig, stream) -> None:
    """Write the sweep as a JSON array of objects, as `json.dump(indent=2)` would."""
    header = columns(cfg.pairs)
    sep = "[\n"
    for arrays in _slices(cfg, header):
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


# --- verification ---------------------------------------------------------


@dataclass
class Deviation:
    pair: Pair
    measure: str
    value: float
    omega: float
    dilaton: float


@dataclass
class VerifyReport:
    """Worst closed-form vs pipeline deviation per (pair, measure)."""

    deviations: list = field(default_factory=list)
    gate: float = VERIFY_GATE

    @property
    def passed(self) -> bool:
        return all(d.value <= self.gate for d in self.deviations)

    @property
    def worst(self) -> Deviation:
        return max(self.deviations, key=lambda d: d.value)


def verify_grid(cfg: SweepConfig) -> VerifyReport:
    """Compare the closed-form and pipeline routes on the whole grid.

    Bell values are compared branch to branch, plus the branch maximum
    against the correlation-matrix value.
    """
    cfg.validate()
    dgrid = cfg.dilaton_grid()
    report = VerifyReport()
    for omega in cfg.sorted_omegas():
        _, c2, s2, c, s = amplitude_arrays(cfg.mass, omega, dgrid)
        rho8 = tripartite_batch(c, s)
        for pair in cfg.pairs:
            closed = closed_measure_arrays(c2, s2, c, s, pair)
            pipe = pipeline_measure_arrays(c, s, pair, rho8=rho8)
            for key in _VERIFY_KEYS:
                dev = np.abs(closed[key] - pipe[key])
                i = int(np.argmax(dev))
                report.deviations.append(
                    Deviation(pair, key, float(dev[i]), omega, float(dgrid[i]))
                )
    _merge_worst(report)
    return report


def _merge_worst(report: VerifyReport) -> None:
    # One entry per (pair, measure): keep the worst across omega blocks.
    best = {}
    for d in report.deviations:
        key = (d.pair, d.measure)
        if key not in best or d.value > best[key].value:
            best[key] = d
    report.deviations = list(best.values())


@dataclass
class MonogamyReport:
    """Grid maxima of the monogamy residuals.

    max_r3/max_r4 are None when no grid point satisfies the
    applicability condition (dilaton above the steering birth point).
    """

    max_r1: float
    max_r2: float
    max_r3: float | None
    max_r4: float | None
    worst: tuple
    gate: float = MONOGAMY_GATE

    @property
    def passed(self) -> bool:
        values = [self.max_r1, self.max_r2, self.max_r3, self.max_r4]
        return all(v is None or v <= self.gate for v in values)


def monogamy_grid(cfg: SweepConfig) -> MonogamyReport:
    """Evaluate the four identities over the grid and report maxima."""
    cfg.validate()
    dgrid = cfg.dilaton_grid()
    max_r1 = max_r2 = 0.0
    max_r3 = max_r4 = None
    worst = ("r1", 0.0, cfg.sorted_omegas()[0], float(dgrid[0]))
    for omega in cfg.sorted_omegas():
        _, c2, s2, c, s = amplitude_arrays(cfg.mass, omega, dgrid)
        closed = {pair: closed_measure_arrays(c2, s2, c, s, pair) for pair in ALL_PAIRS}
        d0 = critical_dilatons(cfg.mass, omega).d0
        res = monogamy_residual_arrays(
            closed[Pair.AB], closed[Pair.ABBAR], closed[Pair.BBBAR], dgrid, d0
        )
        for name in ("r1", "r2", "r3", "r4"):
            absval = np.abs(res[name])
            if name in ("r3", "r4"):
                if not res["valid"].any():
                    continue
                absval = absval[res["valid"]]
                dsub = dgrid[res["valid"]]
            else:
                dsub = dgrid
            i = int(np.argmax(absval))
            peak = float(absval[i])
            if name == "r1":
                max_r1 = max(max_r1, peak)
            elif name == "r2":
                max_r2 = max(max_r2, peak)
            elif name == "r3":
                max_r3 = peak if max_r3 is None else max(max_r3, peak)
            else:
                max_r4 = peak if max_r4 is None else max(max_r4, peak)
            if peak > worst[1]:
                worst = (name, peak, omega, float(dsub[i]))
    return MonogamyReport(max_r1, max_r2, max_r3, max_r4, worst)

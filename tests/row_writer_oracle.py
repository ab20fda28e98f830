"""Reference sweep writers: one dict per row, one format call per cell.

The package's writers stream numpy columns instead; these row-at-a-time
versions are kept here only as the oracle their output must match byte
for byte. They build every row in memory, so use them on small grids.
"""

from __future__ import annotations

import json

from dilaton_steering.dilaton import (
    REGIMES,
    Pair,
    amplitude_arrays,
    closed_measure_arrays,
    critical_dilatons,
    monogamy_residual_arrays,
    regime_index,
)
from dilaton_steering.sweep import ALL_PAIRS, columns


def sweep_records(cfg):
    """All sweep rows in ascending (omega, dilaton) order, as (header, rows)."""
    cfg.validate()
    header = columns(cfg.pairs)
    dgrid = cfg.dilaton_grid()
    rows = []
    for omega in cfg.sorted_omegas():
        x, c2, s2, c, s = amplitude_arrays(cfg.mass, omega, dgrid)
        closed = {pair: closed_measure_arrays(c2, s2, c, s, pair) for pair in ALL_PAIRS}
        labels = {
            pair: [REGIMES[i] for i in regime_index(closed[pair]["s_forward"], closed[pair]["s_backward"])]
            for pair in cfg.pairs
        }
        d0 = critical_dilatons(cfg.mass, [omega])["d0"][0]
        mono = monogamy_residual_arrays(
            closed[Pair.AB], closed[Pair.ABBAR], closed[Pair.BBBAR], dgrid, d0
        )
        for i in range(len(dgrid)):
            row = {"omega": omega, "dilaton": float(dgrid[i]), "x": float(x[i])}
            for pair in ALL_PAIRS:
                if pair not in cfg.pairs:
                    continue
                vals = closed[pair]
                prefix = pair.value
                row[f"{prefix}_s_forward"] = float(vals["s_forward"][i])
                row[f"{prefix}_s_backward"] = float(vals["s_backward"][i])
                row[f"{prefix}_bell_max"] = float(vals["bell_max"][i])
                row[f"{prefix}_bell_branch2"] = float(vals["bell_branch2"][i])
                row[f"{prefix}_concurrence"] = float(vals["concurrence"][i])
                row[f"{prefix}_asymmetry"] = float(vals["asymmetry"][i])
                row[f"{prefix}_regime"] = str(labels[pair][i])
            valid = bool(mono["valid"][i])
            row["r1"] = float(mono["r1"][i])
            row["r2"] = float(mono["r2"][i])
            row["r3"] = float(mono["r3"][i])
            row["r4"] = float(mono["r4"][i])
            row["r3_valid"] = valid
            row["r4_valid"] = valid
            rows.append(row)
    return header, rows


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(header, rows, stream) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_format_cell(row[k]) for k in header) + "\n")


def write_json(header, rows, stream) -> None:
    ordered = [{k: row[k] for k in header} for row in rows]
    json.dump(ordered, stream, indent=2)
    stream.write("\n")

"""Output checks for each workload.

Every check compares the CLI's output with a physical property of the
mode family or with a value computed in `physics`, never with a stored
copy of an earlier output. Each function returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import io
import json
import math
import re

import numpy as np

import physics

RESIDUAL_GATE = 1e-10
VERIFY_GATE = 1e-10
CRITICAL_GATE = 1e-6
# `critical` prints dilatons with 8 decimals: rounding moves them by 5e-9.
PRINT_HALF_ULP = 5e-9 + 1e-12
VERIFY_MEASURES = ("s_forward", "s_backward", "concurrence", "bell_branch1", "bell_branch2", "bell_max")
_BOOL = {"true": True, "false": False}


class Failures(list):
    def need(self, ok, message):
        if not ok:
            self.append(message)
        return bool(ok)


# --- sweep -------------------------------------------------------------------


def _is_text_column(name):
    return name.endswith("_regime") or name.endswith("_valid")


def parse_csv(text):
    """Columns of a sweep CSV: float arrays, label arrays and bool arrays."""
    header = text[: text.index("\n")].split(",")
    numeric = [i for i, name in enumerate(header) if not _is_text_column(name)]
    labels = [i for i, name in enumerate(header) if _is_text_column(name)]
    body = io.StringIO(text)
    values = np.loadtxt(body, delimiter=",", skiprows=1, usecols=numeric, ndmin=2)
    body.seek(0)
    words = np.loadtxt(body, delimiter=",", skiprows=1, usecols=labels, dtype=str, ndmin=2)
    cols = {header[i]: values[:, k] for k, i in enumerate(numeric)}
    for k, i in enumerate(labels):
        col = words[:, k]
        cols[header[i]] = np.array([_BOOL[w] for w in col]) if header[i].endswith("_valid") else col
    return header, cols


def parse_json(text):
    """Columns of a sweep JSON array of objects, in the same form as parse_csv."""
    records = json.loads(text)
    header = list(records[0]) if records else []
    cols = {}
    for name in header:
        values = [rec[name] for rec in records]
        if _is_text_column(name):
            cols[name] = np.array(values)
        else:
            cols[name] = np.array(values, dtype=np.float64)
    fails = Failures()
    fails.need(all(list(rec) == header for rec in records), "JSON records differ in their keys")
    return header, cols, fails


def check_sweep(header, cols, mass, omegas, points, pairs):
    """Properties every sweep output must have, whatever its format."""
    fails = Failures()
    expected = physics.sweep_header(pairs)
    if not fails.need(header == expected, f"header {header} != {expected}"):
        return fails
    omegas = sorted(omegas)
    rows = len(cols["omega"])
    if not fails.need(rows == len(omegas) * points, f"{rows} rows, expected {len(omegas)} x {points}"):
        return fails
    for name in header:
        if not _is_text_column(name):
            fails.need(np.isfinite(cols[name]).all(), f"{name} has non-finite values")
    if fails:
        return fails
    om = cols["omega"]
    dil = cols["dilaton"]
    grid = physics.dilaton_grid(mass, points)
    step = grid[1] - grid[0]
    fails.need(np.array_equal(om, np.repeat(omegas, points)), "omega column is not in ascending blocks")
    blocks = dil.reshape(len(omegas), points)
    fails.need((np.diff(blocks, axis=1) > 0).all(), "dilaton is not ascending within an omega block")
    fails.need(np.abs(blocks - grid).max() <= 1e-14 * mass, "dilaton column is not the requested grid")
    x = physics.thermal_x(mass, om, dil)
    fails.need(
        (np.abs(cols["x"] - x) <= 1e-12 * np.maximum(1.0, np.abs(x))).all(), "x != 8 pi (M - D) omega"
    )
    c2, s2 = physics.amplitudes(x)
    c, s = np.sqrt(c2), np.sqrt(s2)
    birth = np.repeat([physics.critical_dilatons(mass, w)[0] for w in omegas], points)

    for pair in pairs:
        fwd, bwd = cols[f"{pair}_s_forward"], cols[f"{pair}_s_backward"]
        conc, bell = cols[f"{pair}_concurrence"], cols[f"{pair}_bell_max"]
        for name, col in (("s_forward", fwd), ("s_backward", bwd), ("concurrence", conc)):
            fails.need(((col >= 0.0) & (col <= 1.0)).all(), f"{pair}_{name} outside [0, 1]")
        fails.need(
            np.array_equal(cols[f"{pair}_asymmetry"], np.abs(fwd - bwd)), f"{pair}_asymmetry != |fwd - bwd|"
        )
        on_f, on_b = fwd > physics.STEERING_ZERO, bwd > physics.STEERING_ZERO
        regime = np.where(
            on_f & on_b, "two_way", np.where(on_f, "one_way_fwd", np.where(on_b, "one_way_bwd", "no_way"))
        )
        fails.need(
            np.array_equal(cols[f"{pair}_regime"], regime), f"{pair}_regime disagrees with the steering values"
        )
        closed = physics.closed_concurrence(c, s, pair)
        fails.need(np.abs(conc - closed).max() <= 1e-12, f"{pair}_concurrence != closed {pair} concurrence")
        fails.need(
            np.abs(bell - 2.0 * math.sqrt(2.0) * closed).max() <= 1e-12,
            f"{pair}_bell_max != 2 sqrt2 x closed concurrence",
        )
        if pair == "ab":
            fails.need((bell >= 2.0).all(), "ab_bell_max < 2: the exterior pair must violate CHSH")
        else:
            fails.need((bell <= 2.0).all(), f"{pair}_bell_max > 2: steering is not nonlocal")
    if "ab" in pairs and "abbar" in pairs:
        total = cols["ab_concurrence"] ** 2 + cols["abbar_concurrence"] ** 2
        fails.need(np.abs(total - 1.0).max() <= 1e-12, "ab_concurrence^2 + abbar_concurrence^2 != 1")

    for name in ("r1", "r2"):
        fails.need(np.abs(cols[name]).max() <= RESIDUAL_GATE, f"|{name}| > {RESIDUAL_GATE:g}")
    valid = cols["r3_valid"]
    fails.need(np.array_equal(valid, cols["r4_valid"]), "r3_valid != r4_valid")
    clear = np.abs(dil - birth) > 1e-12 * mass
    fails.need(np.array_equal(valid[clear], (dil > birth)[clear]), "r3_valid disagrees with D > d0")
    for name in ("r3", "r4"):
        fails.need(
            not valid.any() or np.abs(cols[name][valid]).max() <= RESIDUAL_GATE,
            f"|{name}| > {RESIDUAL_GATE:g} where valid",
        )

    for k, omega in enumerate(omegas):
        block = slice(k * points, (k + 1) * points)
        d0, d1, d2 = physics.critical_dilatons(mass, omega)
        if "abbar" in pairs and grid[0] < d0 < grid[-1]:
            labels = cols["abbar_regime"][block]
            first = int(np.argmax(labels == "two_way"))
            fails.need(
                labels[first] == "two_way" and (labels[first:] == "two_way").all()
                and labels[first - 1] == "one_way_fwd" and abs(grid[first] - d0) <= step,
                f"abbar does not turn two_way within one step of d0 = {d0:.17g} (omega={omega:g})",
            )
        if "bbbar" in pairs and grid[0] < d2 < grid[-1]:
            labels = cols["bbbar_regime"][block]
            fwd_at = np.flatnonzero(labels == "one_way_fwd")
            last = int(fwd_at[-1]) if fwd_at.size else -1
            fails.need(
                0 <= last < points - 1 and (labels[last + 1 :] == "no_way").all()
                and abs(grid[last + 1] - d2) <= step,
                f"bbbar does not go one_way_fwd -> no_way within one step of d2 = {d2:.17g} (omega={omega:g})",
            )
        if "bbbar" in pairs and grid[0] < d1 < grid[-1]:
            peak = grid[int(np.argmax(cols["bbbar_s_forward"][block]))]
            fails.need(
                abs(peak - d1) <= step,
                f"bbbar_s_forward peaks at D={peak:.17g}, not within one step of d1 = {d1:.17g} (omega={omega:g})",
            )
    return fails


def check_same_values(header, cols, ref_header, ref_cols):
    """The JSON output carries exactly the values of the CSV output."""
    fails = Failures()
    if not fails.need(header == ref_header, "JSON and CSV headers differ"):
        return fails
    for name in header:
        fails.need(np.array_equal(cols[name], ref_cols[name]), f"JSON {name} differs from CSV {name}")
    return fails


# --- verify ------------------------------------------------------------------

_DEVIATION = re.compile(
    r"^(\w+)\s+(\w+)\s+max\|closed-pipeline\| = (\S+) \(omega=(\S+), D=(\S+)\)$"
)


def check_verify(code, text, mass, omegas):
    fails = Failures()
    fails.need(code == 0, f"verify exited {code}")
    lines = text.splitlines()
    if not fails.need(bool(lines), "verify printed nothing"):
        return fails
    fails.need(
        lines[-1] == f"PASS: all deviations within {VERIFY_GATE:g}", f"last line is not a PASS line: {lines[-1]!r}"
    )
    seen = []
    for line in lines[:-1]:
        m = _DEVIATION.match(line)
        if not fails.need(m is not None, f"unexpected verify line {line!r}"):
            continue
        pair, measure, value, omega, dil = m.groups()
        seen.append((pair, measure))
        fails.need(float(value) <= VERIFY_GATE, f"{pair} {measure} deviates {value} > {VERIFY_GATE:g}")
        fails.need(float(omega) in omegas, f"{pair} {measure} at unknown omega {omega}")
        fails.need(0.0 <= float(dil) < mass, f"{pair} {measure} at D={dil} outside [0, M)")
    expected = sorted((p, m) for p in physics.PAIRS for m in VERIFY_MEASURES)
    fails.need(sorted(seen) == expected, f"{len(seen)} deviation lines, expected one per pair and measure (18)")
    return fails


def check_verify_sample(rng, mass, omegas, points, samples):
    """Textbook concurrence and CHSH on grid states against c, s and c s."""
    fails = Failures()
    grid = physics.dilaton_grid(mass, points)
    for _ in range(samples):
        omega = omegas[rng.randrange(len(omegas))]
        dil = grid[rng.randrange(points)]
        c2, s2 = physics.amplitudes(physics.thermal_x(mass, omega, dil))
        c, s = math.sqrt(c2), math.sqrt(s2)
        for pair in physics.PAIRS:
            rho = physics.reduced_state(c, s, pair)
            closed = physics.closed_concurrence(c, s, pair)
            conc = physics.wootters_concurrence(rho)
            bell = physics.horodecki_chsh(rho)
            fails.need(
                abs(conc - closed) <= 1e-7,
                f"Wootters concurrence {conc!r} != {closed!r} ({pair}, omega={omega:g}, D={dil!r})",
            )
            fails.need(
                abs(bell - 2.0 * math.sqrt(2.0) * closed) <= 1e-12,
                f"Horodecki CHSH {bell!r} != 2 sqrt2 x {closed!r} ({pair}, omega={omega:g}, D={dil!r})",
            )
    return fails


# --- critical ----------------------------------------------------------------

_OMEGA = re.compile(r"^omega = (\S+):$")
_IN_RANGE = re.compile(r"^  (d[012])  closed = (\S+)  numeric = (\S+)  \|delta\| = (\S+)$")
_OUT_OF_RANGE = re.compile(r"^  (d[012])  closed = (\S+)  out of range \[0, (\S+)\)$")


def check_critical(code, text, mass, omegas):
    fails = Failures()
    fails.need(code == 0, f"critical exited {code}")
    lines = text.splitlines()
    omegas = sorted(omegas)
    if not fails.need(len(lines) == 4 * len(omegas), f"{len(lines)} lines, expected 4 per omega"):
        return fails
    for k, omega in enumerate(omegas):
        head = _OMEGA.match(lines[4 * k])
        if not fails.need(head is not None and float(head.group(1)) == omega, f"no block for omega={omega!r}"):
            continue
        printed = []
        for name, want, line in zip(("d0", "d1", "d2"), physics.critical_dilatons(mass, omega), lines[4 * k + 1 : 4 * k + 4]):
            where = f"omega={omega:g} {name}"
            inside = _IN_RANGE.match(line)
            outside = _OUT_OF_RANGE.match(line)
            if not fails.need((inside or outside) and (inside or outside).group(1) == name, f"{where}: bad line {line!r}"):
                continue
            closed = float((inside or outside).group(2))
            printed.append(closed)
            fails.need(abs(closed - want) <= PRINT_HALF_ULP, f"{where}: closed {closed!r} != {want:.12f}")
            fails.need((inside is not None) == (0.0 <= want < mass), f"{where}: wrong in-range flag for {want!r}")
            if inside:
                numeric, delta = float(inside.group(3)), float(inside.group(4))
                fails.need(
                    abs(numeric - want) <= CRITICAL_GATE + PRINT_HALF_ULP and delta <= CRITICAL_GATE,
                    f"{where}: numeric {numeric!r} misses {want:.12f} by more than {CRITICAL_GATE:g}",
                )
        fails.need(len(printed) < 3 or printed[1] < printed[0] < printed[2], f"omega={omega:g}: d1 < d0 < d2 fails")
    return fails

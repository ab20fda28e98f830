"""The streaming writers against the row-dict writers they replaced.

`row_writer_oracle` holds the previous implementation: one dict per row
and one format call per cell. Every output here must match it byte for
byte.
"""

import errno
import io
import json
import itertools
import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import row_writer_oracle as oracle
from conftest import children_of
from dilaton_steering import sweep
from dilaton_steering.dilaton import Pair
from dilaton_steering.sweep import (
    ALL_PAIRS,
    SLICE_ROWS,
    ConfigError,
    SweepConfig,
    columns,
    write_csv,
    write_json,
)

WRITERS = {"csv": (write_csv, oracle.write_csv), "json": (write_json, oracle.write_json)}


def render(cfg, fmt):
    new, _ = WRITERS[fmt]
    buf = io.StringIO()
    new(cfg, buf)
    return buf.getvalue()


def render_oracle(cfg, fmt):
    _, old = WRITERS[fmt]
    header, rows = oracle.sweep_records(cfg)
    buf = io.StringIO()
    old(header, rows, buf)
    return buf.getvalue()


def assert_same_text(text, expected):
    """text == expected, failing on the first differing line, not on a diff of megabytes."""
    if text != expected:
        lines, want = text.split("\n"), expected.split("\n")
        i = next((i for i, pair in enumerate(zip(lines, want)) if pair[0] != pair[1]), min(len(lines), len(want)))
        pytest.fail(f"line {i} of {len(lines)}: {lines[i:i + 1]} != {want[i:i + 1]} of {len(want)} lines")


def assert_identical(cfg, fmt):
    assert_same_text(render(cfg, fmt), render_oracle(cfg, fmt))


@pytest.mark.parametrize("fmt", ["csv", "json"])
class TestByteIdentity:
    def test_default_grid(self, fmt):
        assert_identical(SweepConfig(), fmt)

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.value)
    def test_single_pair(self, fmt, pair):
        assert_identical(SweepConfig(points=101, pairs=(pair,)), fmt)

    def test_reversed_omegas(self, fmt):
        assert_identical(SweepConfig(points=101, omegas=(2.0, 1.5, 1.0, 0.5)), fmt)

    def test_two_points(self, fmt):
        assert_identical(SweepConfig(points=2), fmt)

    @pytest.mark.parametrize("points", [SLICE_ROWS - 1, SLICE_ROWS, SLICE_ROWS + 1])
    def test_slice_boundaries(self, fmt, points):
        assert_identical(SweepConfig(points=points, omegas=(1.0,)), fmt)

    def test_overflowing_thermal_argument(self, fmt):
        # x = 8 pi (M - D) omega overflows to inf; json spells it Infinity.
        assert_identical(SweepConfig(mass=1e300, omegas=(1e10,), points=3), fmt)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mass=st.floats(-300, 300).map(lambda e: 10.0**e),
    omegas=st.lists(st.floats(-300, 300).map(lambda e: 10.0**e), min_size=1, max_size=3),
    points=st.integers(2, 40),
    pairs=st.sets(st.sampled_from(ALL_PAIRS), min_size=1).map(tuple),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_property_matches_oracle(mass, omegas, points, pairs, fmt):
    cfg = SweepConfig(mass=mass, omegas=tuple(omegas), points=points, pairs=pairs)
    assert_identical(cfg, fmt)


# Data rows in one chunk of output; the CSV header rides on the first slice.
ROWS_IN = {
    "csv": lambda text: text.count("\n") - text.startswith("omega,"),
    "json": lambda text: text.count("{"),
}


class _Sink:
    """Text stream that keeps only the row count of its largest write."""

    def __init__(self, fmt):
        self.rows_in = ROWS_IN[fmt]
        self.writes = 0
        self.max_rows = 0

    def write(self, text):
        self.writes += 1
        self.max_rows = max(self.max_rows, self.rows_in(text))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_largest_write_is_one_slice(fmt):
    points = 20001
    cfg = SweepConfig(points=points, pairs=(Pair.AB,))
    sink = _Sink(fmt)
    WRITERS[fmt][0](cfg, sink)
    # Five near-equal slices of 20001 points: 4000 and 4001 rows.
    assert sink.max_rows == 4001
    assert sink.writes >= len(cfg.omegas) * -(-points // SLICE_ROWS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_invalid_config_writes_nothing(fmt):
    buf = io.StringIO()
    with pytest.raises(ConfigError):
        WRITERS[fmt][0](SweepConfig(points=1), buf)
    assert buf.getvalue() == ""


class _Probe(io.StringIO):
    """Text buffer that notes the most child processes alive at any one write."""

    most_children = 0

    def write(self, text):
        self.most_children = max(self.most_children, len(children_of(os.getpid(), threading.get_native_id())))
        return super().write(text)


def render_on(monkeypatch, cpus, cfg, fmt):
    """(text, most workers alive at a write) of a writer with `cpus` CPUs available."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    stream = _Probe()
    WRITERS[fmt][0](cfg, stream)
    return stream.getvalue(), stream.most_children


POOLED = {
    # Three omegas given out of order, a one-row last slice, two pairs.
    "omegas-pairs-short-slice": SweepConfig(
        points=SLICE_ROWS + 1, omegas=(2.0, 0.5, 1.0), pairs=(Pair.BBBAR, Pair.AB)
    ),
    "extreme-finite": SweepConfig(mass=1e308, omegas=(1e-308, 2e-308), points=SLICE_ROWS + 3),
    # x = inf at every row of omega 1e10, spelled Infinity in JSON.
    "non-finite": SweepConfig(mass=1e300, omegas=(1e10, 1e-300), points=SLICE_ROWS + 2),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", POOLED)
def test_pool_writes_the_bytes_of_the_in_process_map(monkeypatch, fmt, name):
    cfg = POOLED[name]
    pooled, workers = render_on(monkeypatch, 2, cfg, fmt)
    mapped, none = render_on(monkeypatch, 1, cfg, fmt)
    assert (workers, none) == (2, 0)
    assert_same_text(pooled, mapped)
    if name == "non-finite" and fmt == "json":
        assert '"x": Infinity' in pooled
    assert children_of(os.getpid()) == []


def test_a_writer_off_the_main_thread_forks_and_reaps(monkeypatch):
    # The main thread alone may set a signal handler, and alone takes KeyboardInterrupt.
    cfg = POOLED["omegas-pairs-short-slice"]
    mapped, _ = render_on(monkeypatch, 1, cfg, "csv")
    results = []

    def run():
        try:
            results.append(render_on(monkeypatch, 2, cfg, "csv"))
        except BaseException as exc:
            results.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert results == [(mapped, 2)]
    assert children_of(os.getpid()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_slice_is_formatted_in_process(monkeypatch, fmt):
    _, workers = render_on(monkeypatch, 2, SweepConfig(points=SLICE_ROWS, omegas=(1.0,)), fmt)
    assert workers == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_walk_under_two_workers_worth_is_formatted_in_process(monkeypatch, fmt):
    # Four slices of 1023 points: fewer than 2 * JSON_GRAIN and 2 * CSV_GRAIN points in all.
    cfg = SweepConfig(points=SLICE_ROWS // 4 - 1)
    text, workers = render_on(monkeypatch, 2, cfg, fmt)
    assert (text, workers) == render_on(monkeypatch, 1, cfg, fmt)
    # The default grid, 8004 points, still forks.
    assert render_on(monkeypatch, 2, SweepConfig(), fmt)[1] == 2


class _FailingStream:
    """Text stream whose writes raise once it has taken `ok` of them."""

    def __init__(self, ok):
        self.ok = ok

    def write(self, text):
        if self.ok == 0:
            raise OSError(errno.ENOSPC, "no space left on the stream")
        self.ok -= 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("ok", [0, 3], ids=["first-write", "mid-stream"])
def test_a_failed_write_raises_and_reaps_the_workers(monkeypatch, fmt, ok):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = SweepConfig(points=3 * SLICE_ROWS, omegas=(0.5, 1.0))
    with pytest.raises(OSError, match="no space left on the stream"):
        WRITERS[fmt][0](cfg, _FailingStream(ok))
    assert children_of(os.getpid()) == []


def test_a_child_that_raises_ends_the_write_and_is_reaped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, csv_text = os.getpid(), sweep._csv_text

    def raising_in_a_child(cfg, job):
        if os.getpid() != parent:
            raise RuntimeError("a formatting failure in a child")
        return csv_text(cfg, job)

    monkeypatch.setattr(sweep, "_csv_text", raising_in_a_child)
    stream = io.StringIO()
    with pytest.raises(ChildProcessError, match="ended with status 1; the output is incomplete"):
        write_csv(SweepConfig(points=3 * SLICE_ROWS, omegas=(0.5, 1.0)), stream)
    assert stream.getvalue() == ""
    assert children_of(os.getpid()) == []


def test_a_failed_fork_restores_sigint_and_reaps_the_children(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fork, pids = os.fork, []

    def fork_once():
        if len(pids) == 1:
            raise BlockingIOError(errno.EAGAIN, "fork: resource temporarily unavailable")
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", fork_once)
    handler = signal.getsignal(signal.SIGINT)
    with pytest.raises(BlockingIOError):
        write_csv(SweepConfig(points=3 * SLICE_ROWS, omegas=(0.5, 1.0)), io.StringIO())
    assert signal.getsignal(signal.SIGINT) is handler
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
    assert children_of(os.getpid()) == []


# --- each distinct column of a slice formatted once ---------------------------


def _distinct_block():
    """A two-row slice of the AB columns with constants, bitwise copies and near copies."""
    varied, zeros = np.array([1.0, 2.0]), np.zeros(2)
    return {
        "omega": np.full(2, 0.5),
        "dilaton": varied,
        "x": varied.copy(),
        "ab_s_forward": np.array([1.0, -2.0]),
        "ab_s_backward": zeros,
        "ab_bell_max": -zeros,
        "ab_bell_branch2": np.array([0.0, -0.0]),  # equal values, not constant
        "ab_concurrence": np.full(2, np.nan),
        "ab_asymmetry": varied.copy(),
        "ab_regime": np.array(["50% two-way"] * 2),
        "r1": np.array([np.inf, 5e-324]),
        "r2": np.array([0.1, 1e300]),
        "r3": zeros.copy(),
        "r4": np.array([1e-5, 1e16]),
        "r3_valid": np.array([True, False]),
        "r4_valid": np.array([True, True]),
    }


def spelled_once(monkeypatch, speller, text):
    """(text of the slice of `_distinct_block`, lengths of the columns spelled) with `speller` counted."""
    block, spelled, spell = _distinct_block(), [], getattr(sweep, speller)
    cfg = SweepConfig(pairs=(Pair.AB,))
    assert list(block) == columns(cfg.pairs)
    monkeypatch.setattr(sweep, "_block", lambda cfg, *job: block)
    monkeypatch.setattr(sweep, speller, lambda a: spelled.append(a) or spell(a))
    return getattr(sweep, text)(cfg, ()), [len(a) for a in spelled], block


def test_each_distinct_column_is_formatted_once(monkeypatch):
    text, lengths, block = spelled_once(monkeypatch, "_json_bytes", "_json_text")
    # A constant column is spelled from one cell; a bitwise copy, of a constant too, not again.
    assert lengths == [1, 2, 2, 1, 1, 2, 1, 1, 2, 2, 2, 2, 1]
    rows = [dict(zip(block, row)) for row in zip(*(column.tolist() for column in block.values()))]
    assert text == json.dumps(rows, indent=2)[2:-2]


def test_each_distinct_csv_column_is_spelled_once(monkeypatch):
    text, lengths, block = spelled_once(monkeypatch, "_csv_bytes", "_csv_text")
    # A constant column is spelled from one cell; a bitwise copy, of a constant too, not again.
    assert lengths == [1, 2, 2, 1, 1, 2, 1, 1, 2, 2, 2, 2, 1]
    cells = {bool: lambda v: "true" if v else "false", str: str, float: "%.17g".__mod__}
    rows = zip(*(column.tolist() for column in block.values()))
    assert text == "".join(",".join(cells[type(v)](v) for v in row) + "\n" for row in rows)


def _crafted_block(cfg, omega, start, stop, d0):
    """A slice of made-up columns that reach every case of `_slice_text`.

    The first slice of each omega mixes every case; every other slice is constant in every column.
    """
    n = stop - start
    i = np.arange(start, stop, dtype=np.float64)
    names = columns(cfg.pairs)
    if start:
        floats = [omega, 0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.1, 5e-324, 1.7976931348623157e308, 1 / 3]
        floats = [np.full(n, value) for value in floats]
        labels = [np.full(n, label) for label in ("none", "50% two-way", "none")]
        flags = [np.full(n, True), np.full(n, False)]
    else:
        varied = i * omega / 7
        nudged = varied.copy()
        nudged[n // 2] = np.nextafter(nudged[n // 2], np.inf)
        payloads = np.arange(n, dtype=np.uint64) + np.uint64(0x7FF8000000000001)
        floats = [
            np.full(n, omega),
            varied,
            varied.copy(),
            nudged,  # a copy of varied but for one row
            np.zeros(n),
            -np.zeros(n),  # the sign of zero alone tells these two apart
            np.where(i % 2 == 0, 0.0, varied),
            np.where(i % 2 == 0, -0.0, varied),
            np.where(i % 2 == 0, 0.0, -0.0),  # equal values, not constant
            np.full(n, np.nan),
            payloads.view(np.float64),  # NaNs, each with its own payload
            payloads[::-1].view(np.float64),
            np.where(i % 2 == 0, np.inf, -np.inf),
            np.full(n, -np.inf),
            np.where(i % 3 == 0, np.nan, varied),
            varied * 1e300,
            varied * 5e-324,
        ]
        steer = np.where(i % 2 == 0, "one-way", "none")
        labels = [np.full(n, "50% two-way"), steer, steer.copy()]
        valid = i % 5 == 0
        flipped = valid.copy()
        flipped[n // 2] = not flipped[n // 2]
        flags = [valid, flipped]
    kinds = {"regime": iter(labels), "valid": iter(flags)}
    floats = itertools.cycle(floats)
    return {name: next(kinds.get(name.rsplit("_", 1)[-1], floats)) for name in names}


def _crafted_oracle(cfg, fmt):
    """The crafted slices written one cell at a time: '%.17g' or `json.dump`, as `row_writer_oracle` does."""
    header, rows = columns(cfg.pairs), []
    n, job = sweep._slices(cfg)
    for i in range(n):
        block = _crafted_block(cfg, *job(i))
        rows.extend(dict(zip(header, row)) for row in zip(*(block[name].tolist() for name in header)))
    buf = io.StringIO()
    WRITERS[fmt][1](header, rows, buf)
    return buf.getvalue()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_crafted_slices_match_the_cell_by_cell_oracle(monkeypatch, fmt, cpus):
    monkeypatch.setattr(sweep, "_block", _crafted_block)
    # Two slices per omega, 8194 points: two workers on 2 CPUs.
    cfg = SweepConfig(points=SLICE_ROWS + 1, omegas=(1.0, 2.0))
    text, workers = render_on(monkeypatch, cpus, cfg, fmt)
    assert workers == (cpus if cpus > 1 else 0)
    assert_same_text(text, _crafted_oracle(cfg, fmt))
    assert children_of(os.getpid()) == []

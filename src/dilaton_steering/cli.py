"""Command-line interface.

Subcommands: sweep (grid records as CSV/JSON), verify (closed-form vs
pipeline gate), critical (closed-form vs numeric critical dilatons),
monogamy (identity residual gate), classify (runs of `sweep`'s regime labels).

Exit codes: 0 success, 1 verification failure, 2 bad arguments (including
parameters at which float64 cannot resolve a critical dilaton to the
1e-6 gate), 3 output I/O failure. An interrupt (Ctrl-C) prints one line
and ends the process by SIGINT, which a shell reports as 130.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import signal
import sys

from . import __version__
from .dilaton import (
    CRITICAL_TOL,
    ConfigError,
    ResolutionError,
    check_mass_and_omegas,
    critical_dilatons,
    find_critical_batch,
    regime_intervals,
)
from .sweep import (
    ALL_PAIRS,
    DEFAULT_OMEGAS,
    RESIDUALS,
    SweepConfig,
    monogamy_grid,
    verify_grid,
    write_csv,
    write_json,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _dilaton(value: float) -> str:
    # Eight decimals resolve the 1e-6 gate on critical points, and every
    # dilaton the gate can pass lies below about 2.1e9 (past 2**31, four
    # spacings of float64 exceed 1e-6). From 1e10 on use .8g, so that far
    # out-of-range values (d0 is about -2e298 at omega 1e-300) print in a
    # few characters, and so does a nonzero value that .8f rounds to zero
    # (all three points at mass 1e-12, omega 1e12), so that d1 < d0 < d2 shows.
    if abs(value) < 1e10:
        text = f"{value:.8f}"
        if value == 0.0 or float(text) != 0.0:
            return text
    return f"{value:.8g}"


def _float_list(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _pair_list(text: str):
    names = {p.value: p for p in ALL_PAIRS}
    pairs = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        if part not in names:
            raise argparse.ArgumentTypeError(
                f"unknown pair {part!r}, expected a subset of ab,abbar,bbbar"
            )
        pairs.append(names[part])
    if not pairs:
        raise argparse.ArgumentTypeError("expected at least one pair")
    return pairs


def build_parser() -> argparse.ArgumentParser:
    # Flag groups; each subcommand takes only the groups it honours.
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--mass", type=float, default=SweepConfig.mass, help="black-hole mass M > 0")
    point.add_argument(
        "--omega",
        type=_float_list,
        default=list(DEFAULT_OMEGAS),
        metavar="F,F,...",
        help="mode frequencies (comma separated)",
    )
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument(
        "--d-min", type=float, default=SweepConfig.d_min, help="grid start (default 0)"
    )
    grid.add_argument(
        "--d-max", type=float, default=SweepConfig.d_max, help="grid end (default mass*(1-1e-6), below the mass)"
    )
    grid.add_argument(
        "--points", type=int, default=SweepConfig.points, help="grid points per omega"
    )
    pairs = argparse.ArgumentParser(add_help=False)
    pairs.add_argument(
        "--pairs",
        type=_pair_list,
        default=list(ALL_PAIRS),
        metavar="ab,abbar,bbbar",
        help="bipartitions to include",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")

    parser = argparse.ArgumentParser(
        prog="dilaton-steering",
        description="Steering, CHSH, and concurrence of fermionic modes near a dilaton black hole.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, parents, func, text in (
        ("sweep", [point, grid, pairs, output], cmd_sweep, "emit grid records"),
        ("verify", [point, grid, pairs], cmd_verify, "closed forms vs density-matrix pipeline"),
        ("critical", [point], cmd_critical, "closed-form vs numeric critical dilatons"),
        ("monogamy", [point, grid], cmd_monogamy, "steering-entanglement identity residuals"),
        ("classify", [point], cmd_classify, "steering-regime intervals per bipartition"),
    ):
        sub.add_parser(name, parents=parents, help=text).set_defaults(func=func)
    return parser


def _config(args) -> SweepConfig:
    # `monogamy` takes no --pairs: its identities always use all three.
    chosen = getattr(args, "pairs", ALL_PAIRS)
    cfg = SweepConfig(
        mass=args.mass,
        omegas=tuple(args.omega),
        d_min=args.d_min,
        d_max=args.d_max,
        points=args.points,
        pairs=tuple(p for p in ALL_PAIRS if p in chosen),
    )
    cfg.validate()
    return cfg


def cmd_sweep(args) -> int:
    cfg = _config(args)
    writer = write_csv if args.fmt == "csv" else write_json
    if args.out is None:
        writer(cfg, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as stream:
            writer(cfg, stream)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _config(args)
    report = verify_grid(cfg)
    by_name = sorted(report.peaks.items(), key=lambda item: (item[0][0].value, item[0][1]))
    for (pair, measure), (value, omega, dilaton) in by_name:
        print(
            f"{pair.value:6s} {measure:13s} max|closed-pipeline| = {value:.3e} "
            f"(omega={omega:g}, D={dilaton:.17g})"
        )
    if report.passed:
        print(f"PASS: all deviations within {report.gate:g}")
        return EXIT_OK
    (pair, measure), value, omega, dilaton = report.worst
    _to_stderr(
        f"FAIL: {pair.value} {measure} deviates {value:.3e} at "
        f"omega={omega:g}, D={dilaton:.17g} (gate {report.gate:g})"
    )
    return EXIT_VERIFY_FAIL


def cmd_critical(args) -> int:
    # The whole list, as given, is checked before any line is printed.
    check_mass_and_omegas(args.mass, args.omega)
    omegas = sorted(args.omega)
    closed = critical_dilatons(args.mass, omegas)
    numeric = find_critical_batch(args.mass, omegas)
    all_ok = True
    for k, omega in enumerate(omegas):
        print(f"omega = {omega:g}:")
        for name in ("d0", "d1", "d2"):
            d = closed[name][k]
            if not 0.0 <= d < args.mass:
                print(f"  {name}  closed = {_dilaton(d)}  out of range [0, {args.mass:g})")
                continue
            # NaN where the numeric root maps outside [0, M): a gate failure, like any miss.
            value = numeric[name][k]
            delta = abs(value - d)
            ok = delta <= CRITICAL_TOL
            all_ok = all_ok and ok
            flag = "" if ok else "  MISMATCH"
            print(f"  {name}  closed = {_dilaton(d)}  numeric = {_dilaton(value)}  |delta| = {delta:.2e}{flag}")
    if not all_ok:
        _to_stderr(f"FAIL: numeric and closed-form critical points differ beyond {CRITICAL_TOL:g}")
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_monogamy(args) -> int:
    cfg = _config(args)
    report = monogamy_grid(cfg)
    for name in RESIDUALS:
        peak = report.select(lambda key: key[1] == name).worst
        if peak is None:
            print(f"max |{name}| = n/a (no grid point above the steering birth dilaton)")
        else:
            note = "  (D above birth point only)" if name in ("r3", "r4") else ""
            print(f"max |{name}| = {peak[1]:.3e}{note}")
    if report.passed:
        print(f"PASS: residuals within {report.gate:g}")
        return EXIT_OK
    (_, name), value, omega, dil = report.worst
    _to_stderr(f"FAIL: |{name}| = {value:.3e} at omega={omega:g}, D={dil:.17g} (gate {report.gate:g})")
    return EXIT_VERIFY_FAIL


def cmd_classify(args) -> int:
    # The whole list, as given, is checked before any line is printed.
    check_mass_and_omegas(args.mass, args.omega)
    omegas = sorted(args.omega)
    runs = {pair: regime_intervals(args.mass, omegas, pair) for pair in ALL_PAIRS}
    for k, omega in enumerate(omegas):
        print(f"omega = {omega:g}:")
        for pair in ALL_PAIRS:
            regimes, los, _ = zip(*runs[pair][k])
            edges = ["0", *map(_dilaton, los[1:]), f"{args.mass:g}"]
            cells = (f"{regime:13s}[{lo}, {hi})" for regime, lo, hi in zip(regimes, edges, edges[1:]))
            print(f"  {pair.value:8s}" + "   ".join(cells))
    return EXIT_OK


class _ClosedStream:
    """Stands in for a stdout whose descriptor was closed at start.

    Python sets such a stdout to None and drops every print to it. Here
    a write fails as the closed descriptor would, so a command that
    needed stdout exits 3; a flush of nothing written passes, so a run
    that wrote only to --out exits 0.
    """

    def write(self, text):
        raise OSError(errno.EBADF, "stdout is closed")

    def flush(self):
        pass


def _to_stderr(line: str) -> None:
    """Print a diagnostic line; a stderr closed at start loses it, and the exit code still tells.

    Python sets such a stderr to None, or keeps one whose writes fail.
    print(file=None) would write to stdout, so a None stderr is skipped.
    """
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def main(argv=None) -> int:
    # What is alive now, the interpreter's and the imports' objects (numpy
    # included), lives until exit. Frozen, it is skipped by the collections at
    # exit (20-25 ms of a launch on a 2-core VM) and by every full collection
    # before them. Forked workers inherit the state. Importing the library
    # leaves the GC alone.
    gc.freeze()
    if sys.stdout is None:
        sys.stdout = _ClosedStream()
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code == 0:
                # --help or --version: argparse drops a failed write to stdout,
                # so an empty write and a flush repeat the failure.
                sys.stdout.write("")
                sys.stdout.flush()
            raise
        code = args.func(args)
        # Flush here, not at exit, so a closed pipe lands in the handler below.
        sys.stdout.flush()
        return code
    except (ConfigError, ResolutionError) as exc:
        _to_stderr(f"error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader went away (`sweep | head`). The unwritten rest of
            # stdout goes to devnull, so the flush at exit cannot raise.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        _to_stderr(f"error: {exc}")
        return EXIT_IO
    except KeyboardInterrupt:
        # The sweep's children are reaped now. Die by SIGINT, as the default handler does: a shell sees 130.
        _to_stderr("error: interrupted")
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        return 128 + signal.SIGINT


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the dilaton-steering CLI.

    python3 perfbench/run.py --workload sweep_csv --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the CLI is imported from ./src.
Children run one at a time, with BLAS and OpenMP pinned to one thread.
A run repeats whole rounds while half of the next one still fits in
--seconds (at least MIN_ROUNDS rounds) and reports medians.

--trace 0, one round: VERSION_LAUNCHES launches of `--version` (setup_s),
one CLI invocation of the workload (wall_s, peak_rss_mb), then one PROBE
launch that scales the two times (see PROBE).

--trace 1, one round: one plain invocation, one invocation under
`tracer.py`, one `python -X importtime` import of the CLI, and
TRACE_VERSION_LAUNCHES `--version` launches. It reports the per-layer
metrics, the tracing overhead (traced minus plain wall time) and the
part of the traced wall time that setup and the layer self times leave
unattributed.

Every output is checked: the first one in full by the workload's checks,
the others by equality of bytes with it. The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

_PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(_PINNED)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

CLI = "import sys; from dilaton_steering.cli import main; sys.exit(main())"
# Fixed reference load, independent of the program, in the workloads' own
# mix: interpreter start, numpy import, building and formatting 40 000
# row dicts, a batch of small eigensolves and a memory-bound pass over
# 48 MB. The VM's speed swings by a quarter within tens of seconds
# (README.md), so every launch time is scaled by PROBE_REF_S / (geometric
# mean of the probes just before and after its round): it reads as the
# time at the speed at which the probe takes PROBE_REF_S.
PROBE = (
    "import numpy as np\n"
    "rows = [{'a': i * 0.37, 'b': i * 1.1, 'c': 'two_way', 'd': i % 7 == 0} for i in range(40000)]\n"
    "text = ''.join(','.join(f'{v:.17g}' if isinstance(v, float) else str(v) for v in r.values()) + '\\n'"
    " for r in rows)\n"
    "a = np.linspace(0.0, 1.0, 2000 * 16).reshape(2000, 4, 4)\n"
    "a = a + a.transpose(0, 2, 1)\n"
    "for _ in range(6):\n"
    "    np.linalg.eigh(a)\n"
    "b = np.linspace(0.0, 1.0, 6000000)\n"
    "for _ in range(4):\n"
    "    b = b * 0.999 + 0.5\n"
)
PROBE_REF_S = 0.4
HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
LAUNCH_TIMEOUT_S = 150.0
MIN_ROUNDS = 3
WARMUP_LAUNCHES = 2
VERSION_LAUNCHES = 2
TRACE_VERSION_LAUNCHES = 2

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _per_layer():
    units = {
        "import.numpy_s": "s",
        "import.dilaton_steering_s": "s",
        "cli.build_parser_s": "s",
        "cli.main.self_s": "s",
    }
    for name in tracer.SPAN_NAMES:
        if name not in ("cli.main", "cli.build_parser"):
            units[name + ".self_s"] = "s"
            units[name + ".calls"] = "count"
    units.update(dict.fromkeys(tracer.COUNTERS, "count"))
    units["sweep.tripartite_batch.bytes"] = "computed_bytes"
    units["sweep.output_bytes"] = "bytes"
    units["dilaton.reduced.per_root"] = "count"
    for name in ("wall_s", "untraced_wall_s", "overhead_s", "setup_s", "layer_self_s", "unattributed_s"):
        units["trace." + name] = "s"
    units["trace.absent_functions"] = "count"
    return units


PER_LAYER = _per_layer()


class Launcher:
    """Starts one child at a time and reaps it with its own resource usage."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONNOUSERSITE="1", **_PINNED)
        self.env.pop("PYTHONSTARTUP", None)
        self.attempted = 0
        self.failed = 0

    def launch(self, argv, stdout_path=None, stderr_path=None):
        """Run argv to its end; return (exit code, wall seconds, peak RSS in MB)."""
        out = open(stdout_path or os.devnull, "wb")
        err = open(stderr_path or os.devnull, "wb")
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            out.close()
            err.close()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def operation(self, argv, stdout_path=None, stderr_path=None):
        """A counted launch: it fails unless it exits 0."""
        code, wall, rss = self.launch(argv, stdout_path, stderr_path)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"failed: exit {code}: {' '.join(argv[:6])} ...", file=sys.stderr)
        return code, wall, rss

    def cli_argv(self, args):
        return [sys.executable, "-c", CLI] + list(args)

    def probe(self):
        """Wall seconds of one uncounted PROBE launch."""
        code, wall, _ = self.launch([sys.executable, "-c", PROBE])
        if code != 0:
            raise RuntimeError(f"the calibration probe exited {code}")
        return wall

    def reference(self, args):
        """An uncounted CLI run that checks use as a second output; returns (code, text)."""
        path = self.work / "reference.out"
        code, _, _ = self.launch(self.cli_argv(args + ["--out", str(path)]))
        return code, path.read_text(encoding="utf-8") if path.exists() else ""


class Outputs:
    """Keeps the first output of a workload and compares the rest with it."""

    def __init__(self, work: Path):
        self.first = work / "first.out"
        self.digest = None
        self.first_code = None
        self.mismatches = 0

    def add(self, path: Path, code: int):
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
        if self.digest is None:
            self.digest, self.first_code = digest, code
            if path.exists():
                path.replace(self.first)
        elif digest != self.digest:
            self.mismatches += 1


def _invoke(launcher, wl, work, outputs, trace_prefix=None):
    target = work / "run.out"
    args = list(wl.cli_args) + (["--out", str(target)] if wl.writes_file else [])
    if trace_prefix is None:
        argv = launcher.cli_argv(args)
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_prefix)] + args
    code, wall, rss = launcher.operation(argv, None if wl.writes_file else target)
    size = target.stat().st_size if target.exists() else 0
    outputs.add(target, code)
    return wall, rss, size


def _setup_launch(launcher, work, samples):
    path = work / "version.out"
    code, wall, _ = launcher.operation(launcher.cli_argv(["--version"]), path)
    samples.append(wall)
    return code == 0 and path.read_text().startswith("dilaton-steering ")


def _import_times(launcher, work):
    """(numpy, dilaton_steering without numpy) import seconds from -X importtime."""
    path = work / "importtime.err"
    argv = [sys.executable, "-X", "importtime", "-c", "import dilaton_steering.cli"]
    launcher.operation(argv, None, path)
    numpy_us = package_us = 0
    for line in path.read_text().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        name = name[1:]
        top = not name.startswith(" ")
        name = name.strip()
        if name == "numpy":
            numpy_us = int(cumulative)
        elif top and name.split(".")[0] == "dilaton_steering":
            package_us += int(cumulative)
    return numpy_us * 1e-6, (package_us - numpy_us) * 1e-6


def _repeat(one_round, seconds):
    """Run whole rounds, at least MIN_ROUNDS, while half the next one fits in `seconds`."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 0.5) / rounds > seconds:
            return rounds


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(launcher, wl, work, seconds):
    """End-to-end metrics: medians of launch times scaled by their round's probes."""
    outputs = Outputs(work)
    setup, walls, rss = [], [], []
    probes = [launcher.probe()]
    ok = True

    def one_round():
        nonlocal ok
        times = []
        for _ in range(VERSION_LAUNCHES):
            ok &= _setup_launch(launcher, work, times)
        setup.append(times)
        wall, peak, _ = _invoke(launcher, wl, work, outputs)
        walls.append(wall)
        rss.append(peak)
        probes.append(launcher.probe())

    rounds = _repeat(one_round, seconds)
    scale = [PROBE_REF_S / math.sqrt(a * b) for a, b in zip(probes, probes[1:])]
    scaled_walls = [w * f for w, f in zip(walls, scale)]
    scaled_setup = [t * f for times, f in zip(setup, scale) for t in times]
    raw_setup = [t for times in setup for t in times]
    metrics = {"wall_s": _median(scaled_walls), "peak_rss_mb": _median(rss), "setup_s": _median(scaled_setup)}
    _report(
        dict(metrics, raw_wall_s=_median(walls), raw_setup_s=_median(raw_setup), probe_s=_median(probes)),
        {"wall_s": scaled_walls, "peak_rss_mb": rss, "setup_s": scaled_setup, "raw_wall_s": walls,
         "raw_setup_s": raw_setup, "probe_s": probes},
        rounds,
    )
    return metrics, outputs, ok


def trace(launcher, wl, work, seconds, keep_prefix):
    outputs = Outputs(work)
    plain, traced, setup, numpy_s, package_s, sizes = [], [], [], [], [], []
    layers = []
    ok = True
    prefix = work / "spans"

    def one_round():
        nonlocal ok
        plain.append(_invoke(launcher, wl, work, outputs)[0])
        wall, _, size = _invoke(launcher, wl, work, outputs, prefix)
        traced.append(wall)
        sizes.append(size)
        layers.append(tracer.summarize(str(prefix)))
        a, b = _import_times(launcher, work)
        numpy_s.append(a)
        package_s.append(b)
        for _ in range(TRACE_VERSION_LAUNCHES):
            ok &= _setup_launch(launcher, work, setup)

    rounds = _repeat(one_round, seconds)
    for suffix in (".json", ".bin"):
        shutil.copyfile(str(prefix) + suffix, str(keep_prefix) + suffix)

    def med(key):
        return _median([layer[key] for layer in layers])

    metrics = {
        "import.numpy_s": _median(numpy_s),
        "import.dilaton_steering_s": _median(package_s),
        "cli.build_parser_s": med("cli.build_parser.self_s"),
        "cli.main.self_s": med("cli.main.self_s"),
    }
    for name, unit in PER_LAYER.items():
        if name not in metrics and name in layers[0]:
            metrics[name] = med(name)
    metrics["sweep.output_bytes"] = _median(sizes) if wl.writes_file else 0
    roots = med("roots")
    metrics["dilaton.reduced.per_root"] = metrics["dilaton.reduced.calls"] / roots if roots else 0.0
    layer_self = _median([layer["root_s"] - layer["cli.build_parser.self_s"] for layer in layers])
    metrics.update(
        {
            "trace.wall_s": _median(traced),
            "trace.untraced_wall_s": _median(plain),
            "trace.overhead_s": _median(traced) - _median(plain),
            "trace.setup_s": _median(setup),
            "trace.layer_self_s": layer_self,
            "trace.unattributed_s": _median(traced) - _median(setup) - layer_self,
            "trace.absent_functions": len(layers[0]["absent"]),
        }
    )
    if layers[0]["absent"]:
        print("absent (reported as 0): " + ", ".join(layers[0]["absent"]))
    _report(metrics, {"trace.wall_s": traced, "trace.untraced_wall_s": plain}, rounds)
    return metrics, outputs, ok


def _report(metrics, samples, rounds):
    print(f"rounds: {rounds}")
    for name, value in metrics.items():
        line = f"{name:40s} {value:.6g}"
        values = samples.get(name)
        if values and len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            line += f"  (n={len(values)}, q1={q1:.6g}, q3={q3:.6g})"
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of the dilaton-steering CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "dilaton_steering" / "cli.py").is_file():
        print(f"error: no src/dilaton_steering/cli.py under {root}; run from a source checkout", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        launcher = Launcher(root, work)
        wl = workloads.WORKLOADS[args.workload](args.seed)
        for _ in range(WARMUP_LAUNCHES):
            if not _setup_launch(launcher, work, []):
                print("error: `dilaton-steering --version` does not run", file=sys.stderr)
                return 1
        launcher.attempted = launcher.failed = 0
        if args.trace:
            keep = out_dir / f"trace-{args.workload}-seed{args.seed}"
            metrics, outputs, ok = trace(launcher, wl, work, args.seconds, keep)
            units = PER_LAYER
        else:
            metrics, outputs, ok = measure(launcher, wl, work, args.seconds)
            units = END_TO_END
        text = outputs.first.read_text(encoding="utf-8") if outputs.first.exists() else ""
        try:
            failures = wl.check(outputs.first_code, text, launcher)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failures = [f"output does not parse: {exc!r}"]
        if outputs.mismatches:
            failures.append(f"{outputs.mismatches} outputs differ from the first")
        if not ok:
            failures.append("`--version` printed an unexpected line")
        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)
        result = {
            "correct": not failures,
            "attempted": launcher.attempted,
            "failed": launcher.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Traced CLI run: wraps the program's public functions from outside.

Run as a script, this imports `dilaton_steering.cli`, replaces each
function in TARGETS with a timing wrapper everywhere it is looked up
(every module of the package that holds a reference to it, so that
`sweep`'s own `amplitude_arrays` name is wrapped as well as
`dilaton.amplitude_arrays`), calls `cli.main` with the remaining
arguments inside a root span, and exits with its code.

    PYTHONPATH=src python3 perfbench/tracer.py DUMP_PREFIX sweep --points 201

Spans (name, parent, start, end) are kept in memory and written when the
CLI returns: DUMP_PREFIX.bin holds the four arrays, DUMP_PREFIX.json the
span names, the counters and the targets not found. A target that the
program no longer defines is listed as absent and its metrics read 0.
`summarize` turns a dump into self times and counts.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

ROOT_SPAN = "cli.main"

# (span name, module, attribute, counter). A dotted attribute wraps a
# method of a class; "DensityMatrix.__init__" times construction,
# validation included.
TARGETS = (
    ("cli.build_parser", "dilaton_steering.cli", "build_parser", None),
    ("sweep.sweep_records", "dilaton_steering.sweep", "sweep_records", "rows"),
    ("sweep.write_csv", "dilaton_steering.sweep", "write_csv", None),
    ("sweep.write_json", "dilaton_steering.sweep", "write_json", None),
    ("sweep.verify_grid", "dilaton_steering.sweep", "verify_grid", None),
    ("sweep.pipeline_measure_arrays", "dilaton_steering.sweep", "pipeline_measure_arrays", None),
    ("sweep.tripartite_batch", "dilaton_steering.sweep", "tripartite_batch", "bytes"),
    ("sweep.partial_trace_batch", "dilaton_steering.sweep", "partial_trace_batch", None),
    ("kernels.xstate_measures", "dilaton_steering.kernels", "xstate_measures", "states"),
    ("kernels.spinflip_concurrence", "dilaton_steering.kernels", "spinflip_concurrence", "states"),
    ("kernels.chsh_max", "dilaton_steering.kernels", "chsh_max", "states"),
    ("dilaton.amplitude_arrays", "dilaton_steering.dilaton", "amplitude_arrays", None),
    ("dilaton.closed_measure_arrays", "dilaton_steering.dilaton", "closed_measure_arrays", None),
    ("dilaton.monogamy_residual_arrays", "dilaton_steering.dilaton", "monogamy_residual_arrays", None),
    ("dilaton.critical_dilatons", "dilaton_steering.dilaton", "critical_dilatons", None),
    ("dilaton.find_critical_numeric", "dilaton_steering.dilaton", "find_critical_numeric", None),
    ("dilaton.reduced", "dilaton_steering.dilaton", "reduced", None),
    ("dilaton.tripartite_state", "dilaton_steering.dilaton", "tripartite_state", None),
    ("density.DensityMatrix", "dilaton_steering.density", "DensityMatrix.__init__", None),
    ("density.partial_trace", "dilaton_steering.density", "partial_trace", None),
    ("density.as_xstate", "dilaton_steering.density", "as_xstate", None),
    ("measures.witness_arguments", "dilaton_steering.measures", "witness_arguments", None),
    ("measures.steerability", "dilaton_steering.measures", "steerability", None),
)
SPAN_NAMES = (ROOT_SPAN,) + tuple(t[0] for t in TARGETS)
COUNTERS = (
    "sweep.rows",
    "sweep.cells",
    "sweep.tripartite_batch.bytes",
    "kernels.xstate_measures.states",
    "kernels.spinflip_concurrence.states",
    "kernels.chsh_max.states",
)


class Recorder:
    """In-memory span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name, fn, counter):
        name_id = SPAN_NAMES.index(name)
        clock = time.perf_counter
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack
        )
        count = _COUNT.get(counter)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, name, args, result)
            return result

        return traced

    def dump(self, prefix, absent, code):
        with open(prefix + ".bin", "wb") as stream:
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(stream)
        with open(prefix + ".json", "w", encoding="utf-8") as stream:
            json.dump(
                {
                    "span_names": SPAN_NAMES,
                    "spans": len(self.names),
                    "counters": self.counters,
                    "absent": absent,
                    "exit_code": code,
                },
                stream,
            )


def _count_rows(counters, name, args, result):
    header, rows = result
    counters["sweep.rows"] += len(rows)
    counters["sweep.cells"] += len(rows) * len(header)


def _count_bytes(counters, name, args, result):
    counters[name + ".bytes"] += int(result.nbytes)


def _count_states(counters, name, args, result):
    counters[name + ".states"] += int(args[0].shape[0])


_COUNT = {"rows": _count_rows, "bytes": _count_bytes, "states": _count_states}


def install(recorder, targets=TARGETS):
    """Wrap every target that exists; return the names of those that do not."""
    absent = []
    package = [m for k, m in sys.modules.items() if k.split(".")[0] == "dilaton_steering"]
    for name, module_name, attr, counter in targets:
        module = sys.modules.get(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        orig = getattr(owner, method, None) if owner is not None else None
        if orig is None:
            absent.append(name)
            continue
        wrapped = recorder.wrap(name, orig, counter)
        if owner_name:
            setattr(owner, method, wrapped)
            continue
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    return absent


def summarize(prefix):
    """Self time, call count and counters of one dump, keyed by metric name.

    A span's self time is its duration minus the durations of its direct
    children. `roots` counts the top-level calls of find_critical_numeric,
    the number of critical points searched (its d1 search calls it again
    for d2).
    """
    import numpy as np

    with open(prefix + ".json", encoding="utf-8") as stream:
        meta = json.load(stream)
    n = meta["spans"]
    raw = np.fromfile(prefix + ".bin", dtype=np.uint8)
    ints = raw[: 8 * n].view(np.int32)
    names, parents = ints[:n], ints[n:]
    starts = raw[8 * n : 16 * n].view(np.float64)
    ends = raw[16 * n :].view(np.float64)
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    k = len(meta["span_names"])
    out = {"absent": meta["absent"], "exit_code": meta["exit_code"]}
    self_by_name = np.bincount(names, weights=self_time, minlength=k)
    calls_by_name = np.bincount(names, minlength=k)
    for i, name in enumerate(meta["span_names"]):
        out[name + ".self_s"] = float(self_by_name[i])
        out[name + ".calls"] = int(calls_by_name[i])
    root = meta["span_names"].index(ROOT_SPAN)
    out["root_s"] = float(dur[names == root].sum())
    fcn = meta["span_names"].index("dilaton.find_critical_numeric")
    is_fcn = names == fcn
    nested = np.zeros(n, dtype=bool)
    nested[has_parent] = names[parents[has_parent]] == fcn
    out["roots"] = int((is_fcn & ~nested).sum())
    out.update(meta["counters"])
    return out


def main(argv):
    prefix, cli_args = argv[0], argv[1:]
    from dilaton_steering import cli

    recorder = Recorder()
    absent = install(recorder)
    main_span = recorder.wrap(ROOT_SPAN, cli.main, None)
    code = 1
    try:
        code = main_span(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        recorder.dump(prefix, absent, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

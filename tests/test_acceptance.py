"""Acceptance suite.

One test per acceptance criterion; each prints a single [PASS]/[FAIL]
line (run with `pytest -s tests/test_acceptance.py` to see them inline).
Tolerances are pinned in the assertions.
"""

import math
import time

import numpy as np
import pytest

import sampling
from chsh_oracle import chsh_max_eigvalsh
from density_oracle import XState
from dilaton_steering import cli, kernels
from dilaton_steering.dilaton import (
    Pair,
    amplitude_arrays,
    closed_measure_arrays,
    critical_dilatons,
    find_critical_batch,
    pipeline_measure_arrays,
)
from dilaton_steering.sweep import SweepConfig, monogamy_grid, verify_grid
from spinflip_oracle import spinflip_concurrence

TWO_SQRT2 = 2.0 * math.sqrt(2.0)
S_FORWARD_LIMIT = 0.35566243270259357  # 1/2 - 1/(4 sqrt 3)
S_BACKWARD_LIMIT = 0.21132486540518708  # 1/2 - 1/(2 sqrt 3)


def _verdict(cid: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail and not ok else ""
    print(f"[{tag}] criterion {cid}: {description}{suffix}", flush=True)
    assert ok, f"criterion {cid}: {description} {detail}"


def test_criterion_01_dual_path_equivalence_on_default_grid():
    start = time.perf_counter()
    report = verify_grid(SweepConfig())  # 2001 dilaton points x 4 frequencies
    elapsed = time.perf_counter() - start
    steer_conc = report.select(lambda key: key[1] in ("s_forward", "s_backward", "concurrence"))
    worst_steer_conc = steer_conc.worst[1]
    ok = worst_steer_conc <= 1e-10 and report.passed and elapsed < 5.0
    _verdict(
        1,
        "closed forms vs density-matrix pipeline within 1e-10 on the 8004-point grid "
        f"(worst {worst_steer_conc:.2e}, {elapsed:.2f}s)",
        ok,
    )


def test_criterion_02_normalization_anchors():
    bell = XState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
    s_fwd, s_bwd, b1, b2, conc = kernels.xstate_measures(*sampling.xstate_params([bell]))
    matrix = sampling.density_stack([bell.to_matrix()])
    checks = [
        abs(conc[0] - 1.0) <= 1e-12,
        abs(spinflip_concurrence(matrix)[0] - 1.0) <= 1e-12,
        abs(s_fwd[0] - 1.0) <= 1e-12,
        abs(s_bwd[0] - 1.0) <= 1e-12,
        abs(max(b1[0], b2[0]) - TWO_SQRT2) <= 1e-12,
        abs(kernels.chsh_max(np.moveaxis(matrix.real, 0, -1))[0] - TWO_SQRT2) <= 1e-12,
    ]
    _verdict(2, "Bell state gives concurrence 1, steerability 1 both ways, CHSH 2*sqrt(2)", all(checks))


def test_criterion_03_extreme_limit_values():
    omegas = (0.5, 1.0, 2.0)
    edge = [1.0 - 1e-12]
    bundles = {
        pair: [closed_measure_arrays(*amplitude_arrays(1.0, w, edge)[1:], pair) for w in omegas]
        for pair in Pair
    }
    ab = bundles[Pair.AB][1]
    pipe_ab = pipeline_measure_arrays(*amplitude_arrays(1.0, 1.0, edge)[3:], Pair.AB)
    checks = []
    for vals in (ab, pipe_ab):
        checks += [
            abs(vals["s_forward"][0] - S_FORWARD_LIMIT) <= 1e-9,
            abs(vals["s_backward"][0] - S_BACKWARD_LIMIT) <= 1e-9,
            abs(vals["bell_max"][0] - 2.0) <= 1e-6,
        ]
    for pair in Pair:
        for name in ("s_forward", "s_backward", "concurrence", "bell_max"):
            values = [b[name][0] for b in bundles[pair]]
            checks.append(max(values) - min(values) <= 1e-9)
    _verdict(3, "extreme-limit anchors and frequency independence at D = M(1 - 1e-12)", all(checks))


def test_criterion_04_critical_points():
    closed = critical_dilatons(1.0, [1.0])
    numeric = find_critical_batch(1.0, [1.0])
    deltas = {name: abs(numeric[name][0] - closed[name][0]) for name in ("d0", "d1", "d2")}
    ok = all(delta <= 1e-6 for delta in deltas.values())
    detail = ", ".join(f"{k}: {v:.1e}" for k, v in deltas.items())
    _verdict(4, f"numeric critical dilatons match closed forms within 1e-6 ({detail})", ok)


def test_criterion_05_regime_structure():
    dgrid = np.linspace(0.0, 1.0 - 1e-6, 2001)
    _, c2, s2, c, s = amplitude_arrays(1.0, 1.0, dgrid)
    abbar = closed_measure_arrays(c2, s2, c, s, Pair.ABBAR)
    bbbar = closed_measure_arrays(c2, s2, c, s, Pair.BBBAR)
    (d0,), (d1,), (d2,) = critical_dilatons(1.0, [1.0]).values()
    step = dgrid[1] - dgrid[0]

    checks = [
        np.all(bbbar["s_backward"] == 0.0),
        np.all(abbar["s_backward"][dgrid <= d0] == 0.0),
        np.all(abbar["s_backward"][dgrid > d0] > 0.0),
        np.all(bbbar["s_forward"][(dgrid > 0.0) & (dgrid < d2)] > 0.0),
        np.all(bbbar["s_forward"][dgrid >= d2] == 0.0),
        abs(dgrid[int(np.argmax(bbbar["s_forward"]))] - d1) <= step,
    ]
    _verdict(5, "sudden birth at d0, interior maximum at d1, sudden death at d2", all(checks))


def test_criterion_06_monogamy_gate():
    report = monogamy_grid(SweepConfig())
    maxima = {}
    for name in ("r1", "r2", "r3", "r4"):
        worst = report.select(lambda key: key[1] == name).worst
        maxima[name] = None if worst is None else worst[1]
    ok = all(value is not None and value <= 1e-10 for value in maxima.values())
    _verdict(
        6,
        "monogamy residuals within 1e-10 (r1/r2 everywhere, r3/r4 past the birth point)",
        ok,
        detail=" ".join(f"{name}={value}" for name, value in maxima.items()),
    )


def test_criterion_07_random_state_property_suite():
    rng = np.random.default_rng(424242)
    start = time.perf_counter()

    d11, d22, d33, d44, c14, c23 = sampling.random_xstate_params(rng, 100_000)
    a14, a23 = np.abs(c14), np.abs(c23)
    matrices = sampling.xstate_matrices(d11, d22, d33, d44, c14, c23)
    s_fwd, s_bwd, b1, b2, conc_x_vals = kernels.xstate_measures(d11, d22, d33, d44, a14, a23)
    conc_dev = np.abs(conc_x_vals - spinflip_concurrence(matrices)).max()
    bell_dev = np.abs(np.maximum(b1, b2) - chsh_max_eigvalsh(matrices)).max()
    witnessed = (s_fwd > 0.0) | (s_bwd > 0.0)
    hierarchy_ok = bool(np.all(conc_x_vals[witnessed] > 0.0))

    sep = sampling.random_separable_xstate_params(rng, 10_000)
    sep_fwd, sep_bwd, _, _, _ = kernels.xstate_measures(*sep[:4], np.abs(sep[4]), np.abs(sep[5]))
    separable_ok = sep_fwd.max() <= 1e-12 and sep_bwd.max() <= 1e-12

    elapsed = time.perf_counter() - start
    ok = (
        conc_dev <= 1e-10
        and bell_dev <= 1e-10
        and hierarchy_ok
        and separable_ok
        and witnessed.sum() > 1000
        and elapsed < 60.0
    )
    _verdict(
        7,
        "1e5-state closed-form vs oracle suite within 1e-10, hierarchy and witness "
        f"soundness hold (conc {conc_dev:.2e}, bell {bell_dev:.2e}, {elapsed:.2f}s)",
        ok,
    )


def test_criterion_08_no_inaccessible_nonlocality():
    worst = 0.0
    dgrid = np.linspace(0.0, 1.0 - 1e-6, 2001)
    for omega in (0.5, 1.0, 1.5, 2.0):
        _, c2, s2, c, s = amplitude_arrays(1.0, omega, dgrid)
        for pair in (Pair.ABBAR, Pair.BBBAR):
            worst = max(worst, float(closed_measure_arrays(c2, s2, c, s, pair)["bell_max"].max()))
    ok = worst <= 2.0 + 1e-12
    _verdict(8, f"interior-partition Bell signal never exceeds 2 (max {worst:.12f})", ok)


def test_criterion_09_monotonicity_and_ordering():
    checks = []
    dgrid = np.linspace(0.0, 1.0 - 1e-6, 2001)
    for omega in (0.5, 1.0, 1.5, 2.0):
        _, c2, s2, c, s = amplitude_arrays(1.0, omega, dgrid)
        ab = closed_measure_arrays(c2, s2, c, s, Pair.AB)
        abbar = closed_measure_arrays(c2, s2, c, s, Pair.ABBAR)
        bbbar = closed_measure_arrays(c2, s2, c, s, Pair.BBBAR)
        checks.extend(
            [
                np.all(np.diff(ab["s_forward"]) <= 1e-15),
                np.all(np.diff(abbar["s_forward"]) >= -1e-15),
                np.all(np.diff(ab["concurrence"]) <= 1e-15),
                np.all(np.diff(abbar["concurrence"]) >= -1e-15),
                np.all(np.diff(bbbar["concurrence"]) >= -1e-15),
                np.all(ab["s_forward"] >= ab["s_backward"] - 1e-15),
                np.all(abbar["s_forward"] >= abbar["s_backward"] - 1e-15),
            ]
        )
    _verdict(9, "monotone trends in the dilaton and forward-over-backward ordering", all(map(bool, checks)))


def test_criterion_10_cli_contract(capsys):
    verify_code = cli.main(["verify"])
    verify_out = capsys.readouterr().out
    sweep_args = ["sweep"]  # full default grid
    first_code = cli.main(sweep_args)
    first = capsys.readouterr().out
    second_code = cli.main(sweep_args)
    second = capsys.readouterr().out
    golden = (
        "omega,dilaton,x,"
        "ab_s_forward,ab_s_backward,ab_bell_max,ab_bell_branch2,ab_concurrence,ab_asymmetry,ab_regime,"
        "abbar_s_forward,abbar_s_backward,abbar_bell_max,abbar_bell_branch2,abbar_concurrence,abbar_asymmetry,abbar_regime,"
        "bbbar_s_forward,bbbar_s_backward,bbbar_bell_max,bbbar_bell_branch2,bbbar_concurrence,bbbar_asymmetry,bbbar_regime,"
        "r1,r2,r3,r4,r3_valid,r4_valid"
    )
    ok = (
        verify_code == 0
        and "PASS" in verify_out
        and first_code == 0
        and second_code == 0
        and first == second
        and first.split("\n", 1)[0] == golden
    )
    _verdict(10, "verify exits 0 on defaults, sweep is byte-identical, golden header intact", ok)

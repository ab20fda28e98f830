"""sha256 digests of the CLI's output on fixed commands, and the script that records them.

Each case runs `cli.main` in process on one argv and keeps the sha256 of its
stdout, the sha256 of its stderr, and its exit code. `test_cli_digests.py`
replays every case against `cli_digests.json`, so a change to any byte the
CLI writes fails there. The cases are the default command of each
subcommand, the benchmark's commands at seeds 0 and 1, sweeps whose
slices hold constant and copied columns, and the extreme inputs that
`test_cli.py` pins.

A change that alters the bytes on purpose records them again,

    PYTHONPATH=src python3 tests/cli_digests.py

which prints each case whose digest changed, was added or was removed, and
names each in CHANGES.md, with its input and the reason.
libm and numpy may move a last bit between versions, so the record keeps
the python, numpy and platform versions it was made under.
"""

from __future__ import annotations

import hashlib
import json
import platform
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from dilaton_steering import cli

RECORD = Path(__file__).with_name("cli_digests.json")

# The frequencies of the benchmark's `critical_scan` at seeds 0 and 1.
_CRITICAL_OMEGAS_SEED_0 = (
    "0.0401792,0.0410315,0.041902,0.0427909,0.0436987,0.0446258,0.0455725,0.0465393,"
    "0.0475266,0.0485349,0.0495645,0.050616,0.0516898,0.0527864,0.0539062,0.0550498,"
    "0.0562177,0.0574103,0.0586282,0.059872,0.0611422,0.0624393,0.0637639,0.0651166,"
    "0.066498,0.0679088,0.0693494,0.0708206,0.0723231,0.0738574,0.0754242,0.0770243,"
    "0.0786584,0.0803271,0.0820312,0.0837714,0.0855486,0.0873635,0.0892168,0.0911095,"
    "0.0930424,0.0950162,0.097032,0.0990905,0.101193,0.103339,0.105532,0.10777,"
    "0.110057,0.112392,0.114776,0.117211,0.119697,0.122237,0.12483,0.127478,0.130183,"
    "0.132944,0.135765,0.138645,0.141586,0.14459,0.147657,0.15079,0.153989,0.157256,"
    "0.160592,0.163998,0.167478,0.171031,0.174659,0.178364,0.182148,0.186012,"
    "0.189959,0.193988,0.198104,0.202307,0.206598,0.210981,0.215457,0.220028,"
    "0.224696,0.229463,0.234331,0.239302,0.244378,0.249563,0.254857,0.260264,"
    "0.265785,0.271424,0.277182,0.283062,0.289067,0.2952,0.301462,0.307858,0.314389,"
    "0.321058,0.327869,0.334825,0.341928,0.349182,0.35659,0.364155,0.37188,0.379769,"
    "0.387826,0.396053,0.404456,0.413036,0.421798,0.430747,0.439885,0.449217,"
    "0.458747,0.468479,0.478417,0.488567,0.498931,0.509516,0.520325,0.531364,"
    "0.542636,0.554148,0.565904,0.57791,0.59017,0.60269,0.615476,0.628533,0.641867,"
    "0.655484,0.669389,0.68359,0.698092,0.712902,0.728026,0.743471,0.759243,0.77535,"
    "0.791799,0.808596,0.825751,0.843268,0.861158,0.879427,0.898084,0.917136,"
    "0.936593,0.956462,0.976753,0.997475,1.01864,1.04025,1.06231,1.08485,1.10787,"
    "1.13137,1.15537,1.17988,1.20491,1.23047,1.25658,1.28323,1.31046,1.33826,1.36665,"
    "1.39564,1.42525,1.45549,1.48636,1.5179,1.5501,1.58298,1.61656,1.65086,1.68588,"
    "1.72165,1.75817,1.79547,1.83356,1.87246,1.91218,1.95275,1.99417,2.03648,2.07968,"
    "2.1238,2.16886,2.21487,2.26186,2.30984,2.35884,2.40888,2.45999,2.51217,2.56547,"
    "2.61989,2.67547,2.73223,2.7902,2.84939,2.90984,2.97157,3.03461,3.09899,3.16473,"
    "3.23187,3.30043,3.37045,3.44195,3.51497,3.58954,3.66569,3.74346,3.82287,3.90397,"
    "3.98679,4.07137,4.15775,4.24595,4.33603,4.42801,4.52195,4.61788,4.71585,4.81589,"
    "4.91806"
)
_CRITICAL_OMEGAS_SEED_1 = (
    "0.0400015,0.0408501,0.0417167,0.0426017,0.0435055,0.0444284,0.045371,0.0463335,"
    "0.0473164,0.0483202,0.0493453,0.0503922,0.0514612,0.0525529,0.0536678,0.0548064,"
    "0.055969,0.0571564,0.058369,0.0596072,0.0608718,0.0621631,0.0634819,0.0648286,"
    "0.066204,0.0676084,0.0690427,0.0705074,0.0720032,0.0735307,0.0750907,0.0766837,"
    "0.0783105,0.0799718,0.0816684,0.0834009,0.0851702,0.0869771,0.0888223,0.0907066,"
    "0.0926309,0.094596,0.0966028,0.0986522,0.100745,0.102882,0.105065,0.107294,"
    "0.10957,0.111895,0.114268,0.116692,0.119168,0.121696,0.124278,0.126914,0.129607,"
    "0.132356,0.135164,0.138032,0.14096,0.14395,0.147004,0.150123,0.153308,0.15656,"
    "0.159881,0.163273,0.166737,0.170274,0.173887,0.177575,0.181343,0.18519,0.189118,"
    "0.193131,0.197228,0.201412,0.205685,0.210048,0.214504,0.219055,0.223702,"
    "0.228448,0.233294,0.238243,0.243298,0.248459,0.25373,0.259113,0.26461,0.270223,"
    "0.275956,0.28181,0.287789,0.293894,0.300129,0.306496,0.312998,0.319638,0.326419,"
    "0.333344,0.340416,0.347638,0.355013,0.362544,0.370235,0.37809,0.386111,0.394302,"
    "0.402667,0.411209,0.419933,0.428842,0.437939,0.44723,0.456718,0.466407,0.476301,"
    "0.486406,0.496725,0.507263,0.518024,0.529014,0.540236,0.551697,0.563401,"
    "0.575354,0.58756,0.600024,0.612754,0.625753,0.639028,0.652585,0.666429,0.680567,"
    "0.695005,0.709749,0.724806,0.740183,0.755885,0.771921,0.788297,0.80502,0.822099,"
    "0.839539,0.85735,0.875538,0.894112,0.91308,0.932451,0.952232,0.972433,0.993063,"
    "1.01413,1.03564,1.05762,1.08005,1.10297,1.12636,1.15026,1.17466,1.19958,1.22503,"
    "1.25102,1.27756,1.30466,1.33234,1.3606,1.38947,1.41895,1.44905,1.47979,1.51118,"
    "1.54324,1.57598,1.60941,1.64356,1.67842,1.71403,1.75039,1.78753,1.82545,1.86418,"
    "1.90372,1.94411,1.98535,2.02747,2.07048,2.11441,2.15926,2.20507,2.25185,2.29962,"
    "2.34841,2.39823,2.44911,2.50106,2.55412,2.60831,2.66364,2.72015,2.77786,2.83679,"
    "2.89697,2.95843,3.02119,3.08528,3.15074,3.21758,3.28584,3.35554,3.42673,3.49943,"
    "3.57367,3.64948,3.7269,3.80597,3.88671,3.96916,4.05337,4.13936,4.22717,4.31685,"
    "4.40843,4.50195,4.59746,4.69499,4.79459,4.89631"
)

CASES = {
    "sweep": ("sweep",),
    "sweep-json": ("sweep", "--format", "json"),
    "verify": ("verify",),
    "critical": ("critical",),
    "monogamy": ("monogamy",),
    "classify": ("classify",),
    # The benchmark's workloads at seeds 0 and 1.
    "sweep_csv-seed0": ("sweep", "--mass", "0.523386", "--points", "20001"),
    "sweep_csv-seed1": ("sweep", "--mass", "1.13568", "--points", "20001"),
    "sweep_json-seed0": (
        "sweep", "--format", "json", "--pairs", "abbar,bbbar", "--mass", "1.69232", "--points", "5001"
    ),
    "sweep_json-seed1": (
        "sweep", "--format", "json", "--pairs", "abbar,bbbar", "--mass", "1.96833", "--points", "5001"
    ),
    "verify_pipeline-seed0": ("verify", "--mass", "1.92661", "--points", "50000"),
    "verify_pipeline-seed1": ("verify", "--mass", "0.970931", "--points", "50000"),
    "critical_scan-seed0": ("critical", "--mass", "1", "--omega", _CRITICAL_OMEGAS_SEED_0),
    "critical_scan-seed1": ("critical", "--mass", "1", "--omega", _CRITICAL_OMEGAS_SEED_1),
    # Two slices per omega: at mass 2 the first slices of omega 1.5 and 2 saturate, so nearly every
    # column is constant or a copy of another; 1.75867 is the benchmark's mass at seed 6.
    "saturated-slices": ("sweep", "--mass", "2", "--points", "4097"),
    "saturated-slices-json": ("sweep", "--format", "json", "--mass", "2", "--points", "4097"),
    "sweep_csv-seed6-mass": ("sweep", "--mass", "1.75867", "--points", "4097"),
    "sweep_csv-seed6-mass-json": ("sweep", "--format", "json", "--mass", "1.75867", "--points", "4097"),
    # Extreme inputs: x = inf (spelled Infinity in JSON), subnormal e^-x and
    # masses, overflowing 8 pi M, out-of-range and edge critical points.
    "overflowing-x": ("sweep", "--mass", "1e300", "--omega", "1e10", "--points", "2"),
    "overflowing-x-json": ("sweep", "--mass", "1e300", "--omega", "1e10,1e-300", "--format", "json"),
    "subnormal-e-to-the-minus-x": ("sweep", "--omega", "30", "--points", "2", "--pairs", "abbar"),
    "subnormal-mass": ("sweep", "--mass", "1e-320", "--omega", "1", "--points", "2"),
    "smallest-mass-sweep": ("sweep", "--mass", "5e-324", "--omega", "1", "--points", "2"),
    "smallest-mass-verify": ("verify", "--mass", "5e-324", "--omega", "1", "--points", "2"),
    "smallest-mass-monogamy": ("monogamy", "--mass", "5e-324", "--omega", "1", "--points", "2"),
    "points-past-2-to-the-53": ("sweep", "--points", str(2**53 + 1)),
    "largest-8-pi-m-sweep": ("sweep", "--mass", "1e308", "--omega", "1e-308", "--points", "3"),
    "largest-8-pi-m-classify": ("classify", "--mass", "1e308", "--omega", "1e-308"),
    "largest-mass-monogamy": (
        "monogamy", "--mass", "1.7976931348623157e+308", "--omega", "5e-324", "--points", "5"
    ),
    "finite-closed-dilatons": ("critical", "--mass", "1e308", "--omega", "1e-310"),
    "peak-on-the-closed-value": ("critical", "--omega", "0.058"),
    "peak-on-the-range-edge": ("critical", "--omega", "0.05240008978487284"),
    "extreme-omega-critical": ("critical", "--omega", "1e-300"),
    "tiny-dilatons-critical": ("critical", "--mass", "1e-12", "--omega", "1e12"),
    "tiny-dilatons-classify": ("classify", "--mass", "1e-300", "--omega", "1e300"),
    "infinite-x-classify": ("classify", "--mass", "1e300", "--omega", "1e300"),
    "error-names-omegas-as-given": ("critical", "--omega", "2,0.5,inf"),
}


class _Sha256Stream:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode())
        return len(text)

    def flush(self):
        pass


def digest(argv) -> dict:
    """The argv, the sha256 of stdout and of stderr, and the exit code of `cli.main(argv)`."""
    out, err = _Sha256Stream(), _Sha256Stream()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "stdout": out.sha256.hexdigest(), "stderr": err.sha256.hexdigest(), "code": code}


def versions() -> dict:
    """The versions that may move a last bit of the output."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": "-".join((platform.system(), platform.machine(), *platform.libc_ver())),
    }


def record(path: Path, cases: dict) -> None:
    """Write `cases` and the versions to `path`; print each case that changed, was added or was removed."""
    old = json.loads(path.read_text(encoding="utf-8"))["cases"] if path.exists() else {}
    for name in [*old, *(name for name in cases if name not in old)]:
        if old.get(name) != cases.get(name):
            print("added" if name not in old else "removed" if name not in cases else "changed", name)
    text = json.dumps({"versions": versions(), "cases": cases}, indent=1)
    path.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    record(RECORD, {name: digest(argv) for name, argv in CASES.items()})

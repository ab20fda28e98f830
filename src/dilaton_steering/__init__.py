"""Steering, Bell nonlocality, and entanglement of two-qubit X states,
applied to fermionic modes outside a GHS dilaton black hole.

`dilaton` holds the model: its domain rule, the mode-mixing amplitudes,
the closed-form and the batch density-matrix route of each
bipartition's measures, the monogamy residuals, and the critical
dilatons in closed form and numerically, each root searched once in x
and mapped to every frequency (NaN where it falls outside 0 <= D < M).
The numpy kernels of the density-matrix route live in `kernels`. `sweep` walks
the dilaton grid, writes the records and runs the verify and monogamy
gates; `cli` is the command line.
"""

from .dilaton import (
    ConfigError,
    Pair,
    ResolutionError,
    amplitude_arrays,
    check_mass_and_omegas,
    closed_measure_arrays,
    critical_dilatons,
    find_critical_batch,
    monogamy_residual_arrays,
    pipeline_measure_arrays,
)
from .sweep import SweepConfig, monogamy_grid, sweep_blocks, verify_grid

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Pair",
    "ResolutionError",
    "SweepConfig",
    "amplitude_arrays",
    "check_mass_and_omegas",
    "closed_measure_arrays",
    "critical_dilatons",
    "find_critical_batch",
    "monogamy_grid",
    "monogamy_residual_arrays",
    "pipeline_measure_arrays",
    "sweep_blocks",
    "verify_grid",
]

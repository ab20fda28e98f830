"""Steering, Bell nonlocality, and entanglement of two-qubit X states,
applied to fermionic modes outside a GHS dilaton black hole.

The package provides exact small density-matrix arithmetic (`density`),
the two-qubit measure toolkit with independent closed-form and
general-matrix routes (`measures`), the dilaton state family with its
critical points and monogamy identities (`dilaton`), and a deterministic
sweep engine plus CLI (`sweep`, `cli`). The batch numpy kernels of the
density-matrix route live in `kernels`.
"""

from .density import (
    DensityMatrix,
    PureState,
    StateValidationError,
    XState,
    XStructureError,
    as_xstate,
    from_pure,
    hermitian_eigenvalues,
    partial_trace,
    tensor,
)
from .dilaton import (
    BogoliubovAmplitudes,
    CriticalPoints,
    DilatonParams,
    MonogamyResiduals,
    Pair,
    RootNotFoundError,
    bogoliubov,
    closed_form_measures,
    critical_dilatons,
    find_critical_numeric,
    monogamy_residuals,
    pipeline_measures,
    reduced,
    tripartite_state,
)
from .measures import (
    ChshBranches,
    Direction,
    LTriple,
    MeasureSet,
    Regime,
    chsh_max_general,
    chsh_max_x,
    classify_steering,
    concurrence_general,
    concurrence_x,
    l_triple,
    measure_xstate,
    steerability,
    steering_asymmetry,
    steering_witness_matrix,
    witness_arguments,
)
from .sweep import ConfigError, SweepConfig, monogamy_grid, sweep_blocks, verify_grid

__version__ = "0.1.0"

__all__ = [
    "BogoliubovAmplitudes",
    "ChshBranches",
    "ConfigError",
    "CriticalPoints",
    "DensityMatrix",
    "DilatonParams",
    "Direction",
    "LTriple",
    "MeasureSet",
    "MonogamyResiduals",
    "Pair",
    "PureState",
    "Regime",
    "RootNotFoundError",
    "StateValidationError",
    "SweepConfig",
    "XState",
    "XStructureError",
    "as_xstate",
    "bogoliubov",
    "chsh_max_general",
    "chsh_max_x",
    "classify_steering",
    "closed_form_measures",
    "concurrence_general",
    "concurrence_x",
    "critical_dilatons",
    "find_critical_numeric",
    "from_pure",
    "hermitian_eigenvalues",
    "l_triple",
    "measure_xstate",
    "monogamy_grid",
    "monogamy_residuals",
    "partial_trace",
    "pipeline_measures",
    "reduced",
    "steerability",
    "steering_asymmetry",
    "steering_witness_matrix",
    "sweep_blocks",
    "tensor",
    "tripartite_state",
    "verify_grid",
    "witness_arguments",
]

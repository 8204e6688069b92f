"""Monte Carlo toolkit for collapse dynamics of weakly monitored qubit registers.

The package simulates how continuous weak measurement drives an entangled
N-qubit state, prepared with a single shared excitation, into a definite
site.  It provides the reduced diffusion for the occupation coordinates,
the full Bloch-vector dynamics it is derived from, an exact Bayesian
readout model for cross-checking, and ensemble statistics for the
collapse-time scaling study.
"""

from .core import (
    NoiseKind,
    SimParams,
    default_t_max,
    derive_seed,
    derive_stream,
    derive_streams,
    init_uniform,
    init_weighted,
    validate_state,
)
from .sde import (
    TrajectoryResult,
    detect_collapse,
    euler_step,
    increment,
    run_trajectory,
)
from .bloch import (
    BlochEnsemble,
    correlation_zz,
    expected_purity_increment,
    from_amplitudes,
    purity,
    purity_trace,
    single_excitation_uniform,
    step_bloch,
    twin_deviation,
)
from .bayes import (
    BornResult,
    ReadoutRecord,
    born_frequencies,
    collapse_criterion,
    conditional_state,
    sample_readouts,
)
from .stats import (
    CollapseStats,
    FitResult,
    SweepTable,
    correlation_bound_check,
    fit_lnln,
    initial_step_experiment,
    run_ensemble,
    scaling_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "NoiseKind",
    "SimParams",
    "default_t_max",
    "derive_seed",
    "derive_stream",
    "derive_streams",
    "init_uniform",
    "init_weighted",
    "validate_state",
    "TrajectoryResult",
    "detect_collapse",
    "euler_step",
    "increment",
    "run_trajectory",
    "BlochEnsemble",
    "correlation_zz",
    "expected_purity_increment",
    "from_amplitudes",
    "purity",
    "purity_trace",
    "single_excitation_uniform",
    "step_bloch",
    "twin_deviation",
    "BornResult",
    "ReadoutRecord",
    "born_frequencies",
    "collapse_criterion",
    "conditional_state",
    "sample_readouts",
    "CollapseStats",
    "FitResult",
    "SweepTable",
    "correlation_bound_check",
    "fit_lnln",
    "initial_step_experiment",
    "run_ensemble",
    "scaling_sweep",
    "__version__",
]

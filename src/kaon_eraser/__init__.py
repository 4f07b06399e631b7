"""Entangled neutral-kaon pairs: oscillations, decay records, quantum erasure.

A small research library around one physical system: the antisymmetric
two-kaon state produced in phi decays.  It provides

* exact pair amplitudes with free-space propagation,
* closed-form joint detection probabilities for all observable pairs,
* the joint decay-rate model linking spontaneous decays to those same
  probabilities (passive measurements),
* a deterministic, exactly distributed Monte Carlo event generator, and
* the four eraser measurement protocols with their sorting estimators.

All times are in units of the K_S lifetime; see :mod:`kaon_eraser.params`.
"""

__version__ = "0.1.0"

from .params import ParamsError, PhysicsParams, load_params
from .kaon import Basis, Outcome
from .pair import (
    DegenerateStateError,
    PairAmplitude,
    evolve_pair,
    initial_state,
    normalize_surviving,
    project_pair,
    to_pair_basis,
)
from .probabilities import (
    JointProbabilityTable,
    Source,
    TimeWindow,
    full_table,
    joint_strangeness,
    joint_strangeness_lifetime,
    survival_weight,
    visibility,
    window_table,
)
from .decay import (
    ConfigurationError,
    DecayMode,
    TransitionAmplitudes,
    UnsupportedModeError,
    integrated_mode_pair_probabilities,
    joint_decay_rate,
    normalization_factor,
    passive_probability,
)
from .generator import GeneratorConfig, generate, mode_pair_chi2, sampling_kernel
from .textio import EventFormatError, EventSet, read_events, write_events
from .experiments import (
    Estimate,
    ExperimentKind,
    ExperimentSpec,
    ScanResult,
    ScanRow,
    misidentification_rates,
    run_experiment,
    sort_passive_events,
    write_scan_csv,
)

__all__ = [
    "__version__",
    "ParamsError", "PhysicsParams", "load_params",
    "Basis", "Outcome",
    "DegenerateStateError", "PairAmplitude", "evolve_pair", "initial_state",
    "normalize_surviving", "project_pair", "to_pair_basis",
    "JointProbabilityTable", "Source", "TimeWindow", "full_table",
    "joint_strangeness", "joint_strangeness_lifetime", "survival_weight",
    "visibility", "window_table",
    "ConfigurationError", "DecayMode", "TransitionAmplitudes",
    "UnsupportedModeError", "integrated_mode_pair_probabilities",
    "joint_decay_rate", "normalization_factor", "passive_probability",
    "EventFormatError", "EventSet", "GeneratorConfig",
    "generate", "mode_pair_chi2", "read_events", "sampling_kernel", "write_events",
    "Estimate", "ExperimentKind", "ExperimentSpec", "ScanResult", "ScanRow",
    "misidentification_rates", "run_experiment", "sort_passive_events", "write_scan_csv",
]

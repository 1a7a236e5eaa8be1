"""Event-triggered adaptive variational filtering and its benchmark harness."""

from .baselines import KfState, kf_predict
from .filter import (
    FilterConfig,
    FilterState,
    etvbf_step,
    initial_state,
)
from .harness import (
    FILTER_IDS,
    ExperimentConfig,
    SweepRow,
    TrialRecord,
    compute_metrics,
    emit_outputs,
    run_sweep,
    run_trial,
    run_trials,
)
from .model import ModelSpec, Trajectory, build_cv_scenario, scenario_defaults, simulate_truth
from .trigger import TriggerConfig, TriggerOutcome, sensor_decide, trigger_probability

__all__ = [
    "FILTER_IDS",
    "ExperimentConfig",
    "FilterConfig",
    "FilterState",
    "KfState",
    "ModelSpec",
    "SweepRow",
    "Trajectory",
    "TrialRecord",
    "TriggerConfig",
    "TriggerOutcome",
    "build_cv_scenario",
    "compute_metrics",
    "emit_outputs",
    "etvbf_step",
    "initial_state",
    "kf_predict",
    "run_sweep",
    "run_trial",
    "run_trials",
    "scenario_defaults",
    "sensor_decide",
    "simulate_truth",
    "trigger_probability",
]

__version__ = "0.1.0"

"""Monte Carlo experiment runner: trials, metrics, parameter sweeps, outputs.

Trials are deterministic given (config, filter id, trial index). Truth
and noise come from a stream keyed by (base_seed, trial_index) only, so
all filters see identical trajectories (common random numbers), while
each triggered filter's draws come from a filter-local stream. All four
filters run through one step loop; a filter id only selects the step
function (etvbf_step, or clset_kf_step with nominal or true covariances)
and whether the sensor trigger or an always-transmit outcome decides
each step. The loop steps a stack of trials in lockstep, one
filter call per time step for the whole stack; a trial's record is the
same whichever trials it runs with.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import zlib
from dataclasses import dataclass, field

import numpy as np

from .baselines import KfState, clset_kf_step
from .distributions import SeededRng, sample_gaussian
from .filter import FilterConfig, etvbf_step, initial_state, take_rows
from .model import ModelSpec, build_cv_scenario, scenario_defaults, simulate_truth
from .numerics import NotPositiveDefinite, Singular
from .trigger import TriggerConfig, TriggerOutcome, sensor_decide

__all__ = [
    "FILTER_IDS",
    "ExperimentConfig",
    "TrialRecord",
    "SweepRow",
    "build_filter_config",
    "run_trial",
    "run_trials",
    "compute_metrics",
    "run_sweep",
    "emit_outputs",
]

FILTER_ETVBF = "etvbf"
FILTER_VBF = "vbf"
FILTER_CLSET = "clset-kf"
FILTER_ORACLE = "oracle-kf"
FILTER_IDS = (FILTER_ETVBF, FILTER_VBF, FILTER_CLSET, FILTER_ORACLE)

# Sweep parameter -> the ExperimentConfig field each grid value sets.
SWEEP_FIELDS = {"y": "y_scale", "r": "r_scale", "rho": "rho"}
SWEEP_PARAMS = tuple(SWEEP_FIELDS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings; defaults follow the vehicle scenario."""

    base_seed: int = 20240
    n_mc: int = 50
    n_step: int = 150
    filters: tuple[str, ...] = FILTER_IDS
    sweep_param: str | None = None
    sweep_grid: tuple[float, ...] = ()
    # scenario
    sample_time: float = 1.0
    cosine_period: int = 500
    # filter tuning
    nominal_q_scales: tuple[float, ...] = (1.0, 2.0, 3.0, 9.0, 10.0)
    dof_g: float = 10.0
    r_scale: float = 150.0
    s0: float = 5.0
    alpha0: float = 1.0
    rho: float = 0.997
    y_scale: float = 0.0005
    clset_q_scale: float = 4.0
    max_iterations: int = 50
    tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        object.__setattr__(self, "sweep_grid", tuple(float(v) for v in self.sweep_grid))
        object.__setattr__(
            self, "nominal_q_scales", tuple(float(v) for v in self.nominal_q_scales)
        )
        counts = (self.n_mc, self.n_step, self.base_seed)
        if not all(isinstance(v, numbers.Integral) for v in counts):
            raise ValueError("n_mc, n_step and base_seed must be integers")
        if self.n_mc < 1 or self.n_step < 1:
            raise ValueError("n_mc and n_step must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if not self.filters:
            raise ValueError(f"filters must name at least one of {FILTER_IDS}")
        unknown = set(self.filters) - set(FILTER_IDS)
        if unknown:
            raise ValueError(f"unknown filter ids {sorted(unknown)}; choose from {FILTER_IDS}")
        for name in ("filters", "sweep_grid"):
            items = getattr(self, name)
            repeated = sorted({v for v in items if items.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} repeats {repeated}; each cell would run twice")
        if self.sweep_param is None and self.sweep_grid:
            raise ValueError("a sweep_grid needs a sweep_param")
        if self.sweep_param is not None and self.sweep_param not in SWEEP_PARAMS:
            raise ValueError(f"sweep_param must be one of {SWEEP_PARAMS}")
        if not self.clset_q_scale > 0.0:
            raise ValueError("clset_q_scale must be positive")
        build_filter_config(self)  # raises ValueError on an out-of-domain scenario or tuning
        for value in self.sweep_grid:
            _sweep_point(self, value)  # each grid value meets its field's own rule

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class TrialRecord:
    """Per-step log of one trial; failed trials keep their failure step and reason."""

    trial_index: int
    filter_id: str
    truth: np.ndarray  # (n_step, n)
    estimate: np.ndarray  # (n_step, n)
    gamma: np.ndarray  # (n_step,)
    iterations: np.ndarray  # (n_step,)
    failed: bool = False
    fail_step: int | None = None
    fail_reason: str | None = None  # text of the exception that ended the trial

    def to_csv(self, path) -> None:
        steps, n = self.truth.shape
        names = ["k", *(f"x{i+1}" for i in range(n)), *(f"xhat{i+1}" for i in range(n))]
        table = np.column_stack(
            [np.arange(1, steps + 1), self.truth, self.estimate, self.gamma, self.iterations]
        )
        fmt = ["%d"] + ["%.12g"] * (2 * n) + ["%d", "%d"]
        header = ",".join(names + ["gamma", "iterations"])
        np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


@dataclass(frozen=True)
class SweepRow:
    """Aggregated metrics for one (sweep value, filter) cell."""

    sweep_value: float
    filter: str
    rmse: float
    comm_rate: float
    mean_iterations: float
    failures: int


def _sweep_point(cfg: ExperimentConfig, value: float) -> ExperimentConfig:
    """The single-experiment config at one grid value: no grid, the swept field set."""
    return dataclasses.replace(
        cfg, sweep_param=None, sweep_grid=(), **{SWEEP_FIELDS[cfg.sweep_param]: value}
    )


def build_filter_config(cfg: ExperimentConfig) -> FilterConfig:
    """Adaptive filter configuration, sized by the scenario's state and measurement."""
    model = build_cv_scenario(cfg.sample_time, cfg.cosine_period)
    m_size = len(cfg.nominal_q_scales)
    return FilterConfig(
        nominal_q=np.multiply.outer(cfg.nominal_q_scales, np.eye(model.n)),
        dof_g=np.full(m_size, cfg.dof_g),
        r0=cfg.r_scale * np.eye(model.m),
        s0=cfg.s0,
        alpha0=np.full(m_size, cfg.alpha0),
        rho=cfg.rho,
        trigger=TriggerConfig(Y=cfg.y_scale * np.eye(model.m)),
        max_iterations=cfg.max_iterations,
        tol=cfg.tol,
    )


def _trigger_stream(cfg: ExperimentConfig, trial_index: int, filter_id: str) -> SeededRng:
    return SeededRng((cfg.base_seed, trial_index, zlib.crc32(filter_id.encode("utf-8"))))


def _resolve_filter(
    filter_id: str,
    cfg: ExperimentConfig,
    fcfg: FilterConfig,
    model: ModelSpec,
    x0_hat: np.ndarray,
    p0: np.ndarray,
):
    """Initial state and step function of one filter, and whether the trigger drives it.

    The step maps (state, k, F_k, H_k, outcome) to (state, sweeps per row)
    for a stack of states. Both Kalman baselines step through clset_kf_step
    and report zero sweeps; they differ only in their covariances, the
    nominal ones for clset-kf and the true Q_k, R_k for the oracle.
    Untriggered filters are handed an always-transmit outcome.
    """
    if filter_id in (FILTER_ETVBF, FILTER_VBF):

        def step(state, k, f_k, h_k, outcome):
            state, diag = etvbf_step(state, f_k, h_k, outcome, fcfg)
            return state, diag.iterations

        return initial_state(x0_hat, p0, fcfg), step, filter_id == FILTER_ETVBF
    kf_state = KfState(x_hat=x0_hat, P=np.broadcast_to(p0, x0_hat.shape[:1] + p0.shape).copy())
    nominal = filter_id == FILTER_CLSET  # the triggered clset-kf; the oracle gets Q_k, R_k
    q_bar = cfg.clset_q_scale * np.eye(model.n)

    def step(state, k, f_k, h_k, outcome):
        q_k, r_k = (q_bar, fcfg.r0) if nominal else (model.trueQ(k), model.trueR(k))
        return clset_kf_step(state, f_k, h_k, q_k, r_k, fcfg.trigger.Y, outcome), 0

    return kf_state, step, nominal


def run_trial(cfg: ExperimentConfig, filter_id: str, trial_index: int) -> TrialRecord:
    """Simulate one closed sensor-estimator loop for one filter (run_trials of one trial)."""
    return run_trials(cfg, filter_id, [trial_index])[0]


def run_trials(cfg: ExperimentConfig, filter_id: str, trial_indices) -> list[TrialRecord]:
    """Simulate the closed sensor-estimator loops of several trials in lockstep.

    The trials' states form one stack that each filter call steps at once.
    The initial estimate is drawn from the truth stream before the
    trajectory, so every filter starts from the same estimate and sees
    the same truth; the trajectories of all trials are simulated as one
    stack, and each trial draws its trigger decisions from its own
    stream. A step that raises NotPositiveDefinite or Singular is retried
    one trial at a time: the trials that fail again are recorded failed at
    that step with the exception text, and the others are stepped again as
    one stack and go on. So every record equals the one its trial gives
    when run alone. A trial index that is not a non-negative integer
    raises ValueError.
    """
    if filter_id not in FILTER_IDS:
        raise ValueError(f"unknown filter id: {filter_id}")
    trial_indices = list(trial_indices)
    bad = [t for t in trial_indices if not isinstance(t, numbers.Integral) or t < 0]
    if bad:
        raise ValueError(f"trial indices must be non-negative integers, got {bad}")
    model = build_cv_scenario(cfg.sample_time, cfg.cosine_period)
    fcfg = build_filter_config(cfg)
    if not trial_indices:
        return []
    x0, p0, _ = scenario_defaults()
    truth_rngs = [SeededRng((cfg.base_seed, t)) for t in trial_indices]
    x0_hat = np.array([sample_gaussian(rng, x0, p0) for rng in truth_rngs])
    traj = simulate_truth(model, x0, cfg.n_step, truth_rngs)
    truth, measurements = traj.states, traj.measurements
    trig_rngs = [_trigger_stream(cfg, t, filter_id) for t in trial_indices]
    state, step, triggered = _resolve_filter(filter_id, cfg, fcfg, model, x0_hat, p0)

    count = len(trial_indices)
    estimate = np.full((count, cfg.n_step, model.n), np.nan)
    gamma = np.zeros((count, cfg.n_step), dtype=int)
    iterations = np.zeros((count, cfg.n_step), dtype=int)
    records = [
        TrialRecord(
            trial_index=t,
            filter_id=filter_id,
            truth=truth[i],
            estimate=estimate[i],
            gamma=gamma[i],
            iterations=iterations[i],
        )
        for i, t in enumerate(trial_indices)
    ]

    live = np.arange(count)  # the trials not failed, in trial order
    for k in range(1, cfg.n_step + 1):
        f_k, h_k = model.F(k), model.H(k)
        z_k = measurements[live, k - 1]
        if triggered:
            z_pred = np.matvec(h_k, np.matvec(f_k, state.x_hat))
            outcome = sensor_decide(z_k, z_pred, fcfg.trigger, [trig_rngs[i] for i in live])
        else:
            outcome = TriggerOutcome(gamma=np.ones(live.size, dtype=int), measurement=z_k)
        try:
            state, sweeps = step(state, k, f_k, h_k, outcome)
        except (NotPositiveDefinite, Singular):
            ok = _step_rows_alone(step, state, k, f_k, h_k, outcome, records, live)
            if not ok.any():
                break
            live, state, outcome = live[ok], take_rows(state, ok), take_rows(outcome, ok)
            state, sweeps = step(state, k, f_k, h_k, outcome)
        estimate[live, k - 1] = state.x_hat
        gamma[live, k - 1] = outcome.gamma
        iterations[live, k - 1] = sweeps
    return records


def _step_rows_alone(step, state, k, f_k, h_k, outcome, records, live):
    """Retry a failed lockstep step one row at a time; record the rows that fail again.

    Returns the mask of the rows that went through.
    """
    ok = np.ones(live.size, dtype=bool)
    for row in range(live.size):
        try:
            step(take_rows(state, [row]), k, f_k, h_k, take_rows(outcome, [row]))
        except (NotPositiveDefinite, Singular) as exc:
            record = records[live[row]]
            record.failed, record.fail_step, record.fail_reason = True, k, str(exc)
            ok[row] = False
    return ok


def compute_metrics(records: list[TrialRecord]) -> tuple[float, float, float]:
    """RMSE over all (trial, step, component), transmit rate, mean iterations.

    Failed trials are excluded here; callers count them separately.
    """
    if not records:
        raise ValueError("no trial records")
    ok = [r for r in records if not r.failed]
    if not ok:
        return math.nan, math.nan, math.nan
    sq_sum = 0.0
    count = 0
    gamma_sum = 0
    gamma_count = 0
    iter_sum = 0
    for rec in ok:
        err = rec.estimate - rec.truth
        sq_sum += float(np.sum(err * err))
        count += err.size
        gamma_sum += int(rec.gamma.sum())
        gamma_count += rec.gamma.size
        iter_sum += int(rec.iterations.sum())
    rmse = math.sqrt(sq_sum / count)
    comm_rate = gamma_sum / gamma_count
    mean_iterations = iter_sum / gamma_count
    return rmse, comm_rate, mean_iterations


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Run all filters over the sweep grid; one row per (value, filter).

    Each cell steps its n_mc trials in lockstep and folds their records in
    trial order, so the same config always gives the same rows.
    """
    if cfg.sweep_param is None or not cfg.sweep_grid:
        raise ValueError("run_sweep needs sweep_param and a nonempty sweep_grid")
    rows: list[SweepRow] = []
    for value in cfg.sweep_grid:
        point_cfg = _sweep_point(cfg, value)
        for filter_id in cfg.filters:
            records = run_trials(point_cfg, filter_id, range(cfg.n_mc))
            failures = sum(1 for r in records if r.failed)
            rmse, comm_rate, mean_iter = compute_metrics(records)
            rows.append(
                SweepRow(
                    sweep_value=value,
                    filter=filter_id,
                    rmse=rmse,
                    comm_rate=comm_rate,
                    mean_iterations=mean_iter,
                    failures=failures,
                )
            )
    return rows


def emit_outputs(rows: list[SweepRow], path_prefix: str, cfg: ExperimentConfig) -> list[str]:
    """Write the sweep CSV, per-metric plot-data files, and a config manifest."""
    if not rows:
        raise ValueError("no sweep rows to emit")
    written = []

    csv_path = f"{path_prefix}.csv"
    lines = ["sweep_value,filter,rmse,comm_rate,mean_iterations,failures"]
    for row in rows:
        lines.append(
            f"{row.sweep_value:.12g},{row.filter},{row.rmse:.12g},"
            f"{row.comm_rate:.12g},{row.mean_iterations:.12g},{row.failures}"
        )
    _write_text(csv_path, "\n".join(lines) + "\n")
    written.append(csv_path)

    # Plot-data files: one block per filter, rows sorted by sweep value.
    metrics = {
        "rmse": lambda r: f"{r.sweep_value:.12g} {r.rmse:.12g}",
        "comm_rate": lambda r: (
            f"{r.sweep_value:.12g} {r.comm_rate:.12g} {math.sqrt(r.comm_rate):.12g}"
        ),
        "iterations": lambda r: f"{r.sweep_value:.12g} {r.mean_iterations:.12g}",
    }
    filter_order = list(dict.fromkeys(r.filter for r in rows))
    for name, fmt in metrics.items():
        blocks = []
        for filter_id in filter_order:
            chosen = sorted(
                (r for r in rows if r.filter == filter_id), key=lambda r: r.sweep_value
            )
            blocks.append(f"# {filter_id}\n" + "\n".join(fmt(r) for r in chosen))
        path = f"{path_prefix}_{name}.dat"
        _write_text(path, "\n\n".join(blocks) + "\n")
        written.append(path)

    manifest_path = f"{path_prefix}_manifest.json"
    _write_text(manifest_path, json.dumps(dataclasses.asdict(cfg), indent=2) + "\n")
    written.append(manifest_path)
    return written


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc

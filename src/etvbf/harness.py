"""Monte Carlo experiment runner: trials, metrics, parameter sweeps, outputs.

Trials are deterministic given (config, filter id, trial index). Truth
and noise come from a SeededRng keyed by (base_seed, trial_index) only,
so all filters see identical trajectories (common random numbers), while
a triggered filter draws each trial's trigger uniforms as one table,
random(n_step), from a filter-local SeededRng. All four filters run
through one engine, the sweep loop in run_trials, the one place where
rows leave and join a round.
A row's step is: predict x_hat^-, decide on H x_hat^-, update. A filter id
selects the prediction and update (predict and one sweep a round, or
kf_predict and one measurement_update with nominal or true covariances)
and whether the trigger decides or every row sends. The decisions are
the pair (sent, e) that sweep and measurement_update take: which rows
sent, and the innovation, 0 where silent. Each trial advances in time on
its own, so its record is the same whichever trials it runs with, and a
trial caught in a failed round can be run again alone from its start.
"""

from __future__ import annotations

import dataclasses
import json
import math
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .baselines import KfState, kf_predict
from .distributions import SeededRng, sample_gaussian
from .filter import (
    FilterConfig, initial_state, innovation, measurement_update, posterior, predict, sweep,
    take_rows,
)
from .model import ModelSpec, build_cv_scenario, scenario_defaults, simulate_truth
from .numerics import NotPositiveDefinite, Singular, is_integer, is_real
from .trigger import TriggerConfig, trigger_probability

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
        # The rules of the settings that no object built here takes; the others' are theirs.
        for name, least in (("base_seed", 0), ("n_mc", 1), ("n_step", 1)):
            if not (is_integer(value := getattr(self, name)) and value >= least):
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        for name in ("filters", "sweep_grid", "nominal_q_scales"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):  # no splitting a string
                raise ValueError(f"{name} must be a list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        for name in ("sweep_grid", "nominal_q_scales"):  # each value kept as given
            if bad := [v for v in getattr(self, name) if not is_real(v)]:
                raise ValueError(f"{name} must be a list of real numbers, not of {bad!r}")
        if not (self.nominal_q_scales and min(self.nominal_q_scales) > 0):
            raise ValueError("nominal_q_scales must be a nonempty list of real numbers above 0, "
                             f"got {list(self.nominal_q_scales)!r}")
        if not self.filters:
            raise ValueError(f"filters must name at least one of {FILTER_IDS}")
        if unknown := [f for f in self.filters if f not in FILTER_IDS]:  # compared, not hashed
            raise ValueError(f"filters names unknown ids {unknown}; choose from {FILTER_IDS}")
        for name in ("filters", "sweep_grid"):
            items = getattr(self, name)
            if repeated := sorted({v for v in items if items.count(v) > 1}):
                raise ValueError(f"{name} repeats {repeated}; each cell would run twice")
        if self.sweep_param is None and self.sweep_grid:
            raise ValueError("a sweep_grid needs a sweep_param")
        if self.sweep_param is not None and self.sweep_param not in SWEEP_PARAMS:
            raise ValueError(f"sweep_param must be one of {SWEEP_PARAMS}")
        # The scales of the nominal matrices, kept as given: an int stays an int. Y may be 0.
        for name, zero_ok in (("clset_q_scale", False), ("r_scale", False), ("y_scale", True)):
            value = getattr(self, name)
            if not (is_real(value) and (value > 0 or zero_ok and value == 0)):
                rule = "of at least 0" if zero_ok else "above 0"
                raise ValueError(f"{name} must be one real number {rule}, got {value!r}")
        build_filter_config(self)  # builds the scenario, the FilterConfig and its TriggerConfig
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
    return FilterConfig(
        nominal_q=np.multiply.outer(cfg.nominal_q_scales, np.eye(model.n)),
        dof_g=cfg.dof_g,
        r0=cfg.r_scale * np.eye(model.m),
        s0=cfg.s0,
        alpha0=cfg.alpha0,
        rho=cfg.rho,
        trigger=TriggerConfig(Y=cfg.y_scale * np.eye(model.m)),
        max_iterations=cfg.max_iterations,
        tol=cfg.tol,
    )


def _resolve_filter(filter_id: str, cfg: ExperimentConfig, fcfg: FilterConfig, model: ModelSpec,
                    x0_hat: np.ndarray, p0: np.ndarray):
    """One filter's initial state, begin, advance and finish, and whether the trigger drives it.

    begin(prev, kr, f) returns step kr + 1's work and its prediction x_hat^-.
    The variational filters begin with predict and advance one sweep a
    round; the Kalman baselines begin with kf_predict and advance by one
    measurement_update, with the nominal (clset-kf) or true (oracle) Q, R,
    where a P that overflows is a breakdown.
    """
    if filter_id in (FILTER_ETVBF, FILTER_VBF):
        def begin(state, kr, f):
            it = predict(state, f, fcfg)
            return it, it.x_pred

        return (
            initial_state(x0_hat, p0, fcfg),
            begin,
            lambda it, sent, e, h, kr: sweep(it, sent, e, h, fcfg),
            lambda it: (posterior(it), it.iterations),
            filter_id == FILTER_ETVBF,
        )
    kf_state = KfState(x_hat=x0_hat, P=np.broadcast_to(p0, x0_hat.shape[:1] + p0.shape).copy())
    nominal = filter_id == FILTER_CLSET  # the triggered clset-kf; the oracle gets Q_k, R_k
    q_bar = cfg.clset_q_scale * np.eye(model.n)
    covs = (lambda k: q_bar, lambda k: fcfg.r0) if nominal else (model.trueQ, model.trueR)
    q_tab, r_tab = (np.array([cov(k) for k in range(1, cfg.n_step + 1)]) for cov in covs)

    def begin(state, kr, f):
        work = kf_predict(state, f, q_tab.take(kr, axis=0))
        return work, work.x_hat

    def advance(work, sent, e, h, kr):
        r, y = r_tab.take(kr, axis=0), fcfg.trigger.Y
        work.x_hat, work.P = measurement_update(work.x_hat, work.P, r, e, sent, h, y)[:2]
        if not np.isfinite(work.P).all():  # an overflowed covariance, as a huge Q can make it
            raise NotPositiveDefinite("P: matrix contains non-finite entries")
        return np.ones(sent.size, dtype=bool)

    return kf_state, begin, advance, lambda work: (work, 0), nominal


def run_trial(cfg: ExperimentConfig, filter_id: str, trial_index: int) -> TrialRecord:
    """Simulate one closed sensor-estimator loop for one filter (run_trials of one trial)."""
    return run_trials(cfg, filter_id, [trial_index])[0]


def run_trials(cfg: ExperimentConfig, filter_id: str, trial_indices) -> list[TrialRecord]:
    """Simulate the closed sensor-estimator loops of several trials as one ragged stack.

    Each round advances every row once, each trial at its own step k: a
    row that finishes step k is recorded there and starts k+1 in its place
    for the next round, and a row past n_step leaves. A triggered filter
    draws each trial's n_step trigger uniforms at once from the trial's
    own stream. F_k, H_k (and the oracle's Q_k, R_k) come from tables
    built once per run. Every filter starts from the same estimate, drawn
    from the truth stream before the trajectory, and sees the same truth.
    When a round raises NotPositiveDefinite or Singular, a lone trial is
    recorded failed at its first unrecorded step with the exception text;
    otherwise each trial still running is run again alone from its start,
    which gives the record it has in any stack. A trial index that is not
    a non-negative integer raises ValueError.
    """
    if filter_id not in FILTER_IDS:
        raise ValueError(f"unknown filter id: {filter_id}")
    trial_indices = list(trial_indices)
    bad = [t for t in trial_indices if not is_integer(t) or t < 0]
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
    start, begin, advance, finish, triggered = _resolve_filter(
        filter_id, cfg, fcfg, model, x0_hat, p0
    )
    if triggered:  # one row of draws per trial, from each triggered filter's own streams
        key, n = zlib.crc32(filter_id.encode("utf-8")), cfg.n_step
        zeta = np.array([SeededRng((cfg.base_seed, t, key)).random(n) for t in trial_indices])
    f_tab, h_tab = (np.array([m(k) for k in range(1, cfg.n_step + 1)]) for m in (model.F, model.H))

    count = len(trial_indices)
    estimate = np.full((count, cfg.n_step, model.n), np.nan)
    gamma, iterations = np.zeros((2, count, cfg.n_step), dtype=int)
    records = [
        TrialRecord(t, filter_id, truth[i], estimate[i], gamma[i], iterations[i])
        for i, t in enumerate(trial_indices)
    ]

    def enter(rows, kr, prev):
        """Start step kr + 1 of rows from prev: predict, then decide on H x_hat^-."""
        f, h = f_tab.take(kr, axis=0), h_tab.take(kr, axis=0)
        work, x_pred = begin(prev, kr, f)
        z_k, z_pred = measurements[rows, kr], np.matvec(h, x_pred)
        if triggered:  # sensor_decide's rule, row by row: silent when zeta <= exp(-e'Ye/2)
            sent = zeta[rows, kr] > trigger_probability(z_k - z_pred, fcfg.trigger)
        else:
            sent = np.ones(rows.size, dtype=bool)
        return work, sent, innovation(sent, z_k, z_pred), h

    rows, kr = np.arange(count), np.zeros(count, dtype=int)
    try:
        work, sent, e, h = enter(rows, kr, start)
        while rows.size:  # a round: one advance of every row, each at its own step kr + 1
            done = np.flatnonzero(advance(work, sent, e, h, kr))
            whole = done.size == rows.size
            new, sweeps = finish(work if whole else take_rows(work, done))
            at = rows[done], kr[done]
            estimate[at], gamma[at], iterations[at] = new.x_hat, sent[done], sweeps
            go = kr[done] < cfg.n_step - 1
            if whole and go.all():  # every row starts its next step: the stack is replaced whole
                kr += 1
                work, sent, e, h = enter(rows, kr, new)
                continue
            if (joining := done[go]).size:  # these start their next step in the places they left
                kr[joining] += 1
                joined = enter(rows[joining], kr[joining], take_rows(new, go))
                for array, value in zip((*vars(work).values(), sent, e, h),
                                        (*vars(joined[0]).values(), *joined[1:])):
                    array[joining] = value
            if (leaving := done[~go]).size:  # these finished step n_step: the rest close up
                keep = np.delete(np.arange(rows.size), leaving)
                rows, kr, sent, e, h = rows[keep], kr[keep], sent[keep], e[keep], h[keep]
                work = take_rows(work, keep)
    except (NotPositiveDefinite, Singular) as exc:
        if count == 1:  # at its first unrecorded step
            rec, k = records[0], int(np.isnan(estimate[0, :, 0]).argmax()) + 1
            rec.failed, rec.fail_step, rec.fail_reason = True, k, str(exc)
            return records
        for i in np.flatnonzero(np.isnan(estimate[:, -1, 0])).tolist():
            records[i] = run_trial(cfg, filter_id, trial_indices[i])
        if not any(r.failed for r in records):
            raise  # only trials that fail alone can have failed the round
    return records


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
    for rec in ok:
        err = rec.estimate - rec.truth
        sq_sum += float(np.sum(err * err))
    rmse = math.sqrt(sq_sum / sum(r.estimate.size for r in ok))
    steps = sum(r.gamma.size for r in ok)
    sent, sweeps = (sum(int(getattr(r, f).sum()) for r in ok) for f in ("gamma", "iterations"))
    return rmse, sent / steps, sweeps / steps


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Run all filters over the sweep grid; one row per (value, filter).

    Each cell runs its n_mc trials as one ragged stack and folds their
    records in trial order, so the same config always gives the same rows.
    """
    if cfg.sweep_param is None or not cfg.sweep_grid:
        raise ValueError("run_sweep needs sweep_param and a nonempty sweep_grid")
    rows: list[SweepRow] = []
    for value in cfg.sweep_grid:
        point_cfg = _sweep_point(cfg, value)
        for filter_id in cfg.filters:
            records = run_trials(point_cfg, filter_id, range(cfg.n_mc))
            failures = sum(1 for r in records if r.failed)
            rows.append(SweepRow(value, filter_id, *compute_metrics(records), failures))
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

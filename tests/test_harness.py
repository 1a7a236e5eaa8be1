import dataclasses
import json
import math
import pathlib
import re
import warnings
import zlib

import numpy as np
import pytest

from etvbf import harness
from etvbf.baselines import KfState, kf_predict
from etvbf.cli import PROFILES
from etvbf.cli import main as cli_main
from etvbf.filter import etvbf_step, initial_state, innovation, measurement_update
from etvbf.harness import (
    FILTER_IDS,
    ExperimentConfig,
    TrialRecord,
    build_filter_config,
    compute_metrics,
    emit_outputs,
    run_sweep,
    run_trial,
    run_trials,
)
from etvbf.distributions import SeededRng, sample_gaussian
from etvbf.model import ModelSpec, build_cv_scenario, scenario_defaults, simulate_truth
from etvbf.numerics import NotPositiveDefinite
from etvbf.trigger import TriggerOutcome, sensor_decide

TINY = dict(n_mc=2, n_step=12, base_seed=99)
REAL_FIELDS = ("sample_time", "dof_g", "r_scale", "s0", "alpha0", "rho", "y_scale",
               "clset_q_scale", "tol")
INTEGER_FIELDS = ("base_seed", "n_mc", "n_step", "cosine_period", "max_iterations")
LIST_FIELDS = ("filters", "sweep_grid", "nominal_q_scales")
BAD_REALS = (True, [1.0], None, "1", math.inf, -math.inf, math.nan, 10**400)
BAD_INTEGERS = (True, 2.5, [1], None, "1", -(10**400))
BAD_LISTS = ("x", None, 5, [[1.0]], [True], [None])
GOLDEN_SINGLE_CSV = pathlib.Path(__file__).parent / "data" / "sweep_golden_single.csv"


class TestRunTrial:
    def test_bitwise_deterministic(self):
        cfg = ExperimentConfig(**TINY)
        a = run_trial(cfg, "etvbf", 1)
        b = run_trial(cfg, "etvbf", 1)
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.estimate, b.estimate)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.iterations, b.iterations)

    def test_oracle_always_transmits(self):
        cfg = ExperimentConfig(**TINY)
        rec = run_trial(cfg, "oracle-kf", 0)
        assert np.all(rec.gamma == 1)

    def test_vbf_always_transmits(self):
        cfg = ExperimentConfig(**TINY)
        rec = run_trial(cfg, "vbf", 0)
        assert np.all(rec.gamma == 1)

    def test_common_random_numbers_share_truth(self):
        cfg = ExperimentConfig(**TINY)
        truths = [run_trial(cfg, fid, 3).truth for fid in ("etvbf", "vbf", "clset-kf", "oracle-kf")]
        for other in truths[1:]:
            assert np.array_equal(truths[0], other)

    @pytest.mark.parametrize("filter_id", FILTER_IDS)
    def test_record_is_the_single_state_library_loop(self, filter_id):
        """run_trial's truth, gamma, iterations and estimates are bitwise a hand loop of
        one state: x0_hat and truth from the (base_seed, trial) stream; the prediction
        x_hat^- = F x_hat; for a triggered filter one sensor_decide a step against
        H x_hat^-, from the (base_seed, trial, crc32(filter)) stream, and otherwise every
        outcome sent; then etvbf_step, or kf_predict and measurement_update with the
        nominal (clset-kf) or the true (oracle-kf) covariances."""
        cfg = ExperimentConfig(y_scale=0.015)
        model = build_cv_scenario(cfg.sample_time, cfg.cosine_period)
        fcfg = build_filter_config(cfg)
        x0, p0, _ = scenario_defaults()
        kalman, triggered = filter_id.endswith("-kf"), filter_id in ("etvbf", "clset-kf")
        q_bar = cfg.clset_q_scale * np.eye(model.n)
        for t in range(4):
            rng = SeededRng((cfg.base_seed, t))
            x0_hat = sample_gaussian(rng, x0, p0)
            traj = simulate_truth(model, x0, cfg.n_step, rng)
            trig = SeededRng((cfg.base_seed, t, zlib.crc32(filter_id.encode("utf-8"))))
            state = KfState(x0_hat, p0) if kalman else initial_state(x0_hat, p0, fcfg)
            estimate, gamma, iterations = [], [], []
            for k in range(1, cfg.n_step + 1):
                f, h, z = model.F(k), model.H(k), traj.measurements[k - 1]
                if kalman:
                    oracle = filter_id == "oracle-kf"
                    q, r = (model.trueQ(k), model.trueR(k)) if oracle else (q_bar, fcfg.r0)
                    pred = kf_predict(state, f, q)
                    z_pred = np.matvec(h, pred.x_hat)
                else:
                    z_pred = np.matvec(h, np.matvec(f, state.x_hat))
                if triggered:
                    outcome = sensor_decide(z, z_pred, fcfg.trigger, trig)
                else:
                    outcome = TriggerOutcome(gamma=1, measurement=z)
                if kalman:
                    sent = outcome.gamma == 1
                    e = innovation(sent, outcome.measurement, z_pred)
                    update = measurement_update(pred.x_hat, pred.P, r, e, sent, h, fcfg.trigger.Y)
                    state = KfState(*update[:2])
                    iterations.append(0)
                else:
                    state, diag = etvbf_step(state, f, h, outcome, fcfg)
                    iterations.append(diag.iterations)
                estimate.append(state.x_hat)
                gamma.append(outcome.gamma)
            rec = run_trial(cfg, filter_id, t)
            assert not rec.failed
            assert rec.truth.tobytes() == traj.states.tobytes()
            assert rec.gamma.tolist() == gamma
            assert rec.iterations.tolist() == iterations
            assert rec.estimate.tobytes() == np.array(estimate).tobytes()

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError):
            run_trial(ExperimentConfig(**TINY), "nope", 0)

    def test_trial_csv(self, tmp_path):
        cfg = ExperimentConfig(**TINY)
        rec = run_trial(cfg, "etvbf", 0)
        path = tmp_path / "trial.csv"
        rec.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == cfg.n_step + 1
        assert lines[0].startswith("k,x1")


def assert_same_record(a, b):
    assert (a.trial_index, a.filter_id) == (b.trial_index, b.filter_id)
    assert (a.failed, a.fail_step, a.fail_reason) == (b.failed, b.fail_step, b.fail_reason)
    for field in ("truth", "estimate", "gamma", "iterations"):
        assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True), field


# Each filter at the default sweep settings, and the variational filters under
# a budget of 1 and 4 sweeps at a loose tolerance.
BATCH_CASES = [pytest.param(f, {}, id=f) for f in FILTER_IDS] + [
    pytest.param(f, {"max_iterations": budget, "tol": 1e-3}, id=f"{f}-budget-{budget}")
    for f in ("etvbf", "vbf")
    for budget in (1, 4)
]


class TestLockstep:
    @pytest.mark.parametrize("filter_id, sweeps", BATCH_CASES)
    def test_record_independent_of_batch(self, filter_id, sweeps):
        """A trial's record is bitwise the same alone, with 2 other trials and with 19.

        Under the 4-sweep budget, rows of one step stop both at the budget
        and below it, so rows leave a round apart.
        """
        cfg = ExperimentConfig(n_step=40, y_scale=0.005, base_seed=31, **sweeps)
        twenty = run_trials(cfg, filter_id, range(20))
        gammas = np.array([r.gamma for r in twenty])
        mixed_steps = np.any(gammas != gammas[0], axis=0)
        assert mixed_steps.any() == (filter_id in ("etvbf", "clset-kf"))
        if cfg.max_iterations == 4:
            at_budget = np.array([r.iterations for r in twenty]) == 4
            assert np.any(at_budget.any(axis=0) & ~at_budget.all(axis=0))
        for t in (0, 7, 19):
            assert_same_record(twenty[t], run_trial(cfg, filter_id, t))
            trio = run_trials(cfg, filter_id, [(t + 5) % 20, t, (t + 11) % 20])
            assert_same_record(twenty[t], trio[1])

    @pytest.mark.parametrize("filter_id", FILTER_IDS)
    def test_no_trials_give_no_records(self, filter_id):
        assert run_trials(ExperimentConfig(**TINY), filter_id, []) == []

    @pytest.mark.parametrize("index", [-1, 2.5, True])
    def test_bad_trial_index_rejected_by_name(self, index):
        with pytest.raises(ValueError, match=rf"non-negative integers, got \[{index}\]"):
            run_trials(ExperimentConfig(**TINY), "clset-kf", [0, index])

    def test_failing_row_is_recorded_alone(self, monkeypatch):
        """A row forced to raise at step 5 fails there alone; the other rows go on unchanged."""
        check_failing_row_recorded_alone(monkeypatch, "etvbf", "predict", [(3, 5)])

    def test_row_failing_mid_step_beside_rows_at_other_steps(self, monkeypatch):
        """A row that breaks in the second sweep of step 4 fails there alone.

        The round that raises holds rows at other steps, and each of those
        starts its own step again and goes on unchanged.
        """
        clean = run_trials(ExperimentConfig(n_step=12, base_seed=5), "etvbf", [2])[0]
        assert clean.iterations[3] >= 2  # the step is still sweeping when it breaks
        _, raised = check_failing_row_recorded_alone(
            monkeypatch, "etvbf", "sweep", [(2, 4)], mid_step=True
        )
        assert len(np.unique(raised[0].s_prior)) > 1  # s_prior is one value per step k

    @pytest.mark.parametrize("filter_id", ["clset-kf", "oracle-kf"])
    def test_failing_kalman_row_is_recorded_alone(self, monkeypatch, filter_id):
        """Both Kalman baselines begin with kf_predict and retry rows alone with 0 sweeps."""
        records, _ = check_failing_row_recorded_alone(
            monkeypatch, filter_id, "kf_predict", [(3, 5)]
        )
        assert not any(r.iterations.any() for r in records)

    @pytest.mark.parametrize(
        "failures", [[(1, 4), (4, 8)], [(t, 6) for t in range(6)]], ids=["two-rows", "every-row"]
    )
    @pytest.mark.parametrize("filter_id", ["etvbf", "clset-kf", "oracle-kf"])
    def test_failure_sequences_are_recorded_alone(self, monkeypatch, filter_id, failures):
        """Rows failing at different steps, or every row at one step, are each recorded alone."""
        name = "predict" if filter_id == "etvbf" else "kf_predict"
        check_failing_row_recorded_alone(monkeypatch, filter_id, name, failures)

    def test_round_failure_no_trial_repeats_alone_is_raised(self, monkeypatch):
        """A breakdown met only by stacks of two or more rows is no trial's failure: each
        trial runs clean alone, so the round's exception is raised, not recorded."""
        real = harness.sweep

        def stacked_only(it, *args):
            if it.iterations.size >= 2:
                raise NotPositiveDefinite("stack breakdown")
            return real(it, *args)

        monkeypatch.setattr(harness, "sweep", stacked_only)
        with pytest.raises(NotPositiveDefinite, match="stack breakdown"):
            run_trials(ExperimentConfig(**TINY), "etvbf", range(4))


class TestRaggedEngine:
    def test_rounds_follow_the_slowest_trial_not_each_steps_slowest_row(self, monkeypatch):
        """Each trial advances on its own, so the engine runs as many sweep rounds as the
        largest per-trial sum of sweeps, not the sum over k of each step's largest count."""
        rows_per_round, whole_rounds = [], []
        real = harness.sweep

        def spy(it, *args):
            rows_per_round.append(it.iterations.size)
            done = real(it, *args)
            whole_rounds.append(bool(done.all()))
            return done

        monkeypatch.setattr(harness, "sweep", spy)
        records = run_trials(ExperimentConfig(y_scale=0.005), "etvbf", range(20))
        sweeps = np.array([r.iterations for r in records])
        assert len(rows_per_round) == sweeps.sum(axis=1).max()
        assert len(rows_per_round) < sweeps.max(axis=0).sum()
        assert sum(rows_per_round) == sweeps.sum()  # every row sweep runs once
        # Both of the loop's paths run: the stack replaced whole, and rows joining in place.
        assert any(whole_rounds) and not all(whole_rounds)

    @pytest.mark.parametrize("filter_id", ["clset-kf", "oracle-kf"])
    def test_kalman_rounds_are_whole_steps(self, monkeypatch, filter_id):
        """A Kalman row finishes its step in one update, so every round is one step of all
        the rows."""
        rows_per_round = []
        real = harness.measurement_update

        def spy(x_hat, *args):
            rows_per_round.append(len(x_hat))
            return real(x_hat, *args)

        monkeypatch.setattr(harness, "measurement_update", spy)
        cfg = ExperimentConfig(n_step=30, base_seed=3)
        run_trials(cfg, filter_id, range(7))
        assert rows_per_round == [7] * cfg.n_step


def check_failing_row_recorded_alone(monkeypatch, filter_id, name, failures, mid_step=False):
    """Force harness.<name> to raise on each (trial, step) and check every record.

    An engine round and a row's retry alone both call it. A trial's
    estimate entering a step marks that trial at that step: as the state
    given to predict or kf_predict, or, mid_step, as F times it, the
    x_pred that a sweep refines, from the step's second sweep on. Returns
    the records, and the first argument of every call that raised.
    """
    cfg = ExperimentConfig(n_step=12, base_seed=5)
    clean = run_trials(cfg, filter_id, range(6))
    targets = np.array([clean[t].estimate[k - 2] for t, k in failures])
    if mid_step:
        targets = np.matvec(build_cv_scenario(cfg.sample_time, cfg.cosine_period).F(1), targets)
    real = getattr(harness, name)
    raised = []

    def forced(work, *args):
        marks = work.x_pred if mid_step else work.x_hat
        hit = np.all(marks[..., None, :] == targets, axis=-1).any(axis=-1)
        if (hit & (work.iterations >= 1) if mid_step else hit).any():
            raised.append(work)
            raise NotPositiveDefinite("forced breakdown")
        return real(work, *args)

    monkeypatch.setattr(harness, name, forced)
    records = run_trials(cfg, filter_id, range(6))
    fail_steps = dict(failures)
    assert [r.fail_step for r in records] == [fail_steps.get(t) for t in range(6)]
    for t, k in failures:
        assert (records[t].failed, records[t].fail_reason) == (True, "forced breakdown")
        assert_same_record(records[t], run_trial(cfg, filter_id, t))
        assert np.isnan(records[t].estimate[k - 1 :]).all()
    others = [t for t in range(6) if t not in fail_steps]
    for got, expected in zip([records[t] for t in others], run_trials(cfg, filter_id, others)):
        assert_same_record(got, expected)
    return records, raised


class TestTruth:
    def test_each_trial_keeps_its_own_stream(self):
        """A trial's truth is sample_gaussian, then simulate_truth, on its one stream."""
        cfg = ExperimentConfig(**TINY)
        model = build_cv_scenario(cfg.sample_time, cfg.cosine_period)
        x0, p0, _ = scenario_defaults()
        for record in run_trials(cfg, "clset-kf", [4, 0, 2]):
            rng = SeededRng((cfg.base_seed, record.trial_index))
            sample_gaussian(rng, x0, p0)
            alone = simulate_truth(model, x0, cfg.n_step, rng)
            assert np.array_equal(record.truth, alone.states)

    def test_true_covariances_built_once_per_run(self, monkeypatch):
        """All trials of a run share one truth simulation: n_step trueQ/trueR calls, not per trial."""
        calls = {"trueQ": 0, "trueR": 0}

        def counted(name, fn):
            def wrapped(k):
                calls[name] += 1
                return fn(k)

            return wrapped

        def scenario(*args):
            cv = build_cv_scenario(*args)
            return dataclasses.replace(
                cv, trueQ=counted("trueQ", cv.trueQ), trueR=counted("trueR", cv.trueR)
            )

        monkeypatch.setattr(harness, "build_cv_scenario", scenario)
        cfg = ExperimentConfig(n_step=30, base_seed=3)
        records = run_trials(cfg, "clset-kf", range(20))
        assert len(records) == 20
        assert calls == {"trueQ": cfg.n_step, "trueR": cfg.n_step}


class TestDimensionChecks:
    @pytest.mark.parametrize(
        "x0_hat, p0, match",
        [
            (np.zeros(3), np.eye(4), "nominal_q dimension"),
            (np.zeros((2, 4)), np.eye(5), "nominal_q dimension"),
            (np.zeros(4), np.eye(4) + np.triu(np.ones((4, 4)), 1), "p0 must be symmetric"),
            (np.zeros((2, 4)), np.diag([1.0, 1.0, 1.0, -1.0]), "p0 must be positive definite"),
            (np.zeros(4), np.full((4, 4), np.nan), "p0 contains non-finite"),
        ],
        ids=["x0_hat", "p0", "p0-asymmetric", "p0-indefinite", "p0-nan"],
    )
    def test_mismatch_rejected_before_first_step(self, x0_hat, p0, match):
        fcfg = build_filter_config(ExperimentConfig(**TINY))
        with pytest.raises(ValueError, match=match):
            initial_state(x0_hat, p0, fcfg)

    def test_three_measurement_scenario_runs_every_filter(self, monkeypatch):
        """Y and r0 are sized by the scenario, so a 3-measurement model runs all four filters."""
        cv = build_cv_scenario(1.0, 500)
        three_rows = ModelSpec(
            n=4, m=3, F=cv.F, H=lambda k: np.eye(3, 4), trueQ=cv.trueQ,
            trueR=lambda k: 100.0 * np.eye(3),
        )
        monkeypatch.setattr(harness, "build_cv_scenario", lambda *args: three_rows)
        cfg = ExperimentConfig(**TINY)
        fcfg = build_filter_config(cfg)
        assert fcfg.trigger.Y.shape == fcfg.r0.shape == (3, 3)
        for filter_id in FILTER_IDS:
            records = run_trials(cfg, filter_id, range(2))
            assert not any(r.failed for r in records), filter_id
            assert all(np.isfinite(r.estimate).all() for r in records), filter_id


def _synthetic_record(err, gamma, iters, n_step=4, n=2):
    truth = np.zeros((n_step, n))
    return TrialRecord(
        trial_index=0,
        filter_id="etvbf",
        truth=truth,
        estimate=truth + err,
        gamma=np.full(n_step, gamma, dtype=int),
        iterations=np.full(n_step, iters, dtype=int),
    )


class TestComputeMetrics:
    def test_zero_error(self):
        rmse, comm, iters = compute_metrics([_synthetic_record(0.0, 1, 2)])
        assert rmse == 0.0
        assert comm == 1.0
        assert iters == 2.0

    def test_unit_error_everywhere(self):
        rmse, _, _ = compute_metrics([_synthetic_record(1.0, 0, 1)])
        assert rmse == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    def test_failed_trials_excluded(self):
        good = _synthetic_record(1.0, 1, 1)
        bad = _synthetic_record(100.0, 0, 0)
        bad.failed = True
        rmse, comm, _ = compute_metrics([good, bad])
        assert rmse == pytest.approx(1.0)
        assert comm == 1.0


class TestRunSweep:
    def test_single_cell(self):
        cfg = ExperimentConfig(
            n_mc=1, n_step=8, sweep_param="y", sweep_grid=(0.01,), filters=("clset-kf",)
        )
        rows = run_sweep(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.filter == "clset-kf"
        assert row.sweep_value == 0.01
        assert row.failures == 0
        assert 0.0 <= row.comm_rate <= 1.0
        assert np.isfinite(row.rmse)

    def test_requires_sweep_settings(self):
        with pytest.raises(ValueError):
            run_sweep(ExperimentConfig(**TINY))

    def test_zero_trigger_weight_is_a_grid_point(self):
        """y = 0 is a valid y_scale, so it is a valid grid value; the sensor then never sends."""
        cfg = ExperimentConfig(
            n_mc=2, n_step=8, sweep_param="y", sweep_grid=(0.0, 0.05), filters=("clset-kf",)
        )
        rows = run_sweep(cfg)
        assert [r.sweep_value for r in rows] == [0.0, 0.05]
        assert rows[0].comm_rate == 0.0
        assert rows[1].comm_rate > 0.0

    def test_rows_per_value_and_filter(self):
        cfg = ExperimentConfig(
            n_mc=1,
            n_step=8,
            sweep_param="r",
            sweep_grid=(10.0, 300.0),
            filters=("clset-kf", "oracle-kf"),
        )
        rows = run_sweep(cfg)
        assert [(r.sweep_value, r.filter) for r in rows] == [
            (10.0, "clset-kf"),
            (10.0, "oracle-kf"),
            (300.0, "clset-kf"),
            (300.0, "oracle-kf"),
        ]

    def test_single_component_bank_matches_golden(self, tmp_path):
        """A one-component bank runs the general mixture path; its CSV is pinned."""
        cfg = ExperimentConfig(
            nominal_q_scales=(4.0,),
            n_mc=4,
            n_step=25,
            sweep_param="y",
            sweep_grid=(0.015,),
            filters=("etvbf",),
        )
        emit_outputs(run_sweep(cfg), str(tmp_path / "single"), cfg)
        assert (tmp_path / "single.csv").read_bytes() == GOLDEN_SINGLE_CSV.read_bytes()


class TestEmitOutputs:
    def _rows_and_cfg(self):
        cfg = ExperimentConfig(
            n_mc=1, n_step=8, sweep_param="y", sweep_grid=(0.005, 0.05), filters=("clset-kf",)
        )
        return run_sweep(cfg), cfg

    def test_csv_layout(self, tmp_path):
        rows, cfg = self._rows_and_cfg()
        emit_outputs(rows, str(tmp_path / "out"), cfg)
        lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert lines[0] == "sweep_value,filter,rmse,comm_rate,mean_iterations,failures"
        assert len(lines) == 3

    def test_plot_data_blocks_sorted(self, tmp_path):
        rows, cfg = self._rows_and_cfg()
        emit_outputs(rows, str(tmp_path / "out"), cfg)
        body = (tmp_path / "out_rmse.dat").read_text()
        assert body.startswith("# clset-kf\n")
        values = [float(line.split()[0]) for line in body.splitlines() if line and not line.startswith("#")]
        assert values == sorted(values)

    def test_manifest_roundtrip_reproduces_rows(self, tmp_path):
        rows, cfg = self._rows_and_cfg()
        emit_outputs(rows, str(tmp_path / "out"), cfg)
        data = json.loads((tmp_path / "out_manifest.json").read_text())
        replayed = run_sweep(ExperimentConfig.from_dict(data))
        assert replayed == rows

    def test_empty_rows_rejected(self, tmp_path):
        _, cfg = self._rows_and_cfg()
        with pytest.raises(ValueError):
            emit_outputs([], str(tmp_path / "out"), cfg)


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"n_mc": 3, "bogus": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_mc=0)
        with pytest.raises(ValueError):
            ExperimentConfig(filters=("etvbf", "bogus"))
        with pytest.raises(ValueError):
            ExperimentConfig(sweep_param="q")

    @pytest.mark.parametrize(
        "bad",
        [
            {"dof_g": 2.0},
            {"dof_g": 3.0},
            {"s0": -1.0},
            {"s0": 0.0},
            {"r_scale": -150.0},
            {"r_scale": 0.0},
            {"y_scale": -0.015},
            {"sample_time": 1e-300},
            {"sample_time": 1e-120},
            {"sample_time": 1e-110},
            {"sample_time": 1e103},
            {"sample_time": 1e150},
            {"sample_time": 1e200},
            {"cosine_period": 10**309},
            {"cosine_period": 10**400},
            {"y_scale": -1e-13},
            {"nominal_q_scales": [-1.0, 2.0]},
            {"nominal_q_scales": []},
            {"sweep_param": "r", "sweep_grid": [10.0, -1.0]},
        ],
    )
    def test_out_of_domain_tuning_rejected_at_construction(self, bad):
        """A ValueError names the field, not a matrix built from it (r0 = r_scale I, Y =
        y_scale I, the bank of nominal_q_scales), and a grid value the field it sets. An
        overflowing or underflowing scenario raises no other error."""
        name = harness.SWEEP_FIELDS[bad["sweep_param"]] if "sweep_param" in bad else next(iter(bad))
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "edge",
        [{"sample_time": 1e-105}, {"sample_time": 1e102}, {"cosine_period": 10**308}],
        ids=["sample-time-1e-105", "sample-time-1e102", "cosine-period-1e308"],
    )
    def test_scenario_edges_run_every_filter(self, edge):
        """The extremes the scenario's rules accept run all four filters with no uncaught
        error or numpy warning; a filter may record its breakdown."""
        cfg = ExperimentConfig(n_step=10, **edge)
        for filter_id in FILTER_IDS:
            records = run_trials(cfg, filter_id, range(2))
            assert [r.trial_index for r in records] == [0, 1]

    @pytest.mark.parametrize(
        "bad",
        [
            {"sweep_param": "rho", "sweep_grid": (0.9, 1.5)},
            {"sweep_param": "r", "sweep_grid": (0.0,)},
            {"sweep_param": "y", "sweep_grid": (-0.01,)},
            {"sweep_grid": (0.01,)},
            {"sample_time": 0.0},
            {"cosine_period": 0},
            {"clset_q_scale": -4.0},
            {"clset_q_scale": 0.0},
            {"base_seed": -1},
            {"filters": ("clset-kf", "etvbf", "clset-kf")},
            {"sweep_param": "y", "sweep_grid": (0.01, 0.05, 0.01)},
            {"tol": math.nan},
            {"dof_g": math.nan},
            {"alpha0": math.nan},
            {"sample_time": math.nan},
            {"cosine_period": math.nan},
            {"n_mc": 2.5},
            {"n_step": 2.5},
            {"max_iterations": 2.5},
            {"cosine_period": 2.5},
            {"base_seed": 1.5},
            {"filters": ()},
            {"sample_time": math.inf},
            {"dof_g": math.inf},
            {"s0": math.inf},
            {"alpha0": math.inf},
            {"dof_g": 1e308},
            {"alpha0": 1e308},
            {"clset_q_scale": math.inf},
            {"nominal_q_scales": "1239"},
            {"filters": "etvbf"},
            {"sweep_param": "r", "sweep_grid": "12"},
            {"tol": math.inf},
            {"r_scale": [1.0, 2.0]},
            {"y_scale": [0.01, 0.02]},
            {"r_scale": [1.0, 2.0, 3.0]},
            {"s0": [5.0]},
            {"rho": [0.997]},
            {"tol": [1e-6]},
            {"sample_time": [1.0]},
            {"clset_q_scale": [4.0]},
            {"rho": True},
            {"dof_g": np.array([10.0])},
            {"alpha0": "1"},
            {"sweep_param": "rho", "sweep_grid": [True]},
            {"sweep_param": "r", "sweep_grid": [[1.0, 2.0]]},
            {"nominal_q_scales": [[1.0], 2.0]},
            {"clset_q_scale": 10**400},
        ],
        ids=[
            "rho-grid-above-1", "r-grid-zero", "y-grid-negative", "grid-without-param",
            "sample-time-zero", "cosine-period-zero", "clset-q-negative", "clset-q-zero",
            "seed-negative", "filter-repeated", "grid-value-repeated", "tol-nan", "dof-g-nan",
            "alpha0-nan", "sample-time-nan", "cosine-period-nan", "n-mc-fraction",
            "n-step-fraction", "max-iterations-fraction", "cosine-period-fraction",
            "seed-fraction", "filters-empty", "sample-time-inf", "dof-g-inf", "s0-inf",
            "alpha0-inf", "dof-g-1e308", "alpha0-1e308", "clset-q-inf", "q-scales-string",
            "filters-string", "grid-string", "tol-inf", "r-scale-list", "y-scale-list",
            "r-scale-list-of-3", "s0-list", "rho-list", "tol-list", "sample-time-list",
            "clset-q-list", "rho-bool", "dof-g-array", "alpha0-string", "rho-grid-bool",
            "r-grid-nested", "q-scales-nested", "clset-q-huge-int",
        ],
    )
    def test_rejected_when_built(self, bad):
        """Every grid point is checked by its field's own rule, and no setting waits for a trial."""
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "name",
        ["sample_time", "dof_g", "r_scale", "s0", "alpha0", "rho", "y_scale", "clset_q_scale",
         "tol"],
    )
    def test_real_setting_rejected_by_name(self, name):
        """A list for a real-valued setting, as a --config file can give, raises a
        ValueError naming the field: not numpy's broadcast error, a TypeError, or a run
        with a diagonal built from the list."""
        with pytest.raises(ValueError, match=f"{name} must be one real number"):
            ExperimentConfig(**{name: [1.0, 2.0]})

    @pytest.mark.parametrize(
        "name, value",
        [
            *((name, value) for name in REAL_FIELDS for value in BAD_REALS),
            *((name, value) for name in INTEGER_FIELDS for value in BAD_INTEGERS),
            *((name, value) for name in LIST_FIELDS for value in BAD_LISTS),
        ],
    )
    def test_every_field_rejects_a_bad_value_by_name(self, name, value):
        """Each field's one rule, wherever it is written, raises a ValueError naming the
        field: no TypeError, OverflowError or numpy warning gets there first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=name):
                ExperimentConfig(**{"sweep_param": "y", name: value})

    def test_real_setting_is_kept_as_given(self):
        """A real setting is checked, not converted: one given as an int stays an int in
        the manifest."""
        cfg = ExperimentConfig(r_scale=150)
        assert json.dumps(dataclasses.asdict(cfg)["r_scale"]) == "150"

    @pytest.mark.parametrize(
        "name, value", [("dof_g", 1e300), ("alpha0", 1e300), ("s0", 1e306)],
        ids=["dof_g", "alpha0", "s0"],
    )
    def test_large_finite_prior_runs_clean(self, name, value):
        """A dof_g or alpha0 of 1e300 keeps its derived terms finite: its trials run with
        no numpy warning (the suite turns one into an error) and no failure. So does an
        s0 of 1e306, whose finite s0 * r0 builds: the scale S = S_prior + B, with entries
        near 1e306, is symmetrized without forming an overflowing S + S^T."""
        cfg = ExperimentConfig(n_step=10, **{name: value})
        for filter_id in ("etvbf", "vbf"):
            records = run_trials(cfg, filter_id, range(2))
            assert not any(r.failed for r in records), filter_id
            assert all(np.isfinite(r.estimate).all() for r in records), filter_id

    def test_overflowing_iterate_is_a_recorded_breakdown(self):
        """dof_g = 2e305 passes the construction rule, but trial 1's p_tilde overflows at
        step 4 (at 1e305 both trials run clean): run_trials records that failure, naming
        p_tilde, and does not raise. The overflow warns, which the suite would otherwise
        turn into an error."""
        cfg = ExperimentConfig(n_step=10, dof_g=2e305)
        with pytest.warns(RuntimeWarning):
            records = run_trials(cfg, "etvbf", range(2))
            alone = run_trial(cfg, "etvbf", 1)
        assert not records[0].failed and np.isfinite(records[0].estimate).all()
        assert (records[1].failed, records[1].fail_step) == (True, 4)
        assert records[1].fail_reason.startswith("p_tilde: ")
        assert "non-finite" in records[1].fail_reason
        assert_same_record(records[1], alone)

    def test_non_spd_predicted_covariance_is_a_recorded_breakdown(self):
        """At sample_time = 1e102, which the scenario's rule accepts, p_tilde is finite
        but not numerically SPD: every variational trial is recorded failed at step 1,
        naming p_tilde, with no uncaught LinAlgError. Trial 4's p_tilde alone passes the
        Cholesky check and is singular to the inverse, which is named the same way."""
        cfg = ExperimentConfig(n_step=10, sample_time=1e102)
        for filter_id in ("etvbf", "vbf"):
            records = run_trials(cfg, filter_id, range(5))
            assert [(r.failed, r.fail_step) for r in records] == [(True, 1)] * 5
            assert all(r.fail_reason.startswith("p_tilde: ") for r in records), filter_id

    @pytest.mark.parametrize("sample_time", [1e10, 1e15], ids=["1e10", "1e15"])
    def test_non_spd_bank_is_a_named_breakdown(self, sample_time):
        """At a sample_time of 1e10 or 1e15, F P F^T grows until predict's bank
        fpf + Qbar_j, or the p_tilde built from it, is not numerically SPD: every
        variational trial is recorded failed, naming the matrix, not a bare
        "matrix is not positive definite"."""
        cfg = ExperimentConfig(n_step=10, sample_time=sample_time)
        for filter_id in ("etvbf", "vbf"):
            records = run_trials(cfg, filter_id, range(3))
            assert all(r.failed for r in records), filter_id
            reasons = [r.fail_reason for r in records]
            assert all(r.startswith(("fpf + nominal_q: ", "p_tilde: ")) for r in reasons), reasons

    def test_overflowing_kalman_covariance_is_a_recorded_breakdown(self):
        """clset_q_scale = 1e308 builds. Step 1's update keeps P finite, as its H P H^T,
        near 1e308, is symmetrized without forming H P H^T + (H P H^T)^T; step 2's
        prediction F P F^T + Q then overflows: every clset-kf trial is recorded failed
        there, naming P, and the cell counts them, where it used to report a NaN rmse with
        no failures."""
        cfg = ExperimentConfig(n_mc=3, n_step=10, clset_q_scale=1e308, filters=["clset-kf"],
                               sweep_param="y", sweep_grid=[0.015])
        with pytest.warns(RuntimeWarning):
            (row,) = run_sweep(cfg)
            records = run_trials(cfg, "clset-kf", range(3))
        assert row.failures == 3 and math.isnan(row.rmse)
        assert [(r.failed, r.fail_step) for r in records] == [(True, 2)] * 3
        assert {r.fail_reason for r in records} == {"P: matrix contains non-finite entries"}

    @pytest.mark.parametrize("dof_g", [1e306, 1e307])
    def test_dof_bound_is_the_scaled_bank(self, dof_g):
        """Only the scaled bank dof_g * nominal_q bounds dof_g when built: 1.8e307 times
        the largest nominal scale, 10, overflows. Below that, 1e306 and 1e307 build, and
        dof_g F P F^T overflows p_tilde in step 1's first sweep: run_trials records every
        trial failed there, naming p_tilde, and does not raise."""
        with pytest.raises(ValueError, match="scaled bank"):
            ExperimentConfig(n_step=10, dof_g=1.8e307)
        cfg = ExperimentConfig(n_step=10, dof_g=dof_g)
        with pytest.warns(RuntimeWarning, match="overflow"):
            records = run_trials(cfg, "etvbf", range(2))
        assert [(r.failed, r.fail_step) for r in records] == [(True, 1), (True, 1)]
        assert {r.fail_reason for r in records} == {"p_tilde: matrix contains non-finite entries"}

    @pytest.mark.parametrize(
        "bad, product",
        [
            ({"s0": 1e307}, "s0 * r0"),
            ({"r_scale": 1e308}, "s0 * r0"),
            ({"nominal_q_scales": [1e308]}, "dof_g * nominal_q"),
            ({"alpha0": 1e308}, "M * alpha0"),
        ],
    )
    def test_overflowing_product_rejected_by_name(self, bad, product):
        """A product of finite settings that overflows is rejected when built, naming the
        product (1e307 * 150, 5 * 1e308, 10 * 1e308, 5 * 1e308). No OverflowError or
        numpy warning comes first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(product)):
                ExperimentConfig(**bad)

    @pytest.mark.parametrize("rho", [1e-5, 1e-20])
    def test_underflowing_concentration_is_a_recorded_breakdown(self, rho):
        """A tiny rho decays the Dirichlet concentration rho^k of a component whose weight
        is 0 until it underflows; at 1e-20 it passes through subnormals, whose 1/x would
        overflow in digamma. run_trials records every trial failed at its own step,
        naming alpha, and neither raises nor warns (the suite turns a warning into an
        error)."""
        cfg = ExperimentConfig(n_step=80, rho=rho)
        records = run_trials(cfg, "etvbf", range(5))
        assert all(r.failed and r.fail_reason.startswith("alpha: ") for r in records)
        assert_same_record(records[2], run_trial(cfg, "etvbf", 2))

    @pytest.mark.parametrize(
        "bad",
        [{"nominal_q_scales": "1239"}, {"filters": "etvbf"}, {"sweep_grid": "0.5"}],
        ids=["nominal_q_scales", "filters", "sweep_grid"],
    )
    def test_string_for_a_list_rejected_by_name(self, bad):
        """A JSON string where a list belongs is not split into its characters."""
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be a list"):
            ExperimentConfig.from_dict({"sweep_param": "y", **bad})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_mc", True), ("n_step", True), ("cosine_period", True), ("base_seed", False),
            ("max_iterations", True),
        ],
    )
    def test_bool_is_not_an_integer(self, name, value):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: value})

    def test_roundtrip_through_dict(self):
        cfg = ExperimentConfig(**TINY)
        again = ExperimentConfig.from_dict(dataclasses.asdict(cfg))
        assert again == cfg


class TestCli:
    def test_simulate(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = cli_main(
            ["simulate", "--filter", "etvbf", "--steps", "8", "--out", str(out)]
        )
        assert code == 0
        assert (tmp_path / "sim_trial.csv").exists()

    def test_sweep_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli_main(
            [
                "sweep",
                "--param",
                "y",
                "--grid",
                "0.01",
                "--filters",
                "clset-kf",
                "--mc",
                "1",
                "--steps",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        for suffix in (".csv", "_rmse.dat", "_comm_rate.dat", "_iterations.dat", "_manifest.json"):
            assert (tmp_path / f"sweep{suffix}").exists()

    def test_sweep_prints_table(self, tmp_path, capsys):
        """sweep prints one row per (grid value, filter): the value, then the filter id."""
        code = cli_main(
            ["sweep", "--param", "y", "--grid", "0.0005,0.015", "--filters",
             "clset-kf,oracle-kf", "--mc", "1", "--steps", "8", "--out", str(tmp_path / "sw")]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["sweep_value", "filter"]
        rows = [line.split()[:2] for line in lines[1:5]]
        assert rows == [["0.0005", "clset-kf"], ["0.0005", "oracle-kf"],
                        ["0.015", "clset-kf"], ["0.015", "oracle-kf"]]

    def test_config_file_with_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_mc": 1, "wrong_key": 2}))
        with pytest.raises(ValueError, match="unknown config keys"):
            cli_main(
                [
                    "sweep",
                    "--param",
                    "y",
                    "--grid",
                    "0.01",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(tmp_path / "x"),
                ]
            )

    @pytest.mark.parametrize("grid", ["", "0.1,,0.2"])
    def test_sweep_rejects_empty_grid_values(self, tmp_path, grid):
        out = tmp_path / "x"
        with pytest.raises(ValueError, match="--grid"):
            cli_main(["sweep", "--param", "y", "--grid", grid, "--filters", "clset-kf",
                      "--mc", "1", "--steps", "8", "--out", str(out)])
        assert not list(tmp_path.iterdir())

    def test_unknown_filter_names_the_valid_ids(self, tmp_path):
        with pytest.raises(ValueError, match="bogus") as excinfo:
            cli_main(
                ["sweep", "--param", "y", "--grid", "0.01", "--filters", "bogus",
                 "--out", str(tmp_path / "x")]
            )
        for filter_id in FILTER_IDS:
            assert filter_id in str(excinfo.value)

    def test_sweep_replays_its_manifest_grid(self, tmp_path, capsys):
        """A sweep without --grid takes the --config file's grid when the file sweeps the
        same param, so a manifest replays its run byte for byte; for another param the
        profile's grid is used."""
        cli_main(["sweep", "--param", "y", "--grid", "0.015", "--filters", "clset-kf",
                  "--mc", "2", "--steps", "8", "--out", str(tmp_path / "a")])
        manifest = str(tmp_path / "a_manifest.json")
        cli_main(["sweep", "--param", "y", "--config", manifest, "--out", str(tmp_path / "b")])
        for suffix in (".csv", "_rmse.dat", "_comm_rate.dat", "_iterations.dat",
                       "_manifest.json"):
            assert (tmp_path / f"b{suffix}").read_bytes() == (tmp_path / f"a{suffix}").read_bytes()
        cli_main(["sweep", "--param", "r", "--config", manifest, "--out", str(tmp_path / "c")])
        grid = json.loads((tmp_path / "c_manifest.json").read_text())["sweep_grid"]
        assert grid == list(PROFILES["desk"]["grids"]["r"])

    def test_sweep_takes_r_scale_from_config(self, tmp_path, capsys):
        """A y sweep at one r: r_scale comes from the config file, y from the grid."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"r_scale": 10.0}))
        code = cli_main(
            ["sweep", "--param", "y", "--grid", "0.015", "--filters", "clset-kf", "--mc", "1",
             "--steps", "8", "--config", str(cfg_path), "--out", str(tmp_path / "sw")]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "sw_manifest.json").read_text())
        assert manifest["r_scale"] == 10.0
        assert manifest["sweep_grid"] == [0.015]

    def test_sweep_takes_y_scale_from_config(self, tmp_path, capsys):
        """An r sweep at one y: y_scale comes from the config file, r from the grid."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"y_scale": 0.05}))
        code = cli_main(
            ["sweep", "--param", "r", "--grid", "150", "--filters", "clset-kf", "--mc", "1",
             "--steps", "8", "--config", str(cfg_path), "--out", str(tmp_path / "sw")]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "sw_manifest.json").read_text())
        assert manifest["y_scale"] == 0.05
        assert (manifest["sweep_param"], manifest["sweep_grid"]) == ("r", [150.0])

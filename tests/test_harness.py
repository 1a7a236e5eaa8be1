import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from etvbf import harness
from etvbf.cli import main as cli_main
from etvbf.filter import initial_state
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

TINY = dict(n_mc=2, n_step=12, base_seed=99)
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


class TestLockstep:
    @pytest.mark.parametrize("filter_id", FILTER_IDS)
    def test_record_independent_of_batch(self, filter_id):
        """A trial's record is bitwise the same alone, with 2 other trials and with 19."""
        cfg = ExperimentConfig(n_step=40, y_scale=0.005, base_seed=31)
        twenty = run_trials(cfg, filter_id, range(20))
        gammas = np.array([r.gamma for r in twenty])
        mixed_steps = np.any(gammas != gammas[0], axis=0)
        assert mixed_steps.any() == (filter_id in ("etvbf", "clset-kf"))
        for t in (0, 7, 19):
            assert_same_record(twenty[t], run_trial(cfg, filter_id, t))
            trio = run_trials(cfg, filter_id, [(t + 5) % 20, t, (t + 11) % 20])
            assert_same_record(twenty[t], trio[1])

    @pytest.mark.parametrize("filter_id", FILTER_IDS)
    def test_no_trials_give_no_records(self, filter_id):
        assert run_trials(ExperimentConfig(**TINY), filter_id, []) == []

    @pytest.mark.parametrize("index", [-1, 2.5])
    def test_bad_trial_index_rejected_by_name(self, index):
        with pytest.raises(ValueError, match=rf"non-negative integers, got \[{index}\]"):
            run_trials(ExperimentConfig(**TINY), "clset-kf", [0, index])

    def test_failing_row_is_recorded_alone(self, monkeypatch):
        """A row forced to raise at step 5 fails there alone; the other rows go on unchanged."""
        check_failing_row_recorded_alone(monkeypatch, "etvbf", "etvbf_step", [(3, 5)])

    @pytest.mark.parametrize("filter_id", ["clset-kf", "oracle-kf"])
    def test_failing_kalman_row_is_recorded_alone(self, monkeypatch, filter_id):
        """Both Kalman baselines step through clset_kf_step and retry rows alone with 0 sweeps."""
        records = check_failing_row_recorded_alone(
            monkeypatch, filter_id, "clset_kf_step", [(3, 5)]
        )
        assert not any(r.iterations.any() for r in records)

    @pytest.mark.parametrize(
        "failures", [[(1, 4), (4, 8)], [(t, 6) for t in range(6)]], ids=["two-rows", "every-row"]
    )
    @pytest.mark.parametrize("filter_id", ["etvbf", "clset-kf", "oracle-kf"])
    def test_failure_sequences_are_recorded_alone(self, monkeypatch, filter_id, failures):
        """Rows failing at different steps, or every row at one step, are each recorded alone."""
        step_name = "etvbf_step" if filter_id == "etvbf" else "clset_kf_step"
        check_failing_row_recorded_alone(monkeypatch, filter_id, step_name, failures)


def check_failing_row_recorded_alone(monkeypatch, filter_id, step_name, failures):
    """Force the step named step_name to raise on each (trial, step) and check every record."""
    cfg = ExperimentConfig(n_step=12, base_seed=5)
    clean = run_trials(cfg, filter_id, range(6))
    # A trial's estimate entering a step marks that trial at that step.
    targets = np.array([clean[t].estimate[k - 2] for t, k in failures])
    real_step = getattr(harness, step_name)

    def step(state, *args):
        if np.all(state.x_hat[..., None, :] == targets, axis=-1).any():
            raise NotPositiveDefinite("forced breakdown")
        return real_step(state, *args)

    monkeypatch.setattr(harness, step_name, step)
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
    return records


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
        ],
    )
    def test_out_of_domain_tuning_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

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
            {"base_seed": 1.5},
            {"filters": ()},
        ],
        ids=[
            "rho-grid-above-1", "r-grid-zero", "y-grid-negative", "grid-without-param",
            "sample-time-zero", "cosine-period-zero", "clset-q-negative", "clset-q-zero",
            "seed-negative", "filter-repeated", "grid-value-repeated", "tol-nan", "dof-g-nan",
            "alpha0-nan", "sample-time-nan", "cosine-period-nan", "n-mc-fraction",
            "n-step-fraction", "max-iterations-fraction", "seed-fraction", "filters-empty",
        ],
    )
    def test_rejected_when_built(self, bad):
        """Every grid point is checked by its field's own rule, and no setting waits for a trial."""
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

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

    def test_compare_prints_table(self, tmp_path, capsys):
        code = cli_main(
            [
                "compare",
                "--filters",
                "clset-kf,oracle-kf",
                "--mc",
                "1",
                "--steps",
                "8",
                "--out",
                str(tmp_path / "cmp"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "clset-kf" in captured and "oracle-kf" in captured

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

    def test_compare_takes_r_scale_from_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"r_scale": 10.0}))
        out = tmp_path / "cmp"
        code = cli_main(
            ["compare", "--filters", "clset-kf", "--mc", "1", "--steps", "8",
             "--config", str(cfg_path), "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "cmp_manifest.json").read_text())
        assert manifest["r_scale"] == 10.0

    def test_compare_takes_y_scale_from_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"y_scale": 0.05}))
        out = tmp_path / "cmp"
        code = cli_main(
            ["compare", "--filters", "clset-kf", "--mc", "1", "--steps", "8",
             "--config", str(cfg_path), "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "cmp_manifest.json").read_text())
        assert manifest["y_scale"] == 0.05
        assert manifest["sweep_grid"] == [0.05]

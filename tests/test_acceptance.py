"""End-to-end acceptance suite.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line summarizing one
release criterion, then asserts it. The trend criteria (4-6) run the same
desk-scale Monte Carlo sweeps a user would run from the CLI; criterion 7
inspects those runs for numerical failures, so tests 4-6 stash their rows
in a module-level list as they complete.

Trend assertions compare Monte Carlo means; a trend test that fails on the
primary seed is rerun once with a second seed before it is declared failed.
"""

import math
import pathlib
import time
import zlib

import numpy as np
import pytest

from etvbf.baselines import KfState
from etvbf.distributions import SeededRng, sample_gaussian
from etvbf.filter import (
    FilterConfig,
    FilterState,
    etvbf_step,
    initial_state,
    measurement_update,
    predict,
    sweep,
)
from etvbf.harness import ExperimentConfig, emit_outputs, run_sweep
from etvbf.model import build_cv_scenario, scenario_defaults, simulate_truth
from etvbf.trigger import TriggerConfig, TriggerOutcome, sensor_decide, trigger_probability
from helpers import (
    block_inverse, dense_kalman_update, dense_theta, innovation_of, kf_step, random_spd,
    scatter,
)

PRIMARY_SEED = 20240
RETRY_SEED = 20241
GOLDEN_CSV = pathlib.Path(__file__).parent / "data" / "sweep_golden.csv"

# Rows from the trend sweeps (criteria 4-6), consumed by criterion 7.
TREND_ROWS = []


def report(number, passed, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_01_degenerate_config_matches_kalman_oracle():
    """With one true-covariance component pinned by huge dofs and every
    measurement delivered, the adaptive filter must collapse to a plain
    Kalman filter."""
    start = time.perf_counter()
    model = build_cv_scenario(1.0, 500)
    x0, p0, _ = scenario_defaults()
    q_fixed = model.trueQ(7)
    r_fixed = model.trueR(7)
    cfg = FilterConfig(
        nominal_q=(q_fixed,),
        dof_g=1e8,
        r0=r_fixed,
        s0=1e8,
        alpha0=1.0,
        rho=1.0,
        trigger=TriggerConfig(Y=0.015 * np.eye(2)),
        tol=1e-12,
    )
    worst = 0.0
    for seed in range(10):
        rng = SeededRng((123, seed))
        x0_hat = sample_gaussian(rng, x0, p0)
        traj = simulate_truth(model, x0, 50, rng)
        adaptive = initial_state(x0_hat, p0, cfg)
        plain = KfState(x_hat=x0_hat, P=p0)
        for k in range(1, 51):
            z, f, h = traj.measurements[k - 1], model.F(k), model.H(k)
            transmitted = TriggerOutcome(gamma=1, measurement=z)
            adaptive, _ = etvbf_step(adaptive, f, h, transmitted, cfg)
            e = z - np.matvec(h, np.matvec(f, plain.x_hat))
            plain = kf_step(plain, f, h, q_fixed, r_fixed, cfg.trigger.Y, True, e)
            rel = float(
                np.linalg.norm(adaptive.x_hat - plain.x_hat) / np.linalg.norm(plain.x_hat)
            )
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-6 and elapsed < 5.0,
        f"max relative state error {worst:.3e} (tol 1e-6) over 10 seeds x 50 steps, "
        f"{elapsed:.2f}s",
    )


def test_02_closed_forms_match_brute_force():
    """The measurement update, on a silent row against the dense joint
    inverse and on a sent row against the dense Kalman update, the
    partitioned SPD inverse, and the joint-covariance decoupling identities
    must match dense linear algebra on random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    row_rng = np.random.default_rng(2020)  # the estimates and measurements of the update rows
    n, m = 4, 2
    h = np.hstack([np.eye(m), np.zeros((m, n - m))])

    worst_block = 0.0
    for _ in range(100):
        p_tilde = random_spd(rng, n, scale=float(rng.uniform(0.5, 5.0)))
        r_tilde = random_spd(rng, m, scale=float(rng.uniform(0.5, 5.0)))
        y = random_spd(rng, m, scale=float(rng.uniform(0.01, 1.0)))
        theta = dense_theta(p_tilde, r_tilde, h, y)
        # One stack: row 0 transmits z, row 1 stays silent.
        x_pred, z = row_rng.standard_normal((2, n)), row_rng.standard_normal(m)
        sent = np.array([True, False])
        e = innovation_of(sent, np.array([z, np.full(m, np.nan)]), np.matvec(h, x_pred))
        r_rows = np.array([r_tilde] * 2)
        x, P, k, k_e = measurement_update(x_pred, np.array([p_tilde] * 2), r_rows, e, sent, h, y)
        B = scatter(r_rows, k, k_e)  # as update_meas_cov forms it from the core
        x_ref, p_ref = dense_kalman_update(x_pred[0], p_tilde, z, h, r_tilde)
        resid = z - h @ x_ref
        dense = (
            theta[n:, n:] - h @ theta[:n, n:] - theta[n:, :n] @ h.T + h @ theta[:n, :n] @ h.T
        )
        worst_block = max(
            worst_block,
            float(np.abs(P[1] - theta[:n, :n]).max()),
            float(np.abs(B[1] - dense).max()),
            float(np.abs(x[1] - x_pred[1]).max()),
            float(np.abs(x[0] - x_ref).max()),
            float(np.abs(P[0] - p_ref).max()),
            float(np.abs(B[0] - np.outer(resid, resid) - h @ p_ref @ h.T).max()),
        )

    worst_partition = 0.0
    for _ in range(200):
        dim_a = int(rng.integers(1, 5))
        dim_b = int(rng.integers(1, 5))
        full = random_spd(rng, dim_a + dim_b)
        direct = np.linalg.inv(full)
        blocked = block_inverse(
            full[:dim_a, :dim_a],
            full[:dim_a, dim_a:],
            full[dim_a:, :dim_a],
            full[dim_a:, dim_a:],
        )
        worst_partition = max(worst_partition, float(np.abs(blocked - direct).max()))

    worst_decouple = 0.0
    for _ in range(100):
        p = random_spd(rng, n)
        r = random_spd(rng, m)
        phi = np.zeros((n + m, n + m))
        phi[:n, :n] = p
        phi[:n, n:] = p @ h.T
        phi[n:, :n] = h @ p
        phi[n:, n:] = h @ p @ h.T + r
        vec = rng.standard_normal(n + m)
        x_part, z_part = vec[:n], vec[n:]
        quad_joint = float(vec @ np.linalg.solve(phi, vec))
        quad_split = float(
            x_part @ np.linalg.solve(p, x_part)
            + (z_part - h @ x_part) @ np.linalg.solve(r, z_part - h @ x_part)
        )
        worst_decouple = max(worst_decouple, abs(quad_joint - quad_split))
        logdet_joint = float(np.linalg.slogdet(phi)[1])
        logdet_split = float(np.linalg.slogdet(p)[1] + np.linalg.slogdet(r)[1])
        worst_decouple = max(worst_decouple, abs(logdet_joint - logdet_split))

    elapsed = time.perf_counter() - start
    passed = (
        worst_block <= 1e-9
        and worst_partition <= 1e-8
        and worst_decouple <= 1e-9
        and elapsed < 5.0
    )
    report(
        2,
        passed,
        f"measurement update {worst_block:.3e} (tol 1e-9, 100 sent and silent cases), "
        f"partitioned inverse {worst_partition:.3e} (tol 1e-8, 200 cases), "
        f"decoupling {worst_decouple:.3e} (tol 1e-9, 100 cases), {elapsed:.2f}s",
    )


def test_03_trigger_law_empirical():
    """The sensor's empirical silence rate must match exp(-e'Ye/2) within
    three standard errors for several innovation/weight pairs."""
    start = time.perf_counter()
    rng_np = np.random.default_rng(303)
    draws = 10**5
    worst_sigma = 0.0
    for _ in range(5):
        y = random_spd(rng_np, 2, scale=float(rng_np.uniform(0.1, 2.0)))
        e = rng_np.standard_normal(2)
        cfg = TriggerConfig(Y=y)
        phi = trigger_probability(e, cfg)
        rng = SeededRng(int(rng_np.integers(2**31)))
        silent = sum(
            sensor_decide(e, np.zeros(2), cfg, rng).gamma == 0 for _ in range(draws)
        )
        se = math.sqrt(max(phi * (1.0 - phi), 1e-12) / draws)
        worst_sigma = max(worst_sigma, abs(silent / draws - phi) / se)
    elapsed = time.perf_counter() - start
    report(
        3,
        worst_sigma <= 3.0 and elapsed < 5.0,
        f"max deviation {worst_sigma:.2f} standard errors (limit 3) over 5 pairs "
        f"x {draws} draws, {elapsed:.1f}s",
    )


def _rows_by_filter(rows, sweep_value):
    return {r.filter: r for r in rows if r.sweep_value == sweep_value}


def _trigger_sweep_trends(seed):
    cfg = ExperimentConfig(
        base_seed=seed,
        n_mc=50,
        n_step=150,
        sweep_param="y",
        sweep_grid=(0.0005, 0.005, 0.05),
        r_scale=150.0,
        filters=("etvbf", "vbf", "clset-kf"),
    )
    rows = run_sweep(cfg)
    TREND_ROWS.extend(rows)
    checks = {}
    for y in cfg.sweep_grid:
        by = _rows_by_filter(rows, y)
        checks[f"rmse_le_clset@y={y:g}"] = by["etvbf"].rmse <= by["clset-kf"].rmse
        checks[f"comm_le_clset@y={y:g}"] = by["etvbf"].comm_rate <= by["clset-kf"].comm_rate
    for fid in ("etvbf", "clset-kf"):
        comm = [r.comm_rate for r in rows if r.filter == fid]
        checks[f"comm_nondecreasing[{fid}]"] = all(
            a <= b for a, b in zip(comm, comm[1:])
        )
    top = _rows_by_filter(rows, 0.05)
    checks["rmse_near_full_rate@y=0.05"] = (
        abs(top["etvbf"].rmse - top["vbf"].rmse) <= 0.05 * top["vbf"].rmse
    )
    return checks


def test_04_trigger_weight_sweep_trends():
    """Desk-scale sweep of the trigger weight: the adaptive event-triggered
    filter should match or beat the known-covariance event-triggered
    baseline in both accuracy and communication, both communication rates
    should rise with the weight, and at the largest weight the accuracy
    should approach the always-transmit variant."""
    start = time.perf_counter()
    checks = _trigger_sweep_trends(PRIMARY_SEED)
    seed_used = PRIMARY_SEED
    if not all(checks.values()):
        checks = _trigger_sweep_trends(RETRY_SEED)
        seed_used = RETRY_SEED
    elapsed = time.perf_counter() - start
    failed = sorted(name for name, ok in checks.items() if not ok)
    report(
        4,
        not failed and elapsed < 600.0,
        f"seed {seed_used}: "
        + (f"failed trends {failed}, " if failed else "all 8 trend checks hold, ")
        + f"{elapsed:.0f}s",
    )


def test_05_measurement_noise_sweep_spread():
    """Sweeping the nominal measurement-noise scale far off the truth: the
    adaptive filter's accuracy should vary less than the fixed-covariance
    baseline's."""
    start = time.perf_counter()

    def spreads(seed):
        cfg = ExperimentConfig(
            base_seed=seed,
            n_mc=50,
            n_step=150,
            sweep_param="r",
            sweep_grid=(10.0, 150.0, 300.0),
            y_scale=0.015,
            filters=("etvbf", "clset-kf"),
        )
        rows = run_sweep(cfg)
        TREND_ROWS.extend(rows)
        out = {}
        for fid in cfg.filters:
            rmse = [r.rmse for r in rows if r.filter == fid]
            out[fid] = max(rmse) - min(rmse)
        return out

    spread = spreads(PRIMARY_SEED)
    seed_used = PRIMARY_SEED
    if not spread["etvbf"] < spread["clset-kf"]:
        spread = spreads(RETRY_SEED)
        seed_used = RETRY_SEED
    elapsed = time.perf_counter() - start
    report(
        5,
        spread["etvbf"] < spread["clset-kf"] and elapsed < 600.0,
        f"seed {seed_used}: adaptive spread {spread['etvbf']:.3f} vs baseline spread "
        f"{spread['clset-kf']:.3f}, {elapsed:.0f}s",
    )


def test_06_forgetting_factor_sweep():
    """Too-aggressive forgetting (0.92) must cost accuracy relative to every
    gentler setting in 0.94-1.00."""
    start = time.perf_counter()

    def rmse_by_rho(seed):
        cfg = ExperimentConfig(
            base_seed=seed,
            n_mc=50,
            n_step=150,
            sweep_param="rho",
            sweep_grid=(0.92, 0.94, 0.96, 0.98, 1.00),
            r_scale=150.0,
            y_scale=0.015,
            filters=("etvbf",),
        )
        rows = run_sweep(cfg)
        TREND_ROWS.extend(rows)
        return {r.sweep_value: r.rmse for r in rows}

    rmse = rmse_by_rho(PRIMARY_SEED)
    seed_used = PRIMARY_SEED
    if not all(rmse[0.92] > rmse[rho] for rho in (0.94, 0.96, 0.98, 1.00)):
        rmse = rmse_by_rho(RETRY_SEED)
        seed_used = RETRY_SEED
    elapsed = time.perf_counter() - start
    passed = all(rmse[0.92] > rmse[rho] for rho in (0.94, 0.96, 0.98, 1.00))
    report(
        6,
        passed and elapsed < 600.0,
        f"seed {seed_used}: rmse@0.92 = {rmse[0.92]:.3f} vs "
        + ", ".join(f"{rho:g}: {rmse[rho]:.3f}" for rho in (0.94, 0.96, 0.98, 1.00))
        + f", {elapsed:.0f}s",
    )


def test_07_no_factorization_failures_in_sweeps():
    """Every trial of the trend sweeps above must complete without a single
    positive-definiteness failure."""
    assert TREND_ROWS, "trend sweeps did not run"
    failures = sum(r.failures for r in TREND_ROWS)
    report(
        7,
        failures == 0,
        f"{failures} failed trials across {len(TREND_ROWS)} sweep cells from the "
        "three trend sweeps",
    )


def _pinned_gain_final_errors(trials):
    """Final-step estimation errors of the fixed-gain Gaussianity check, one
    row per trial, with all trials stepped as one stack: predict and one
    sweep, the whole step under max_iterations=1."""
    model = build_cv_scenario(1.0, 500)
    x0, p0, steps = scenario_defaults()
    cfg = FilterConfig(
        nominal_q=(4.0 * np.eye(4),),
        dof_g=1e8,
        r0=150.0 * np.eye(2),
        s0=1e8,
        alpha0=1.0,
        rho=1.0,
        trigger=TriggerConfig(Y=0.015 * np.eye(2)),
        max_iterations=1,
    )
    schedule_rng = SeededRng(808)
    schedule = tuple(schedule_rng.random() < 0.5 for _ in range(steps))
    x0_hat, finals, measurements = [], [], []
    for trial in trials:
        rng = SeededRng((PRIMARY_SEED, trial))
        x0_hat.append(sample_gaussian(rng, x0, p0))
        traj = simulate_truth(model, x0, steps, rng)
        finals.append(traj.states[steps - 1])
        measurements.append(traj.measurements)
    measurements = np.array(measurements)
    state = initial_state(np.array(x0_hat), p0, cfg)
    for k in range(1, steps + 1):
        sent = np.full(len(trials), schedule[k - 1])
        it = predict(state, model.F(k), cfg)
        e = innovation_of(sent, measurements[:, k - 1], np.matvec(model.H(k), it.x_pred))
        assert sweep(it, sent, e, model.H(k), cfg).all()
        state = FilterState(it.x, it.P, it.s_prior + 1.0, it.S, it.alpha)
    return state.x_hat - np.array(finals)


def test_08_posterior_error_is_gaussian_with_fixed_gains():
    """With covariances pinned by huge dofs and one shared, data-independent
    transmit schedule, the filter is a linear map of Gaussian noise, so the
    estimation error at the final step must look Gaussian across trials."""
    start = time.perf_counter()
    errors = _pinned_gain_final_errors(range(2000))

    centered = errors - errors.mean(axis=0)
    std = centered.std(axis=0)
    skew = (centered**3).mean(axis=0) / std**3
    kurt = (centered**4).mean(axis=0) / std**4 - 3.0
    elapsed = time.perf_counter() - start
    passed = (
        bool(np.all(np.abs(skew) <= 0.2))
        and bool(np.all(np.abs(kurt) <= 0.5))
        and elapsed < 120.0
    )
    report(
        8,
        passed,
        f"componentwise skewness {np.round(skew, 3).tolist()} (limit 0.2), "
        f"excess kurtosis {np.round(kurt, 3).tolist()} (limit 0.5), "
        f"2000 trials, {elapsed:.0f}s",
    )


def test_09_sweep_csv_byte_identical_across_runs(tmp_path):
    """Running the same four-filter sweep twice must write byte-identical CSV
    output, equal to the golden CSV checked in under tests/data."""
    start = time.perf_counter()
    cfg = ExperimentConfig(
        base_seed=PRIMARY_SEED,
        n_mc=8,
        n_step=25,
        sweep_param="y",
        sweep_grid=(0.005, 0.05),
        filters=("etvbf", "vbf", "clset-kf", "oracle-kf"),
    )
    payloads = []
    for run in range(2):
        emit_outputs(run_sweep(cfg), str(tmp_path / f"run{run}"), cfg)
        payloads.append((tmp_path / f"run{run}.csv").read_bytes())
    golden = GOLDEN_CSV.read_bytes()
    first, second, expected = (zlib.crc32(p) for p in (*payloads, golden))
    elapsed = time.perf_counter() - start
    report(
        9,
        payloads[0] == payloads[1] == golden and elapsed < 120.0,
        f"CSV crc32 {first:#010x} and {second:#010x} over two runs vs golden "
        f"{expected:#010x}, {elapsed:.0f}s",
    )

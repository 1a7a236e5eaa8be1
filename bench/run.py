"""Benchmark of the etvbf Monte Carlo harness and the online filter step.

Run from the repository root:

    python3 bench/run.py --workload mc-silent --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop with one caller, in this single process):

  mc-silent    `run_sweep` cells of the adaptive filter at y=0.0005, where
               about 78 % of steps are silent: the joint no-measurement
               update, `predict`, truth simulation and the trigger weigh as
               much as the sweep loop. Monte Carlo throughput of etvbf.
  mc-clset     `run_sweep` cells of the known-covariance `clset-kf` baseline
               at y=0.015. No variational code runs, so a change to the
               sweeps should not move it; truth simulation, `spd_factor` and
               the harness loop dominate.
  online-step  the README library loop at y=0.015: truth and trigger
               decisions are made outside the timed region and each
               `etvbf_step` call is timed, so the one-state-at-a-time cost of
               the filter shows.

A Monte Carlo cell is one `run_sweep` call whose `ExperimentConfig.base_seed`
is the seed; the same cell is repeated until `--seconds` have passed and
every repeat must return the same row. Online trajectories are keyed
(seed, j) like harness trials; the first `trials` of them always run and
give the quality metrics, more run until `--seconds` have passed.

End-to-end metrics, printed for every workload with their sample counts:
trials_per_s (completed 150-step trials per wall second of the cells, or
per second of filter time over all trajectories),
step_us_p50 and step_us_p99 (each `etvbf_step` call on online-step; on
mc-* the cells' wall time per trial step, one figure with no tail, so both
report it), rmse and comm_rate (of the
first cell or the first `trials` trajectories), completed_frac (one minus
the failed share, so that it is never 0), setup_s (median over fresh
interpreters that import etvbf and build the workload's configs) and
peak_rss_mb.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` a
smaller pass is run alternately untraced and with every public package
function wrapped (see spans.py), and the per-layer metrics and the tracing
overhead are printed. The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics. An output check that fails
prints the reason to standard error and exits with code 1.

`--workload all` runs every workload in its own process. `--smoke` shrinks
every size for the benchmark's own tests.
"""

from __future__ import annotations

import os

# One BLAS thread: every workload measures a single-threaded process. Set
# before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


@dataclass(frozen=True)
class Workload:
    filter: str
    y: float
    trials: int  # trials per Monte Carlo cell, or minimum online trajectories
    trace_trials: int  # trials per pass of the traced run
    online: bool = False


WORKLOADS = {
    "mc-silent": Workload(filter="etvbf", y=0.0005, trials=50, trace_trials=10),
    "mc-clset": Workload(filter="clset-kf", y=0.015, trials=50, trace_trials=50),
    "online-step": Workload(filter="etvbf", y=0.015, trials=50, trace_trials=10, online=True),
}
STEPS = 150
SETUP_PROBES = 9
SMOKE = {"trials": 2, "trace_trials": 2, "steps": 20, "setup_probes": 1}
# The etvbf column of `etvbf sweep --param y --profile paper`.
PAPER_Y_TRIALS = 200 * 500

# Start-to-ready of a fresh interpreter: import the package and build the
# workload's ExperimentConfig, FilterConfig and scenario.
SETUP_PROBE = """
import json, sys
import etvbf
from etvbf.harness import ExperimentConfig, build_filter_config
cfg = ExperimentConfig(**json.loads(sys.argv[1]))
fcfg = build_filter_config(cfg)
model = etvbf.build_cv_scenario(cfg.sample_time, cfg.cosine_period)
print("ready", flush=True)
"""

FILTER_FUNCTIONS = (
    "etvbf_step",
    "predict",
    "init_iteration",
    "update_state_meas",
    "update_joint_no_meas",
    "update_predicted_cov",
    "update_meas_cov",
    "update_mixture",
    "check_convergence",
)
TIMED_FUNCTIONS = (
    tuple(f"filter.{fn}" for fn in FILTER_FUNCTIONS)
    + tuple(
        f"distributions.{fn}"
        for fn in (
            "iw_mean_of_inverse",
            "iw_expected_logdet",
            "dirichlet_expected_log",
            "normalize_log_weights",
            "sample_gaussian",
        )
    )
    + ("numerics.spd_factor", "numerics.SpdFactor.solve", "numerics.SpdFactor.inverse",
       "numerics.SpdFactor.log_det")
)
COUNTED_FUNCTIONS = ("numerics.digamma", "numerics.multivariate_digamma",
                     "numerics.log_multivariate_gamma")
SELF_TIMED_FUNCTIONS = ("model.simulate_truth", "trigger.sensor_decide",
                        "baselines.clset_kf_step", "harness.run_trial")
MODULES = ("filter", "distributions", "numerics", "model", "trigger", "baselines", "harness")
STEP_FUNCTIONS = ("filter.etvbf_step", "baselines.clset_kf_step", "baselines.kf_oracle_step")


def time_left(start: float, seconds: float, durations: list) -> bool:
    """Whether another repeat of the median duration would mostly fit in the run."""
    return time.perf_counter() - start + statistics.median(durations) / 2 < seconds


class CheckFailed(Exception):
    """A program output failed the benchmark's correctness checks."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def tail(samples) -> tuple[float, float]:
    """(percentile, value): p99, or the highest percentile with 10 samples above it.

    Below 20 samples that percentile would fall under the median; the
    median is reported then, as no tail can be estimated.
    """
    n = len(samples)
    pct = 99.0 if n >= 1000 else max(50.0, math.floor(100.0 * (n - 10) / n))
    return pct, float(np.percentile(samples, pct))


def experiment_kwargs(w: Workload, seed: int, trials: int, steps: int) -> dict:
    return {
        "base_seed": seed,
        "n_mc": trials,
        "n_step": steps,
        "filters": [w.filter],
        "sweep_param": "y",
        "sweep_grid": [w.y],
        "y_scale": w.y,
    }


def measure_setup(kwargs: dict, probes: int) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, json.dumps(kwargs)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return times


class McCells:
    """Repeated `run_sweep` cells of one filter at one y."""

    def __init__(self, w: Workload, cfg, tally: Tally):
        from etvbf import harness

        self.harness, self.w, self.cfg, self.tally = harness, w, cfg, tally
        self.first_row = None

    def run(self) -> float:
        """Run one cell, check it, and return its wall seconds."""
        t0 = time.perf_counter()
        rows = self.harness.run_sweep(self.cfg)
        seconds = time.perf_counter() - t0
        if [(r.sweep_value, r.filter) for r in rows] != [(self.w.y, self.w.filter)]:
            raise CheckFailed(f"run_sweep returned rows {[(r.sweep_value, r.filter) for r in rows]}, "
                              f"expected [({self.w.y}, {self.w.filter!r})]")
        row = rows[0]
        if not 0 <= row.failures <= self.cfg.n_mc:
            raise CheckFailed(f"failure count {row.failures} outside [0, {self.cfg.n_mc}]")
        if row.failures < self.cfg.n_mc:
            if not (math.isfinite(row.rmse) and math.isfinite(row.mean_iterations)):
                raise CheckFailed(f"non-finite rmse {row.rmse} or sweeps {row.mean_iterations}")
            if not 0.0 <= row.comm_rate <= 1.0:
                raise CheckFailed(f"comm_rate {row.comm_rate} outside [0, 1]")
        if self.first_row is None:
            self.first_row = row
        elif repr(row) != repr(self.first_row):
            raise CheckFailed(f"repeated cell differs: {row} vs {self.first_row}")
        self.tally.attempted += self.cfg.n_mc
        self.tally.failed += row.failures
        return seconds

    def quality(self) -> dict:
        row = self.first_row
        completed = self.cfg.n_mc - row.failures
        if completed == 0:
            raise CheckFailed("no trial completed")
        return {"rmse": (row.rmse, completed), "comm_rate": (row.comm_rate, completed * self.cfg.n_step)}


class OnlineLoop:
    """The README library loop: one filter state stepped at a time."""

    def __init__(self, w: Workload, cfg, seed: int, tally: Tally):
        from etvbf import distributions, filter as filt, harness, model, numerics, trigger

        self.dist, self.filt, self.model_mod, self.trigger = distributions, filt, model, trigger
        self.failures = (numerics.NotPositiveDefinite, numerics.Singular)
        self.cfg, self.seed, self.tally = cfg, seed, tally
        self.fcfg = harness.build_filter_config(cfg)
        self.model = model.build_cv_scenario(cfg.sample_time, cfg.cosine_period)
        self.x0, self.p0, _ = model.scenario_defaults()
        self.trigger_key = zlib.crc32(w.filter.encode("utf-8"))

    def trajectory(self, j: int, step_ns: list, tracer=None):
        """Run trajectory j; None if it failed, else
        (squared error sum, values, transmissions, steps, filter nanoseconds)."""
        cfg, fcfg, model = self.cfg, self.fcfg, self.model
        if tracer is not None:
            tracer.begin_trial()
        truth_rng = self.dist.SeededRng((self.seed, j))
        x0_hat = self.dist.sample_gaussian(truth_rng, self.x0, self.p0)
        traj = self.model_mod.simulate_truth(model, self.x0, cfg.n_step, truth_rng)
        trig_rng = self.dist.SeededRng((self.seed, j, self.trigger_key))
        state = self.filt.initial_state(x0_hat, self.p0, fcfg)
        step, decide, clock = self.filt.etvbf_step, self.trigger.sensor_decide, time.perf_counter_ns
        sq_err, transmissions, filter_ns = 0.0, 0, 0
        self.tally.attempted += 1
        try:
            for k in range(1, cfg.n_step + 1):
                f_k, h_k = model.F(k), model.H(k)
                outcome = decide(traj.measurements[k - 1], h_k @ (f_k @ state.x_hat), fcfg.trigger, trig_rng)
                t0 = clock()
                state, diag = step(state, f_k, h_k, outcome, fcfg)
                elapsed = clock() - t0
                step_ns.append(elapsed)
                filter_ns += elapsed
                if not np.all(np.isfinite(state.x_hat)):
                    raise CheckFailed(f"non-finite estimate at trajectory {j}, step {k}: {state.x_hat}")
                if not 1 <= diag.iterations <= fcfg.max_iterations:
                    raise CheckFailed(f"sweep count {diag.iterations} at trajectory {j}, step {k}")
                err = state.x_hat - traj.states[k - 1]
                sq_err += float(err @ err)
                transmissions += outcome.gamma
        except self.failures:
            self.tally.failed += 1
            return None
        return sq_err, cfg.n_step * model.n, transmissions, cfg.n_step, filter_ns

    def run(self, first: int, count: int, step_ns: list, tracer=None) -> tuple[float, list]:
        """Run trajectories first..first+count-1; return wall seconds and their results."""
        t0 = time.perf_counter()
        results = [self.trajectory(j, step_ns, tracer) for j in range(first, first + count)]
        return time.perf_counter() - t0, results

    @staticmethod
    def quality(results: list) -> dict:
        done = [r for r in results if r is not None]
        if not done:
            raise CheckFailed("no trajectory completed")
        sq, values, sent, steps, _ = (sum(col) for col in zip(*done))
        comm_rate = sent / steps
        if not 0.0 <= comm_rate <= 1.0:
            raise CheckFailed(f"comm_rate {comm_rate} outside [0, 1]")
        return {"rmse": (math.sqrt(sq / values), len(done)), "comm_rate": (comm_rate, steps)}


def end_to_end(w: Workload, args, sizes: dict, seed: int, tally: Tally) -> dict:
    """Untraced run: (value, unit, samples, note) for every end-to-end metric."""
    from etvbf.harness import ExperimentConfig

    kwargs = experiment_kwargs(w, seed, sizes["trials"], sizes["steps"])
    setup = measure_setup(kwargs, sizes["setup_probes"])
    cfg = ExperimentConfig(**kwargs)
    steps = sizes["steps"]
    metrics = {}
    start = time.perf_counter()
    if w.online:
        loop = OnlineLoop(w, cfg, seed, tally)
        step_ns: list[int] = []
        results = []
        while len(results) < sizes["trials"] or time.perf_counter() - start < args.seconds:
            results += loop.run(len(results), 1, step_ns)[1]
        quality = loop.quality(results[:sizes["trials"]])
        done = [r for r in results if r is not None]
        trials_per_s = (len(done), sum(r[4] for r in done) / 1e9)
        step_us = [ns / 1e3 for ns in step_ns]
        trials_note = "completed trajectories per second of filter time"
        step_note = "etvbf_step calls"
    else:
        cells = McCells(w, cfg, tally)
        cell_s = []
        while not cell_s or time_left(start, args.seconds, cell_s):
            cell_s.append(cells.run())
        quality = cells.quality()
        completed = cfg.n_mc - cells.first_row.failures
        trials_per_s = (completed * len(cell_s), sum(cell_s))
        step_us = [sum(cell_s) * 1e6 / (len(cell_s) * cfg.n_mc * steps)]
        trials_note = f"completed trials per wall second over {len(cell_s)} cells"
        step_note = "wall time of all cells per trial step"
    metrics["trials_per_s"] = (trials_per_s[0] / trials_per_s[1], "1/s", trials_per_s[0], trials_note)
    pct, value = tail(step_us)
    metrics["step_us_p50"] = (statistics.median(step_us), "us", len(step_us), step_note)
    metrics["step_us_p99"] = (value, "us", len(step_us), f"{step_note}; percentile {pct:g}")
    metrics["rmse"] = (quality["rmse"][0], "1", quality["rmse"][1], "trials pooled")
    metrics["comm_rate"] = (quality["comm_rate"][0], "1/step", quality["comm_rate"][1], "steps pooled")
    metrics["completed_frac"] = (1.0 - tally.failed / tally.attempted, "ratio", tally.attempted,
                                 f"failed_frac {tally.failed / tally.attempted:g}")
    metrics["setup_s"] = (statistics.median(setup), "s", len(setup), "median of fresh interpreters")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
                              "ru_maxrss of this process")
    return metrics


def per_layer(w: Workload, args, sizes: dict, seed: int, tally: Tally) -> dict:
    """Alternate untraced and traced passes; per-layer metrics from the traced spans."""
    from etvbf.harness import ExperimentConfig
    from spans import Tracer

    cfg = ExperimentConfig(**experiment_kwargs(w, seed, sizes["trace_trials"], sizes["steps"]))
    tracer = Tracer()
    if w.online:
        loop = OnlineLoop(w, cfg, seed, tally)

        def run_pass(traced):
            seconds, results = loop.run(0, cfg.n_mc, [], tracer if traced else None)
            loop.quality(results)
            return seconds
    else:
        cells = McCells(w, cfg, tally)

        def run_pass(traced):
            return cells.run()

    untraced_s, traced_s = [], []
    start = time.perf_counter()
    while not traced_s or time_left(start, args.seconds, [a + b for a, b in zip(untraced_s, traced_s)]):
        untraced_s.append(run_pass(False))
        with tracer.installed():
            traced_s.append(run_pass(True))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")

    prof = tracer.profile()
    steps = sum(prof.calls(fn) for fn in STEP_FUNCTIONS)
    per_step = (lambda c: c / steps) if steps else (lambda c: 0.0)
    metrics = {}
    for fn in TIMED_FUNCTIONS:
        metrics[f"{fn}.calls_per_step"] = (per_step(prof.calls(fn)), "1/step")
        metrics[f"{fn}.self_us_per_call"] = (prof.self_us_per_call(fn), "us")
    for fn in COUNTED_FUNCTIONS:
        metrics[f"{fn}.calls_per_step"] = (per_step(prof.calls(fn)), "1/step")
    for fn in SELF_TIMED_FUNCTIONS:
        metrics[f"{fn}.self_us_per_call"] = (prof.self_us_per_call(fn), "us")
    sweeps = prof.children_per_parent("filter.etvbf_step", "filter.check_convergence")
    metrics["filter.sweeps_per_step"] = (per_step(int(sweeps.sum())), "1/step")
    budget = int((sweeps >= cfg.max_iterations).sum())
    metrics["filter.budget_stop_frac"] = (budget / sweeps.size if sweeps.size else 0.0, "ratio")
    traced_ns = sum(traced_s) * 1e9
    for module in MODULES:
        metrics[f"{module}.self_share"] = (prof.module_self_ns(module) / traced_ns, "ratio")
    metrics["trace.overhead"] = (sum(traced_s) / sum(untraced_s), "x")
    print(f"traced {len(traced_s)} passes of {cfg.n_mc} trials x {cfg.n_step} steps "
          f"({steps} filter steps, {len(tracer.names)} traced functions); "
          f"traced {sum(traced_s):.3f} s vs untraced {sum(untraced_s):.3f} s")
    return metrics


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, load_start: float) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


def run_workload(args) -> int:
    load_start = os.getloadavg()[0]
    if not (SRC / "etvbf" / "__init__.py").is_file():
        print(f"error: no etvbf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    sizes = dict(SMOKE) if args.smoke else {"trials": w.trials, "trace_trials": w.trace_trials,
                                            "steps": STEPS, "setup_probes": SETUP_PROBES}
    tally = Tally()
    try:
        if args.trace:
            metrics = per_layer(w, args, sizes, args.seed, tally)
        else:
            metrics = end_to_end(w, args, sizes, args.seed, tally)
    except CheckFailed as exc:
        print(f"CHECK FAILED ({args.workload}, seed {args.seed}): {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": tally.failed, "metrics": {}}))
        return 1
    for name, (value, unit, *extra) in metrics.items():
        note = f"  n={extra[0]}  {extra[1]}" if extra else ""
        print(f"{args.workload:<12} {name:<45} {value:>14.6g} {unit:<7}{note}")
    if args.workload == "mc-silent" and not args.trace and not args.smoke:
        hours = PAPER_Y_TRIALS / metrics["trials_per_s"][0] / 3600.0
        print(f"extrapolation (informational, not gated): etvbf column of the --profile paper "
              f"y-study, {PAPER_Y_TRIALS} trials at the y={w.y} rate: {hours:.1f} CPU-hours")
    print("provenance " + json.dumps(provenance(args.seed, load_start), sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in a fresh process; merge their results."""
    code, merged = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []), stdout=subprocess.PIPE,
                              text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return code or 1
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

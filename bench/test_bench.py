"""Smoke tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REGISTERED = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def twice():
    """Two smoke invocations at the same seed for every (workload, trace)."""
    return {(w, t): (smoke(w, t), smoke(w, t)) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_registered_metric_is_emitted_with_its_unit(twice, workload, trace):
    result = twice[workload, trace][0]
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in REGISTERED[trace]}
    for metric in REGISTERED[trace]:
        assert emitted[metric["name"]]["unit"] == metric["unit"]
        assert math.isfinite(emitted[metric["name"]]["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_quality_and_counts(twice, workload):
    for trace, names in ((0, ("rmse", "comm_rate")), (1, None)):
        first, second = (r["metrics"] for r in twice[workload, trace])
        if names is None:
            names = [n for n in first if n.endswith(".calls_per_step")]
            names += ["filter.sweeps_per_step", "filter.budget_stop_frac"]
        for name in names:
            assert first[name]["value"] == second[name]["value"], name


def test_traced_counts_follow_the_workload(twice):
    silent = twice["mc-silent", 1][0]["metrics"]
    clset = twice["mc-clset", 1][0]["metrics"]
    online = twice["online-step", 1][0]["metrics"]
    assert silent["filter.update_joint_no_meas.calls_per_step"]["value"] > 0
    assert online["filter.sweeps_per_step"]["value"] >= 1
    assert clset["filter.etvbf_step.calls_per_step"]["value"] == 0
    assert clset["baselines.clset_kf_step.self_us_per_call"]["value"] > 0
    assert online["harness.run_trial.self_us_per_call"]["value"] == 0


def package_bindings() -> dict:
    import etvbf.numerics

    held = {(name, attr): value for name, mod in sys.modules.items()
            if name == "etvbf" or name.startswith("etvbf.") for attr, value in vars(mod).items()}
    held.update({("SpdFactor", m): etvbf.numerics.SpdFactor.__dict__[m] for m in ("solve", "inverse", "log_det")})
    return held


def test_tracer_rebinds_everywhere_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from etvbf import filter as filt, harness
    from etvbf.harness import ExperimentConfig

    before = package_bindings()
    update_mixture, simulate_truth = filt.update_mixture, harness.simulate_truth
    tracer = Tracer()
    cfg = ExperimentConfig(n_mc=2, n_step=5, filters=("etvbf",), sweep_param="y", sweep_grid=(0.015,))
    with pytest.raises(RuntimeError), tracer.installed():
        assert filt.update_mixture is not update_mixture
        assert harness.simulate_truth is not simulate_truth
        harness.run_sweep(cfg)
        raise RuntimeError("leave the traced block by an exception")
    after = package_bindings()
    assert filt.update_mixture is update_mixture and harness.simulate_truth is simulate_truth
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    prof = tracer.profile()
    assert prof.calls("model.simulate_truth") == 2
    assert prof.calls("filter.update_mixture") == prof.calls("filter.check_convergence") > 0
    assert prof.calls("numerics.SpdFactor.solve") > 0


def test_traced_run_restores_bindings(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import etvbf  # noqa: F401

    before = package_bindings()
    for workload in WORKLOADS:
        assert run.main(["--workload", workload, "--seconds", "0", "--trace", "1", "--smoke"]) == 0
    after = package_bindings()
    assert all(after[k] is before[k] for k in before)


def test_failed_output_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import dataclasses

    from etvbf import harness

    real = harness.run_sweep
    monkeypatch.setattr(harness, "run_sweep",
                        lambda cfg: [dataclasses.replace(r, comm_rate=1.5) for r in real(cfg)])
    assert run.main(["--workload", "mc-clset", "--seconds", "0", "--smoke"]) == 1
    out = capsys.readouterr()
    assert "comm_rate 1.5 outside [0, 1]" in out.err
    assert json.loads(out.out.splitlines()[-1])["correct"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_percentile():
    assert run.tail(list(range(1000)))[0] == 99
    assert run.tail(list(range(50))) == (80, pytest.approx(39.2))
    assert run.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)

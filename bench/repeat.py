"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --seeds 20240:20250 --traced 1 --out bench/baseline.json

Runs `bench/run.py` once per (seed, workload), seeds in the outer loop so
that slow phases of a shared machine spread over all workloads, then the
traced run for the first `--traced` seeds. For every metric it prints the
median, the quartiles of `statistics.quantiles(values, n=4)` and their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json (spread above a third of the bound is flagged). `--out`
writes the summary as JSON, which is how bench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import PAPER_Y_TRIALS  # noqa: E402


def parse_seeds(spec: str) -> list[int]:
    if ":" in spec:
        lo, hi = spec.split(":")
        return list(range(int(lo), int(hi)))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed with exit code {proc.returncode}")
    prov = next(json.loads(line[len("provenance "):]) for line in lines if line.startswith("provenance "))
    return result, prov


def summarise(results: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": statistics.median(values)}
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / entry["median"] if entry["median"] else 0.0
            entry.update(q1=q1, q3=q3, spread=spread)
            if name in bounds:
                entry["bound"] = bounds[name]
        entry["values"] = values
        summary[name] = entry
    return summary


def report(workload: str, summary: dict) -> None:
    for name, e in summary.items():
        if "spread" not in e:
            print(f"{workload:<12} {name:<45} {e['median']:>14.6g} {e['unit']}")
            continue
        flag = ""
        if "bound" in e:
            flag = "WIDE" if e["spread"] > e["bound"] else ("over a third" if e["spread"] > e["bound"] / 3 else "ok")
        print(f"{workload:<12} {name:<45} {e['median']:>14.6g} {e['unit']:<7} "
              f"q1 {e['q1']:.6g} q3 {e['q3']:.6g} spread {e['spread']:.4f} {flag}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="20240:20250", help="lo:hi (half-open) or a comma list")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", type=int, default=0, help="traced runs for the first N seeds")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    seeds, workloads = parse_seeds(args.seeds), args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {0: {w: [] for w in workloads}, 1: {w: [] for w in workloads}}
    provenance = []
    plan = [(0, s) for s in seeds] + [(1, s) for s in seeds[:args.traced]]
    for trace, seed in plan:
        for w in workloads:
            result, prov = run_once(w, seed, args.seconds, trace)
            runs[trace][w].append(result)
            provenance.append({"workload": w, "trace": trace, **prov})
            print(f"# {w} seed {seed} trace {trace}: load {prov['loadavg_1m_start']:.2f}"
                  f"->{prov['loadavg_1m_end']:.2f}", flush=True)
    out = {"seconds": args.seconds, "seeds": seeds, "provenance": provenance}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        if any(runs[trace].values()):
            out[key] = {w: summarise(r, bounds) for w, r in runs[trace].items()}
            for w, summary in out[key].items():
                report(w, summary)
    first = {w: r[0]["metrics"] for w, r in runs[0].items() if r}
    if first:
        out[f"quality_at_seed_{seeds[0]}"] = {
            w: {m: first[w][m]["value"] for m in ("rmse", "comm_rate")} for w in first}
    if "mc-silent" in out.get("end_to_end", {}):
        rate = out["end_to_end"]["mc-silent"]["trials_per_s"]["median"]
        out["paper_y_study_etvbf_cpu_hours_extrapolated"] = PAPER_Y_TRIALS / rate / 3600.0
        print(f"extrapolation (informational): etvbf column of the --profile paper y-study, "
              f"{PAPER_Y_TRIALS} trials at the median mc-silent rate: {out['paper_y_study_etvbf_cpu_hours_extrapolated']:.1f} CPU-hours")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

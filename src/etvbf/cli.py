"""Command-line entry points: one trial (simulate) and Monte Carlo parameter sweeps (sweep)."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    FILTER_IDS,
    SWEEP_PARAMS,
    ExperimentConfig,
    emit_outputs,
    run_sweep,
    run_trial,
)

# Desk-scale grids keep a full sweep under a coffee break; the full-size
# profile reproduces the original benchmark dimensions.
PROFILES = {
    "desk": {
        "n_mc": 50,
        "grids": {
            "y": (0.0005, 0.005, 0.05),
            "r": (10.0, 150.0, 300.0),
            "rho": (0.92, 0.94, 0.96, 0.98, 1.00),
        },
    },
    "paper": {
        "n_mc": 500,
        "grids": {
            "y": tuple(round(0.0005 * i, 6) for i in range(1, 201)),
            "r": tuple(float(10 * i) for i in range(1, 31)),
            "rho": (0.92, 0.94, 0.96, 0.98, 1.00),
        },
    },
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="base seed for all streams")
    parser.add_argument("--mc", type=int, help="number of Monte Carlo trials")
    parser.add_argument("--steps", type=int, help="steps per trial")
    parser.add_argument("--config", help="JSON file mirroring the experiment config")
    parser.add_argument("--out", default="etvbf_out", help="output path prefix")
    parser.add_argument("--profile", choices=sorted(PROFILES), default="desk")


def _resolve_config(args, **overrides) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data.update(json.load(fh))
    profile = PROFILES[args.profile]
    data.setdefault("n_mc", profile["n_mc"])
    # A sweep's grid: --grid, else the file's grid if it sweeps the same param, else the profile's.
    param = overrides.get("sweep_param")
    if param is not None and (data.get("sweep_param") != param or "sweep_grid" not in data):
        data["sweep_grid"] = profile["grids"][param]
    if args.seed is not None:
        data["base_seed"] = args.seed
    if args.mc is not None:
        data["n_mc"] = args.mc
    if args.steps is not None:
        data["n_step"] = args.steps
    data.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(data)


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    record = run_trial(cfg, args.filter, args.trial)
    path = f"{args.out}_trial.csv"
    record.to_csv(path)
    status = f"failed at step {record.fail_step}: {record.fail_reason}" if record.failed else "ok"
    print(f"wrote {path} ({status})")
    return 1 if record.failed else 0


def cmd_sweep(args) -> int:
    grid = filters = None
    if args.grid is not None:
        values = args.grid.split(",")
        if not all(v.strip() for v in values):
            raise ValueError(f"--grid {args.grid!r} has an empty value; list numbers, e.g. 0.1,0.2")
        grid = tuple(float(v) for v in values)
    if args.filters is not None:  # ExperimentConfig checks the ids
        filters = tuple(f.strip() for f in args.filters.split(",") if f.strip())
    cfg = _resolve_config(args, sweep_param=args.param, sweep_grid=grid, filters=filters)
    rows = run_sweep(cfg)
    print(f"{'sweep_value':<12} {'filter':<12} {'rmse':>10} {'comm_rate':>10} "
          f"{'mean_iter':>10} {'fail':>5}")
    for row in rows:
        print(
            f"{row.sweep_value:<12.6g} {row.filter:<12} {row.rmse:>10.4f} "
            f"{row.comm_rate:>10.4f} {row.mean_iterations:>10.3f} {row.failures:>5d}"
        )
    for path in emit_outputs(rows, args.out, cfg):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etvbf",
        description="Event-triggered adaptive filtering benchmark for the "
        "constant-velocity vehicle scenario.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trial and dump its per-step CSV")
    p_sim.add_argument("--filter", choices=FILTER_IDS, default="etvbf")
    p_sim.add_argument("--trial", type=int, default=0, help="trial index")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep a parameter grid over all filters")
    p_sweep.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    p_sweep.add_argument("--grid", help="comma-separated values; default from profile")
    p_sweep.add_argument("--filters", help="comma-separated filter ids")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

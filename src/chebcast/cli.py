"""Command-line harness: schedule construction, sandbox runs, sweeps, bounds.

Exit codes are a stable contract: 0 success, 1 verification-assertion
failure, 2 usage or configuration error.  Output files are byte-identical
across reruns with the same inputs; wall-clock timings go to a sidecar
".timing.log" file only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .basis import EllipseBound
from .bounds import verify_cheb_decay, verify_spectral_bound, verify_taylor_attainment
from .config import ConfigError, load_config
from .sandbox import (
    SWEEP_AXES,
    oracle_run,
    rmse_vs_oracle,
    run_sampler,
    sample_initial_latent,
    sweep_report,
    trajectory_to_csv,
)
from .schedule import ScheduleParams, adaptive_schedule

BOUND_SUITES = ("taylor", "chebyshev", "spectrum", "all")

# Gap-independence ceilings for the exp-channel fixture, measured once with
# the brute-force pipeline and frozen; keyed by ridge strength.  The lambda=0
# ceiling is large because the error crosses zero inside the gap range.
EXP_CHANNEL_RATIO_CEILING = {0.0: 1800.0, 0.1: 15.0, 10.0: 3.5}


def _output_dir(config_dir: str) -> Path:
    override = os.environ.get("CHEBCAST_OUTPUT_DIR")
    path = Path(override) if override else Path(config_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_schedule(args) -> int:
    try:
        schedule = adaptive_schedule(
            ScheduleParams(n_steps=args.n, interval=args.interval, warmup=args.warmup, alpha=args.alpha)
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(schedule.index_line())
    print(f"NFE={schedule.nfe}, speedup={schedule.speedup!r}")
    return 0


def cmd_simulate(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out = _output_dir(config.output_dir)
    solver = config.solver_config()
    spec = config.spec

    started = time.perf_counter()
    per_seed = {}
    for seed in config.seeds:
        x0 = sample_initial_latent(spec.dim, seed)
        oracle = oracle_run(spec, solver.n_steps, x0)
        run = run_sampler(spec, solver, x0)
        header = {
            "spec": spec.kind,
            "forecaster": solver.forecaster.kind,
            "schedule": solver.schedule.index_line(),
            "seed": seed,
        }
        trajectory_to_csv(run, out / f"run_seed{seed}.csv", header, oracle=oracle)
        rmse = rmse_vs_oracle(run, oracle, config.checkpoints)
        per_seed[str(seed)] = {
            "checkpoints": list(config.checkpoints),
            "rmse": rmse,
            "final_rmse": rmse_vs_oracle(run, oracle, [solver.n_steps])[0],
            "oracle_self_rmse": rmse_vs_oracle(oracle, oracle, [solver.n_steps])[0],
        }
    summary = {
        "forecaster": solver.forecaster.kind,
        "nfe": solver.schedule.nfe,
        "speedup": solver.schedule.speedup,
        "per_seed": per_seed,
        "mean_final_rmse": float(np.mean([v["final_rmse"] for v in per_seed.values()])),
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "simulate.timing.log", "w", encoding="utf-8") as fh:
        fh.write(f"wall_seconds={time.perf_counter() - started}\n")
    print(f"wrote {len(per_seed)} runs to {out}")
    return 0


def _taylor_suite() -> list[dict]:
    rows = []
    steps = (0.05, 0.1, 0.2, 0.5)
    for order in range(6):
        for bound_l in (1.0, float(math.factorial(order + 1))):
            for step in steps:
                rep = verify_taylor_attainment(order, step, bound_l)
                rows.append({
                    "name": f"attainment P={order} h={step} L={bound_l}",
                    "passed": rep.passed,
                    "bound": rep.bound,
                    "attained": rep.attained,
                    "rel_gap": rep.rel_gap,
                })
        slope = np.polyfit(np.log(steps), [np.log(verify_taylor_attainment(order, h, 1.0).bound) for h in steps], 1)[0]
        rows.append({
            "name": f"log-log slope P={order}",
            "passed": bool(abs(slope - (order + 1)) <= 1e-9),
            "slope": float(slope),
        })
    return rows


def _chebyshev_suite() -> list[dict]:
    rows = []
    rep = verify_cheb_decay(lambda tau: tau**3, EllipseBound(2.0, 1.953125), range(0, 9))
    rows.append({
        "name": "cubic captured exactly at M>=3",
        "passed": bool(rep.contained and max(rep.sup_errors[3:]) <= 1e-12),
        "sup_errors": list(rep.sup_errors),
    })
    rep = verify_cheb_decay(lambda tau: 1.0 / (tau - 2.0), EllipseBound(3.0, 3.0), range(0, 13))
    rows.append({
        "name": "pole-at-2 geometric decay",
        "passed": rep.passed,
        "decay_rate": rep.decay_rate,
        "sup_errors": list(rep.sup_errors),
        "bounds": list(rep.bounds),
    })
    rep = verify_cheb_decay(lambda tau: 5.0, EllipseBound(2.0, 5.0), range(0, 7), min_rate_fraction=0.0)
    rows.append({
        "name": "constant exact at all degrees",
        "passed": bool(max(rep.sup_errors) <= 1e-12),
        "sup_errors": list(rep.sup_errors),
    })
    return rows


def _spectrum_suite() -> list[dict]:
    rows = []
    rho = 3.0
    ellipse = EllipseBound(rho, float(np.exp(0.5 + (rho + 1.0 / rho) / 4.0)))
    gaps = np.linspace(0.05, 0.6, 23)
    for lam, ceiling in EXP_CHANNEL_RATIO_CEILING.items():
        rep = verify_spectral_bound(lambda t: float(np.exp(t)), ellipse, gaps, degree=4, lam=lam)
        rows.append({
            "name": f"exp channel containment lambda={lam}",
            "passed": rep.contained,
            "bound": rep.bound,
            "max_error": max(rep.errors),
        })
        rows.append({
            "name": f"exp channel gap ratio lambda={lam}",
            "passed": bool(rep.error_ratio <= ceiling and rep.taylor_bound_ratio >= 0.9 * 12.0**2),
            "error_ratio": rep.error_ratio,
            "ceiling": ceiling,
            "taylor_bound_ratio": rep.taylor_bound_ratio,
        })
    poly = lambda t: 0.3 - 1.2 * t + 0.8 * t * t + 0.4 * t**3 - 0.5 * t**4
    rep = verify_spectral_bound(poly, EllipseBound(2.0, 12.0), gaps, degree=4, lam=0.0)
    rows.append({
        "name": "degree-4 polynomial exact at lambda=0",
        "passed": bool(max(rep.errors) <= 1e-9 and rep.contained),
        "max_error": max(rep.errors),
    })
    return rows


def cmd_bounds(args) -> int:
    suites = {"taylor": _taylor_suite, "chebyshev": _chebyshev_suite, "spectrum": _spectrum_suite}
    names = list(suites) if args.suite == "all" else [args.suite]
    report = {}
    for name in names:
        report[name] = suites[name]()
    all_passed = all(row["passed"] for rows in report.values() for row in rows)
    payload = {"suites": report, "passed": all_passed}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_passed else 1


DEFAULT_SWEEP_VALUES = {"lambda": "1e-3,0.1,10", "degree": "2,4,6", "alpha": "0,3"}


def cmd_sweep(args) -> int:
    values = [float(v) for v in (args.values or DEFAULT_SWEEP_VALUES[args.axis]).split(",")]
    out = _output_dir(args.output_dir)
    rows = sweep_report(args.axis, values)
    lines = ["axis_value,mean_rmse,nfe"]
    for row in rows:
        lines.append(f"{row.axis_value!r},{row.mean_rmse!r},{row.nfe}")
    path = out / f"sweep_{args.axis}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(out / f"sweep_{args.axis}.timing.log", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(f"{row.axis_value!r}: wall_seconds={row.wall_seconds}\n")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chebcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="print an activation schedule and its NFE")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--interval", type=int, required=True)
    p.add_argument("--warmup", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="run the sampler per config and write CSV/JSON outputs")
    p.add_argument("config", help="path to a JSON experiment config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="run a bound-verification suite and emit a JSON report")
    p.add_argument("suite", choices=BOUND_SUITES)
    p.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="sweep one hyperparameter over the mixture benchmark")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", default=None, help="comma-separated values (defaults per axis)")
    p.add_argument("--output-dir", default="chebcast_out")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""The paper's CLI session: `chebcast simulate` on the gate-9 experiment config,
then `chebcast bounds all`, each a fresh subprocess timed from start to exit.

The config is written here by hand, as a user would type it: the benchmark
mixture, spectral forecaster, adaptive schedule interval 2 / warm-up 5 / alpha 3,
the first two latent seeds of the workload seed, checkpoints 10 and 50.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import chebcast
from chebcast import sandbox

import checks
from workloads import forecaster_choice

HERE = Path(__file__).resolve().parent
N_STEPS, INTERVAL, WARMUP, ALPHA = 50, 2, 5, 3.0
CHECKPOINTS = [10, 50]
COMMAND_TIMEOUT_S = 120


class CommandFailed(RuntimeError):
    """A chebcast subprocess exited with a non-zero code."""


def timed_command(cmd: list[str], env: dict) -> float:
    """Wall seconds of one subprocess from start to exit; raises CommandFailed on a non-zero exit."""
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise CommandFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return elapsed


class CliSession:
    def __init__(self, workdir: Path, env: dict, seeds: list[int]):
        self.seeds = seeds
        self.out_dir = workdir / "cli_out"
        self.env = {**env, "CHEBCAST_OUTPUT_DIR": str(self.out_dir)}
        self.config_path = workdir / "experiment.json"
        self.bounds_path = workdir / "bounds.json"
        spec = sandbox.benchmark_mixture()
        config = {
            "spec": {
                "kind": "gaussian_mixture_flow",
                "weights": list(spec.weights),
                "means": spec.means.tolist(),
                "variances": spec.variances.tolist(),
                "seed": spec.seed,
            },
            "schedule": {"n_steps": N_STEPS, "interval": INTERVAL, "warmup": WARMUP, "alpha": ALPHA},
            "forecaster": {"kind": "spectrum", "degree": 4, "lambda": 0.1},
            "seeds": seeds,
            "output_dir": str(self.out_dir),
            "checkpoints": CHECKPOINTS,
        }
        self.config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        self.full_passes = checks.formula_full_passes(N_STEPS, INTERVAL, WARMUP, ALPHA)
        # The CLI's summary must report the final RMSE of these same runs made in-process.
        solver = chebcast.SolverConfig(
            schedule=chebcast.adaptive_schedule(chebcast.ScheduleParams(N_STEPS, INTERVAL, WARMUP, ALPHA)),
            forecaster=forecaster_choice("spectrum"),
        )
        self.final_rmse = {}
        for seed in seeds:
            x0 = chebcast.sample_initial_latent(spec.dim, seed)
            run = sandbox.run_sampler(spec, solver, x0)
            self.final_rmse[seed] = checks.rmse_final(run.states, sandbox.oracle_run(spec, N_STEPS, x0).states)

    def _command(self, args: list[str], spans: Path | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "chebcast", *args]
        return [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]

    def simulate(self, spans: Path | None = None) -> float:
        return timed_command(self._command(["simulate", str(self.config_path)], spans), self.env)

    def bounds(self, spans: Path | None = None) -> float:
        return timed_command(self._command(["bounds", "all", "--output", str(self.bounds_path)], spans), self.env)

    def check_simulate(self) -> list[str]:
        problems = []
        for seed in self.seeds:
            text = (self.out_dir / f"run_seed{seed}.csv").read_text(encoding="utf-8")
            problems += checks.check_cli_csv(text, self.full_passes, N_STEPS)
        summary = json.loads((self.out_dir / "summary.json").read_text(encoding="utf-8"))
        problems += checks.check_cli_summary(summary, len(self.full_passes), self.final_rmse)
        return [f"cli simulate: {p}" for p in problems]

    def check_bounds(self) -> list[str]:
        report = json.loads(self.bounds_path.read_text(encoding="utf-8"))
        return [f"cli bounds: {p}" for p in checks.check_bounds_report(report)]

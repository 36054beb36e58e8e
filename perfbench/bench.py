"""One benchmark run: set-up, accuracy pass, timed rounds, report; the traced
run adds the CLI session.

Imported by run.py once the checkout's src/ is on sys.path.
"""


from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import checks
import tracing
import workloads
from cli_session import CliSession, timed_command
from experiment import Experiment

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_CLI_ROUNDS = 3
# The traced run spends this share of --seconds on its set-up and in-process
# rounds, the rest on untraced CLI rounds; one traced CLI round follows.
TRACE_INPROC_SHARE = 0.6
TRACE_SPAN_CAP = 100_000

E2E_UNITS = {
    "setup_s": "s", "oracle_s": "s", "spectrum_s": "s", "taylor_s": "s", "naive_s": "s",
    "speedup_spectrum": "x", "breakeven_pass_us": "us", "rmse_spectrum": "RMSE", "rmse_taylor": "RMSE",
    "peak_mib_spectrum": "MiB",
}
LAYER_UNITS = {
    "basis.matrix_us": "us", "basis.row_us": "us",
    "ridge.build_design_us": "us", "ridge.solve_us": "us", "ridge.rows_fitted": "count", "ridge.bytes_fitted": "bytes",
    "forecasters.observe_us": "us", "forecasters.fit_us": "us", "forecasters.fit_self_us": "us",
    "forecasters.fit_calls": "count", "forecasters.insert_us": "us", "forecasters.stack_us": "us",
    "forecasters.taylor_us": "us", "forecasters.forecast_us": "us",
    "schedule.build_us": "us",
    "sandbox.denoise_us": "us", "sandbox.denoise_oracle_us": "us", "sandbox.denoise_calls": "count",
    "sandbox.euler_us": "us", "sandbox.loop_self_ms": "ms", "sandbox.spec_build_ms": "ms", "sandbox.csv_ms": "ms",
    "bounds.taylor_ms": "ms", "bounds.cheb_decay_ms": "ms", "bounds.spectral_ms": "ms",
    "config.load_ms": "ms", "cli.simulate_ms": "ms", "cli.bounds_ms": "ms",
    "cli.import_ms": "ms", "cli.import_scipy_ms": "ms", "trace.overhead_ms": "ms",
}


def run_time(values: list[float], timing: str) -> float:
    """One run time from a run's timings of one kind of sampler run.

    The host of a small VM switches between a fast speed and one ~1.5x
    slower many times a second, and the slow share drifts from minute to
    minute. A mixture run is short enough to fall within one speed, so the
    median of a run's timings lands on either, while the fastest of thousands
    is what the program costs when it has the machine. A block-stack run
    lasts long enough to average over both speeds; its fastest is a rare
    quiet spell, and its median is the steadier. The workload table says
    which statistic each workload uses.
    """
    return min(values) if timing == "fastest" else statistics.median(values)


class Tally:
    """Operations attempted and failed, and every problem the output checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, fn):
        """Run one operation; a raise counts it failed and returns None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # one failed operation must not stop the measurement
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def openblas_libraries() -> int | None:
    """Distinct OpenBLAS shared objects mapped into this process (Linux only)."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return None
    return len({line.split()[-1] for line in maps.splitlines() if "openblas" in line.rsplit("/", 1)[-1].lower()})


def environment() -> dict:
    blas = {var: os.environ[var] for var in BLAS_VARS if var in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas or "default (unset)",
        "openblas_libs": openblas_libraries(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(workload: str, env: dict) -> list[float]:
    # Untimed: byte-compiles the sources once, as installing the package would.
    timed_command([sys.executable, "-c", "import chebcast"], env)
    cmd = [sys.executable, str(PERFBENCH / "setup_probe.py"), workload]
    return [timed_command(cmd, env) for _ in range(SETUP_REPEATS)]


def import_times(env: dict) -> tuple[float, float]:
    """Median cumulative ms of `import chebcast` and of its scipy.linalg import, from -X importtime."""
    totals, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import chebcast"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        cumulative = tracing.parse_importtime(proc.stderr)
        totals.append(cumulative["chebcast"])
        scipy.append(cumulative.get("scipy.linalg", 0.0))
    return statistics.median(totals), statistics.median(scipy)


def accuracy_pass(exp, tally: Tally) -> tuple[float, float, float]:
    """Untimed oracle, spectral and Taylor runs on every latent; also the warm-up.

    Returns the mean final-state RMSE of the spectral and Taylor runs against
    the oracle, and the tracemalloc peak (MiB) of the first spectral run.
    """
    rmse = {"spectrum": [], "taylor": []}
    peak_mib = None
    for x0 in exp.latents:
        oracle = tally.attempt(lambda: exp.run("oracle", x0))
        if oracle is not None:
            tally.problems += exp.check("oracle", oracle, x0)
        for kind in rmse:
            if kind == "spectrum" and peak_mib is None:
                tracemalloc.start()
                record = tally.attempt(lambda: exp.run(kind, x0))
                peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            else:
                record = tally.attempt(lambda: exp.run(kind, x0))
            if record is None:
                continue
            tally.problems += exp.check(kind, record, x0)
            if oracle is not None:
                rmse[kind].append(checks.rmse_final(record.states, oracle.states))
    return statistics.fmean(rmse["spectrum"]), statistics.fmean(rmse["taylor"]), peak_mib


def inproc_round(exp, index: int, tally: Tally, times: dict, tracer=None) -> float:
    """One run of each kind on latent `index`; returns the summed run seconds.

    Runs are timed back to back and checked afterwards, outside the timed calls.
    """
    x0 = exp.latents[index % len(exp.latents)]
    records = {}
    total = 0.0
    for kind in workloads.KINDS:
        started = time.perf_counter()
        if tracer is None:
            record = tally.attempt(lambda: exp.run(kind, x0))
        else:
            with tracer.span(f"run.{kind}"):
                record = tally.attempt(lambda: exp.run(kind, x0))
        elapsed = time.perf_counter() - started
        total += elapsed
        if record is not None:
            times[kind].append(elapsed)
            records[kind] = record
    for kind, record in records.items():
        tally.problems += exp.check(kind, record, x0)
    return total


def cli_round(session, tally: Tally, times: dict, spans_dir: Path | None = None) -> None:
    """`chebcast simulate`, then `chebcast bounds all`, each timed and then checked."""
    for command, run, check in (("simulate", session.simulate, session.check_simulate),
                                ("bounds", session.bounds, session.check_bounds)):
        spans = None if spans_dir is None else spans_dir / f"spans_{command}.json"
        elapsed = tally.attempt(lambda: run(spans))
        if elapsed is not None:
            times[command].append(elapsed)
            tally.problems += check()


def end_to_end(args, wl, exp, env, tally: Tally, workdir: Path) -> tuple[dict, dict]:
    started = time.perf_counter()
    setup = tally.attempt(lambda: measure_setup(wl.name, env)) or []
    rmse_spectrum, rmse_taylor, peak_mib = accuracy_pass(exp, tally)

    # --seconds covers the set-up probes, the accuracy pass and the rounds.
    times = {kind: [] for kind in workloads.KINDS}
    rounds = 0
    while rounds < 1 or time.perf_counter() - started < args.seconds:
        inproc_round(exp, rounds, tally, times)
        rounds += 1

    missing = [kind for kind, values in times.items() if not values] + ([] if setup else ["setup"])
    if missing:
        raise SystemExit(f"error: no successful {', '.join(missing)} operation to time")
    (workdir / "samples_s.json").write_text(json.dumps({"setup": setup, **times}), encoding="utf-8")
    run_s = {kind: run_time(values, wl.timing) for kind, values in times.items()}
    n, nfe = wl.n_steps, exp.nfe
    metrics = {
        "setup_s": statistics.median(setup),
        "oracle_s": run_s["oracle"],
        "spectrum_s": run_s["spectrum"],
        "taylor_s": run_s["taylor"],
        "naive_s": run_s["naive"],
        "speedup_spectrum": run_s["oracle"] / run_s["spectrum"],
        "breakeven_pass_us": (run_s["spectrum"] - run_s["oracle"] * nfe / n) / (n - nfe) * 1e6,
        "rmse_spectrum": rmse_spectrum,
        "rmse_taylor": rmse_taylor,
        "peak_mib_spectrum": peak_mib,
    }
    samples = {"setup_s": len(setup), **{f"{kind}_s": len(times[kind]) for kind in workloads.KINDS},
               "rmse_spectrum": len(exp.latents), "rmse_taylor": len(exp.latents)}
    quantiles = {kind: [min(v), *statistics.quantiles(v, n=4), max(v)] if len(v) > 1 else v
                 for kind, v in (("setup", setup), *times.items())}
    detail = {"rounds": rounds, "timing": wl.timing, "samples": samples, "quantiles_s": quantiles,
              "measure_seconds": time.perf_counter() - started,
              "theoretical_speedup": n / nfe, "n_steps": n, "nfe": nfe}
    return metrics, detail


def traced(args, wl, exp, session, env, tally: Tally, tracer, workdir: Path) -> tuple[dict, dict]:
    started = time.perf_counter()
    import_ms, import_scipy_ms = import_times(env)
    accuracy_pass(exp, tally)
    untraced_rounds, traced_rounds, missing = [], [], []
    times = {kind: [] for kind in workloads.KINDS}
    index = 0
    while not traced_rounds or (time.perf_counter() < started + args.seconds * TRACE_INPROC_SHARE
                                and len(tracer) < TRACE_SPAN_CAP):
        untraced_rounds.append(inproc_round(exp, index, tally, times))
        with tracing.installed(tracer, tracing.INPROC_TARGETS) as missing:
            traced_rounds.append(inproc_round(exp, index, tally, times, tracer))
        index += 1
    cli_times = {"simulate": [], "bounds": []}
    cli_rounds = 0
    while cli_rounds < MIN_CLI_ROUNDS or time.perf_counter() < started + args.seconds:
        cli_round(session, tally, cli_times)
        cli_rounds += 1
    traced_cli_times = {"simulate": [], "bounds": []}
    cli_round(session, tally, traced_cli_times, spans_dir=workdir)
    tracer.dump(workdir / "spans_inproc.json")

    if not all(cli_times.values()) or not all(traced_cli_times.values()):
        raise SystemExit("error: the CLI session failed")

    def spans(command):
        path = workdir / f"spans_{command}.json"
        return tracing.SpanTable(json.loads(path.read_text(encoding="utf-8")))

    metrics = tracing.inproc_metrics(tracing.SpanTable(tracer.to_dict()))
    metrics.update(tracing.cli_metrics(spans("simulate"), spans("bounds")))
    metrics["cli.simulate_ms"] = statistics.median(cli_times["simulate"]) * 1e3
    metrics["cli.bounds_ms"] = statistics.median(cli_times["bounds"]) * 1e3
    metrics["cli.import_ms"] = import_ms
    metrics["cli.import_scipy_ms"] = import_scipy_ms
    metrics["trace.overhead_ms"] = (statistics.median(traced_rounds) - statistics.median(untraced_rounds)) * 1e3
    detail = {"rounds": len(traced_rounds), "cli_rounds": cli_rounds, "spans": len(tracer),
              "missing_targets": missing,
              "untraced_round_s": statistics.median(untraced_rounds),
              "traced_round_s": statistics.median(traced_rounds)}
    return {name: metrics[name] for name in LAYER_UNITS}, detail


def print_report(args, env_record: dict, metrics: dict, units: dict, detail: dict, tally: Tally) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    samples = detail.get("samples", {})
    for name, value in metrics.items():
        note = f"{detail.get('timing')} of {samples[name]}" if name in samples else ""
        if name == "setup_s":
            note = f"median of {samples[name]}"
        if name.startswith("rmse_"):
            note = f"mean over {samples[name]} latents"
        if name == "speedup_spectrum":
            note = f"theoretical N/NFE = {detail['theoretical_speedup']:.4g}"
        print(f"  {name:<26} {value:>14.6g} {units[name]:<6} {note}")
    verdict = "all outputs correct" if not tally.problems else f"{len(tally.problems)} check failures"
    print(f"checks: {tally.attempted} operations, {tally.failed} failed, {verdict}")
    for problem in tally.problems[:10]:
        print(f"  FAIL {problem}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env_record, "detail": detail,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    print("perfbench-report " + json.dumps(report, sort_keys=True))


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="chebcast measured-speedup benchmark")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; the initial latents are drawn from it")
    parser.add_argument("--seconds", type=float, default=35.0, help="measured time of one run, set-up included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate traced run, reporting per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv, list(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    env = subprocess_env()
    workdir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    exp = Experiment(wl, args.seed, span=tracer.span if tracer is not None else None)
    if args.trace:
        session = CliSession(workdir, env, workloads.latent_seeds(args.seed, 2))
        metrics, detail = traced(args, wl, exp, session, env, tally, tracer, workdir)
        units = LAYER_UNITS
    else:
        metrics, detail = end_to_end(args, wl, exp, env, tally, workdir)
        units = E2E_UNITS
    env_record = environment()
    print_report(args, env_record, metrics, units, detail, tally)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0

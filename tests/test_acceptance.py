"""Acceptance gates: one test per shipped guarantee, tolerances pinned here.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
gate.  Gates 6 and 7 state empirical ordering/ablation patterns for the
mixture benchmark that the analytic sandbox does not actually exhibit at
this scale (the local baseline is stronger than the global fit on smooth
mixture velocities, and weaker regularization helps noiseless fits); they
are asserted faithfully rather than weakened, so they fail and document the
measured values.
"""

import math
import subprocess
import sys

import numpy as np

from chebcast import (
    EllipseBound,
    ForecasterChoice,
    SolverConfig,
    basis_matrix,
    basis_row,
    oracle_run,
    project_time,
    rmse_vs_oracle,
    run_sampler,
    sample_initial_latent,
    spectral_weights,
    sweep_report,
    taylor_worst_case,
    uniform_schedule,
    verify_cheb_decay,
    verify_spectral_bound,
    verify_taylor_attainment,
)
from chebcast.denoisers import FunctionFamily, PolynomialChannel
from chebcast.plan import plan_forecasts
from chebcast.sandbox import BENCHMARK_SEEDS, benchmark_mixture
from chebcast.schedule import ScheduleParams, adaptive_schedule

from oracles import brute_ridge, ridge_coefficients, ridge_fit


BENCHMARK_CHECKPOINTS = (10, 20, 30, 40, 50)


def report(line):
    print(f"ACCEPTANCE {line}")


def test_gate_1_scheduler_table_exact():
    """Nine published schedule configurations yield their NFE values exactly."""
    table = [
        ((4, 1, 0.0), 13),
        ((4, 3, 0.0), 14),
        ((4, 5, 0.0), 16),
        ((2, 5, 0.75), 14),
        ((6, 1, 0.0), 9),
        ((6, 3, 0.0), 10),
        ((6, 5, 0.0), 12),
        ((2, 5, 3.0), 10),
        ((8, 5, 0.0), 10),
    ]
    got = [
        adaptive_schedule(ScheduleParams(50, interval, warmup, alpha)).nfe
        for (interval, warmup, alpha), _ in table
    ]
    assert got == [nfe for _, nfe in table]
    report("1: PASS - scheduler table NFE {13,14,16,14,9,10,12,10,10} reproduced exactly")


def test_gate_2_taylor_bound_attainment():
    """Witness attains the local worst-case bound; bound scales as h**(P+1)."""
    steps = (0.05, 0.1, 0.2, 0.5)
    for order in range(6):
        for step in steps:
            for bound_l in (1.0, float(math.factorial(order + 1))):
                rep = verify_taylor_attainment(order, step, bound_l)
                assert rep.rel_gap <= 1e-12, (order, step, bound_l, rep)
        slope = np.polyfit(
            np.log(steps), [np.log(taylor_worst_case(1.0, order, h)) for h in steps], 1
        )[0]
        assert abs(slope - (order + 1)) <= 1e-9
    report("2: PASS - witness attains the bound to 1e-12; log-log slope equals P+1")


def test_gate_3_chebyshev_decay():
    """Interpolation error of 1/(tau-2) sits under twice the geometric bound."""
    rep = verify_cheb_decay(lambda tau: 1.0 / (tau - 2.0), EllipseBound(3.0, 3.0), range(0, 13))
    assert rep.contained, rep
    assert rep.decay_rate >= 0.9 * np.log(3.0)
    report(
        f"3: PASS - sup errors below 2x bound at M=0..12, measured rate {rep.decay_rate:.4f}"
        f" >= 0.9*log(rho)"
    )


def test_gate_4_spectral_bound_containment():
    """Forecast error stays inside the fit-dependent bound at 23 gaps."""
    ellipse = EllipseBound(3.0, float(np.exp(0.5 + (3.0 + 1.0 / 3.0) / 4.0)))
    gaps = np.linspace(0.05, 0.6, 23)
    ceilings = {0.0: 1800.0, 0.1: 15.0, 10.0: 3.5}
    for lam, ceiling in ceilings.items():
        rep = verify_spectral_bound(lambda t: float(np.exp(t)), ellipse, gaps, degree=4, lam=lam)
        assert rep.contained, (lam, rep.bound, max(rep.errors))
        assert rep.error_ratio <= ceiling, (lam, rep.error_ratio)
        assert rep.taylor_bound_ratio >= 0.9 * (0.6 / 0.05) ** 2
    report("4: PASS - containment at 23 gaps for lambda in {0, 0.1, 10}; gap ratios inside frozen ceilings")


def test_gate_5_exactness_suite():
    """Polynomial reproduction, order-0 equals naive, all-pass equals oracle."""
    rng = np.random.default_rng(50)
    for degree in range(7):
        coeffs = rng.normal(size=(degree + 1, 2))
        while True:
            times = np.sort(rng.uniform(0.0, 1.0, degree + 1))
            if degree == 0 or np.min(np.diff(times)) > 0.04:
                break
        H = np.array([basis_row(degree, project_time(t)) @ coeffs for t in times])
        qth, triangle = ridge_fit([project_time(t) for t in times], H, degree, 0.0)
        for t_query in rng.uniform(0.0, 1.0, 50):
            expected = basis_row(degree, project_time(t_query)) @ coeffs
            w = spectral_weights(triangle, basis_row(degree, project_time(t_query))[None])[0]
            assert np.max(np.abs(w @ qth - expected)) <= 1e-9

    # passes at steps 1, 4 and 7; order-0 Taylor forecasts each skipped step as the newest pass
    passes = np.array([rng.normal(size=5) for _ in range(3)])
    schedule = uniform_schedule(8, 3, 1)
    order0 = plan_forecasts(schedule, ForecasterChoice(kind="taylor", order=0))
    naive = plan_forecasts(schedule, ForecasterChoice(kind="naive"))
    assert order0.flags == naive.flags
    assert [p[:3] for p in order0.passes] == [p[:3] for p in naive.passes]  # each pass's step, time and row
    for (*_, a), (*_, b) in zip(order0.passes, naive.passes):  # every pass has a stretch after it
        assert (a.start, a.stop, a.lo, a.hi, a.fold) == (b.start, b.stop, b.lo, b.hi, b.fold)
        assert np.array_equal(a.weights, b.weights)
        newest = np.repeat(passes[a.hi - 1:a.hi], a.stop - a.start, axis=0)
        assert np.array_equal(a.weights @ passes[a.lo:a.hi], newest)

    spec = FunctionFamily(
        channels=tuple(PolynomialChannel(tuple(rng.normal(size=4))) for _ in range(6))
    )
    x0 = sample_initial_latent(spec.dim, 5)
    oracle = oracle_run(spec, 50, x0)
    all_pass = uniform_schedule(50, 1, 1)
    for kind in ("naive", "taylor", "spectrum"):
        run = run_sampler(spec, SolverConfig(all_pass, ForecasterChoice(kind=kind)), x0)
        assert np.array_equal(run.states, oracle.states)
    report("5: PASS - polynomial reproduction 1e-9, order-0 bitwise naive, all-pass bitwise oracle")


def _benchmark_runs(seed):
    spec = benchmark_mixture()
    x0 = sample_initial_latent(spec.dim, seed)
    oracle = oracle_run(spec, 50, x0)
    spectral = run_sampler(
        spec,
        SolverConfig(adaptive_schedule(ScheduleParams(50, 2, 5, 3.0)), ForecasterChoice(kind="spectrum")),
        x0,
    )
    taylor = run_sampler(
        spec,
        SolverConfig(uniform_schedule(50, 8, 5), ForecasterChoice(kind="taylor", order=1)),
        x0,
    )
    cps = list(BENCHMARK_CHECKPOINTS)
    return rmse_vs_oracle(spectral, oracle, cps), rmse_vs_oracle(taylor, oracle, cps)


def test_gate_6_benchmark_checkpoint_ordering():
    """Target: per-seed checkpoint RMSE with the global forecaster at or below
    the local one, both increasing.

    Known not to hold for this sandbox: the analytic mixture velocities are
    smooth enough that local order-1 extrapolation stays ahead of the
    ridge-regularized global fit at matched NFE.  Asserted faithfully.
    """
    failures = []
    for seed in BENCHMARK_SEEDS:
        sp, ty = _benchmark_runs(seed)
        print(f"  seed {seed}: spectral={[f'{v:.4f}' for v in sp]} taylor={[f'{v:.4f}' for v in ty]}")
        if not all(s <= t for s, t in zip(sp, ty)):
            failures.append((seed, "spectral above taylor", sp, ty))
        if not all(b > a for a, b in zip(sp, sp[1:])):
            failures.append((seed, "spectral not increasing", sp, ty))
        if not all(b > a for a, b in zip(ty, ty[1:])):
            failures.append((seed, "taylor not increasing", sp, ty))
    assert not failures, f"benchmark ordering violated: {failures[:3]}"
    report("6: PASS - spectral <= taylor at every checkpoint, both monotone, all seeds")


def test_gate_7_ablation_patterns():
    """Target: ridge weight 0.1 optimal in {1e-3, 0.1, 10}; degree knee at 4
    with degree 6 within 10%; adaptive schedule beating uniform at NFE 10.

    Known not to hold for this sandbox: with noiseless analytic features the
    least-regularized fit wins, degree 6 overfits the clustered warm-up, and
    uniform scheduling shortens the late forecast gaps that dominate the
    global fit's error.  Asserted faithfully.
    """
    lam_rows = {row.axis_value: row.mean_rmse for row in sweep_report("lambda", [1e-3, 0.1, 10.0])}
    deg_rows = {row.axis_value: row.mean_rmse for row in sweep_report("degree", [2, 4, 6])}
    alpha_rows = {row.axis_value: row.mean_rmse for row in sweep_report("alpha", [0.0, 3.0])}
    print(f"  lambda sweep: {lam_rows}")
    print(f"  degree sweep: {deg_rows}")
    print(f"  alpha sweep: {alpha_rows}")
    assert lam_rows[0.1] <= lam_rows[1e-3], "lambda=0.1 not better than 1e-3"
    assert lam_rows[0.1] <= lam_rows[10.0], "lambda=0.1 not better than 10"
    assert deg_rows[4.0] < deg_rows[2.0], "degree 4 not better than degree 2"
    assert abs(deg_rows[6.0] - deg_rows[4.0]) <= 0.1 * deg_rows[4.0], "degree 6 not within 10% of 4"
    assert alpha_rows[3.0] <= alpha_rows[0.0], "adaptive not better than uniform"
    report("7: PASS - lambda U-shape at 0.1, degree knee at 4, adaptive <= uniform")


def test_gate_8_ridge_matches_brute_force():
    """100 random ridge instances match explicit elimination elementwise."""
    rng = np.random.default_rng(88)
    for _ in range(100):
        degree = int(rng.integers(0, 7))
        k = int(rng.integers(degree + 2, 13))
        f_dim = int(rng.integers(1, 17))
        taus = np.sort(rng.uniform(-1.0, 1.0, k))
        while np.min(np.diff(taus)) <= 1e-6:
            taus = np.sort(rng.uniform(-1.0, 1.0, k))
        features = rng.normal(size=(k, f_dim))
        lam = float(rng.uniform(0.0, 2.0))
        got = ridge_coefficients(*ridge_fit(taus, features, degree, lam))
        want = brute_ridge(basis_matrix(degree, taus), features, lam)
        assert np.max(np.abs(got - want)) <= 1e-8
    report("8: PASS - 100 random instances match the elimination oracle to 1e-8")


def test_gate_9_rerun_determinism(tmp_path):
    """Reruns of every command produce byte-identical primary outputs."""
    from chebcast.config import ExperimentConfig, dump_config

    config = ExperimentConfig(
        spec=benchmark_mixture(),
        schedule=ScheduleParams(50, 2, 5, 3.0),
        forecaster=ForecasterChoice(kind="spectrum"),
        seeds=BENCHMARK_SEEDS[:2],
        output_dir=str(tmp_path / "a"),
        checkpoints=(10, 50),
    )
    cfg_path = tmp_path / "config.json"
    dump_config(config, cfg_path)

    def cli(*args, out_dir=None):
        import os

        env = dict(os.environ)
        if out_dir is not None:
            env["CHEBCAST_OUTPUT_DIR"] = str(out_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "chebcast", *args], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    s1 = cli("schedule", "--n", "50", "--interval", "2", "--warmup", "5", "--alpha", "3.0")
    s2 = cli("schedule", "--n", "50", "--interval", "2", "--warmup", "5", "--alpha", "3.0")
    assert s1 == s2

    cli("simulate", str(cfg_path))
    cli("simulate", str(cfg_path), out_dir=tmp_path / "b")
    for name in ("run_seed7051.csv", "run_seed7093.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    cli("bounds", "taylor", "--output", str(tmp_path / "r1.json"))
    cli("bounds", "taylor", "--output", str(tmp_path / "r2.json"))
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    cli("sweep", "--axis", "degree", "--values", "4", out_dir=tmp_path / "s1")
    cli("sweep", "--axis", "degree", "--values", "4", out_dir=tmp_path / "s2")
    assert (tmp_path / "s1" / "sweep_degree.csv").read_bytes() == (
        tmp_path / "s2" / "sweep_degree.csv"
    ).read_bytes()
    report("9: PASS - schedule/simulate/bounds/sweep reruns byte-identical")

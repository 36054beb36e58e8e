"""Tests for strict config parsing and the command-line harness."""

import copy
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcast.config import (
    ConfigError,
    ExperimentConfig,
    dump_config,
    load_config,
    parse_config,
)
from chebcast.denoisers import (
    BlockStack,
    ExponentialChannel,
    FunctionFamily,
    PolynomialChannel,
    SineChannel,
)
from chebcast.plan import ForecasterChoice
from chebcast.sandbox import BENCHMARK_SEEDS, benchmark_mixture
from chebcast.schedule import ScheduleParams, adaptive_schedule

from oracles import TaylorForecaster

DATA = Path(__file__).parent / "data"


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "chebcast", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def sample_config(tmp_path, **overrides):
    config = ExperimentConfig(
        spec=benchmark_mixture(),
        schedule=ScheduleParams(50, 2, 5, 3.0),
        forecaster=ForecasterChoice(kind="spectrum"),
        seeds=(7051, 7093),
        output_dir=str(tmp_path / "out"),
        checkpoints=(10, 20, 30, 40, 50),
    )
    raw = config.to_dict()
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return config, path


def test_config_round_trip(tmp_path):
    config, path = sample_config(tmp_path)
    dump_config(config, path)
    loaded = load_config(str(path))
    assert loaded.to_dict() == config.to_dict()
    # and the serialized form itself is stable
    dump_config(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


@pytest.mark.parametrize(
    "spec, alpha",
    [
        (BlockStack(n_blocks=2, width=3, gain=1), 1),
        (FunctionFamily(channels=(PolynomialChannel((1, 2)), SineChannel(amplitude=2), ExponentialChannel(3, -1))), 0),
    ],
    ids=["block-stack-gain-alpha", "channels"],
)
def test_config_of_int_values_round_trips_byte_for_byte(tmp_path, spec, alpha):
    """Checked numbers given as ints are stored as floats, as a reloaded config holds them: both dump the same text."""
    config = ExperimentConfig(spec, ScheduleParams(20, 2, 3, alpha), ForecasterChoice(kind="naive"), seeds=(1,))
    dump_config(config, tmp_path / "first.json")
    dump_config(load_config(str(tmp_path / "first.json")), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "first.json").read_bytes()


def test_dump_config_writes_nothing_it_cannot_serialize(tmp_path):
    config = dataclasses.replace(gate9_config(), output_dir=Path("out"))
    with pytest.raises(ConfigError, match="has no serialized form"):
        dump_config(config, tmp_path / "config.json")
    assert not (tmp_path / "config.json").exists()


def test_unknown_key_named_in_error(tmp_path):
    config, path = sample_config(tmp_path)
    raw = config.to_dict()
    raw["forecaster"]["lamda"] = 0.2
    with pytest.raises(ConfigError, match="lamda"):
        parse_config(raw)


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="extra"):
        parse_config({"spec": {}, "schedule": {}, "forecaster": {}, "seeds": [1], "extra": 1})


def test_missing_section():
    with pytest.raises(ConfigError, match="missing key 'seeds'"):
        parse_config({"spec": {"kind": "block_stack"}, "schedule": {}, "forecaster": {"kind": "naive"}})


def test_function_family_channels_parse(tmp_path):
    raw = {
        "spec": {
            "kind": "function_family",
            "channels": [
                {"type": "polynomial", "coefficients": [1.0, -0.5]},
                {"type": "sine", "amplitude": 2.0, "frequency": 1.5, "phase": 0.2},
                {"type": "exponential", "scale": 0.5, "rate": 1.0},
            ],
        },
        "schedule": {"n_steps": 20, "interval": 4, "warmup": 2},
        "forecaster": {"kind": "taylor", "order": 1},
        "seeds": [3],
    }
    config = parse_config(raw)
    assert config.spec.dim == 3
    assert config.forecaster.kind == "taylor"
    assert config.solver_config().schedule.n_steps == 20


def test_bad_channel_type():
    raw = {
        "spec": {"kind": "function_family", "channels": [{"type": "sigmoid"}]},
        "schedule": {},
        "forecaster": {"kind": "naive"},
        "seeds": [1],
    }
    with pytest.raises(ConfigError, match="sigmoid"):
        parse_config(raw)


# --- CLI -------------------------------------------------------------------


def test_cli_schedule_alpha3():
    proc = run_cli("schedule", "--n", "50", "--interval", "2", "--warmup", "5", "--alpha", "3.0")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "1,2,3,4,5,7,12,20,31,45"
    assert "NFE=10" in lines[1] and "speedup=5.0" in lines[1]


def test_cli_schedule_interval_four():
    proc = run_cli("schedule", "--n", "50", "--interval", "4", "--warmup", "5", "--alpha", "0")
    assert proc.returncode == 0
    assert "NFE=16" in proc.stdout


def test_cli_schedule_degenerate():
    proc = run_cli("schedule", "--n", "50", "--interval", "1", "--warmup", "1", "--alpha", "0")
    assert proc.returncode == 0
    assert "NFE=50, speedup=1.0" in proc.stdout


def test_cli_schedule_invalid_flags():
    proc = run_cli("schedule", "--n", "50", "--interval", "0", "--warmup", "1")
    assert proc.returncode == 2
    assert proc.stderr == "error: interval must be an integer >= 1, got 0\n"


def test_cli_schedule_huge_alpha_stops_after_the_first_gap():
    # the second gap overflows to inf, and the loop stops on it before taking its floor
    proc = run_cli("schedule", "--n", "50", "--interval", "2", "--warmup", "5", "--alpha", "1e308")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1,2,3,4,5,7\nNFE=6, speedup=8.333333333333334\n"


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_cli_schedule_non_finite_alpha(alpha):
    proc = run_cli("schedule", "--n", "50", "--interval", "2", "--warmup", "5", "--alpha", alpha)
    assert proc.returncode == 2
    assert proc.stderr == f"error: alpha must be finite and >= 0, got {alpha}\n"


def test_cli_bounds_unknown_suite():
    proc = run_cli("bounds", "nosuch")
    assert proc.returncode == 2


def test_cli_bounds_taylor_passes(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("bounds", "taylor", "--output", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert all(row["passed"] for row in report["suites"]["taylor"])


def test_cli_simulate_oracle_config(tmp_path):
    config = ExperimentConfig(
        spec=benchmark_mixture(),
        schedule=ScheduleParams(30, 1, 1, 0.0),
        forecaster=ForecasterChoice(kind="oracle"),
        seeds=(7051,),
        output_dir=str(tmp_path / "out"),
        checkpoints=(30,),
    )
    path = tmp_path / "oracle.json"
    dump_config(config, path)
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["per_seed"]["7051"]["final_rmse"] == 0.0
    assert summary["per_seed"]["7051"]["oracle_self_rmse"] == 0.0


def test_cli_simulate_infinite_gain_is_refused_before_any_pass(tmp_path):
    raw = json.loads((DATA / "blockstack_config.json").read_text())
    raw["spec"]["gain"] = float("inf")  # written as Infinity
    raw["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 2
    # no pass ran, so no RuntimeWarning from the overflowing block either
    assert proc.stderr == "error: invalid spec: nonlinearity gain must be finite and >= 0, got inf\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["naive", "taylor"])
def test_cli_simulate_per_block_local_forecaster(tmp_path, kind):
    """Every kind caches per block: the block-stack config runs with reuse or Taylor in place of the spectral fit."""
    raw = json.loads((DATA / "blockstack_config.json").read_text())
    raw["forecaster"]["kind"] = kind
    raw["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert sorted(summary["per_seed"]) == ["1", "2"]
    flags = [line.split(",")[2] for line in (tmp_path / "out" / "run_seed1.csv").read_text().splitlines()
             if line[:1].isdigit()]
    assert "forecast" in flags


def test_cli_simulate_unknown_key_exit_code(tmp_path):
    _, path = sample_config(tmp_path)
    raw = json.loads(path.read_text())
    raw["forecaster"]["lamda"] = 0.2
    path.write_text(json.dumps(raw))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 2
    assert "lamda" in proc.stderr


def test_cli_simulate_rerun_is_byte_identical(tmp_path):
    config = ExperimentConfig(
        spec=benchmark_mixture(),
        schedule=ScheduleParams(50, 2, 5, 3.0),
        forecaster=ForecasterChoice(kind="spectrum"),
        seeds=(7051,),
        output_dir=str(tmp_path / "a"),
        checkpoints=(10, 50),
    )
    path = tmp_path / "config.json"
    dump_config(config, path)
    assert run_cli("simulate", str(path)).returncode == 0
    assert run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "b")}).returncode == 0
    for name in ("run_seed7051.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_sweep_writes_deterministic_csv(tmp_path):
    args = ("sweep", "--axis", "degree", "--values", "2,4")
    assert run_cli(*args, env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "a")}).returncode == 0
    assert run_cli(*args, env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "b")}).returncode == 0
    body_a = (tmp_path / "a" / "sweep_degree.csv").read_bytes()
    assert body_a == (tmp_path / "b" / "sweep_degree.csv").read_bytes()
    lines = body_a.decode().splitlines()
    assert lines[0] == "axis_value,mean_rmse,nfe"
    assert len(lines) == 3
    for line in lines[1:]:
        value, rmse, nfe = line.split(",")
        assert float(rmse) > 0.0
        assert int(nfe) == 10


@pytest.mark.parametrize("name", ["gate9", "function_family"])
def test_simulate_outputs_match_golden_files(tmp_path, monkeypatch, name):
    """simulate writes the CSVs and summary under tests/data/golden byte for byte."""
    from chebcast import cli

    monkeypatch.setenv("CHEBCAST_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["simulate", str(DATA / f"{name}_config.json")]) == 0
    golden = sorted((DATA / "golden" / name).iterdir())
    assert golden
    for path in golden:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/config.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"spec": }')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(path))


def test_load_config_non_object_root(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(path))


# (a line of the gate-9 config file, a line written after it with the same key, the key)
DUPLICATED = {
    "nested": ('    "lambda": 0.1,\n', '    "lambda": 10.0,\n', "lambda"),  # json kept the last: lambda = 10.0
    "top-level": ('  "output_dir": "chebcast_out",\n', '  "output_dir": "elsewhere",\n', "output_dir"),
}


def duplicated_config(tmp_path, case):
    """The gate-9 config file with one key written twice in one object."""
    line, again, _ = DUPLICATED[case]
    text = (DATA / "gate9_config.json").read_text()
    assert text.count(line) == 1
    path = tmp_path / "config.json"
    path.write_text(text.replace(line, line + again))
    return path


@pytest.mark.parametrize("case", sorted(DUPLICATED))
def test_load_config_refuses_a_key_written_twice(tmp_path, case):
    path = duplicated_config(tmp_path, case)
    with pytest.raises(ConfigError, match=f"^duplicate key '{DUPLICATED[case][2]}' in "):
        load_config(str(path))


@pytest.mark.parametrize("case", sorted(DUPLICATED))
def test_cli_simulate_key_written_twice_exit_code(tmp_path, case):
    path = duplicated_config(tmp_path, case)
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 2
    assert proc.stderr == f"error: duplicate key '{DUPLICATED[case][2]}' in {path}\n"
    assert not (tmp_path / "out").exists()


def test_cli_bounds_all_passes(tmp_path):
    out = tmp_path / "all.json"
    proc = run_cli("bounds", "all", "--output", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert set(report["suites"]) == {"taylor", "chebyshev", "spectrum"}


# --- invalid values --------------------------------------------------------


def gate9_config(output_dir="chebcast_out"):
    return ExperimentConfig(
        spec=benchmark_mixture(),
        schedule=ScheduleParams(50, 2, 5, 3.0),
        forecaster=ForecasterChoice(kind="spectrum"),
        seeds=BENCHMARK_SEEDS[:2],
        output_dir=output_dir,
        checkpoints=(10, 50),
    )


# (section, key, value, text the error must contain); section None is the root.
INVALID = {
    "negative degree": ("forecaster", "degree", -1, "forecaster"),
    "negative lambda": ("forecaster", "lambda", -0.5, "forecaster"),
    "zero window": ("forecaster", "window", 0, "forecaster"),
    "zero width": (None, "spec", {"kind": "block_stack", "width": 0}, "spec"),
    "weights off 1": ("spec", "weights", [0.5, 0.3, 0.3], "spec"),
    "non-integer seed": (None, "seeds", ["x"], "seeds"),
    "fractional seed": (None, "seeds", [1.5], "seeds: expected an integer, got 1.5"),
    "negative seed": (None, "seeds", [-1], "invalid config: seed must be an integer >= 0, got -1"),
    "repeated seed": (None, "seeds", [7051, 7093, 7051], "invalid config: seeds must be distinct, got 7051 more than once"),
    "zero checkpoint": (None, "checkpoints", [0, 50], "invalid config: checkpoint must be an integer >= 1, got 0"),
    "repeated checkpoint": (
        None, "checkpoints", [50, 10, 50], "invalid config: checkpoints must be distinct, got 50 more than once",
    ),
    "boolean seed": (None, "seeds", [True], "seeds: expected an integer, got True"),
    "fractional degree": ("forecaster", "degree", 4.5, "forecaster.degree: expected an integer"),
    "fractional step count": ("schedule", "n_steps", 50.9, "schedule.n_steps: expected an integer"),
    "infinite step count": ("schedule", "n_steps", float("inf"), "schedule.n_steps: expected an integer"),
    "NaN lambda": ("forecaster", "lambda", float("nan"), "forecaster.*finite"),
    "infinite lambda": ("forecaster", "lambda", float("inf"), "forecaster.*finite"),
    "boolean lambda": ("forecaster", "lambda", True, "forecaster.lambda: expected a number, got True"),
    "string alpha": ("schedule", "alpha", "3", "schedule.alpha: expected a number, got '3'"),
    "alpha past the float range": ("schedule", "alpha", 10**400, "schedule.alpha: int too large"),
    "infinite alpha": ("schedule", "alpha", float("inf"), "schedule.*alpha must be finite"),
    "NaN alpha": ("schedule", "alpha", float("nan"), "schedule.*alpha must be finite"),
    "infinite gain": (None, "spec", {"kind": "block_stack", "gain": float("inf")}, "spec: nonlinearity gain must be finite"),
    "NaN gain": (None, "spec", {"kind": "block_stack", "gain": float("nan")}, "spec: nonlinearity gain must be finite"),
    "boolean weight": ("spec", "weights", [True, 0.0, 0.0], "spec.weights: expected a number, got True"),
    "NaN weight": ("spec", "weights", [float("nan"), 0.5, 0.5], "spec: mixture weights must be finite, got nan"),
    "infinite mean": ("spec", "means", [[float("inf")] * 8] * 3, "spec: mixture means must be finite, got inf"),
    "NaN mean": ("spec", "means", [[float("nan")] * 8] * 3, "spec: mixture means must be finite, got nan"),
    "NaN variance": ("spec", "variances", [[float("nan")] * 8] * 3, "spec: mixture variances must be finite"),
    "infinite variance": ("spec", "variances", [[float("inf")] * 8] * 3, "spec: mixture variances must be finite"),
    "NaN polynomial coefficient": (
        None, "spec",
        {"kind": "function_family", "channels": [{"type": "polynomial", "coefficients": [1.0, float("nan")]}]},
        r"spec.channels\[0\]: channel coefficients must be finite, got nan",
    ),
    "infinite sine frequency": (
        None, "spec", {"kind": "function_family", "channels": [{"type": "sine", "frequency": float("inf")}]},
        r"spec.channels\[0\]: channel frequency must be finite, got inf",
    ),
    "NaN exponential rate": (
        None, "spec",
        {"kind": "function_family", "channels": [{"type": "exponential", "rate": float("nan")}]},
        r"spec.channels\[0\]: channel rate must be finite, got nan",
    ),
    "boolean variances": ("spec", "variances", [[True] * 8] * 3, "spec.variances: expected a number"),
    "string means": ("spec", "means", [["1"] * 8] * 3, "spec.means: expected a number, got '1'"),
    "null output dir": (None, "output_dir", None, "output_dir: expected a string, got None"),
    "numeric output dir": (None, "output_dir", 5, "output_dir: expected a string, got 5"),
    "schedule not an object": (None, "schedule", [], "schedule"),
    "checkpoint past the end": (None, "checkpoints", [99], "checkpoints"),
    "per-block without a block stack": ("forecaster", "cache_scope", "per_block", "block_stack"),
}


def invalid_raw(case):
    section, key, value, _ = INVALID[case]
    raw = gate9_config().to_dict()
    (raw[section] if section else raw)[key] = copy.deepcopy(value)
    return raw


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_value_is_config_error(case):
    with pytest.raises(ConfigError, match=INVALID[case][3]):
        parse_config(invalid_raw(case))


def test_cli_simulate_alpha_past_the_float_range_exit_code(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(invalid_raw("alpha past the float range")))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 2
    assert proc.stderr == "error: invalid value for schedule.alpha: int too large to convert to float\n"
    assert not (tmp_path / "out").exists()


def taylor_raw(schedule, order, window=None):
    raw = GOLDEN["function_family_config.json"]().to_dict()
    raw["schedule"].update(schedule)
    raw["forecaster"].update(order=order, window=window)
    raw["checkpoints"] = None  # the final step, wherever it is
    return raw


# Step 1 is a full pass, so the cache holds warmup entries at the first
# forecast, or window entries once the window is the smaller.
TAYLOR_TOO_DEEP = {
    "warm-up": (
        {"n_steps": 20, "interval": 4, "warmup": 2}, 2, None,
        "the taylor forecast at step 3 (t=0.1) cannot be made: order-2 forecast needs 3 cached entries, have 2",
    ),
    "window": (
        {"n_steps": 20, "interval": 4, "warmup": 5}, 2, 2,
        "the taylor forecast at step 6 (t=0.25) cannot be made: order-2 forecast needs 3 cached entries, have 2",
    ),
}


@pytest.mark.parametrize("case", sorted(TAYLOR_TOO_DEEP))
def test_taylor_order_the_cache_cannot_serve_is_config_error(case):
    schedule, order, window, message = TAYLOR_TOO_DEEP[case]
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(taylor_raw(schedule, order, window))
    # one entry deeper, or one order lower, is served
    parse_config(taylor_raw(schedule, order - 1, window))
    deeper = {**schedule, "warmup": schedule["warmup"] + 1}
    parse_config(taylor_raw(deeper, order, None if window is None else window + 1))


def test_cli_simulate_taylor_order_too_deep_exit_code(tmp_path):
    schedule, order, window, message = TAYLOR_TOO_DEEP["warm-up"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(taylor_raw(schedule, order, window)))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 2
    assert proc.stderr == f"error: invalid config: {message}\n"
    assert not (tmp_path / "out").exists()


def unplannable_raw():
    """The function-family config with a degree-8, lambda=0 fit to twelve passes 1e-4 apart."""
    raw = GOLDEN["function_family_config.json"]().to_dict()
    raw["forecaster"] = {"kind": "spectrum", "degree": 8, "lambda": 0.0}
    raw["schedule"] = {"n_steps": 10_000, "interval": 5_000, "warmup": 12, "alpha": 0.0}
    raw["checkpoints"] = None
    return raw


def test_forecast_the_plan_cannot_make_is_config_error():
    with pytest.raises(
        ConfigError, match=r"spectrum forecast at step 13 \(t=0.0012\) cannot be made: design is rank-deficient"
    ):
        parse_config(unplannable_raw())


def test_cli_simulate_unplannable_forecast_exit_code(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(unplannable_raw()))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: ") and "step 13" in lines[0]
    assert not (tmp_path / "out").exists()


@settings(max_examples=60, deadline=None)
@given(
    n_steps=st.integers(1, 24),
    interval=st.integers(1, 6),
    warmup=st.integers(1, 24),
    order=st.integers(0, 5),
    window=st.none() | st.integers(1, 8),
)
def test_taylor_config_parses_iff_the_run_serves_every_forecast(n_steps, interval, warmup, order, window):
    schedule = {"n_steps": n_steps, "interval": interval, "warmup": min(warmup, n_steps)}
    try:
        config = parse_config(taylor_raw(schedule, order, window))
    except ConfigError:
        config = None
    # the stateful forecaster, observing the function family's features along the schedule
    spec = GOLDEN["function_family_config.json"]().spec
    passes = adaptive_schedule(ScheduleParams(**schedule))
    forecaster = TaylorForecaster(order=order, window=window)
    served = True
    for j in range(1, n_steps + 1):
        t = (j - 1) / n_steps
        if passes.is_full_pass(j):
            forecaster.observe(t, spec.features(t))
            continue
        try:
            forecaster.predict(t)
        except ValueError:
            served = False
            break
    assert (config is not None) == served


def test_cli_simulate_non_finite_feature_exit_code(tmp_path):
    raw = GOLDEN["function_family_config.json"]().to_dict()
    # 0.5 * exp(1000 t) overflows from t = 0.75 on: the spectral run's pass at t = 0.9 would fail, but the
    # reference oracle run, which makes every pass, runs first and fails at step 16
    raw["spec"]["channels"][2]["rate"] = 1000.0
    raw["forecaster"] = {"kind": "spectrum"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
    assert errors == ["error: oracle run: the pass at step 16 (t=0.75) gave a feature with non-finite entries"]
    assert not (tmp_path / "out").exists()


def test_cli_simulate_oracle_config_counts_every_pass(tmp_path):
    raw = GOLDEN["function_family_config.json"]().to_dict()
    raw["forecaster"] = {"kind": "oracle"}  # on the configured schedule of 20 steps, interval 4
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (summary["nfe"], summary["speedup"]) == (20, 1.0)


def test_cli_simulate_oracle_csv_header_names_every_pass(tmp_path):
    raw = GOLDEN["function_family_config.json"]().to_dict()
    raw["forecaster"] = {"kind": "oracle"}  # the configured schedule's passes are 1,2,3,7,11,15,19 of 20
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 0, proc.stderr
    [csv] = (tmp_path / "out").glob("run_seed*.csv")  # the config has one seed
    lines = csv.read_text().splitlines()
    assert f"# schedule={','.join(str(j) for j in range(1, 21))}" in lines
    assert [line.split(",")[2] for line in lines if line[0].isdigit()] == ["actual"] * 20


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("lambda", "x", "error: --values: could not convert string to float: 'x'"),
        ("lambda", "-1", "error: --values: regularization strength must be finite and >= 0, got -1.0"),
        ("degree", "2,2.5", "error: --values: basis degree must be an integer >= 0, got 2.5"),
    ],
    ids=["not-a-number", "negative-lambda", "fractional-degree"],
)
def test_cli_sweep_invalid_value_exit_code(tmp_path, axis, values, message):
    proc = run_cli("sweep", "--axis", axis, "--values", values, "--output-dir", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == message + "\n"
    assert not (tmp_path / "out").exists()


def test_cli_simulate_invalid_value_exit_code(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(invalid_raw("checkpoint past the end")))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 2
    assert "checkpoints" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_simulate_negative_seed_exit_code(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(invalid_raw("negative seed")))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 2
    assert proc.stderr == "error: invalid config: seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["repeated seed", "repeated checkpoint"])
def test_cli_simulate_repeated_value_exit_code(tmp_path, case):
    """A seed listed twice ran once ("wrote 1 runs") and its summary averaged over that one seed; a checkpoint
    listed twice was reported, with its RMSE, twice per seed."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(invalid_raw(case)))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 2
    assert proc.stderr == f"error: {INVALID[case][3]}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, values",
    [("seeds", (1.5,)), ("seeds", (True,)), ("seeds", (-1,)), ("checkpoints", (10.5, 50)), ("checkpoints", (True, 50))],
)
def test_config_refuses_counts_a_config_file_could_not_hold(field, values):
    """Each would dump a file load_config refuses, or would fail at the first run."""
    with pytest.raises(ValueError, match="must be an integer"):
        dataclasses.replace(gate9_config(), **{field: values})


def test_config_stores_integral_counts_as_ints():
    config = dataclasses.replace(gate9_config(), seeds=(np.int64(7051), 7093.0), checkpoints=(10.0, np.int64(50)))
    assert config.seeds == (7051, 7093) and config.checkpoints == (10, 50)
    assert [type(v) for v in config.seeds + config.checkpoints] == [int] * 4
    assert config.to_dict() == gate9_config().to_dict()


def test_cli_simulate_huge_alpha(tmp_path):
    raw = gate9_config().to_dict()
    raw["schedule"]["alpha"] = 1e308
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["nfe"] == 6  # the warm-up 1..5 and 5 + floor(2)


def test_cli_simulate_nan_lambda_fails_at_parse(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(invalid_raw("NaN lambda")))  # json writes the bare token NaN
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 2
    assert "regularization strength must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


# --- serialized schema -----------------------------------------------------

GOLDEN = {
    "gate9_config.json": gate9_config,
    "blockstack_config.json": lambda: ExperimentConfig(
        spec=BlockStack(n_blocks=3, width=6, gain=0.4, mixing="identity", seed=5),
        schedule=ScheduleParams(40, 3, 4, 1.5),
        forecaster=ForecasterChoice(kind="spectrum", degree=3, lam=0.01, window=8, cache_scope="per_block"),
        seeds=(1, 2),
        output_dir="chebcast_out",
        checkpoints=(10, 40),
    ),
    "function_family_config.json": lambda: ExperimentConfig(
        spec=FunctionFamily(
            channels=(
                PolynomialChannel((1.0, -0.5, 0.25)),
                SineChannel(2.0, 1.5, 0.2),
                ExponentialChannel(0.5, -1.0),
            ),
            seed=3,
        ),
        schedule=ScheduleParams(20, 4, 3, 0.0),
        forecaster=ForecasterChoice(kind="taylor", order=2),
        seeds=(3,),
        output_dir="chebcast_out",
        checkpoints=(20,),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dump_config_matches_golden_file(tmp_path, name):
    """The files under tests/data pin the serialized schema byte for byte."""
    dump_config(GOLDEN[name](), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()
    assert load_config(str(DATA / name)).to_dict() == GOLDEN[name]().to_dict()


# ints too: a checked number given as an int is stored as the float a reloaded config holds
finite = st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-10**6, 10**6)
unit_floats = st.floats(0.0, 1e3, allow_nan=False) | st.integers(0, 1000)
seeds_st = st.integers(0, 2**32 - 1)
channels = st.one_of(
    st.builds(PolynomialChannel, st.lists(finite, min_size=1, max_size=5).map(tuple)),
    st.builds(SineChannel, finite, finite, finite),
    st.builds(ExponentialChannel, finite, finite),
)
specs = st.one_of(
    st.builds(
        BlockStack,
        n_blocks=st.integers(1, 3),
        width=st.integers(1, 5),
        gain=unit_floats,
        mixing=st.sampled_from(["rotation", "identity"]),
        seed=seeds_st,
    ),
    st.builds(FunctionFamily, channels=st.lists(channels, min_size=1, max_size=4).map(tuple), seed=seeds_st),
)


@st.composite
def schedules(draw):
    n_steps = draw(st.integers(1, 200))
    return ScheduleParams(
        n_steps=n_steps,
        interval=draw(st.integers(1, 20)),
        warmup=draw(st.integers(1, n_steps)),
        alpha=draw(st.floats(0.0, 10.0) | st.integers(0, 10)),
    )


@st.composite
def forecasters(draw, block_stack):
    kind = draw(st.sampled_from(["oracle", "naive", "taylor", "spectrum"]))
    scopes = ["last_block", "per_block"] if block_stack else ["last_block"]
    return ForecasterChoice(
        kind=kind,
        order=draw(st.integers(0, 5)),
        degree=draw(st.integers(0, 12)),
        lam=draw(unit_floats),
        window=draw(st.none() | st.integers(1, 50)),
        cache_scope=draw(st.sampled_from(scopes)),
    )


@st.composite
def configs(draw):
    schedule = draw(schedules())
    steps = st.integers(1, schedule.n_steps)
    spec = draw(specs)
    forecaster = draw(forecasters(isinstance(spec, BlockStack)))
    forecasts = adaptive_schedule(schedule).forecast_indices
    if forecaster.kind == "taylor" and forecasts:  # an order the cache can serve
        depth = min(forecasts[0] - 1, forecaster.window or schedule.n_steps)
        forecaster = dataclasses.replace(forecaster, order=draw(st.integers(0, depth - 1)))
    return ExperimentConfig(
        spec=spec,
        schedule=schedule,
        forecaster=forecaster,
        seeds=tuple(draw(st.lists(seeds_st, min_size=1, max_size=3, unique=True))),  # a repeated seed is refused
        output_dir=draw(st.text("abc/_-", min_size=1, max_size=8)),
        checkpoints=draw(st.none() | st.lists(steps, max_size=4, unique=True).map(tuple)),  # so is a repeated one
    )


@settings(max_examples=80, deadline=None)
@given(config=configs())
def test_config_round_trip_property(config):
    """The serialized text itself, where 1 == 1.0 would let a dict comparison pass."""
    text = json.dumps(config.to_dict(), indent=2, sort_keys=True)
    assert json.dumps(parse_config(json.loads(text)).to_dict(), indent=2, sort_keys=True) == text

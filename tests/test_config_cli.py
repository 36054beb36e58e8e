"""Tests for strict config parsing and the command-line harness."""

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

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
from chebcast.sandbox import (
    BENCHMARK_SEEDS,
    BlockStack,
    ExponentialChannel,
    ForecasterChoice,
    FunctionFamily,
    PolynomialChannel,
    SamplerError,
    SineChannel,
    SolverConfig,
    benchmark_mixture,
    run_sampler,
    sample_initial_latent,
)
from chebcast.schedule import ScheduleParams, adaptive_schedule

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
    assert "interval" in proc.stderr


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


def taylor_raw(schedule, order, window=None):
    raw = GOLDEN["function_family_config.json"]().to_dict()
    raw["schedule"].update(schedule)
    raw["forecaster"].update(order=order, window=window)
    raw["checkpoints"] = None  # the final step, wherever it is
    return raw


# Step 1 is a full pass, so the cache holds warmup entries at the first
# forecast, or window entries once the window is the smaller.
TAYLOR_TOO_DEEP = {
    "warm-up": ({"n_steps": 20, "interval": 4, "warmup": 2}, 2, None, "holds 2 at the first forecast step 3"),
    "window": ({"n_steps": 20, "interval": 4, "warmup": 5}, 2, 2, "holds 2 at the first forecast step 6"),
}


@pytest.mark.parametrize("case", sorted(TAYLOR_TOO_DEEP))
def test_taylor_order_the_cache_cannot_serve_is_config_error(case):
    schedule, order, window, message = TAYLOR_TOO_DEEP[case]
    with pytest.raises(ConfigError, match=f"taylor order 2 needs 3 cached entries, but the cache {message}"):
        parse_config(taylor_raw(schedule, order, window))
    # one entry deeper, or one order lower, is served
    parse_config(taylor_raw(schedule, order - 1, window))
    deeper = {**schedule, "warmup": schedule["warmup"] + 1}
    parse_config(taylor_raw(deeper, order, None if window is None else window + 1))


def test_cli_simulate_taylor_order_too_deep_exit_code(tmp_path):
    schedule, order, window, _ = TAYLOR_TOO_DEEP["warm-up"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(taylor_raw(schedule, order, window)))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 2
    assert "taylor order 2" in proc.stderr
    assert "Traceback" not in proc.stderr
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
    choice = ForecasterChoice(kind="taylor", order=order, window=window)
    solver = SolverConfig(schedule=adaptive_schedule(ScheduleParams(**schedule)), forecaster=choice)
    spec = GOLDEN["function_family_config.json"]().spec
    try:
        run_sampler(spec, solver, sample_initial_latent(spec.dim, 3))
    except SamplerError:
        assert config is None
    else:
        assert config is not None


def test_cli_simulate_invalid_value_exit_code(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(invalid_raw("checkpoint past the end")))
    proc = run_cli("simulate", str(path), env={"CHEBCAST_OUTPUT_DIR": str(tmp_path / "out")})
    assert proc.returncode == 2
    assert "checkpoints" in proc.stderr
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


finite = st.floats(-1e6, 1e6, allow_nan=False)
unit_floats = st.floats(0.0, 1e3, allow_nan=False)
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
        alpha=draw(st.floats(0.0, 10.0)),
    )


@st.composite
def forecasters(draw, block_stack):
    kind = draw(st.sampled_from(["oracle", "naive", "taylor", "spectrum"]))
    scopes = ["last_block", "per_block"] if kind == "spectrum" and block_stack else ["last_block"]
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
        seeds=tuple(draw(st.lists(seeds_st, min_size=1, max_size=3))),
        output_dir=draw(st.text("abc/_-", min_size=1, max_size=8)),
        checkpoints=draw(st.none() | st.lists(steps, max_size=4).map(tuple)),
    )


@settings(max_examples=80, deadline=None)
@given(config=configs())
def test_config_round_trip_property(config):
    assert parse_config(config.to_dict()).to_dict() == config.to_dict()

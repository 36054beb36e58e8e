"""Each independent check passes on a genuine run and fails on a corrupted one."""

import dataclasses

import pytest

import checks
from experiment import Experiment
from workloads import KINDS, Workload

MIXTURE = Workload(name="test-mixture", family="mixture", width=8, n_steps=50, interval=2, warmup=5, alpha=3.0,
                   cache_scope="last_block", n_latents=1, timing="fastest")
PER_BLOCK = Workload(name="test-perblock", family="block_stack", width=16, n_steps=40, interval=2, warmup=5,
                     alpha=0.0, cache_scope="per_block", n_latents=1, timing="fastest")


def _runs(workload):
    exp = Experiment(workload, seed=3)
    x0 = exp.latents[0]
    return exp, x0, {kind: exp.run(kind, x0) for kind in KINDS}


@pytest.fixture(scope="module")
def mixture():
    return _runs(MIXTURE)


@pytest.fixture(scope="module")
def per_block():
    return _runs(PER_BLOCK)


def _nudge_forecast(record, eps=1e-6):
    """The record with its first forecast feature moved by eps in one channel."""
    features = record.features.copy()
    features[record.flags.index("forecast"), 0] += eps
    return dataclasses.replace(record, features=features)


def test_formula_reproduces_the_paper_schedule():
    assert checks.formula_full_passes(50, 2, 5, 3.0) == [1, 2, 3, 4, 5, 7, 12, 20, 31, 45]
    assert checks.formula_full_passes(10, 2, 5, 0.0) == [1, 2, 3, 4, 5, 7, 9]


@pytest.mark.parametrize("runs", ["mixture", "per_block"])
def test_genuine_runs_pass_every_check(runs, request):
    exp, x0, records = request.getfixturevalue(runs)
    for kind, record in records.items():
        assert exp.check(kind, record, x0) == [], kind


@pytest.mark.parametrize("kind", ["naive", "taylor", "spectrum"])
def test_altered_forecast_feature_fails(mixture, kind):
    exp, x0, records = mixture
    problems = exp.check(kind, _nudge_forecast(records[kind]), x0)
    assert any("forecast at step" in p for p in problems)


def test_altered_per_block_forecast_fails(per_block):
    exp, x0, records = per_block
    problems = exp.check("spectrum", _nudge_forecast(records["spectrum"]), x0)
    assert any("spectral forecast at step" in p for p in problems)


def test_dropped_actual_pass_fails(mixture):
    exp, x0, records = mixture
    record = records["spectrum"]
    flags = list(record.flags)
    flags[flags.index("actual", exp.wl.warmup)] = "forecast"
    problems = checks.check_flags(dataclasses.replace(record, flags=tuple(flags)), exp.full_passes, exp.wl.n_steps)
    assert any("NFE" in p for p in problems)
    assert any("schedule formula" in p for p in problems)


def test_wrong_fit_count_fails(mixture, per_block):
    for exp, x0, records in (mixture, per_block):
        record = records["spectrum"]
        assert exp.check("spectrum", dataclasses.replace(record, fit_count=record.fit_count - 1), x0)


def test_altered_final_state_fails(mixture):
    exp, x0, records = mixture
    record = records["oracle"]
    states = record.states.copy()
    states[-1, 0] += 1e-9
    problems = exp.check("oracle", dataclasses.replace(record, states=states), x0)
    assert any("final state" in p for p in problems)


def _csv(flags):
    rows = ["# spec=test", "step,time,flag,rmse_to_oracle"]
    rows += [f"{j},{(j - 1) / len(flags)!r},{flag},0.0" for j, flag in enumerate(flags, 1)]
    return "\n".join(rows) + "\n"


def test_cli_checks():
    full = checks.formula_full_passes(50, 2, 5, 3.0)
    flags = ["actual" if j in full else "forecast" for j in range(1, 51)]
    assert checks.check_cli_csv(_csv(flags), full, 50) == []
    flags[5] = "actual"
    assert checks.check_cli_csv(_csv(flags), full, 50)

    assert checks.check_bounds_report({"passed": True, "suites": {}}) == []
    assert checks.check_bounds_report({"passed": False, "suites": {}})

    summary = {"nfe": 10, "per_seed": {"7": {"final_rmse": 0.25}}}
    assert checks.check_cli_summary(summary, 10, {7: 0.25}) == []
    assert checks.check_cli_summary(summary, 10, {7: 0.2500001})
    assert checks.check_cli_summary(summary, 11, {7: 0.25})

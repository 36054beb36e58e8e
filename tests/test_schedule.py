"""Tests for activation schedules and the published NFE table."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebcast import ActivationSchedule, ScheduleParams, adaptive_schedule, uniform_schedule

# (interval, warmup, alpha) -> expected NFE at N = 50
NFE_TABLE = [
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


@pytest.mark.parametrize("params,expected", NFE_TABLE)
def test_nfe_table_rows(params, expected):
    interval, warmup, alpha = params
    schedule = adaptive_schedule(ScheduleParams(50, interval, warmup, alpha))
    assert schedule.nfe == expected


def test_alpha3_index_set():
    schedule = adaptive_schedule(ScheduleParams(50, 2, 5, 3.0))
    assert schedule.full_pass_indices == (1, 2, 3, 4, 5, 7, 12, 20, 31, 45)
    assert schedule.index_line() == "1,2,3,4,5,7,12,20,31,45"


def test_uniform_examples():
    assert uniform_schedule(50, 6, 5).nfe == 12
    assert uniform_schedule(50, 8, 5).nfe == 10
    full = uniform_schedule(50, 1, 1)
    assert full.nfe == 50
    assert full.full_pass_indices == tuple(range(1, 51))


def test_uniform_interval_four():
    schedule = uniform_schedule(50, 4, 1)
    assert schedule.full_pass_indices == (1,) + tuple(range(5, 50, 4))
    assert schedule.nfe == 13


def test_speedup_values():
    assert adaptive_schedule(ScheduleParams(50, 2, 5, 3.0)).speedup == pytest.approx(5.0)
    assert uniform_schedule(50, 1, 1).speedup == pytest.approx(1.0)
    assert uniform_schedule(50, 4, 3).speedup == pytest.approx(50.0 / 14.0)


def test_alpha_zero_equals_uniform():
    for n in (20, 50, 121, 200):
        for interval in range(1, 11):
            for warmup in range(1, 11):
                adaptive = adaptive_schedule(ScheduleParams(n, interval, warmup, 0.0))
                uniform = uniform_schedule(n, interval, warmup)
                assert adaptive.full_pass_indices == uniform.full_pass_indices


def test_nfe_monotone_in_alpha_and_interval():
    for interval in (1, 2, 4, 6):
        nfes = [
            adaptive_schedule(ScheduleParams(50, interval, 5, alpha)).nfe
            for alpha in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0)
        ]
        assert all(a >= b for a, b in zip(nfes, nfes[1:]))
    for alpha in (0.0, 0.75, 3.0):
        nfes = [
            adaptive_schedule(ScheduleParams(50, interval, 5, alpha)).nfe
            for interval in range(1, 11)
        ]
        assert all(a >= b for a, b in zip(nfes, nfes[1:]))


def test_warmup_prefix_and_growing_gaps():
    schedule = adaptive_schedule(ScheduleParams(100, 3, 7, 1.5))
    indices = schedule.full_pass_indices
    assert indices[:7] == tuple(range(1, 8))
    tail = [j for j in indices if j > 7]
    gaps = [b - a for a, b in zip(tail, tail[1:])]
    assert all(g2 >= g1 for g1, g2 in zip(gaps, gaps[1:]))


@settings(max_examples=200, deadline=None)
@given(
    n_steps=st.integers(1, 200),
    interval=st.integers(1, 20),
    warmup=st.integers(1, 200),
    alpha=st.floats(0.0, 10.0),
    d_alpha=st.floats(0.0, 5.0),
)
@example(n_steps=50, interval=2, warmup=5, alpha=3.0, d_alpha=0.0)
def test_partition_into_full_and_forecast(n_steps, interval, warmup, alpha, d_alpha):
    warmup = min(warmup, n_steps)

    def nfe(n=n_steps, i=interval, a=alpha):
        return adaptive_schedule(ScheduleParams(n, i, warmup, a)).nfe

    schedule = adaptive_schedule(ScheduleParams(n_steps, interval, warmup, alpha))
    full = set(schedule.full_pass_indices)
    forecast = set(schedule.forecast_indices)
    assert full | forecast == set(range(1, n_steps + 1))
    assert not full & forecast
    assert 1 in full
    assert nfe(i=interval + 1) <= nfe() <= nfe(n=n_steps + 1)
    assert nfe(a=alpha + d_alpha) <= nfe()


# (n_steps, interval, warmup, alpha) -> the refused parameter, as the message names it
INVALID_PARAMS = [
    ((50, 2, 0, 0.0), "warmup"),
    ((10, 2, 11, 0.0), "warmup"),
    ((50, 0, 1, 0.0), "interval"),
    ((50, 2, 1, -0.5), "alpha"),
    ((50, 2, 1, math.inf), "alpha must be finite"),
    ((50, 2, 1, math.nan), "alpha must be finite"),
    ((50, 2, 5, True), "alpha must be a number, got True"),
    ((50, 1.5, 1, 0.0), "interval must be an integer"),
    ((50, True, 1, 0.0), "interval must be an integer"),
    ((True, 1, 1, 0.0), "n_steps must be an integer"),
    ((50.5, 1, 1, 0.0), "n_steps must be an integer"),
    ((50, 2, 2.5, 0.0), "warmup must be an integer"),
    # a non-number, refused before any comparison
    (("50", 1, 1, 0.0), "^n_steps must be an integer >= 1, got '50'$"),
    ((None, 1, 1, 0.0), "^n_steps must be an integer >= 1, got None$"),
    ((50, "2", 1, 0.0), "^interval must be an integer >= 1, got '2'$"),
    ((50, 2, 1, "3"), "^alpha must be a number, got '3'$"),
]


def test_invalid_params_rejected():
    for params, refused in INVALID_PARAMS:
        with pytest.raises(ValueError, match=refused):
            ScheduleParams(*params)
    with pytest.raises(ValueError, match="full pass"):
        ActivationSchedule(n_steps=5, full_pass_indices=(2, 3))


@pytest.mark.parametrize(
    "schedule", [adaptive_schedule(ScheduleParams(50, 2, 5, 3.0)), uniform_schedule(50, 4, 3)]
)
def test_is_full_pass_agrees_with_indices(schedule):
    for step in range(0, schedule.n_steps + 2):
        assert schedule.is_full_pass(step) == (step in schedule.full_pass_indices)


# ActivationSchedule fields -> the refused value, as the message names it
INVALID_SCHEDULES = {
    "fractional index": ((5, (1, 2.5)), "^full-pass index must be an integer >= 1, got 2.5$"),
    "boolean index": ((5, (1, True)), "^full-pass index must be an integer >= 1, got True$"),
    "string index": ((5, (1, "3")), "^full-pass index must be an integer >= 1, got '3'$"),
    "fractional step count": ((5.5, (1, 2)), "^n_steps must be an integer >= 1, got 5.5$"),
    "boolean step count": ((True, (1,)), "^n_steps must be an integer >= 1, got True$"),
    "zero step count": ((0, (1,)), "^n_steps must be an integer >= 1, got 0$"),
}


@pytest.mark.parametrize("case", sorted(INVALID_SCHEDULES))
def test_schedule_refuses_a_count_that_is_not_one(case):
    """Refused at construction, not a TypeError out of planning: int() would read 2.5 as 2 and True as 1."""
    (n_steps, indices), refused = INVALID_SCHEDULES[case]
    with pytest.raises(ValueError, match=refused):
        ActivationSchedule(n_steps=n_steps, full_pass_indices=indices)


def test_schedule_keeps_its_indices_as_a_tuple_of_ints():
    from chebcast import ForecasterChoice, SolverConfig

    schedule = ActivationSchedule(n_steps=np.int64(6), full_pass_indices=[1, 2.0, np.int64(4)])
    assert schedule.full_pass_indices == (1, 2, 4)
    assert [type(j) for j in (schedule.n_steps, *schedule.full_pass_indices)] == [int] * 4
    # a list of indices would make the config unhashable
    config = SolverConfig(schedule, ForecasterChoice(kind="naive"))
    assert hash(config) == hash(SolverConfig(ActivationSchedule(6, (1, 2, 4)), ForecasterChoice(kind="naive")))

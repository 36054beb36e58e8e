"""The workload table and the builders shared by the benchmark and its set-up probe.

This module imports nothing but numpy and chebcast, so that set-up timing in a
fresh interpreter measures chebcast's import and not the benchmark's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import chebcast
from chebcast import sandbox

# The order of the runs inside one round; the oracle comes first so that every
# forecasting run of the round can be compared against it.
KINDS = ("oracle", "spectrum", "taylor", "naive")
DEGREE = 4
LAMBDA = 0.1
TAYLOR_ORDER = 1
N_BLOCKS = 4
GAIN = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    family: str          # "mixture" or "block_stack"
    width: int           # block-stack feature width; the mixture is always D=8
    n_steps: int
    interval: int
    warmup: int
    alpha: float
    cache_scope: str     # cache scope of the spectral run; naive and Taylor are last-block
    n_latents: int       # initial latents drawn from --seed; the accuracy metrics average over all
    timing: str          # "fastest" or "median": which of a run's samples gives each run time


# Each run time is the statistic of a run's samples that moved least between
# runs of the same code, over ten runs a workload: the fastest sample for the
# mixture (0.10-0.11 against 0.49-0.62 for the median), whose 0.4-2 ms runs
# each fall within one speed of the host, and the median for the block stacks
# (0.05-0.10 against 0.12-0.19 for the fastest), whose runs last long enough
# that an all-fast one is a rare tail. The block stacks are sized so that a
# 35-second run holds dozens of samples of each kind. blockstack-w1024 (the
# widest case, N=100) is not in BENCHMARK.json: its times spread up to 0.23
# between runs under any statistic, because 32 MB of weights stream from a
# cache and memory that other tenants share. It stays here to run by hand.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="mixture-d8",
            family="mixture", width=8, n_steps=50, interval=2, warmup=5, alpha=3.0,
            cache_scope="last_block", n_latents=400, timing="fastest",
        ),
        Workload(
            name="blockstack-w512",
            family="block_stack", width=512, n_steps=100, interval=2, warmup=5, alpha=0.0,
            cache_scope="last_block", n_latents=1, timing="median",
        ),
        Workload(
            name="perblock-w256",
            family="block_stack", width=256, n_steps=200, interval=2, warmup=5, alpha=0.0,
            cache_scope="per_block", n_latents=1, timing="median",
        ),
        Workload(
            name="blockstack-w1024",
            family="block_stack", width=1024, n_steps=100, interval=2, warmup=5, alpha=0.0,
            cache_scope="last_block", n_latents=1, timing="median",
        ),
    )
}


def build_spec(wl: Workload):
    if wl.family == "mixture":
        return sandbox.benchmark_mixture()
    return chebcast.BlockStack(n_blocks=N_BLOCKS, width=wl.width, gain=GAIN)


def build_schedule(wl: Workload):
    return chebcast.adaptive_schedule(
        chebcast.ScheduleParams(n_steps=wl.n_steps, interval=wl.interval, warmup=wl.warmup, alpha=wl.alpha)
    )


def latent_seeds(seed: int, count: int) -> list[int]:
    """Seeds of the initial latents, all drawn from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def forecaster_choice(kind: str, cache_scope: str = "last_block"):
    """Per-block caching exists for the spectral forecaster only; the others ignore the scope."""
    if kind == "spectrum":
        return chebcast.ForecasterChoice(kind="spectrum", degree=DEGREE, lam=LAMBDA, cache_scope=cache_scope)
    if kind == "taylor":
        return chebcast.ForecasterChoice(kind="taylor", order=TAYLOR_ORDER)
    return chebcast.ForecasterChoice(kind=kind)

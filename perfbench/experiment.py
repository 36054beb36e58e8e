"""One workload's experiment: spec, schedule, latents and solver configs, ready to run.

Every sampler call goes through a module attribute (``sandbox.run_sampler``,
``sandbox.oracle_run``) looked up at call time, so the traced run's wrappers
see the same calls a user's code makes.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

import chebcast
from chebcast import sandbox

import checks
from workloads import DEGREE, KINDS, LAMBDA, N_BLOCKS, Workload, build_schedule, build_spec, forecaster_choice, latent_seeds


class Experiment:
    """One workload's spec, schedule, latents and solver configs, ready to run."""

    def __init__(self, wl: Workload, seed: int, span=None):
        span = span or (lambda name: nullcontext())
        self.wl = wl
        with span("sandbox.spec_build"):
            self.spec = build_spec(wl)
        with span("schedule.build"):
            self.schedule = build_schedule(wl)
        self.latents = [chebcast.sample_initial_latent(self.spec.dim, s) for s in latent_seeds(seed, wl.n_latents)]
        self.configs = {
            kind: chebcast.SolverConfig(schedule=self.schedule, forecaster=forecaster_choice(kind, wl.cache_scope))
            for kind in KINDS[1:]
        }
        self.full_passes = checks.formula_full_passes(wl.n_steps, wl.interval, wl.warmup, wl.alpha)

    @property
    def nfe(self) -> int:
        return len(self.full_passes)

    def run(self, kind: str, x0: np.ndarray):
        if kind == "oracle":
            return sandbox.oracle_run(self.spec, self.wl.n_steps, x0)
        return sandbox.run_sampler(self.spec, self.configs[kind], x0)

    def check(self, kind: str, record, x0: np.ndarray) -> list[str]:
        """Every independent check that applies to one run of this kind."""
        n = self.wl.n_steps
        full = range(1, n + 1) if kind == "oracle" else self.full_passes
        problems = checks.check_flags(record, full, n) + checks.check_final_state(record, x0, n)
        if kind == "naive":
            problems += checks.check_naive(record)
        elif kind == "taylor":
            problems += checks.check_taylor1(record)
        elif kind == "spectrum":
            per_block = self.wl.cache_scope == "per_block"
            problems += checks.check_fit_count(record, self.nfe * (N_BLOCKS if per_block else 1))
            problems += checks.check_spectral(
                record, DEGREE, LAMBDA, base=self.spec.base_feature if per_block else None
            )
        return [f"{self.wl.name} {kind}: {p}" for p in problems]

"""Activation schedules: which 1-based steps run the denoiser vs a forecast.

A schedule is a partition of {1, ..., N}.  The adaptive rule keeps a warm-up
prefix of full passes and then places full passes at

    j = warmup + floor((r+1)*interval + alpha * r*(r+1)/2),   r = 0, 1, 2, ...

so the gap between consecutive full passes grows linearly with rate alpha;
alpha = 0 recovers the classical fixed-interval schedule.  Schedules are
precomputed and immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ScheduleParams:
    n_steps: int = 50
    interval: int = 1
    warmup: int = 1
    alpha: float = 0.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (1 <= self.warmup <= self.n_steps):
            raise ValueError(f"warmup must be in [1, {self.n_steps}], got {self.warmup}")
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


@dataclass(frozen=True)
class ActivationSchedule:
    n_steps: int
    full_pass_indices: tuple[int, ...]
    full_pass_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = self.full_pass_indices
        if not idx or idx[0] != 1:
            raise ValueError("step 1 must be a full pass")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("full-pass indices must be strictly increasing")
        if idx[-1] > self.n_steps:
            raise ValueError("full-pass index beyond the last step")
        object.__setattr__(self, "full_pass_set", frozenset(idx))

    @property
    def forecast_indices(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.n_steps + 1) if j not in self.full_pass_set)

    @property
    def nfe(self) -> int:
        """Number of network evaluations: full passes in one sampling run."""
        return len(self.full_pass_indices)

    @property
    def speedup(self) -> float:
        return self.n_steps / self.nfe

    def is_full_pass(self, step: int) -> bool:
        return step in self.full_pass_set

    def index_line(self) -> str:
        """Comma-separated 1-based full-pass indices, for dumps and golden files."""
        return ",".join(str(j) for j in self.full_pass_indices)


def adaptive_schedule(params: ScheduleParams) -> ActivationSchedule:
    """Warm-up prefix plus growing-gap full passes; duplicates collapse."""
    full = set(range(1, params.warmup + 1))
    r = 0
    while True:
        j = params.warmup + math.floor(
            (r + 1) * params.interval + params.alpha * r * (r + 1) / 2.0
        )
        if j > params.n_steps:
            break
        full.add(j)
        r += 1
    return ActivationSchedule(n_steps=params.n_steps, full_pass_indices=tuple(sorted(full)))


def uniform_schedule(n_steps: int, interval: int, warmup: int) -> ActivationSchedule:
    """Fixed-interval schedule: adaptive with alpha = 0."""
    return adaptive_schedule(
        ScheduleParams(n_steps=n_steps, interval=interval, warmup=warmup, alpha=0.0)
    )

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
from dataclasses import dataclass

import numpy as np

from .basis import _count, _real


@dataclass(frozen=True)
class ScheduleParams:
    n_steps: int = 50
    interval: int = 1
    warmup: int = 1
    alpha: float = 0.0

    def __post_init__(self):
        for name in ("n_steps", "interval", "warmup"):  # a non-number is refused before any comparison
            value = getattr(self, name)
            if not isinstance(value, (int, float, np.integer)):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (1 <= self.warmup <= self.n_steps):
            raise ValueError(f"warmup must be in [1, {self.n_steps}], got {self.warmup}")
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        alpha = _real(self.alpha, "alpha")  # a bool too: it dumps as true, which a config refuses
        if not (math.isfinite(alpha) and alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        for name in ("n_steps", "interval", "warmup"):  # in range, so now only a bool or a fraction is refused
            object.__setattr__(self, name, _count(getattr(self, name), name, least=1))


@dataclass(frozen=True)
class ActivationSchedule:
    n_steps: int
    full_pass_indices: tuple[int, ...]

    def __post_init__(self):
        idx = self.full_pass_indices
        if not idx or idx[0] != 1:
            raise ValueError("step 1 must be a full pass")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("full-pass indices must be strictly increasing")
        if idx[-1] > self.n_steps:
            raise ValueError("full-pass index beyond the last step")

    @property
    def forecast_indices(self) -> tuple[int, ...]:
        return tuple(sorted(set(range(1, self.n_steps + 1)).difference(self.full_pass_indices)))

    @property
    def nfe(self) -> int:
        """Number of network evaluations: full passes in one sampling run."""
        return len(self.full_pass_indices)

    @property
    def speedup(self) -> float:
        return self.n_steps / self.nfe

    def is_full_pass(self, step: int) -> bool:
        return step in self.full_pass_indices

    def index_line(self) -> str:
        """Comma-separated 1-based full-pass indices, for dumps and golden files."""
        return ",".join(str(j) for j in self.full_pass_indices)


def adaptive_schedule(params: ScheduleParams) -> ActivationSchedule:
    """Warm-up prefix plus growing-gap full passes; duplicates collapse."""
    full = set(range(1, params.warmup + 1))
    r = 0
    while True:
        gap = (r + 1) * params.interval + params.alpha * r * (r + 1) / 2.0
        # exactly warmup + floor(gap) > n_steps, yet stops before a huge alpha's inf reaches floor
        if gap >= params.n_steps - params.warmup + 1:
            break
        full.add(params.warmup + math.floor(gap))
        r += 1
    return ActivationSchedule(n_steps=params.n_steps, full_pass_indices=tuple(sorted(full)))


def uniform_schedule(n_steps: int, interval: int, warmup: int) -> ActivationSchedule:
    """Fixed-interval schedule: adaptive with alpha = 0."""
    return adaptive_schedule(
        ScheduleParams(n_steps=n_steps, interval=interval, warmup=warmup, alpha=0.0)
    )

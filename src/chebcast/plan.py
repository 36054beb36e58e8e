"""The forecast plan: every forecast of a schedule, as weights over the cached passes.

A plan depends on the step times and the forecaster choice alone (see
ForecastPlan), so it reads no feature and imports no denoiser: SolverConfig
plans once, at construction, and a run (chebcast.sandbox) only reads it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .basis import _count, _real, basis_matrix
from .forecasters import spectral_weights, taylor_weights
from .ridge import DEFAULT_LAMBDA, RidgeFactor, RidgeFitError, fold_rows, leading_triangle
from .schedule import ActivationSchedule

FORECASTER_KINDS = ("oracle", "naive", "taylor", "spectrum")
CACHE_SCOPES = ("last_block", "per_block")
Moves = tuple[tuple[slice, slice], ...]  # (source, destination) row slices of the pass store, copied in order


@dataclass(frozen=True)
class ForecasterChoice:
    """Which forecaster replaces skipped passes, plus its hyperparameters."""

    kind: str
    order: int = 1
    degree: int = 4
    lam: float = DEFAULT_LAMBDA
    window: int | None = None
    cache_scope: str = "last_block"

    def __post_init__(self):
        if self.kind not in FORECASTER_KINDS:
            raise ValueError(f"forecaster kind must be one of {FORECASTER_KINDS}, got {self.kind!r}")
        if self.cache_scope not in CACHE_SCOPES:
            raise ValueError(f"cache scope must be one of {CACHE_SCOPES}, got {self.cache_scope!r}")
        order, degree = _count(self.order, "taylor order"), _count(self.degree, "basis degree")
        lam = _real(self.lam, "regularization strength", least=0.0)
        window = None if self.window is None else _count(self.window, "cache window", least=1)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "window", window)


@dataclass(frozen=True, eq=False)
class Stretch:
    """Skipped steps start..stop-1 (0-based): their features are weights @ passes[lo:hi].

    A run reads passes lo..hi-1 in place, in the pass rows of its store
    (ForecastPlan): at their first hi - lo rows, directly under every
    block's Q^T H.  A spectral stretch (fold set) first folds passes[lo:hi]
    into the fit's Q^T H with fold, the orthonormal factor of the fit's QR
    update, starting from zeros when fresh and else from the previous
    spectral stretch's Q^T H.  Each feature of any stretch is its row of
    weights, the forecast's w, times the leading rows of each block's store:
    w @ Q^T H, or, with no Q^T H, w @ the newest order+1 passes for Taylor or
    naive reuse.  A run makes them all in one stacked product.

    The stretch also carries the operands a run takes, so that a run
    derives none of them: reads, the store rows it reads (n_coef + hi - lo),
    and, as views of its own arrays or of its plan's, the fold's transpose
    fold_t for a spectral stretch, w, the weights in the (stop - start, 1, 1,
    m) shape of the stacked forecast, and increments, the Euler increments of
    step start - 1, the pass before it, and of its own steps, as a column: a
    run takes that pass's Euler step in the stretch's running sum.  moves,
    the (source, destination) store row slices a run copies after the
    stretch, in order, carry the passes a later stretch reads again to where
    it reads them (_lay_out), or are ().  ForecastPlan.laid_out sets
    increments and moves.
    """

    start: int
    stop: int
    lo: int
    hi: int
    weights: np.ndarray  # (stop - start, hi - lo), or (stop - start, m <= n_coef) with a fold
    fold: np.ndarray | None = None  # (n_coef + hi - lo, n_coef)
    fresh: bool = False
    reads: int = field(init=False)
    fold_t: np.ndarray | None = field(init=False)
    w: np.ndarray = field(init=False)
    increments: np.ndarray | None = field(init=False, default=None)  # (stop - start + 1, 1), from step start - 1
    moves: Moves = field(init=False, default=())

    def __post_init__(self):
        spectral = self.fold is not None
        object.__setattr__(self, "reads", self.fold.shape[0] if spectral else self.hi - self.lo)
        object.__setattr__(self, "fold_t", self.fold.T if spectral else None)
        object.__setattr__(self, "w", self.weights[:, None, None, :])


def _lay_out(stretches: list[Stretch], nfe: int, n_coef: int) -> tuple[list[int], list[Moves], int]:
    """The store row of each pass, the moves after each stretch, and the store's pass rows.

    A pass is written where the first stretch to read it reads it; one that
    no stretch reads, at the first pass row, which no pass a stretch reads
    holds when it is written.  After a stretch, the passes it read that a
    later stretch reads again move.  They slide down under the next stretch
    if it reads them: Taylor's newest order passes, and a window's passes
    after its first eviction.  Else they are parked, in pass order, in the
    rows after the most any stretch reads, until a stretch reads them: a
    window's passes before its first eviction, all folded afresh then.  A
    plan whose passes are each read once (spectral without a window) makes
    no moves.
    """
    last = [-1] * nfe  # the last stretch to read each pass, ascending over each stretch's passes
    for i, s in enumerate(stretches):
        last[s.lo:s.hi] = [i] * (s.hi - s.lo)
    rows = [n_coef] * nfe
    park = n_coef + max([1] + [s.hi - s.lo for s in stretches])  # the first row of the parked passes
    end, parked, written, moves = park, None, 0, []  # parked: the first parked pass, or None
    for i, s in enumerate(stretches):
        new = max(s.lo, written)  # the passes written since the last stretch that this one reads
        rows[new:s.hi] = range(new + n_coef - s.lo, s.hi + n_coef - s.lo)
        written = s.hi
        after = stretches[i + 1].lo if i + 1 < len(stretches) else nfe  # the first pass the next stretch reads
        kept = bisect_right(last, i, s.lo, s.hi)  # the first pass a later stretch reads again
        copies = []
        if kept < s.hi:
            if parked is None and kept < after:
                parked = kept
            # parked after the others, or slid down under the next stretch, which reads them
            at = park + kept - parked if parked is not None and parked < after else n_coef + kept - after
            copies.append((slice(n_coef + kept - s.lo, n_coef + s.hi - s.lo), slice(at, at + s.hi - kept)))
            end = max(end, at + s.hi - kept)
        if parked is not None and parked >= after:  # the next stretch reads the parked passes too
            copies.append((slice(park, park + s.lo - parked), slice(n_coef + parked - after, n_coef + s.lo - after)))
            parked = None
        moves.append(tuple(copies))
    return rows, moves, end - n_coef


@dataclass(frozen=True, eq=False)
class ForecastPlan:
    """Every forecast of one schedule and forecaster, as weights over the cached passes.

    Each forecaster is linear in its cached features, with weights fixed by
    the step times and its hyperparameters alone, so the plan is computed
    from the times: for each stretch, taylor_weights for its Taylor or
    naive forecasts, or the spectral fit's fold and its forecasts' w, which
    need no features at all.  A plan is always complete: plan_forecasts
    refuses a schedule with a forecast it cannot make.

    The plan also lays out the run's pass store, one (n_blocks, n_coef +
    n_rows, width) array: every block's Q^T H in its first n_coef rows (none
    but for the spectral kind), then the pass rows.  passes lists the actual
    passes in step order, each as (step, time, row, stretch): its 0-based
    step, its time as a Python float (bitwise its entry of times, made once
    here), the store row it is written at, once, and the Stretch that starts
    at step + 1, or None.  A run walks them, a pass and the stretch after it
    at a time.  Each stretch reads its passes in place and carries the
    operands a run takes with it, as views of its own arrays and of the
    plan's increments, and the moves made after it (see Stretch), so a run
    derives none.
    """

    times: np.ndarray       # (N,) t_j = (j-1)/N
    increments: np.ndarray  # (N,) Euler step lengths: (t_j + 1/N) - t_j, and 1 - t_N at the last step
    flags: tuple[str, ...]
    passes: tuple[tuple[int, float, int, Stretch | None], ...]  # (NFE,) (step, time, row, stretch), in step order
    n_coef: int  # rows of Q^T H above the passes: degree + 1 for the spectral kind, else 0
    n_rows: int  # pass rows of the store: the most a stretch reads, then any parked passes; at least 1
    lengths: tuple[int, ...]  # the distinct stretch lengths, ascending
    widths: tuple[int, ...]  # the distinct leading store rows m that a stretch's w weighs, ascending

    @classmethod
    def laid_out(cls, times, increments, flags, stretches: list[Stretch], n_coef: int) -> ForecastPlan:
        """The plan of these stretches, in step order, with the pass store laid out for them (_lay_out).

        Each stretch takes its column of the increments here, a view of them
        from the pass before it (every stretch follows a pass) to its last
        step, and its moves; the plan takes the distinct shapes of its
        stretches' operands, for which a run makes the views of its own
        arrays that stretches share.
        """
        rows, moves, n_rows = _lay_out(stretches, flags.count("actual"), n_coef)
        for s, m in zip(stretches, moves):
            object.__setattr__(s, "increments", increments[s.start - 1:s.stop, None])
            object.__setattr__(s, "moves", m)
        after = {s.start - 1: s for s in stretches}  # each stretch by the pass before it
        step_times = times.tolist()
        steps = [j for j, flag in enumerate(flags) if flag == "actual"]
        passes = tuple((j, step_times[j], row, after.get(j)) for j, row in zip(steps, rows))
        lengths = sorted({s.stop - s.start for s in stretches})
        widths = sorted({s.weights.shape[1] for s in stretches})
        return cls(times, increments, flags, passes, n_coef, n_rows, tuple(lengths), tuple(widths))


def plan_forecasts(schedule: ActivationSchedule, choice: ForecasterChoice) -> ForecastPlan:
    """Compute the weights of every forecast of the schedule from the step times, a stretch at a time.

    A Taylor or naive stretch is one taylor_weights call over the newest
    order+1 passes.  A spectral stretch first folds the basis rows of the
    passes new since the last stretch into the fit (the whole window
    afresh after an eviction), then takes its forecasts' w from one
    spectral_weights call on the fit's leading triangle; the basis rows
    come from one basis_matrix over all the step times, and a run carries
    the passes through those folds itself.  The oracle kind marks every
    step actual regardless of the schedule.  A forecast that cannot be made
    (a cache too short for the order, or no unique fit) raises ValueError,
    naming its step and time.
    """
    n = schedule.n_steps
    dt = 1.0 / n
    times = np.arange(n) * dt
    increments = (times + dt) - times
    increments[-1] = 1.0 - times[-1]
    if choice.kind == "oracle":
        return ForecastPlan.laid_out(times, increments, ("actual",) * n, [], 0)
    spectral = choice.kind == "spectrum"
    order = choice.order if choice.kind == "taylor" else 0  # naive reuse is Taylor order 0
    window = choice.window or n
    passes = schedule.full_pass_indices  # 1-based, so each is also the 0-based step after it
    flags = ["forecast"] * n
    for j in passes:
        flags[j - 1] = "actual"
    steps = np.array(passes) - 1
    if spectral:  # project_time, vectorized; basis_matrix checks the range
        phi = basis_matrix(choice.degree, 2.0 * times - 1.0)
        pass_phi, fit = phi[steps], None
    else:
        pass_times = times[steps]
    stretches = []
    for k, (start, stop) in enumerate(zip(passes, [j - 1 for j in passes[1:]] + [n]), start=1):
        if start == stop:
            continue
        try:
            if spectral:
                if fit is None or k > window:  # fold the whole window afresh, from the prior rows alone
                    fit = RidgeFactor.empty(choice.lam, choice.degree + 1)
                new = min(k, window) - fit.n_points
                fit = fold_rows(fit, pass_phi[k - new:k])
                weights = spectral_weights(leading_triangle(fit, choice.degree), phi[start:stop])
                stretch = Stretch(start, stop, k - new, k, weights, fit.q, fit.n_points == new)
            else:
                weights = taylor_weights(pass_times[max(0, k - min(window, order + 1)):k], times[start:stop], order)
                stretch = Stretch(start, stop, k - order - 1, k, weights)
            if not np.isfinite(weights).all():
                start += int(np.isfinite(weights).all(axis=1).argmin())  # the first forecast that cannot be made
                raise RidgeFitError("forecast weights are non-finite")
        except (ValueError, RidgeFitError) as err:  # a cache too short for the order, or no unique fit
            raise ValueError(f"the {choice.kind} forecast at step {start + 1} (t={times[start]:g}) "
                             f"cannot be made: {err}") from err
        stretches.append(stretch)
    return ForecastPlan.laid_out(times, increments, tuple(flags), stretches, choice.degree + 1 if spectral else 0)


@dataclass(frozen=True)
class SolverConfig:
    """A schedule and a forecaster choice, with every forecast planned once at construction.

    The plan holds, for each stretch of skipped steps, the weights that turn
    the cached passes into its features (for the spectral forecaster, the
    fit's fold and each forecast's w); it derives from the two fields alone,
    so it takes no part in equality, hashing or repr.  A forecast the plan
    cannot make refuses the config here, before any pass (see plan_forecasts).
    """

    schedule: ActivationSchedule
    forecaster: ForecasterChoice
    plan: ForecastPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "plan", plan_forecasts(self.schedule, self.forecaster))

    @property
    def n_steps(self) -> int:
        return self.schedule.n_steps

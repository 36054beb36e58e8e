"""Output checks computed apart from chebcast, from numpy and formulas only.

Each check takes a finished run (the arrays of a sampler record, or the files
the CLI wrote) and returns a list of problems; an empty list means it passed.
Times are rebuilt as t_j = (j-1)/N here rather than read from the record.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev

# Today's agreement is ~1e-15 for the final state and ~1e-14 for the spectral
# refit (relative to the feature scale); the tolerances leave room for a
# different but sound solver while any real fault is orders of magnitude off.
FINAL_STATE_TOL = 1e-12
TAYLOR_TOL = 1e-12
SPECTRAL_TOL = 1e-10
SPECTRAL_SAMPLES = 6


def formula_full_passes(n_steps: int, interval: int, warmup: int, alpha: float) -> list[int]:
    """1-based full-pass steps: 1..warmup, then warmup + floor((r+1) interval + alpha r(r+1)/2)."""
    full = set(range(1, warmup + 1))
    r = 0
    while (j := warmup + math.floor((r + 1) * interval + alpha * r * (r + 1) / 2)) <= n_steps:
        full.add(j)
        r += 1
    return sorted(full)


def _times(n_steps: int) -> np.ndarray:
    return np.arange(n_steps) / n_steps


def _steps(flags, which: str) -> list[int]:
    """0-based indices of the steps flagged `which`."""
    return [i for i, flag in enumerate(flags) if flag == which]


def _scale(*arrays) -> float:
    return max([1.0] + [float(np.max(np.abs(a))) for a in arrays if np.size(a)])


def check_flags(record, full_passes, n_steps: int) -> list[str]:
    """Actual steps equal the formula's full passes; their count is NFE; times are (j-1)/N."""
    problems = []
    flags = list(record.flags)
    if len(flags) != n_steps or record.states.shape[0] != n_steps:
        return [f"run has {len(flags)} flags and {record.states.shape[0]} states, expected {n_steps}"]
    if set(flags) - {"actual", "forecast"}:
        problems.append(f"unknown flags {sorted(set(flags) - {'actual', 'forecast'})}")
    actual = [i + 1 for i in _steps(flags, "actual")]
    expected = list(full_passes)
    if len(actual) != len(expected):
        problems.append(f"{len(actual)} actual passes, NFE is {len(expected)}")
    if actual != expected:
        wrong = sorted(set(actual) ^ set(expected))
        problems.append(f"actual steps differ from the schedule formula at steps {wrong[:8]}")
    if not np.allclose(record.times, _times(n_steps), rtol=0.0, atol=1e-15):
        problems.append("step times are not (j-1)/N")
    return problems


def check_fit_count(record, expected: int) -> list[str]:
    if record.fit_count != expected:
        return [f"fit_count is {record.fit_count}, expected {expected}"]
    return []


def check_final_state(record, x0, n_steps: int) -> list[str]:
    """Euler over the recorded features: x_N = x0 + (1/N) sum_j h_j."""
    expected = np.asarray(x0, dtype=float) + record.features.sum(axis=0) / n_steps
    err = float(np.max(np.abs(record.states[-1] - expected)))
    if not err <= FINAL_STATE_TOL * _scale(expected):
        return [f"final state is off x0 + mean(features) by {err:.3e}"]
    return []


def check_naive(record) -> list[str]:
    """Every forecast is bitwise the last actual feature before it."""
    last = None
    for i, flag in enumerate(record.flags):
        if flag == "actual":
            last = i
        elif last is None or not np.array_equal(record.features[i], record.features[last]):
            return [f"naive forecast at step {i + 1} is not the last actual feature"]
    return []


def check_taylor1(record) -> list[str]:
    """Every forecast is the straight line through the last two actual features."""
    t = _times(len(record.flags))
    actual = []
    for i, flag in enumerate(record.flags):
        if flag == "actual":
            actual.append(i)
            continue
        if len(actual) < 2:
            return [f"taylor forecast at step {i + 1} has fewer than two actual features before it"]
        a, b = actual[-2], actual[-1]
        ha, hb = record.features[a], record.features[b]
        line = hb + (hb - ha) / (t[b] - t[a]) * (t[i] - t[b])
        err = float(np.max(np.abs(record.features[i] - line)))
        if not err <= TAYLOR_TOL * _scale(ha, hb):
            return [f"taylor forecast at step {i + 1} is off linear extrapolation by {err:.3e}"]
    return []


def sample_steps(steps: list[int], count: int = SPECTRAL_SAMPLES) -> list[int]:
    """Up to `count` evenly spread entries of `steps`, always the first and the last."""
    if len(steps) <= count:
        return list(steps)
    picks = np.unique(np.round(np.linspace(0, len(steps) - 1, count)).astype(int))
    return [steps[k] for k in picks]


def ridge_forecast(t_fit, H, t_query: float, degree: int, lam: float) -> np.ndarray:
    """Ridge fit solved as least squares on [chebvander(2t-1); sqrt(lam) I] against [H; 0]."""
    A = np.vstack([chebyshev.chebvander(2.0 * np.asarray(t_fit) - 1.0, degree), math.sqrt(lam) * np.eye(degree + 1)])
    B = np.vstack([H, np.zeros((degree + 1, H.shape[1]))])
    coeffs = np.linalg.lstsq(A, B, rcond=None)[0]
    return chebyshev.chebvander(np.array([2.0 * t_query - 1.0]), degree)[0] @ coeffs


def check_spectral(record, degree: int, lam: float, base=None) -> list[str]:
    """At sampled forecast steps, the forecast equals a ridge fit to every earlier actual feature.

    With `base` (a per-block run) the last-block forecast is base(t) plus the
    sum of per-block residual fits; ridge is linear in the targets, so that sum
    is one fit to h - base(t) over the actual steps.
    """
    t = _times(len(record.flags))
    actual = _steps(record.flags, "actual")
    for i in sample_steps(_steps(record.flags, "forecast")):
        before = [a for a in actual if a < i]
        if not before:
            return [f"spectral forecast at step {i + 1} has no actual feature before it"]
        H = record.features[before]
        if base is not None:
            H = H - np.array([base(t[a]) for a in before])
        pred = ridge_forecast(t[before], H, t[i], degree, lam)
        if base is not None:
            pred = pred + base(t[i])
        err = float(np.max(np.abs(record.features[i] - pred)))
        if not err <= SPECTRAL_TOL * _scale(record.features[before]):
            return [f"spectral forecast at step {i + 1} is off the independent ridge fit by {err:.3e}"]
    return []


def rmse_final(states, reference_states) -> float:
    diff = np.asarray(states)[-1] - np.asarray(reference_states)[-1]
    return float(np.sqrt(np.mean(diff * diff)))


def check_cli_csv(text: str, full_passes, n_steps: int) -> list[str]:
    """The CSV's flag column marks exactly the formula's full passes."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not rows or not rows[0].startswith("step,time,flag"):
        return ["CSV has no step,time,flag header"]
    cells = [row.split(",") for row in rows[1:]]
    if len(cells) != n_steps:
        return [f"CSV has {len(cells)} rows, expected {n_steps}"]
    actual = [int(c[0]) for c in cells if c[2] == "actual"]
    if actual != list(full_passes):
        return ["CSV flags differ from the schedule formula"]
    return []


def check_cli_summary(summary: dict, nfe: int, final_rmse: dict) -> list[str]:
    """summary.json reports NFE and each seed's final RMSE as computed in-process."""
    problems = []
    if summary.get("nfe") != nfe:
        problems.append(f"summary nfe is {summary.get('nfe')}, expected {nfe}")
    for seed, expected in final_rmse.items():
        got = summary.get("per_seed", {}).get(str(seed), {}).get("final_rmse")
        if got is None or not abs(got - expected) <= 1e-12 * max(1.0, abs(expected)):
            problems.append(f"summary final_rmse for seed {seed} is {got}, expected {expected}")
    return problems


def check_bounds_report(report: dict) -> list[str]:
    if report.get("passed") is not True:
        return ['bounds report does not say "passed": true']
    return []

"""In-memory spans for the traced run, and the per-layer metrics made from them.

Spans are recorded from the benchmark's side: for the length of a traced
round, chebcast's functions are replaced at the module or class attribute
their callers look up (``chebcast.forecasters.solve_ridge`` is what
``spectral_fit`` calls) and restored afterwards. A target the package no
longer has is skipped and reported, so the traced run survives refactors.

A span has a name, a start, an end and a parent. Spans under a ``run.*`` or
``cli.*`` span belong to that group, which is how per-run figures are cut.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np


def _fit_size(args, kwargs) -> dict:
    """Design rows and computed feature bytes read by one solve_ridge(phi, features, lam)."""
    phi = args[0] if args else kwargs.get("phi")
    features = args[1] if len(args) > 1 else kwargs.get("features")
    return {"rows": int(getattr(phi, "n_points", 0)), "bytes": int(np.asarray(features).nbytes)}


# (module, attribute path, span name, counter)
INPROC_TARGETS = (
    ("chebcast.ridge", "basis_matrix", "basis.matrix", None),
    ("chebcast.forecasters", "basis_row", "basis.row", None),
    ("chebcast.forecasters", "build_design", "ridge.build_design", None),
    ("chebcast.forecasters", "solve_ridge", "ridge.solve", _fit_size),
    ("chebcast.forecasters", "spectral_fit", "forecasters.fit", None),
    ("chebcast.forecasters", "spectral_forecast", "forecasters.forecast", None),
    ("chebcast.forecasters", "taylor_forecast", "forecasters.taylor", None),
    ("chebcast.forecasters", "FeatureCache.insert", "forecasters.insert", None),
    ("chebcast.forecasters", "FeatureCache.feature_stack", "forecasters.stack", None),
    ("chebcast.forecasters", "NaiveForecaster.observe", "forecasters.observe", None),
    ("chebcast.forecasters", "TaylorForecaster.observe", "forecasters.observe", None),
    ("chebcast.forecasters", "SpectralForecaster.observe", "forecasters.observe", None),
    ("chebcast.forecasters", "NaiveForecaster.predict", "forecasters.predict", None),
    ("chebcast.forecasters", "TaylorForecaster.predict", "forecasters.predict", None),
    ("chebcast.forecasters", "SpectralForecaster.predict", "forecasters.predict", None),
    ("chebcast.sandbox", "run_sampler", "sandbox.run", None),
    ("chebcast.sandbox", "euler_step", "sandbox.euler", None),
    ("chebcast.sandbox", "GaussianMixtureFlow.velocity", "sandbox.denoise", None),
    ("chebcast.sandbox", "BlockStack.stage_outputs", "sandbox.denoise", None),
)

CLI_TARGETS = (
    ("chebcast.cli", "load_config", "config.load", None),
    ("chebcast.cli", "trajectory_to_csv", "sandbox.csv", None),
    ("chebcast.cli", "verify_taylor_attainment", "bounds.taylor", None),
    ("chebcast.cli", "verify_cheb_decay", "bounds.cheb_decay", None),
    ("chebcast.cli", "verify_spectral_bound", "bounds.spectral", None),
)


class Tracer:
    """Spans kept in parallel lists; written out once, when the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.groups: list[str] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        starts_group = name.startswith(("run.", "cli."))
        self.names.append(name)
        self.parents.append(parent)
        self.groups.append(name if starts_group or parent < 0 else self.groups[parent])
        self.ends.append(0)
        if attrs:
            self.attrs[idx] = attrs
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, counter(args, kwargs) if counter else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def to_dict(self) -> dict:
        return {
            "names": self.names, "starts": self.starts, "ends": self.ends, "parents": self.parents,
            "groups": self.groups, "attrs": {str(k): v for k, v in self.attrs.items()},
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, separators=(",", ":"))


@contextmanager
def installed(tracer: Tracer, targets):
    """Wrap every target that exists for the length of the block; yields the missing ones."""
    patched, missing = [], []
    for module_name, path, name, counter in targets:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, tracer.wrap(original, name, counter))
        patched.append((owner, attr, original))
    try:
        yield missing
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


class SpanTable:
    """Durations and self times of recorded spans, for cutting per-layer figures."""

    def __init__(self, data: dict):
        self.names = np.asarray(data["names"], dtype=object)
        self.groups = np.asarray(data["groups"], dtype=object)
        starts = np.asarray(data["starts"], dtype=np.int64)
        self.dur = np.asarray(data["ends"], dtype=np.int64) - starts
        parents = np.asarray(data["parents"], dtype=np.int64)
        child = np.zeros_like(self.dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], self.dur[has_parent])
        self.self_dur = self.dur - child
        self.attrs = {int(k): v for k, v in data["attrs"].items()}

    def _mask(self, name: str, groups) -> np.ndarray:
        mask = self.names == name
        if groups is not None:
            mask &= np.isin(self.groups, list(groups))
        return mask

    def n_groups(self, group: str) -> int:
        return int(np.sum(self.names == group))

    def mean_us(self, name: str, groups=None, self_time: bool = False) -> float:
        mask = self._mask(name, groups)
        values = (self.self_dur if self_time else self.dur)[mask]
        return float(values.mean() / 1e3) if values.size else 0.0

    def per_group(self, name: str, group: str, attr: str | None = None) -> float:
        """Count (or attribute sum) of `name` spans per `group` span."""
        groups = self.n_groups(group)
        if not groups:
            return 0.0
        mask = self._mask(name, [group])
        if attr is None:
            return float(mask.sum()) / groups
        return sum(self.attrs.get(int(i), {}).get(attr, 0) for i in np.flatnonzero(mask)) / groups

    def total_ms_per_group(self, name: str, group: str, self_time: bool = False) -> float:
        groups = self.n_groups(group)
        values = (self.self_dur if self_time else self.dur)[self._mask(name, [group])]
        return float(values.sum() / 1e6 / groups) if groups else 0.0


FORECAST_RUNS = ("run.spectrum", "run.taylor", "run.naive")
ALL_RUNS = ("run.oracle",) + FORECAST_RUNS


def inproc_metrics(table: SpanTable) -> dict:
    """Per-layer figures of the in-process rounds; `_us` is the mean per call."""
    spec = ["run.spectrum"]
    loop_self = [table.total_ms_per_group("sandbox.run", run, self_time=True) for run in ALL_RUNS]
    return {
        "basis.matrix_us": table.mean_us("basis.matrix", spec),
        "basis.row_us": table.mean_us("basis.row", spec),
        "ridge.build_design_us": table.mean_us("ridge.build_design", spec),
        "ridge.solve_us": table.mean_us("ridge.solve", spec),
        "ridge.rows_fitted": table.per_group("ridge.solve", "run.spectrum", attr="rows"),
        "ridge.bytes_fitted": table.per_group("ridge.solve", "run.spectrum", attr="bytes"),
        "forecasters.observe_us": table.mean_us("forecasters.observe", spec),
        "forecasters.fit_us": table.mean_us("forecasters.fit", spec),
        "forecasters.fit_self_us": table.mean_us("forecasters.fit", spec, self_time=True),
        "forecasters.fit_calls": table.per_group("forecasters.fit", "run.spectrum"),
        "forecasters.insert_us": table.mean_us("forecasters.insert", FORECAST_RUNS),
        "forecasters.stack_us": table.mean_us("forecasters.stack", ("run.spectrum", "run.taylor")),
        "forecasters.taylor_us": table.mean_us("forecasters.taylor", ["run.taylor"]),
        "forecasters.forecast_us": table.mean_us("forecasters.forecast", spec),
        "schedule.build_us": table.mean_us("schedule.build"),
        "sandbox.denoise_us": table.mean_us("sandbox.denoise", spec),
        "sandbox.denoise_oracle_us": table.mean_us("sandbox.denoise", ["run.oracle"]),
        "sandbox.denoise_calls": table.per_group("sandbox.denoise", "run.spectrum"),
        "sandbox.euler_us": table.mean_us("sandbox.euler", ALL_RUNS),
        "sandbox.loop_self_ms": statistics.fmean(loop_self),
        "sandbox.spec_build_ms": table.mean_us("sandbox.spec_build") / 1e3,
    }


def cli_metrics(simulate: SpanTable, bounds: SpanTable) -> dict:
    """Per-layer figures of one traced CLI session; `_ms` is the total per command."""
    return {
        "sandbox.csv_ms": simulate.total_ms_per_group("sandbox.csv", "cli.simulate"),
        "config.load_ms": simulate.total_ms_per_group("config.load", "cli.simulate"),
        "bounds.taylor_ms": bounds.total_ms_per_group("bounds.taylor", "cli.bounds"),
        "bounds.cheb_decay_ms": bounds.total_ms_per_group("bounds.cheb_decay", "cli.bounds"),
        "bounds.spectral_ms": bounds.total_ms_per_group("bounds.spectral", "cli.bounds"),
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms per module, from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            out[fields[2].strip()] = int(fields[1]) / 1e3
    return out

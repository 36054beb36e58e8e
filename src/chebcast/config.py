"""Experiment configuration: a strict JSON schema that round-trips losslessly.

The schema is derived from the dataclass fields: every init field is a key
(renamed through _RENAME), fields without a default are required, and a
value is coerced by its field's annotation.  Denoiser specs and channels are
tagged unions, selected by their "kind" and "type" keys.  Unknown keys are
rejected with the offending key named and its dotted path, so a typo like
"lamda" fails loudly instead of silently using a default; every invalid value
is a ConfigError naming its key or section.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass

import numpy as np

from .sandbox import (
    BlockStack,
    DenoiserSpec,
    ExponentialChannel,
    ForecasterChoice,
    FunctionFamily,
    GaussianMixtureFlow,
    PolynomialChannel,
    SineChannel,
    SolverConfig,
)
from .schedule import ScheduleParams, adaptive_schedule


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    spec: DenoiserSpec
    schedule: ScheduleParams
    forecaster: ForecasterChoice
    seeds: tuple[int, ...]
    output_dir: str = "chebcast_out"
    checkpoints: tuple[int, ...] | None = None  # None: the final step only

    def __post_init__(self):
        n = self.schedule.n_steps
        if self.checkpoints is None:
            object.__setattr__(self, "checkpoints", (n,))
        if not self.seeds:
            raise ValueError("seeds must be a non-empty list")
        for step in self.checkpoints:
            if not 1 <= step <= n:
                raise ValueError(f"checkpoints must lie in [1, {n}], got {step}")
        choice, forecasts = self.forecaster, adaptive_schedule(self.schedule).forecast_indices
        if choice.cache_scope == "per_block" and not isinstance(self.spec, BlockStack):
            raise ValueError("per-block caching requires a block_stack denoiser")
        # the cache only grows (up to the window), so the first forecast reads the fewest entries
        depth = min(forecasts[0] - 1, choice.window or n) if forecasts else float("inf")
        if choice.kind == "taylor" and depth < choice.order + 1:
            raise ValueError(
                f"taylor order {choice.order} needs {choice.order + 1} cached entries, but the "
                f"cache holds {depth} at the first forecast step {forecasts[0]}"
            )

    def solver_config(self) -> SolverConfig:
        return SolverConfig(schedule=adaptive_schedule(self.schedule), forecaster=self.forecaster)

    def to_dict(self) -> dict:
        return _dump(self)


_RENAME = {"lam": "lambda"}
_DENOISERS = {cls.kind: cls for cls in (GaussianMixtureFlow, FunctionFamily, BlockStack)}
_CHANNELS = {"polynomial": PolynomialChannel, "sine": SineChannel, "exponential": ExponentialChannel}
# class -> (tag key, tag value), for writing the tag back out
_TAGS = {cls: ("kind", tag) for tag, cls in _DENOISERS.items()}
_TAGS.update({cls: ("type", tag) for tag, cls in _CHANNELS.items()})


def _section(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be a JSON object")
    return raw


def _parse_tagged(what: str, key: str, table: dict, raw, path: str):
    """Build the class that table maps raw[key] to; what names the union in errors."""
    raw = _section(raw, path)
    if key not in raw:
        raise ConfigError(f"missing key {key!r} in {path}")
    tag = raw[key]
    if not isinstance(tag, str) or tag not in table:
        raise ConfigError(f"unknown {what} {key} {tag!r} in {path}")
    return _parse(table[tag], {k: v for k, v in raw.items() if k != key}, path)


# Annotation -> coercion of the raw JSON value; the path names the key in errors.
_COERCE = {
    "int": lambda v, _: int(v),
    "float": lambda v, _: float(v),
    "str": lambda v, _: str(v),
    "int | None": lambda v, _: None if v is None else int(v),
    "tuple[int, ...]": lambda v, _: tuple(int(x) for x in v),
    "tuple[int, ...] | None": lambda v, _: None if v is None else tuple(int(x) for x in v),
    "tuple[float, ...]": lambda v, _: tuple(float(x) for x in v),
    "np.ndarray": lambda v, _: np.asarray(v, dtype=float),
    "tuple[Channel, ...]": lambda v, path: tuple(
        _parse_tagged("channel", "type", _CHANNELS, ch, f"{path}[{i}]") for i, ch in enumerate(v)
    ),
    "DenoiserSpec": lambda v, path: _parse_tagged("denoiser", "kind", _DENOISERS, v, path),
    "ScheduleParams": lambda v, path: _parse(ScheduleParams, v, path),
    "ForecasterChoice": lambda v, path: _parse(ForecasterChoice, v, path),
}


def _parse(cls, raw, path: str):
    """Build cls from the JSON object raw, found at the dotted path."""
    raw = _section(raw, path)
    keyed = {_RENAME.get(f.name, f.name): f for f in fields(cls) if f.init}
    for key in raw:
        if key not in keyed:
            raise ConfigError(f"unknown key {key!r} in {path}")
    for key, f in keyed.items():
        if key not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {key!r} in {path}")
    kwargs = {}
    for key, f in keyed.items():
        if key in raw:
            where = key if path == "config" else f"{path}.{key}"
            try:
                kwargs[f.name] = _COERCE[f.type](raw[key], where)
            except ConfigError:
                raise
            except (TypeError, ValueError) as err:
                raise ConfigError(f"invalid value for {where}: {err}") from err
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"invalid {path}: {err}") from err


def _dump(obj):
    """JSON-ready form of a config value: the inverse of _parse."""
    if is_dataclass(obj):
        out = {_RENAME.get(f.name, f.name): _dump(getattr(obj, f.name)) for f in fields(obj) if f.init}
        if type(obj) in _TAGS:
            key, tag = _TAGS[type(obj)]
            out[key] = tag
        return out
    if isinstance(obj, tuple):
        return [_dump(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    raise ConfigError(f"{obj!r} has no serialized form")


def parse_config(raw: dict) -> ExperimentConfig:
    return _parse(ExperimentConfig, raw, "config")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {path} at line {err.lineno}, column {err.colno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config root in {path} must be a JSON object")
    return parse_config(raw)


def dump_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

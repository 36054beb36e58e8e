"""Experiment configuration: a strict JSON schema that round-trips losslessly.

The schema is derived from the dataclass fields: every init field is a key
(renamed through _RENAME), fields without a default are required, and a
value is coerced by its field's annotation.  Denoiser specs and channels are
tagged unions, selected by their "kind" and "type" keys.  Unknown keys are
rejected with the offending key named and its dotted path, so a typo like
"lamda" fails loudly instead of silently using a default; so is a key written
twice in one JSON object, which json would otherwise settle silently on its
last value, a seed listed twice, which would run and average one seed as
if it were two, and a checkpoint listed twice, which would report its RMSE
twice per seed (checkpoints may come in any order).  Every invalid value is
a ConfigError naming its key or section.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from .basis import _count, _is_integer, _is_number
from .denoisers import (
    BlockStack,
    DenoiserSpec,
    ExponentialChannel,
    FunctionFamily,
    GaussianMixtureFlow,
    PolynomialChannel,
    SineChannel,
)
from .plan import ForecasterChoice, SolverConfig
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
    _solver: SolverConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.schedule.n_steps
        if self.checkpoints is None:
            object.__setattr__(self, "checkpoints", (n,))
        if not self.seeds:
            raise ValueError("seeds must be a non-empty list")
        # each as an int, so a config dumps only what load_config reads back
        object.__setattr__(self, "seeds", _distinct(tuple(_count(seed, "seed") for seed in self.seeds), "seeds"))
        checkpoints = _distinct(tuple(_count(step, "checkpoint", least=1) for step in self.checkpoints), "checkpoints")
        object.__setattr__(self, "checkpoints", checkpoints)
        for step in checkpoints:
            if step > n:
                raise ValueError(f"checkpoints must lie in [1, {n}], got {step}")
        if self.forecaster.cache_scope == "per_block" and not isinstance(self.spec, BlockStack):
            raise ValueError("per-block caching requires a block_stack denoiser")
        # SolverConfig plans every forecast, and refuses one it cannot make
        solver = SolverConfig(schedule=adaptive_schedule(self.schedule), forecaster=self.forecaster)
        object.__setattr__(self, "_solver", solver)

    def solver_config(self) -> SolverConfig:
        """The solver config, with its forecasts planned once, when this config was built."""
        return self._solver

    def to_dict(self) -> dict:
        return _dump(self)


def _distinct(values: tuple, what: str) -> tuple:
    """values, refused if one of them comes twice."""
    repeated = [v for v in values if values.count(v) > 1]
    if repeated:
        raise ValueError(f"{what} must be distinct, got {repeated[0]} more than once")
    return values


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


def _integer(v, path: str) -> int:
    """v as an int by the basis rule, over JSON's ints; a bool or a number with a fractional part is an error."""
    if not _is_integer(v, int):
        raise ConfigError(f"invalid value for {path}: expected an integer, got {v!r}")
    return int(v)


def _number(v, path: str) -> float:
    """v as a float by the basis rule, over JSON's numbers; a bool, a string or any other non-number is an error."""
    if not _is_number(v, (int, float)):
        raise ConfigError(f"invalid value for {path}: expected a number, got {v!r}")
    return float(v)


def _numbers(v, path: str):
    """A nested list of numbers, each leaf checked by _number, ready for np.asarray."""
    return [_numbers(x, path) for x in v] if isinstance(v, list) else _number(v, path)


def _string(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"invalid value for {path}: expected a string, got {v!r}")
    return v


# Annotation -> coercion of the raw JSON value; the path names the key in errors.
_COERCE = {
    "int": _integer,
    "float": _number,
    "str": _string,
    "int | None": lambda v, path: None if v is None else _integer(v, path),
    "tuple[int, ...]": lambda v, path: tuple(_integer(x, path) for x in v),
    "tuple[int, ...] | None": lambda v, path: None if v is None else tuple(_integer(x, path) for x in v),
    "tuple[float, ...]": lambda v, path: tuple(_number(x, path) for x in v),
    "np.ndarray": lambda v, path: np.asarray(_numbers(v, path), dtype=float),
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
            except (TypeError, ValueError, OverflowError) as err:
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


def _unique_keys(pairs: list, path: str) -> dict:
    """A JSON object's (key, value) pairs as a dict, refusing a key that comes twice."""
    keys = set()
    for key, _ in pairs:
        if key in keys:
            raise ConfigError(f"duplicate key {key!r} in {path}")
        keys.add(key)
    return dict(pairs)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=lambda pairs: _unique_keys(pairs, path))
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {path} at line {err.lineno}, column {err.colno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config root in {path} must be a JSON object")
    return parse_config(raw)


def dump_config(config: ExperimentConfig, path: str) -> None:
    """Write config as JSON; a config with no serialized form raises ConfigError before the file is opened."""
    text = json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

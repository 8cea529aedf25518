"""Flat key = value run configuration shared by all CLI subcommands.

The file format is deliberately trivial: one `key = value` pair per line,
'#' starts a comment, keys are lowercase snake case. Command-line
`--set key=value` pairs are parsed identically and override file values.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass

import numpy as np

from .models import FullModelParams
from .observables import DEFAULT_N_SAMPLES, MIN_N_SAMPLES


class ConfigError(ValueError):
    """Bad configuration input; the message names the offending key."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"{text!r} is not a boolean")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings: model parameters plus subcommand knobs.

    t_max/n_times control population time grids, tau_max/n_samples the
    correlation delay grid (None means the model-derived default), the
    axis* fields override per-command map axes, pi_units switches the
    map legend to the 1/(pi gamma_a) time-unit convention.
    """

    params: FullModelParams
    t_max: float | None = None
    n_times: int = 200
    tau_max: float | None = None
    n_samples: int = DEFAULT_N_SAMPLES
    axis1: str | None = None
    axis1_min: float | None = None
    axis1_max: float | None = None
    axis1_points: int | None = None
    axis2: str | None = None
    axis2_min: float | None = None
    axis2_max: float | None = None
    axis2_points: int | None = None
    workers: int | None = None
    pi_units: bool = False
    out: str | None = None

    def axis_override(self, which: int) -> tuple[str, float, float, int] | None:
        """(name, min, max, points) for axis 1 or 2 if fully configured."""
        prefix = f"axis{which}"
        vals = (getattr(self, prefix), getattr(self, f"{prefix}_min"),
                getattr(self, f"{prefix}_max"), getattr(self, f"{prefix}_points"))
        if all(v is None for v in vals):
            return None
        if any(v is None for v in vals):
            missing = [n for n, v in zip(
                (prefix, f"{prefix}_min", f"{prefix}_max", f"{prefix}_points"), vals)
                if v is None]
            raise ConfigError(f"incomplete axis: missing key(s) {', '.join(missing)}")
        return vals


def _key_types(cls) -> dict[str, tuple[type, object]]:
    """key -> (python type, default) for each field of a dataclass; an
    optional field (X | None) maps to X."""
    hints = typing.get_type_hints(cls)
    table = {}
    for f in dataclasses.fields(cls):
        args = [a for a in typing.get_args(hints[f.name]) if a is not type(None)]
        table[f.name] = (args[0] if args else hints[f.name], f.default)
    return table


# model keys inherit their FullModelParams defaults, the rest are RunConfig's
_MODEL_KEYS = _key_types(FullModelParams)
_KEY_TYPES = {**_MODEL_KEYS,
              **{k: v for k, v in _key_types(RunConfig).items() if k != "params"}}


def _convert(key: str, raw: str, where: str):
    typ, _ = _KEY_TYPES[key]
    raw = raw.strip()
    try:
        if typ is bool:
            return _parse_bool(raw)
        if typ is int:
            return int(raw, 10)
        if typ is float:
            value = float(raw)
            if not np.isfinite(value):
                raise ValueError("not finite")
            return value
        return raw
    except ValueError as exc:
        raise ConfigError(f"invalid value for key '{key}' {where}: {raw!r} ({exc})") from None


def _parse_pairs(lines, where_fmt: str) -> dict:
    values = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        where = where_fmt.format(lineno=lineno)
        if "=" not in text:
            raise ConfigError(f"expected 'key = value' {where}, got {text!r}")
        key, raw = text.split("=", 1)
        key = key.strip().lower()
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown key '{key}' {where}")
        values[key] = _convert(key, raw, where)
    return values


def parse_config(path: str | None = None, overrides: tuple[str, ...] = ()) -> RunConfig:
    """Resolve a RunConfig from an optional file plus --set style overrides.

    Overrides win over file values; anything unspecified takes the package
    defaults. Unknown keys and malformed values raise ConfigError naming
    the key (and the line, for file input).
    """
    values = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        values.update(_parse_pairs(lines, "on line {lineno} of " + path))
    values.update(_parse_pairs(overrides, "in --set argument {lineno}"))

    model_kwargs = {k: v for k, v in values.items() if k in _MODEL_KEYS}
    try:
        params = FullModelParams(**model_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    run_kwargs = {k: v for k, v in values.items() if k not in _MODEL_KEYS}
    cfg = RunConfig(params=params, **run_kwargs)
    if cfg.n_times < 2:
        raise ConfigError(f"invalid value for key 'n_times': need >= 2, got {cfg.n_times}")
    if cfg.t_max is not None and cfg.t_max <= 0:
        raise ConfigError(f"invalid value for key 't_max': need > 0, got {cfg.t_max}")
    if cfg.tau_max is not None and cfg.tau_max <= 0:
        raise ConfigError(f"invalid value for key 'tau_max': need > 0, got {cfg.tau_max}")
    if cfg.n_samples < MIN_N_SAMPLES or (cfg.n_samples & (cfg.n_samples - 1)) != 0:
        raise ConfigError("invalid value for key 'n_samples': need a power of two "
                          f">= {MIN_N_SAMPLES}, got {cfg.n_samples}")
    if cfg.workers is not None and cfg.workers < 1:
        raise ConfigError(f"invalid value for key 'workers': need >= 1, got {cfg.workers}")
    return cfg

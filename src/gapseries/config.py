"""Run configuration: a single JSON file with nested tables.

The schema lives here only.  Each table is read once, at load, into a
frozen dataclass whose field names are its allowed keys: unknown keys are
rejected so that typos fail loudly instead of silently falling back to
defaults, values are cast by their field's type and ranges are checked in
``__post_init__``.  Counts bounded by the series length (``n_terms``,
``max_index``, ``depth``) stay ``None``, meaning "use the default", until
a command has built the series.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, GapSeriesError
from .measure import MonotoneFn, builtin, identity
from .series import ExponentSequence, SeriesSpec, geometric_exponents, power_exponents

_FN_KEYS = {
    "identity": set(),
    "power": {"exponent", "scale"},
    "exp": {"rate"},
    "log_shifted": set(),
    "affine": {"slope", "intercept"},
}

_SERIES_KEYS = {
    "generator", "kind", "complete", "exponents", "log_moduli", "phases",
    "scale", "power", "base", "count", "coeffs",
}
_COEFF_KEYS = {"mode", "g", "jitter", "random_phases"}


def _check_keys(table: dict, allowed: set[str], where: str) -> None:
    if not isinstance(table, dict):
        raise ConfigError(f"{where} must be a table, got {type(table).__name__}")
    unknown = set(table) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _cast(key: str, cast, value):
    """``cast(value)``; a TypeError, ValueError or OverflowError becomes one
    ConfigError naming ``key``."""
    try:
        return cast(value)
    except GapSeriesError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _boolean(key: str, value) -> bool:
    """``value`` if it is a JSON boolean, else a ConfigError naming ``key``:
    a string such as "false" is truthy."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _positive(where: str, **values) -> None:
    """Raise a ConfigError naming ``where.key`` unless the value, or every
    entry of a tuple value, is finite and positive."""
    for key, value in values.items():
        if not all(0.0 < v < math.inf for v in (value if isinstance(value, tuple) else (value,))):
            name = f"{where}.{key}" if where else key
            raise ConfigError(f"{name} must be finite and positive, got {value}")


def function_from_spec(spec: dict, where: str = "function") -> MonotoneFn:
    _check_keys(spec, {"name"} | set().union(*_FN_KEYS.values()), where)
    name = spec.get("name")
    if not isinstance(name, str) or name not in _FN_KEYS:
        raise ConfigError(f"{where}.name: unknown function name {name!r}; have {sorted(_FN_KEYS)}")
    params = {k: v for k, v in spec.items() if k != "name"}
    extra = set(params) - _FN_KEYS[name]
    if extra:
        raise ConfigError(f"{where}: {name} does not take {sorted(extra)}")
    for key, value in params.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    try:
        return builtin(name, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class Tolerances:
    rel_tol: float = 1e-9
    quad_tol: float = 1e-8
    phase_tol: float = 1e-10
    tail_tol: float = 1e-8
    grid_points: int = 4096
    delta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ConfigError(f"tolerances.rel_tol must lie in (0, 1), got {self.rel_tol}")
        _positive(
            "tolerances", quad_tol=self.quad_tol, phase_tol=self.phase_tol, tail_tol=self.tail_tol, delta=self.delta
        )
        if self.grid_points < 2:
            # the phase search needs a grid step ys[1] - ys[0]
            raise ConfigError(f"tolerances.grid_points must be at least 2, got {self.grid_points}")


@dataclass(frozen=True)
class Sweep:
    x_min: float
    x_max: float
    step: float

    def __post_init__(self):
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise ConfigError(f"need finite sweep.x_min < sweep.x_max, got {self.x_min} and {self.x_max}")
        _positive("sweep", step=self.step)


@dataclass(frozen=True)
class Criteria:
    n_terms: int | None = None
    alpha: float = 1.0

    def __post_init__(self):
        _positive("criteria", alpha=self.alpha)


@dataclass(frozen=True)
class Construct:
    b: float = 1.0
    n_terms: int | None = None
    depth: int | None = None
    phi1: MonotoneFn = field(default_factory=identity)

    def __post_init__(self):
        _positive("construct", b=self.b)


@dataclass(frozen=True)
class Lemma:
    q_values: tuple[float, ...] = (0.5, 1.0, 2.0)
    n_terms: int | None = None
    max_index: int | None = None
    # None until parse_config fills in tolerances.tail_tol
    tail_tol: float | None = None

    def __post_init__(self):
        _positive("lemma", q_values=self.q_values)
        if self.tail_tol is not None:
            _positive("lemma", tail_tol=self.tail_tol)


@dataclass(frozen=True)
class GapPower:
    r_min: float
    r_max: float
    r_points: int

    def __post_init__(self):
        _positive("gap_power", r_min=self.r_min, r_max=self.r_max)
        if not self.r_min < self.r_max:
            raise ConfigError(f"need gap_power.r_min < gap_power.r_max, got {self.r_min} and {self.r_max}")
        if self.r_points < 2:
            raise ConfigError(f"gap_power.r_points must be at least 2, got {self.r_points}")


@dataclass(frozen=True, eq=False)
class RunConfig:
    series: dict | None = None
    h: MonotoneFn = field(default_factory=identity)
    phi: MonotoneFn = field(default_factory=identity)
    sweep: Sweep | None = None
    beta: float = 0.3
    b_grid: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 10.0)
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 0
    output: str | None = None
    criteria: Criteria = field(default_factory=Criteria)
    construct: Construct = field(default_factory=Construct)
    lemma: Lemma = field(default_factory=Lemma)
    gap_power: GapPower | None = None

    def __post_init__(self):
        _positive("", beta=self.beta, b_grid=self.b_grid)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError(f"output must be a string, got {self.output!r}")


def _series_table(series, where: str) -> dict:
    # the series stays a dict: series_from_config reads it
    _check_keys(series, _SERIES_KEYS, where)
    if "coeffs" in series:
        _check_keys(series["coeffs"], _COEFF_KEYS, f"{where}.coeffs")
    return series


def _section(cls, table: dict, where: str):
    """Read the JSON table ``table`` into the frozen dataclass ``cls``.

    The fields of ``cls`` are the allowed keys.  A key left out takes the
    field's default, and a field without a default is required.  Each value
    given is cast by ``_CASTS`` under its field's type (``X | None`` casts
    as ``X``), and ``cls.__post_init__`` checks the ranges.  Every failure
    is one ConfigError naming ``where.key``.
    """
    schema = fields(cls)
    _check_keys(table, {f.name for f in schema}, where or "config")
    values = {}
    for f in schema:
        key = f"{where}.{f.name}" if where else f.name
        if f.name not in table:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing required key {key}")
            continue
        cast = _CASTS[f.type.removesuffix(" | None")]
        values[f.name] = _cast(key, partial(cast, where=key), table[f.name])
    return cls(**values)


# casts by field type; each takes the raw value and the key it sits under
_CASTS = {
    "float": lambda value, where: float(value),
    "int": lambda value, where: int(value),
    "str": lambda value, where: value,
    "tuple[float, ...]": lambda value, where: tuple(float(v) for v in value),
    "dict": _series_table,
    "MonotoneFn": function_from_spec,
    **{cls.__name__: partial(_section, cls) for cls in (Tolerances, Sweep, Criteria, Construct, Lemma, GapPower)},
}


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    cfg = _section(RunConfig, raw, "")
    if cfg.lemma.tail_tol is None:
        cfg = replace(cfg, lemma=replace(cfg.lemma, tail_tol=cfg.tolerances.tail_tol))
    return cfg


_float_array = partial(np.asarray, dtype=float)


def exponents_from_config(series: dict) -> ExponentSequence:
    generator = series.get("generator", "explicit")
    kind = series.get("kind", "dirichlet")
    try:
        if generator == "explicit":
            if "exponents" not in series:
                raise ConfigError("explicit series needs an 'exponents' list")
            return ExponentSequence(_cast("series.exponents", _float_array, series["exponents"]), kind)
        if generator == "power":
            return power_exponents(
                _cast("series.scale", float, series.get("scale", 1.0)),
                _cast("series.power", float, series.get("power", 1.0)),
                _cast("series.count", int, series["count"]),
                kind,
            )
        if generator == "geometric":
            return geometric_exponents(
                _cast("series.base", float, series.get("base", 2.0)), _cast("series.count", int, series["count"]), kind
            )
    except KeyError as exc:
        raise ConfigError(f"series generator {generator!r} is missing {exc}") from exc
    except GapSeriesError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"series: {exc}") from exc
    raise ConfigError(f"unknown series generator {generator!r}")


def series_from_config(series: dict | None, seed: int) -> SeriesSpec:
    """Build the series spec; random coefficients draw from a generator
    seeded with ``seed`` (jitter first, then phases, documented order)."""
    if series is None:
        raise ConfigError("this command needs a 'series' section")
    exponents = exponents_from_config(series)
    complete = _boolean("series.complete", series.get("complete", False))

    if "log_moduli" in series:
        log_moduli = _cast("series.log_moduli", _float_array, series["log_moduli"])
        phases = _cast("series.phases", _float_array, series["phases"]) if "phases" in series else None
        try:
            return SeriesSpec(exponents, log_moduli, phases, complete)
        except ValueError as exc:
            raise ConfigError(f"series: {exc}") from exc

    if "phases" in series:
        raise ConfigError("series.phases requires explicit series.log_moduli")
    coeffs = series.get("coeffs", {"mode": "flat"})
    mode = coeffs.get("mode", "random")
    random_phases = _boolean("series.coeffs.random_phases", coeffs.get("random_phases", False))
    lam = exponents.values
    if mode == "flat":
        return SeriesSpec(exponents, np.zeros(lam.size), None, complete)
    if mode != "random":
        raise ConfigError(f"unknown coeffs mode {mode!r}")
    g_fn = function_from_spec(coeffs.get("g", {"name": "identity"}), "series.coeffs.g")
    jitter = _cast("series.coeffs.jitter", float, coeffs.get("jitter", 1.0))
    rng = _cast("seed", np.random.default_rng, seed)
    log_moduli = -lam * np.array([g_fn.value(v) for v in lam]) + jitter * rng.uniform(0.0, 1.0, lam.size)
    phases = rng.uniform(0.0, 2.0 * math.pi, lam.size) if random_phases else None
    try:
        return SeriesSpec(exponents, log_moduli, phases, complete)
    except ValueError as exc:
        raise ConfigError(f"series: {exc}") from exc

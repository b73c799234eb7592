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
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, GapSeriesError
from .measure import _BUILTINS, MonotoneFn, builtin, identity
from .series import _KINDS, ExponentSequence, SeriesSpec, geometric_exponents, power_exponents

#: size caps, each 10x or more the largest a curated config, benchmark
#: workload or test uses: a larger table exits 1 instead of exhausting memory.
#: MAX_POINTS bounds the abscissas of a sweep or gap-power table, each of
#: which gets a 4096-point phase search
MAX_POINTS = 4096
MAX_SERIES_COUNT = 1_000_000
MAX_LEMMA_ROWS = 1_000_000


def _cast(key: str, cast, value):
    """``cast(value)``; a TypeError, ValueError or OverflowError becomes one
    ConfigError naming ``key``."""
    try:
        return cast(value)
    except GapSeriesError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _json(kind: type, value, where: str):
    """``value`` if it is a JSON ``kind``, else a ConfigError naming ``where``:
    the string "false" is truthy, and a string or a table iterates like a list."""
    if not isinstance(value, kind):
        raise ConfigError(f"{where} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _positive(where: str, **values) -> None:
    """Raise a ConfigError naming ``where.key`` unless the value, or every
    entry of a tuple value, is finite and positive."""
    for key, value in values.items():
        if not all(0.0 < v < math.inf for v in (value if isinstance(value, tuple) else (value,))):
            name = f"{where}.{key}" if where else key
            raise ConfigError(f"{name} must be finite and positive, got {value}")


def function_from_spec(spec: dict, where: str = "function") -> MonotoneFn:
    """The builtin named by ``spec["name"]``, called with the other keys:
    the factory's signature decides which keys it takes."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a table, got {type(spec).__name__}")
    name = spec.get("name")
    if not isinstance(name, str) or name not in _BUILTINS:
        raise ConfigError(f"{where}.name: unknown function name {name!r}; have {sorted(_BUILTINS)}")
    params = {k: v for k, v in spec.items() if k != "name"}
    for key, value in params.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    try:
        return builtin(name, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class Sweep:
    x_min: float
    x_max: float
    step: float

    def __post_init__(self):
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise ConfigError(f"need finite sweep.x_min < sweep.x_max, got {self.x_min} and {self.x_max}")
        _positive("sweep", step=self.step)
        if self.points > MAX_POINTS:
            raise ConfigError(
                f"sweep.step: (x_max - x_min)/step + 1 is {self.points:.6g} points, above the cap of {MAX_POINTS}"
            )

    @property
    def points(self) -> float:
        """The number of abscissas, to within one."""
        return (self.x_max - self.x_min) / self.step + 1.0


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

    def __post_init__(self):
        _positive("lemma", q_values=self.q_values)


@dataclass(frozen=True)
class GapPower:
    r_min: float
    r_max: float
    r_points: int

    def __post_init__(self):
        _positive("gap_power", r_min=self.r_min, r_max=self.r_max)
        if not self.r_min < self.r_max:
            raise ConfigError(f"need gap_power.r_min < gap_power.r_max, got {self.r_min} and {self.r_max}")
        if not 2 <= self.r_points <= MAX_POINTS:
            raise ConfigError(f"gap_power.r_points must lie in [2, {MAX_POINTS}], got {self.r_points}")


@dataclass(frozen=True)
class Coeffs:
    """Random coefficients ln|a_n| = -lambda_n g(lambda_n) + jitter U[0,1)."""

    mode: str = "random"
    g: MonotoneFn = field(default_factory=identity)
    jitter: float = 1.0
    random_phases: bool = False

    def __post_init__(self):
        if self.mode not in ("flat", "random"):
            raise ConfigError(f"series.coeffs.mode: unknown mode {self.mode!r}; have ['flat', 'random']")


@dataclass(frozen=True)
class Series:
    """The explicit generator needs ``exponents``, the others ``count``.
    Explicit ``log_moduli`` (and ``phases``) override ``coeffs``, and no
    ``coeffs`` at all means flat moduli."""

    generator: str = "explicit"
    kind: str = "dirichlet"
    complete: bool = False
    exponents: tuple[float, ...] | None = None
    log_moduli: tuple[float, ...] | None = None
    phases: tuple[float, ...] | None = None
    scale: float = 1.0
    power: float = 1.0
    base: float = 2.0
    count: int | None = None
    coeffs: Coeffs | None = None

    def __post_init__(self):
        if self.generator not in ("explicit", "power", "geometric"):
            raise ConfigError(f"series.generator: unknown {self.generator!r}; have explicit, power, geometric")
        required = "exponents" if self.generator == "explicit" else "count"
        if getattr(self, required) is None:
            raise ConfigError(f"missing key series.{required}, required by generator {self.generator!r}")
        if self.kind not in _KINDS:
            raise ConfigError(f"series.kind: unknown kind {self.kind!r}; have {list(_KINDS)}")
        if self.phases is not None and self.log_moduli is None:
            raise ConfigError("series.phases requires explicit series.log_moduli")
        if self.count is not None and not 1 <= self.count <= MAX_SERIES_COUNT:
            raise ConfigError(f"series.count must lie in [1, {MAX_SERIES_COUNT}], got {self.count}")


@dataclass(frozen=True, eq=False)
class RunConfig:
    series: Series | None = None
    h: MonotoneFn = field(default_factory=identity)
    phi: MonotoneFn = field(default_factory=identity)
    sweep: Sweep | None = None
    beta: float = 0.3
    b_grid: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 10.0)
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


def _section(cls, table: dict, where: str):
    """Read the JSON table ``table`` into the frozen dataclass ``cls``.

    The fields of ``cls`` are the allowed keys.  A key left out takes the
    field's default, and a field without a default is required.  Each value
    given is cast by ``_CASTS`` under its field's type (``X | None`` casts
    as ``X``), and ``cls.__post_init__`` checks the ranges.  Every failure
    is one ConfigError naming ``where.key``.
    """
    schema = fields(cls)
    if not isinstance(table, dict):
        raise ConfigError(f"{where or 'config'} must be a table, got {type(table).__name__}")
    unknown = set(table) - {f.name for f in schema}
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'config'}: {sorted(unknown)}")
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
    "bool": partial(_json, bool),
    "tuple[float, ...]": lambda value, where: tuple(float(v) for v in _json(list, value, where)),
    "MonotoneFn": function_from_spec,
    **{
        cls.__name__: partial(_section, cls)
        for cls in (Sweep, Criteria, Construct, Lemma, GapPower, Coeffs, Series)
    },
}


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _section(RunConfig, raw, "")


def series_from_config(series: Series | None, seed: int) -> SeriesSpec:
    """Build the series spec; random coefficients draw from a generator
    seeded with ``seed`` (jitter first, then phases, documented order)."""
    if series is None:
        raise ConfigError("this command needs a 'series' section")
    try:
        if series.generator == "explicit":
            exponents = ExponentSequence(np.asarray(series.exponents), series.kind)
        elif series.generator == "power":
            exponents = power_exponents(series.scale, series.power, series.count, series.kind)
        else:
            exponents = geometric_exponents(series.base, series.count, series.kind)
        lam = exponents.values
        coeffs = series.coeffs
        if series.log_moduli is not None:
            log_moduli = np.asarray(series.log_moduli)
            phases = None if series.phases is None else np.asarray(series.phases)
        elif coeffs is None or coeffs.mode == "flat":
            log_moduli, phases = np.zeros(lam.size), None
        else:
            rng = np.random.default_rng(seed)
            g = np.array([coeffs.g.value(v) for v in lam])
            with np.errstate(over="ignore", invalid="ignore"):
                # an overflow leaves a non-finite modulus, which SeriesSpec rejects
                log_moduli = -lam * g + coeffs.jitter * rng.uniform(0.0, 1.0, lam.size)
            phases = rng.uniform(0.0, 2.0 * math.pi, lam.size) if coeffs.random_phases else None
        return SeriesSpec(exponents, log_moduli, phases, series.complete)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"series: {exc}") from exc

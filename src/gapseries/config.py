"""Run configuration: a single JSON file with nested tables.

Unknown keys are rejected so that typos fail loudly instead of silently
falling back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .measure import MonotoneFn, builtin
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
_SWEEP_KEYS = {"x_min", "x_max", "step"}
_TOL_KEYS = {"rel_tol", "quad_tol", "phase_tol", "tail_tol", "grid_points", "delta"}
_CRITERIA_KEYS = {"n_terms", "alpha"}
_CONSTRUCT_KEYS = {"b", "n_terms", "depth", "phi1"}
_LEMMA_KEYS = {"q_values", "n_terms", "max_index", "tail_tol"}
_GAP_POWER_KEYS = {"r_min", "r_max", "r_points"}
_TOP_KEYS = {
    "series", "h", "phi", "sweep", "beta", "b_grid", "tolerances", "seed",
    "output", "criteria", "construct", "lemma", "gap_power",
}


def _check_keys(table: dict, allowed: set[str], where: str) -> None:
    if not isinstance(table, dict):
        raise ConfigError(f"{where} must be a table, got {type(table).__name__}")
    unknown = set(table) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def function_from_spec(spec: dict, where: str = "function") -> MonotoneFn:
    _check_keys(spec, {"name"} | set().union(*_FN_KEYS.values()), where)
    name = spec.get("name")
    if name not in _FN_KEYS:
        raise ConfigError(f"{where}: unknown function name {name!r}; have {sorted(_FN_KEYS)}")
    params = {k: v for k, v in spec.items() if k != "name"}
    extra = set(params) - _FN_KEYS[name]
    if extra:
        raise ConfigError(f"{where}: {name} does not take {sorted(extra)}")
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


@dataclass(frozen=True, eq=False)
class RunConfig:
    series: dict | None
    h: MonotoneFn
    phi: MonotoneFn
    sweep: tuple[float, float, float] | None
    beta: float
    b_grid: tuple[float, ...]
    tolerances: Tolerances
    seed: int
    output: str | None
    criteria: dict
    construct: dict
    lemma: dict
    gap_power: dict


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    _check_keys(raw, _TOP_KEYS, "config")

    series = raw.get("series")
    if series is not None:
        _check_keys(series, _SERIES_KEYS, "series")
        if "coeffs" in series:
            _check_keys(series["coeffs"], _COEFF_KEYS, "series.coeffs")

    h = function_from_spec(raw.get("h", {"name": "identity"}), "h")
    phi = function_from_spec(raw.get("phi", {"name": "identity"}), "phi")

    sweep = None
    if "sweep" in raw:
        _check_keys(raw["sweep"], _SWEEP_KEYS, "sweep")
        try:
            sweep = (float(raw["sweep"]["x_min"]), float(raw["sweep"]["x_max"]), float(raw["sweep"]["step"]))
        except KeyError as exc:
            raise ConfigError(f"sweep is missing {exc}") from exc
        if not sweep[0] < sweep[1]:
            raise ConfigError("sweep.x_min must be below sweep.x_max")
        if sweep[2] <= 0:
            raise ConfigError("sweep.step must be positive")

    beta = float(raw.get("beta", 0.3))
    if beta <= 0:
        raise ConfigError("beta must be positive")

    b_grid = tuple(float(b) for b in raw.get("b_grid", (0.1, 0.5, 1.0, 2.0, 10.0)))
    if any(b <= 0 for b in b_grid):
        raise ConfigError("b_grid entries must be positive")

    tol_raw = raw.get("tolerances", {})
    _check_keys(tol_raw, _TOL_KEYS, "tolerances")
    try:
        tol_cast = {
            k: int(v) if k == "grid_points" else float(v) for k, v in tol_raw.items()
        }
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tolerances: {exc}") from exc
    tolerances = Tolerances(**tol_cast)
    if tolerances.grid_points < 2:
        # the phase search needs a grid step ys[1] - ys[0]
        raise ConfigError(f"tolerances.grid_points must be at least 2, got {tolerances.grid_points}")

    for section, keys in (
        ("criteria", _CRITERIA_KEYS),
        ("construct", _CONSTRUCT_KEYS),
        ("lemma", _LEMMA_KEYS),
        ("gap_power", _GAP_POWER_KEYS),
    ):
        if section in raw:
            _check_keys(raw[section], keys, section)

    return RunConfig(
        series=series,
        h=h,
        phi=phi,
        sweep=sweep,
        beta=beta,
        b_grid=b_grid,
        tolerances=tolerances,
        seed=int(raw.get("seed", 0)),
        output=raw.get("output"),
        criteria=raw.get("criteria", {}),
        construct=raw.get("construct", {}),
        lemma=raw.get("lemma", {}),
        gap_power=raw.get("gap_power", {}),
    )


def exponents_from_config(series: dict) -> ExponentSequence:
    generator = series.get("generator", "explicit")
    kind = series.get("kind", "dirichlet")
    try:
        if generator == "explicit":
            if "exponents" not in series:
                raise ConfigError("explicit series needs an 'exponents' list")
            return ExponentSequence(np.asarray(series["exponents"], dtype=float), kind)
        if generator == "power":
            return power_exponents(
                float(series.get("scale", 1.0)),
                float(series.get("power", 1.0)),
                int(series["count"]),
                kind,
            )
        if generator == "geometric":
            return geometric_exponents(float(series.get("base", 2.0)), int(series["count"]), kind)
    except KeyError as exc:
        raise ConfigError(f"series generator {generator!r} is missing {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"series: {exc}") from exc
    raise ConfigError(f"unknown series generator {generator!r}")


def series_from_config(series: dict | None, seed: int) -> SeriesSpec:
    """Build the series spec; random coefficients draw from a generator
    seeded with ``seed`` (jitter first, then phases, documented order)."""
    if series is None:
        raise ConfigError("this command needs a 'series' section")
    exponents = exponents_from_config(series)
    complete = bool(series.get("complete", False))

    if "log_moduli" in series:
        log_moduli = np.asarray(series["log_moduli"], dtype=float)
        phases = np.asarray(series["phases"], dtype=float) if "phases" in series else None
        try:
            return SeriesSpec(exponents, log_moduli, phases, complete)
        except ValueError as exc:
            raise ConfigError(f"series: {exc}") from exc

    if "phases" in series:
        raise ConfigError("series.phases requires explicit series.log_moduli")
    coeffs = series.get("coeffs", {"mode": "flat"})
    mode = coeffs.get("mode", "random")
    lam = exponents.values
    if mode == "flat":
        return SeriesSpec(exponents, np.zeros(lam.size), None, complete)
    if mode != "random":
        raise ConfigError(f"unknown coeffs mode {mode!r}")
    g_fn = function_from_spec(coeffs.get("g", {"name": "identity"}), "series.coeffs.g")
    jitter = float(coeffs.get("jitter", 1.0))
    rng = np.random.default_rng(seed)
    log_moduli = -lam * np.array([g_fn.value(v) for v in lam]) + jitter * rng.uniform(0.0, 1.0, lam.size)
    phases = rng.uniform(0.0, 2.0 * math.pi, lam.size) if coeffs.get("random_phases", False) else None
    try:
        return SeriesSpec(exponents, log_moduli, phases, complete)
    except ValueError as exc:
        raise ConfigError(f"series: {exc}") from exc

"""Deterministic job generators for the benchmark workloads.

A job is one ``gapseries`` CLI call on one generated config.  Job ``i`` of a
workload run with seed ``s`` draws every parameter from
``numpy.random.default_rng([s, WORKLOAD_IDS[name], i])``, so the same seed
gives the same job sequence however many jobs a run gets through, and the
program only ever sees the written config files.

Each workload cycles through its job kinds in a fixed order, so every run
holds the kinds in the same proportions.  Within a kind, the parameter that
sets a job's cost is not drawn independently: it follows a low-discrepancy
sequence ``sizes[k] = frac(u_k + rounds * step_k)`` over the kind's jobs,
with irrational steps and offsets ``u_k`` drawn from the seed.  Any run's first n jobs of a kind then
cover the size range evenly, so the medians of a run depend on the seed
much less than on the program (``rounds`` is the number of full cycles
before the job).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

WORKLOAD_IDS = {"sweep": 1, "gap-power": 2, "theory": 3, "theory-full": 4}
WORKLOADS = tuple(WORKLOAD_IDS)

POWER2 = {"name": "power", "exponent": 2.0}
#: one irrational step per cost parameter a kind can draw from its sequence
_STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)


@dataclass(frozen=True)
class Job:
    """One CLI call: ``gapseries <command> --config <file> --out <file>``."""

    index: int
    kind: str
    command: str
    config: dict


def _b_grid(rng: np.random.Generator, k: int) -> list[float]:
    return sorted(float(b) for b in rng.choice([0.25, 0.5, 1.0, 2.0, 4.0, 8.0], size=k, replace=False))


def _sweep(rng: np.random.Generator, sizes: tuple[float, ...], rounds: int) -> tuple[str, str, dict]:
    # random-coefficient geometric series, the shape of the curated sweep
    points = 30 + int(sizes[0] * 41)
    step = float(rng.uniform(2.0, 5.0))
    x_min = float(rng.uniform(0.5, 5.0))
    config = {
        "series": {
            "generator": "geometric",
            "base": 2.0,
            "count": 31,
            "coeffs": {
                "mode": "random",
                "g": {"name": "affine", "slope": float(rng.uniform(0.08, 0.2)), "intercept": 1.0},
                "jitter": float(rng.uniform(0.2, 1.0)),
                "random_phases": True,
            },
        },
        "h": POWER2,
        "phi": {"name": "identity"},
        "sweep": {"x_min": x_min, "x_max": x_min + (points - 1) * step, "step": step},
        "beta": float(rng.uniform(0.2, 0.4)),
        "seed": int(rng.integers(1, 2**31)),
    }
    return "sweep", "sweep", config


def _gap_power_truncated(rng: np.random.Generator, sizes: tuple[float, ...], rounds: int) -> tuple[str, str, dict]:
    # n^2 exponents; the slope puts the central exponent at r_max near top_exponent
    r_min = float(math.exp(rng.uniform(math.log(2.0), math.log(50.0))))
    r_max = r_min * 10.0 ** (1.0 + 5.0 * sizes[1])
    top_exponent = 100.0 + 300.0 * sizes[0]
    slope = (math.log(r_max) - 1.0) / (2.0 * top_exponent)
    config = {
        "series": {
            "generator": "power",
            "kind": "gap-power",
            "scale": 1.0,
            "power": 2.0,
            "count": int(rng.integers(100, 201)),
            "coeffs": {
                "mode": "random",
                "g": {"name": "affine", "slope": slope, "intercept": 1.0},
                "jitter": float(rng.uniform(0.2, 1.0)),
                "random_phases": True,
            },
        },
        "h": POWER2,
        "phi": {"name": "identity"},
        "beta": 0.3,
        "b_grid": _b_grid(rng, 3),
        "seed": int(rng.integers(1, 2**31)),
        "gap_power": {"r_min": r_min, "r_max": r_max, "r_points": 20},
    }
    return "truncated", "gap-power", config


def _gap_power_polynomial(rng: np.random.Generator, sizes: tuple[float, ...], rounds: int) -> tuple[str, str, dict]:
    # complete gap polynomial near the unit circle, top exponent beyond what
    # the default 4096-point phase grid resolves
    k = 2 + int(sizes[0] * 6)
    exponents = [0] + sorted(int(v) for v in rng.choice(np.arange(1, 6000), size=k - 1, replace=False))
    half_width = float(rng.uniform(0.002, 0.02))
    config = {
        "series": {
            "generator": "explicit",
            "kind": "gap-power",
            "exponents": exponents,
            "log_moduli": [float(v) for v in rng.uniform(-2.0, 0.0, k)],
            "phases": [float(v) for v in rng.uniform(0.0, 2.0 * math.pi, k)],
            "complete": True,
        },
        "h": POWER2,
        "phi": {"name": "identity"},
        "beta": 0.3,
        "b_grid": _b_grid(rng, 2),
        "gap_power": {"r_min": 1.0 - half_width, "r_max": 1.0 + half_width, "r_points": 60},
    }
    return "polynomial", "gap-power", config


def _theory_criteria(rng: np.random.Generator, sizes: tuple[float, ...], rounds: int) -> tuple[str, str, dict]:
    # nine (power, h) pairs in turn; integral powers add criterion_exp_inverse,
    # whose terms overflow to inf with h = power(2).  The b grid and alpha
    # move a job's cost by up to 15 %, so they cycle too (54 rounds in all)
    # rather than being drawn: every run then holds the same cost mix.
    config = {
        "series": {
            "generator": "power",
            "scale": 1.0,
            "power": (2.0, 2.5, 3.0)[rounds % 3],
            "count": 12_000 + int(sizes[0] * 6_001),
        },
        "h": (POWER2, {"name": "identity"}, {"name": "log_shifted"})[rounds // 3 % 3],
        "phi": {"name": "identity"},
        "b_grid": ([0.25, 0.5, 1.0, 2.0], [0.5, 1.0, 2.0, 4.0], [1.0, 2.0, 4.0, 8.0])[rounds // 9 % 3],
        "criteria": {"alpha": (1.0, 2.0)[rounds // 27 % 2]},
    }
    return "criteria", "criteria", config


def _theory_lemma(rng: np.random.Generator, sizes: tuple[float, ...], rounds: int) -> tuple[str, str, dict]:
    count = 100 + int(sizes[0] * 21)
    config = {
        "series": {"generator": "geometric", "base": float(rng.uniform(1.5, 3.0)), "count": count},
        "lemma": {
            "q_values": sorted(float(q) for q in rng.uniform(0.3, 3.0, 3)),
            "n_terms": count - 1,
            "max_index": count - 1,
        },
    }
    return "lemma1", "lemma1", config


def _theory_construct(rng: np.random.Generator, sizes: tuple[float, ...], rounds: int, deep_every: int = 0) -> tuple[str, str, dict]:
    # With deep_every = k, every k-th construct job is "deep": phi1 = identity
    # at depth >= 28 on base-2 exponents.  There 1/gap_n drops below the ulp
    # of the switch point and the seed code fails with an empty interval;
    # those jobs count as failed and are never redrawn.  Fixing the stratum
    # keeps the failing share the same in every run.  Shallow jobs keep five
    # or more stored terms beyond the depth, clear of the horizon guard, and
    # b >= 1 keeps the first witness step >= 1.
    deep = deep_every > 0 and rounds % deep_every == deep_every - 1
    phi1 = [{"name": "identity"}, {"name": "power", "exponent": 0.5}, {"name": "log_shifted"}][
        0 if deep else int(rng.integers(0, 3))
    ]
    depth = (28 if deep else 20) + int(sizes[0] * 7)
    config = {
        "series": {"generator": "geometric", "base": 2.0, "count": 40},
        "h": POWER2,
        "construct": {
            "b": float(rng.uniform(1.0, 2.0)),
            "n_terms": min(39, depth + int(rng.integers(5, 9))),
            "depth": depth,
            "phi1": phi1,
        },
    }
    return "construct-deep" if deep else "construct", "construct", config


_CYCLES = {
    "sweep": (_sweep,),
    "gap-power": (_gap_power_truncated, _gap_power_polynomial),
    # gated: no job of it fails on the current program
    "theory": (_theory_criteria, _theory_lemma, _theory_construct),
    # by hand: theory plus the deep construct jobs that hit the known defect
    "theory-full": (_theory_criteria, _theory_lemma, partial(_theory_construct, deep_every=4)),
}


def make_job(workload: str, seed: int, index: int) -> Job:
    """Job ``index`` of ``workload`` for ``seed``; a pure function of its arguments."""
    cycle = _CYCLES[workload]
    rounds = index // len(cycle)
    offsets = np.random.default_rng([seed, WORKLOAD_IDS[workload]]).random(len(_STEPS))
    sizes = tuple(float(o + rounds * step) % 1.0 for o, step in zip(offsets, _STEPS))
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], index])
    kind, command, config = cycle[index % len(cycle)](rng, sizes, rounds)
    return Job(index, kind, command, config)


def cycle_length(workload: str) -> int:
    """Number of job kinds the workload cycles through."""
    return len(_CYCLES[workload])

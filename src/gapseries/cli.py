"""Batch front-end: sweeps, criteria tables, constructions, margin grids.

Exit codes: 0 success, 1 config error, 2 numeric certification failure,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import constructions as cons
from . import criteria as crit
from .config import MAX_LEMMA_ROWS, RunConfig, load_config, series_from_config
from .errors import (
    ConfigError,
    DomainError,
    GapSeriesError,
    HorizonExceeded,
    QuadratureError,
    TailNotCertified,
)
from .measure import IntervalSet, MonotoneFn, density_measure, h_measure, h_log_measure, log_measure
from .series import REL_TOL, SeriesSpec, max_modulus, min_modulus

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CERTIFICATION = 2
EXIT_IO = 3


# rows per chunk of text: a long table never sits in memory as one string
_CSV_CHUNK_ROWS = 4096


def _fmt(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of a non-empty 1-D array, and each
    entry's index into them in the narrowest unsigned type that holds it.

    The same as ``np.unique(keys, return_inverse=True)`` followed by a cast
    of the index, with fewer row-sized intp temporaries: on the lemma1
    columns it takes about 60 % of the time, and it keeps the writer's
    traced peak no higher than that of the chunk-by-chunk writer before it.
    """
    perm = np.argsort(keys)
    ordered = keys[perm]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    uniq = ordered[first]
    index = np.empty(keys.size, dtype=np.min_scalar_type(uniq.size))
    index[perm] = np.cumsum(first, dtype=index.dtype) - 1
    return uniq, index


def _fmt_column(column, sep: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct cells of one non-empty array column as text, each
    followed by ``sep`` and byte-identical to ``_fmt(cell) + sep``.

    Returns ``(text, index)``, where row i reads ``text[index[i]]`` and the
    index has the narrowest unsigned type that holds it.  A float ndarray
    formats each distinct bit pattern once over the whole column (so -0.0
    stays "-0"), an integer ndarray whose range is narrower than its length
    each value in that range.  Any other column gives None: the writer
    formats it with ``_fmt`` chunk by chunk.
    """
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        uniq, index = _distinct(np.asarray(column, dtype=np.float64).view(np.int64))
        values = uniq.view(np.float64).tolist()
        # one %-format call over every distinct value is cheaper than one
        # f-string each; NUL cannot occur in the text, so it splits the cells
        text = (f"%.17g{sep}\0" * len(values) % tuple(values)).split("\0")[:-1]
        return np.array(text, dtype=object), index
    if kind in ("i", "u"):
        low = column.min()
        lo, hi = int(low), int(column.max())
        if hi - lo < column.size:
            # a value's offset from the minimum is its index.  Both steps wrap
            # modulo 2**bits, so a signed span wider than the dtype's positive
            # half still comes out exact
            index = (column - low).astype(np.min_scalar_type(hi - lo))
            return np.array([f"{v}{sep}" for v in range(lo, hi + 1)], dtype=object), index
    return None


def _write_csv(path: Path, header: list[str], columns, footers: list[list] | None = None) -> None:
    """Write a table given column by column, then footer rows.

    ``columns`` holds one equal-length sequence per header entry; tables
    built row by row pass ``zip(*rows)``.  The distinct cells of an array
    column are formatted once (``_fmt_column``), any other column's cells
    chunk by chunk, and the rows are joined and written _CSV_CHUNK_ROWS at
    a time.
    """
    columns = list(columns)
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise ValueError(f"columns of unequal length: {[len(col) for col in columns]}")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if n_rows:
            seps = [","] * (len(columns) - 1) + ["\n"]
            formatted = [_fmt_column(col, sep) for col, sep in zip(columns, seps)]
            # one object cell per (row, column): a chunk's text is its cells in row order
            grid = np.empty((min(n_rows, _CSV_CHUNK_ROWS), len(columns)), dtype=object)
            for start in range(0, n_rows, _CSV_CHUNK_ROWS):
                rows = grid[: min(_CSV_CHUNK_ROWS, n_rows - start)]
                stop = start + len(rows)
                for j, (col, sep, cells) in enumerate(zip(columns, seps, formatted)):
                    if cells is None:
                        rows[:, j] = [_fmt(v) + sep for v in col[start:stop]]
                    else:
                        text, index = cells
                        rows[:, j] = text[index[start:stop]]
                fh.write("".join(rows.ravel().tolist()))
        for foot in footers or []:
            fh.write(",".join(_fmt(v) for v in foot) + "\n")


def _count(value: int | None, default: int, lo: int, hi: int, where: str) -> int:
    """A count bounded by the series length: ``value``, or ``default`` when
    the config leaves it out, checked to lie in [lo, hi]."""
    n = default if value is None else value
    if not lo <= n <= hi:
        raise ConfigError(f"{where} must lie in [{lo}, {hi}], got {n}")
    return n


def _detected_set(flagged: list[tuple[bool, float]], step: float) -> IntervalSet:
    pairs = [(x, x + step) for ok, x in flagged if ok]
    return IntervalSet.from_pairs(pairs).coalesce()


def _measure_footers(detected: IntervalSet, h: MonotoneFn) -> list[list]:
    def guarded(fn):
        try:
            return fn()
        except (DomainError, QuadratureError):
            return math.nan

    return [
        ["#measure", "lebesgue", detected.total_length],
        ["#measure", "log", guarded(lambda: log_measure(detected))],
        ["#measure", "h", guarded(lambda: h_measure(h, detected))],
        ["#measure", "h_log", guarded(lambda: h_log_measure(h, detected))],
    ]


def _envelope_rows(spec: SeriesSpec, cfg: RunConfig, args: list[float], xs: list[float]):
    """Rows of the ``sweep`` table, one per abscissa, and the (flag, arg)
    pairs the detected set is built from.

    Row k is evaluated at x = xs[k] and starts with args[k]: x itself, or
    the radius r with x = ln r.  Every abscissa shares one batched
    max_modulus and one batched min_modulus call; log_mu, nu and sum_scaled
    come from the max_modulus result.
    """
    maxima = max_modulus(spec, xs)
    minima = min_modulus(spec, xs)
    rows = []
    flagged = []
    for arg, mx, mn in zip(args, maxima, minima):
        failed = next((res for res in (mx, mn) if isinstance(res, GapSeriesError)), None)
        if failed is not None:
            rows.append([arg, math.nan, -1, math.nan, math.nan, math.nan, math.nan, math.nan, 0, type(failed).__name__])
            flagged.append((False, arg))
            continue
        ratio_mu = mx.value - 1.0
        # a minimum below the evaluation's own error bar is numerically zero
        ratio_m = math.inf if mn.value <= REL_TOL else mx.value / mn.value - 1.0
        flag = ratio_mu > cfg.beta or ratio_m > cfg.beta
        rows.append([arg, mx.log_mu, mx.nu, mx.value, mn.value, mx.sum_scaled, ratio_mu, ratio_m, int(flag), ""])
        flagged.append((flag, arg))
    return rows, flagged


SWEEP_HEADER = [
    "x", "log_mu", "nu", "M_scaled", "m_scaled", "sum_scaled",
    "ratio_M_mu", "ratio_M_m", "flag", "error",
]


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep command needs a 'sweep' section")
    spec = series_from_config(cfg.series, cfg.seed)
    sweep = cfg.sweep
    xs = np.arange(sweep.x_min, sweep.x_max + sweep.step * 0.5, sweep.step).tolist()
    rows, flagged = _envelope_rows(spec, cfg, xs, xs)
    detected = _detected_set(flagged, sweep.step)
    _write_csv(out, SWEEP_HEADER, zip(*rows), _measure_footers(detected, cfg.h))
    return EXIT_OK


def cmd_criteria(cfg: RunConfig, out: Path) -> int:
    spec_exponents = series_from_config(cfg.series, cfg.seed).exponents
    n_max = len(spec_exponents) - 1
    n_terms = _count(cfg.criteria.n_terms, n_max, 1, n_max, "criteria.n_terms")
    alpha = cfg.criteria.alpha
    h = cfg.h
    # the explicit inverse when phi has one: one call less per criterion term
    inv = cfg.phi.inverse or cfg.phi.inv

    rows = []

    def emit(report):
        b = "" if report.b is None else report.b
        rows.extend([report.name, b, *row] for row in report.checkpoints())

    emit(crit.criterion_gap(spec_exponents, n_terms))
    for b in cfg.b_grid:
        emit(crit.criterion_inverse_shifted(spec_exponents, h, inv, b, n_terms))
        emit(crit.criterion_scaled_inverse_shifted(spec_exponents, h, inv, b, n_terms))
        emit(crit.criterion_scaled_inverse(spec_exponents, h, inv, b, n_terms))
        emit(crit.criterion_power_growth(spec_exponents, h, alpha, b, n_terms))
        if spec_exponents.is_integral():
            emit(crit.criterion_exp_inverse(spec_exponents, h, inv, b, n_terms))
    emit(crit.criterion_plain_inverse(spec_exponents, h, inv, n_terms))

    _write_csv(out, ["condition", "b", "n_terms", "partial_sum", "block_ratio", "verdict"], zip(*rows))
    return EXIT_OK


def cmd_construct(cfg: RunConfig, out: Path) -> int:
    spec = series_from_config(cfg.series, cfg.seed)
    section = cfg.construct
    n_max = len(spec.exponents) - 1
    n_terms = _count(section.n_terms, n_max, 3, n_max, "construct.n_terms")
    depth = _count(section.depth, min(30, n_terms - 1), 1, n_terms, "construct.depth")

    ws = cons.build_witness_series(spec.exponents, section.phi1.value, section.b, n_terms)
    exceptional = cons.witness_exceptional_set(ws, depth)
    measure_partials, lower_partials = cons.witness_measure_partials(ws, cfg.h, depth)

    series_dump = {
        "exponents": ws.spec.exponents.values.tolist(),
        "log_moduli": ws.spec.log_moduli.tolist(),
        "switch_points": [None if math.isnan(v) else v for v in ws.switch_points],
        "increments": [None if math.isnan(v) else v for v in ws.increments],
        "excess": ws.excess,
        "b": ws.b,
    }
    out.with_suffix(".series.json").write_text(json.dumps(series_dump, indent=2) + "\n")

    left, width = (v[:depth] for v in ws.intervals)
    _write_csv(
        out.with_suffix(".exceptional.csv"),
        ["n", "a", "b", "length"],
        [np.arange(1, depth + 1), left, left + width, width],
    )

    threshold = 1.0 + ws.excess
    verify_rows = []
    for n, (a, w) in enumerate(zip(left.tolist(), width.tolist()), 1):
        for t, label in ((0.0, "left"), (0.5, "mid"), (1.0, "right")):
            x = a + t * w
            ratio = cons.witness_ratio(ws, x)
            # the ratio's certified truncation error is below REL_TOL
            verify_rows.append([n, label, x, ratio, threshold, int(ratio >= threshold - REL_TOL)])
    _write_csv(
        out.with_suffix(".verify.csv"),
        ["n", "point", "x", "ratio", "threshold", "pass"],
        zip(*verify_rows),
    )

    hm_rows = [
        [n + 1, float(lower_partials[n]), float(measure_partials[n])]
        for n in range(depth)
    ]
    _write_csv(
        out.with_suffix(".hmeas.csv"),
        ["depth", "lower_partial", "measure_partial"],
        zip(*hm_rows),
        [["#measure", "h_total", h_measure(cfg.h, exceptional)]],
    )
    return EXIT_OK


def cmd_lemma1(cfg: RunConfig, out: Path) -> int:
    spec = series_from_config(cfg.series, cfg.seed)
    section = cfg.lemma
    n_stored = len(spec.exponents)
    if n_stored < 3:
        raise ConfigError(f"lemma1 needs at least three exponents, the series has {n_stored}")
    n_terms = _count(section.n_terms, n_stored - 1, 1, n_stored - 1, "lemma.n_terms")
    max_index = _count(section.max_index, n_terms, 0, n_terms, "lemma.max_index")
    if len(section.q_values) * (max_index + 1) * max_index > MAX_LEMMA_ROWS:
        raise ConfigError(f"lemma.max_index {max_index} gives more than the cap of {MAX_LEMMA_ROWS} table rows")

    # the (n, k) grid, n outer and k inner, shared by every q
    n_idx = np.repeat(np.arange(0, max_index + 1), max_index)
    k_idx = np.tile(np.arange(1, max_index + 1), max_index + 1)
    distance = np.abs(n_idx - k_idx) + 1
    n_q = len(section.q_values)
    # one block of rows per q, each column filled in place
    margin = np.empty(n_q * n_idx.size)
    tolerance = np.empty(n_q * n_idx.size)
    for block, q in enumerate(section.q_values):
        gadget = cons.build_damping_gadget(spec.exponents, q, n_terms)
        rows = slice(block * n_idx.size, (block + 1) * n_idx.size)
        margin[rows] = cons.domination_margin(gadget, n_idx, k_idx)
        tolerance[rows] = gadget.inner_tail_error * distance
    columns = [
        np.repeat(np.asarray(section.q_values, dtype=np.float64), n_idx.size),
        np.tile(n_idx, n_q),
        np.tile(k_idx, n_q),
        margin,
        tolerance,
        (margin >= -tolerance).astype(np.int64),
    ]
    _write_csv(out, ["q", "n", "k", "margin", "tolerance", "pass"], columns)
    return EXIT_OK


def cmd_gap_power(cfg: RunConfig, out: Path) -> int:
    if cfg.gap_power is None:
        raise ConfigError("gap-power command needs a 'gap_power' section")
    spec = series_from_config(cfg.series, cfg.seed)
    if not spec.exponents.is_integral():
        raise ConfigError("gap-power command needs integer exponents")
    section = cfg.gap_power
    rs = np.linspace(section.r_min, section.r_max, section.r_points).tolist()
    xs = [math.log(r) for r in rs]
    rows, flagged_pairs = _envelope_rows(spec, cfg, rs, xs)
    for row, x in zip(rows, xs):
        # growth check against phi, before the error column; empty on error rows
        row.insert(-1, int(row[1] >= x * cfg.phi.value(x)) if x > 0 and not row[-1] else "")

    r_step = rs[1] - rs[0]
    detected = _detected_set(flagged_pairs, r_step)
    footers = _measure_footers(detected, cfg.h)
    if detected:
        try:
            image = detected.log_image()
            footers.append(
                ["#measure", "h_image",
                 density_measure(lambda t: cfg.h.derivative(math.exp(t)), image)]
            )
        except (DomainError, QuadratureError):
            footers.append(["#measure", "h_image", math.nan])
    else:
        footers.append(["#measure", "h_image", 0.0])
    inv = cfg.phi.inverse or cfg.phi.inv
    n_terms = len(spec.exponents) - 1
    for b in cfg.b_grid:
        rep = crit.criterion_exp_inverse(spec.exponents, cfg.h, inv, b, n_terms)
        footers.append(["#cond88", b, rep.total, rep.verdict])

    header = ["r", "log_mu", "nu", "M_scaled", "m_scaled", "sum_scaled",
              "ratio_M_mu", "ratio_M_m", "flag", "clac1_ok", "error"]
    _write_csv(out, header, zip(*rows), footers)
    return EXIT_OK


_COMMANDS = {
    "sweep": cmd_sweep,
    "criteria": cmd_criteria,
    "construct": cmd_construct,
    "lemma1": cmd_lemma1,
    "gap-power": cmd_gap_power,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapseries",
        description="Maximal-term asymptotics, exceptional sets and their measures for entire gap series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output path (overrides config 'output')")
        p.add_argument("--seed", type=int, default=None, help="seed for random coefficient generation")
        p.add_argument("--quiet", action="store_true", help="suppress the completion note")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and shared: parse_args keeps no state between calls
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out = args.out or cfg.output
        if out is None:
            raise ConfigError("no output path: pass --out or set 'output' in the config")
        code = _COMMANDS[args.command](cfg, Path(out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (HorizonExceeded, TailNotCertified, QuadratureError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except GapSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if not args.quiet:
        print(f"{args.command}: wrote {out}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

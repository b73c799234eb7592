"""Output parsing and correctness checks for benchmark jobs.

Every check recomputes what a row claims from the job's own config (or,
for the witness ratio, from the series the same job dumped), never from an
earlier run's output, so an accuracy fix in the program is not
scored as a failure.  ``check_job`` returns the job's row counts and check
tallies.

Two classes of check:

* consistency: a row's columns agree with each other and with quantities
  recomputed exactly from the config (orderings, flags, pass columns,
  brute-force argmax, verdict names, monotone partial sums, fsum of the
  reciprocal gaps).  Any failure makes the run incorrect.
* oracle: a sampled value agrees with a 40-digit mpmath sum over all stored
  terms to within the program's ``rel_tol``.  Failures measure accuracy;
  they count in ``check_fail_rate`` like any other failed check.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy as np

EPS = np.finfo(float).eps
#: default ``tolerances.rel_tol`` of the program; the generated configs do not override it
REL_TOL = 1e-9
#: threshold slack the construct command applies to its own pass column
VERIFY_SLACK = 1e-9
#: every MP_STRIDE-th envelope row is also checked against an mpmath sum
MP_STRIDE = 10
VERDICTS = {"converging", "diverging", "inconclusive"}


@dataclass
class JobOutcome:
    """Counts for one finished job (all zero for a job that failed)."""

    rows: int = 0  # data rows: sweep/radius points, checkpoints, margins, verify rows
    row_items: int = 0  # rows plus #measure footers
    row_errors: int = 0  # error column set, pass=0, or a nan #measure footer
    checked: int = 0
    check_failures: int = 0  # rows failing any check
    consistency_failures: int = 0  # rows failing a check other than the oracle comparison
    ulp_excess: int = 0  # rows with M_scaled > sum_scaled inside the rounding allowance
    bytes_written: int = 0
    files: list[tuple[str, str]] = field(default_factory=list)  # (name, sha256)
    failures: list[str] = field(default_factory=list)  # first few failed checks, for the log


ORACLE = "oracle: "


def read_csv(path: Path) -> tuple[list[str], list[list[str]], list[list[str]]]:
    """Header, data rows and ``#`` footer rows of a CSV the CLI wrote."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows, footers = [], []
    for line in lines[1:]:
        (footers if line.startswith("#") else rows).append(line.split(","))
    return header, rows, footers


def _g_value(spec: dict, v: float) -> float:
    name = spec.get("name")
    if name == "identity":
        return v
    if name == "affine":
        return spec["slope"] * v + spec.get("intercept", 0.0)
    if name == "power":
        return spec.get("scale", 1.0) * v ** spec["exponent"]
    if name == "log_shifted":
        return math.log1p(v)
    raise ValueError(f"checks do not model g={name!r}")


def series_exponents(series: dict) -> np.ndarray:
    """Exponents of a generated config's series."""
    generator = series.get("generator", "explicit")
    if generator == "explicit":
        return np.asarray(series["exponents"], dtype=float)
    if generator == "geometric":
        return np.array([0.0] + [float(series["base"]) ** n for n in range(1, series["count"])])
    if generator == "power":
        return series.get("scale", 1.0) * np.arange(series["count"], dtype=float) ** series["power"]
    raise ValueError(f"checks do not model generator {generator!r}")


def series_log_moduli(series: dict, seed: int, lam: np.ndarray) -> np.ndarray:
    """ln|a_n| of a generated config's series, rebuilt from the documented
    config semantics (random draws: jitter first, then phases)."""
    if "log_moduli" in series:
        return np.asarray(series["log_moduli"], dtype=float)
    coeffs = series["coeffs"]
    rng = np.random.default_rng(seed)
    g = np.array([_g_value(coeffs["g"], v) for v in lam])
    return -lam * g + coeffs["jitter"] * rng.uniform(0.0, 1.0, lam.size)


def _mp_scaled_sum(lam: np.ndarray, c: np.ndarray, x: float) -> mpmath.mpf:
    with mpmath.workdps(40):
        logs = [mpmath.mpf(float(cn)) + mpmath.mpf(x) * mpmath.mpf(float(ln)) for cn, ln in zip(c, lam)]
        top = max(logs)
        return mpmath.fsum(mpmath.exp(v - top) for v in logs)


def _fl(text: str) -> float:
    return float(text)  # parses the CLI's "inf", "-inf" and "nan" sentinels too


def _check_envelope(cfg: dict, command: str, header: list[str], rows: list[list[str]], out: JobOutcome) -> None:
    col = {name: i for i, name in enumerate(header)}
    lam = series_exponents(cfg["series"])
    c = series_log_moduli(cfg["series"], cfg.get("seed", 0), lam)
    beta = cfg.get("beta", 0.3)
    slack = (lam.size + 4) * EPS
    ok_rows = 0
    for row in rows:
        if row[col["error"]]:
            continue
        arg = _fl(row[0])
        x = math.log(arg) if command == "gap-power" else arg
        log_mu, nu = _fl(row[col["log_mu"]]), int(row[col["nu"]])
        big_m, small_m, total = (_fl(row[col[k]]) for k in ("M_scaled", "m_scaled", "sum_scaled"))
        ratio_mu, ratio_m = _fl(row[col["ratio_M_mu"]]), _fl(row[col["ratio_M_m"]])
        values = c + x * lam
        best = values.max()
        bf_nu = int(np.flatnonzero(values == best)[-1])
        problems = []
        # |sum of w_n e^(i theta_n)| over n terms rounds up by at most about (n + 4) eps
        if not small_m <= big_m <= total * (1.0 + slack):
            problems.append(f"m<=M<=sum: {small_m!r} {big_m!r} {total!r}")
        elif big_m > total:
            out.ulp_excess += 1
        if not total >= 1.0:
            problems.append(f"sum>=1: {total!r}")
        if int(row[col["flag"]]) != int(ratio_mu > beta or ratio_m > beta):
            problems.append(f"flag: {row[col['flag']]} vs ratios {ratio_mu!r} {ratio_m!r}")
        if nu != bf_nu or abs(log_mu - best) > 4.0 * EPS * max(1.0, abs(best)):
            problems.append(f"argmax: nu={nu} log_mu={log_mu!r}, brute force {bf_nu} {best!r}")
        if ok_rows % MP_STRIDE == 0:
            exact = _mp_scaled_sum(lam, c, x)
            if not abs(mpmath.mpf(total) - exact) <= REL_TOL * exact:
                problems.append(f"{ORACLE}sum {total!r} vs mpmath {mpmath.nstr(exact, 17)}")
        ok_rows += 1
        _tally(out, row, problems)


def _tally(out: JobOutcome, row: list[str], problems: list[str]) -> None:
    out.checked += 1
    if problems:
        out.check_failures += 1
        out.consistency_failures += any(not p.startswith(ORACLE) for p in problems)
        if len(out.failures) < 5:
            out.failures.append(",".join(row) + " -> " + "; ".join(problems))


def _check_criteria(cfg: dict, rows: list[list[str]], out: JobOutcome) -> None:
    inv_gaps = 1.0 / np.diff(series_exponents(cfg["series"]))
    last: dict[tuple[str, str], float] = {}
    for row in rows:
        name, b, n_terms, partial = row[0], row[1], int(row[2]), _fl(row[3])
        problems = []
        if row[5] not in VERDICTS:
            problems.append(f"verdict {row[5]!r}")
        if partial < last.get((name, b), 0.0):
            problems.append("partial sums decrease")
        last[(name, b)] = partial
        if name == "gap":
            exact = math.fsum(inv_gaps[:n_terms])
            # sequential summation of n non-negative terms errs by at most n*eps relative
            if not abs(partial - exact) <= n_terms * EPS * exact:
                problems.append(f"gap partial sum vs fsum {exact!r}")
        _tally(out, row, problems)


def _check_lemma(path: Path, out: JobOutcome) -> int:
    # tens of thousands of margin rows per job: checked with numpy, not row by row
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    margin, tolerance, passed = data[:, 3], data[:, 4], data[:, 5]
    bad = passed != (margin >= -tolerance)
    out.row_errors += int(np.count_nonzero(passed == 0))
    out.checked += len(data)
    out.check_failures += int(np.count_nonzero(bad))
    out.consistency_failures += int(np.count_nonzero(bad))
    for i in np.flatnonzero(bad)[: 5 - len(out.failures)]:
        out.failures.append(f"lemma row {i} -> pass column")
    return len(data)


def _check_verify(series_dump: dict, rows: list[list[str]], out: JobOutcome) -> None:
    lam = np.asarray(series_dump["exponents"], dtype=float)
    c = np.asarray(series_dump["log_moduli"], dtype=float)
    excess = series_dump["excess"]
    for i, row in enumerate(rows):
        x, ratio, threshold, passed = _fl(row[2]), _fl(row[3]), _fl(row[4]), int(row[5])
        if passed == 0:
            out.row_errors += 1
        problems = []
        if not ratio >= 1.0:
            problems.append("ratio below 1")
        if threshold != 1.0 + excess:
            problems.append("threshold")
        if passed != int(ratio >= threshold - VERIFY_SLACK):
            problems.append("pass column")
        if i % MP_STRIDE == 0:
            exact = _mp_scaled_sum(lam, c, x)
            if not abs(mpmath.mpf(ratio) - exact) <= REL_TOL * exact:
                problems.append(f"{ORACLE}ratio {ratio!r} vs mpmath {mpmath.nstr(exact, 17)}")
        _tally(out, row, problems)


def _count_footers(footers: list[list[str]], out: JobOutcome) -> None:
    for foot in footers:
        if foot[0] == "#measure":
            out.row_items += 1
            if math.isnan(_fl(foot[2])):
                out.row_errors += 1


def check_job(command: str, cfg: dict, written: list[Path]) -> JobOutcome:
    """Count rows and run the checks on the files one successful job wrote."""
    out = JobOutcome()
    for path in sorted(written):
        data = path.read_bytes()
        out.bytes_written += len(data)
        out.files.append((path.name, hashlib.sha256(data).hexdigest()))
    by_suffix = {"".join(p.suffixes): p for p in written}
    if command in ("sweep", "gap-power"):
        header, rows, footers = read_csv(by_suffix[".csv"])
        out.row_errors += sum(1 for row in rows if row[-1])
        _check_envelope(cfg, command, header, rows, out)
        _count_footers(footers, out)
        out.rows = len(rows)
    elif command == "criteria":
        _, rows, _ = read_csv(by_suffix[".csv"])
        _check_criteria(cfg, rows, out)
        out.rows = len(rows)
    elif command == "lemma1":
        out.rows = _check_lemma(by_suffix[".csv"], out)
    elif command == "construct":
        _, rows, _ = read_csv(by_suffix[".verify.csv"])
        _check_verify(json.loads(by_suffix[".series.json"].read_text()), rows, out)
        _, _, footers = read_csv(by_suffix[".hmeas.csv"])
        _count_footers(footers, out)
        out.rows = len(rows)
    else:
        raise ValueError(f"no checks for command {command!r}")
    out.row_items += out.rows
    return out

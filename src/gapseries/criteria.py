"""Finite diagnostics for the gap-series convergence conditions and for
membership in the growth classes of the theory.

Each criterion produces a ``CriterionReport``: the non-negative term
sequence, its running partial sums, and a transparent dyadic-block
verdict.  The underlying conditions quantify over all b > 0; a finite
checker can only evaluate a grid of b values, so universal statements
are never decided here, only diagnosed per b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure import MonotoneFn
from .series import SeriesSpec, ExponentSequence, log_maximal_term, max_modulus

#: dyadic block increments must shrink below this ratio to call convergence
CONVERGING_BLOCK_RATIO = 0.9
#: and fail to decay past this one to call divergence
DIVERGING_BLOCK_RATIO = 0.99

VERDICTS = ("converging", "diverging", "inconclusive")


@dataclass(frozen=True, eq=False)
class CriterionReport:
    name: str
    terms: np.ndarray
    partial_sums: np.ndarray
    block_ratios: np.ndarray
    verdict: str
    b: float | None = None

    @property
    def total(self) -> float:
        return float(self.partial_sums[-1]) if self.partial_sums.size else 0.0

    def checkpoints(self) -> list[tuple[int, float, float, str]]:
        """Rows ``(n_terms, partial_sum, block_ratio, verdict)`` of the
        report of the first n_terms terms, for n_terms = 2, 4, 8, ... and
        for all the terms (a single term included).

        Each row equals ``make_report(name, terms[:n_terms], b)``: its
        total, its last block ratio (nan when it has none) and its verdict.
        Partial sums are sequential and each block ratio depends only on
        its own two blocks, so both are prefixes of the stored arrays.
        """
        n = self.terms.size
        rows = []
        for n_terms in sorted({*(2**j for j in range(1, n.bit_length())), n} - {0}):
            ratios = self.block_ratios[: max(n_terms.bit_length() - 2, 0)]
            last = float(ratios[-1]) if ratios.size else math.nan
            rows.append((n_terms, float(self.partial_sums[n_terms - 1]), last, _verdict(ratios)))
        return rows


def _block_ratios(terms: np.ndarray) -> np.ndarray:
    """Ratios of consecutive dyadic blocks, block j >= 1 being the sum of
    terms[2^(j-1) : 2^j] over complete blocks only (term 0 is in none).

    A ratio is 0 where the later block is 0, inf where it is inf or the
    earlier block is 0, and their quotient otherwise.
    """
    n_blocks = max(terms.size.bit_length() - 1, 0)
    if n_blocks < 2:
        return np.empty(0)
    blocks = np.add.reduceat(terms[: 2**n_blocks], 2 ** np.arange(n_blocks))
    prev, nxt = blocks[:-1], blocks[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = nxt / prev
    ratios[(nxt == math.inf) | (prev == 0.0)] = math.inf
    ratios[nxt == 0.0] = 0.0
    return ratios


def _verdict(ratios: np.ndarray) -> str:
    if ratios.size < 3:
        return "inconclusive"
    last = ratios[-3:]
    if np.all(last < CONVERGING_BLOCK_RATIO):
        return "converging"
    if np.all(last > DIVERGING_BLOCK_RATIO):
        return "diverging"
    return "inconclusive"


def make_report(name: str, terms, b: float | None = None) -> CriterionReport:
    terms = np.asarray(terms, dtype=float)
    if terms.size and terms.min() < 0:
        raise ValueError("criterion terms must be non-negative")
    ratios = _block_ratios(terms)
    return CriterionReport(name, terms, np.cumsum(terms), ratios, _verdict(ratios), b)


def _gaps(exponents: ExponentSequence, n_terms: int | None) -> tuple[np.ndarray, np.ndarray]:
    gaps = exponents.gaps
    n = gaps.size if n_terms is None else n_terms
    if n > gaps.size:
        raise ValueError(f"requested {n} terms but only {gaps.size} gaps are stored")
    return exponents.values[:n], gaps[:n]


def _weighted(
    name: str, exponents: ExponentSequence, h: MonotoneFn, arg, n_terms: int | None, b: float | None = None
) -> CriterionReport:
    """The report of h'(arg(lambda_n, gap_n)) / gap_n over the first
    ``n_terms`` terms, with h' evaluated term by term."""
    lam, g = _gaps(exponents, n_terms)
    return make_report(name, np.array([h.derivative(arg(x, gap)) for x, gap in zip(lam, g)]) / g, b)


def criterion_gap(exponents: ExponentSequence, n_terms: int | None = None) -> CriterionReport:
    """Base criterion: sum of reciprocal gaps 1/(lambda_{n+1} - lambda_n)."""
    _, g = _gaps(exponents, n_terms)
    return make_report("gap", 1.0 / g)


def criterion_inverse_shifted(
    exponents: ExponentSequence,
    h: MonotoneFn,
    phi: Callable[[float], float],
    b: float,
    n_terms: int | None = None,
) -> CriterionReport:
    """Reciprocal gaps weighted by h' at the inverse-growth point shifted
    by b over the gap: h'(phi(lambda_n) + b/gap_n) / gap_n."""
    return _weighted("inverse_shifted", exponents, h, lambda lam, gap: phi(lam) + b / gap, n_terms, b)


def criterion_scaled_inverse_shifted(
    exponents: ExponentSequence,
    h: MonotoneFn,
    phi0: Callable[[float], float],
    b: float,
    n_terms: int | None = None,
) -> CriterionReport:
    """Variant with the inverse taken at b*lambda_n:
    h'(phi0(b*lambda_n) + b/gap_n) / gap_n."""
    return _weighted("scaled_inverse_shifted", exponents, h, lambda lam, gap: phi0(b * lam) + b / gap, n_terms, b)


def criterion_scaled_inverse(
    exponents: ExponentSequence,
    h: MonotoneFn,
    phi1: Callable[[float], float],
    b: float,
    n_terms: int | None = None,
) -> CriterionReport:
    """h'(b * phi1(b*lambda_n)) / gap_n; divergence of this sum for some b
    is exactly the hypothesis under which the witness construction
    produces an infinite-measure exceptional set."""
    return _weighted("scaled_inverse", exponents, h, lambda lam, gap: b * phi1(b * lam), n_terms, b)


def criterion_power_growth(
    exponents: ExponentSequence,
    h: MonotoneFn,
    alpha: float,
    b: float,
    n_terms: int | None = None,
) -> CriterionReport:
    """Specialization to power growth of order alpha:
    h'(b * lambda_n^(1/alpha) + b/gap_n) / gap_n."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _weighted("power_growth", exponents, h, lambda lam, gap: b * lam ** (1.0 / alpha) + b / gap, n_terms, b)


def criterion_exp_inverse(
    exponents: ExponentSequence,
    h: MonotoneFn,
    phi: Callable[[float], float],
    b: float,
    n_terms: int | None = None,
) -> CriterionReport:
    """Radius-domain variant for gap power series:
    h'(exp(phi(n_k) + b/gap_k)) / gap_k."""
    with np.errstate(over="ignore"):
        return _weighted("exp_inverse", exponents, h, lambda lam, gap: float(np.exp(phi(lam) + b / gap)), n_terms, b)


def criterion_plain_inverse(
    exponents: ExponentSequence,
    h: MonotoneFn,
    phi: Callable[[float], float],
    n_terms: int | None = None,
) -> CriterionReport:
    """Exploratory variant h'(phi(lambda_n)) / gap_n for decreasing-density
    h.  Conjectural territory: no correctness contract backs its verdict."""
    return _weighted("plain_inverse", exponents, h, lambda lam, gap: phi(lam), n_terms)


@dataclass(frozen=True, eq=False)
class ClassMembershipParams:
    """Parameters of the growth classes.

    ``Phi`` is the comparison function.  K scales the plain class, K1/K2
    the rescaled one.  Points of ``sample_grid`` at or below ``x0`` are
    ignored; ``n0`` is the first coefficient index checked by the
    coefficient-decay class (which reads ``Phi`` as the decay function
    phi itself).
    """

    Phi: MonotoneFn
    sample_grid: np.ndarray
    K: float = 1.0
    K1: float = 1.0
    K2: float = 1.0
    x0: float = 1.0
    n0: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sample_grid", np.asarray(self.sample_grid, dtype=float))
        if self.K <= 0 or self.K1 <= 0 or self.K2 <= 0:
            raise ValueError("K, K1, K2 must be positive")


MEMBERSHIP_CLASSES = ("D", "D0", "D1", "D_phi")


@dataclass(frozen=True, eq=False)
class MembershipReport:
    which: str
    points: np.ndarray
    margins: np.ndarray
    passed: bool


def class_membership(spec: SeriesSpec, params: ClassMembershipParams, which: str) -> MembershipReport:
    """Check a growth-class membership on the sampled range.

    * D:     ln mu(x) >= x * Phi(x)
    * D0:    ln mu(x) >= K * x * Phi(x)
    * D1:    ln mu(x) >= K1 * x * Phi(K2 * x)
    * D_phi: ln|a_n| <= -lambda_n * phi(lambda_n) for stored n >= n0

    Margins are left-hand side minus right-hand side; the report passes
    when every margin is non-negative.
    """
    if which not in MEMBERSHIP_CLASSES:
        raise ValueError(f"unknown class {which!r}; have {MEMBERSHIP_CLASSES}")
    if which == "D_phi":
        lam = spec.exponents.values
        ns = np.arange(params.n0, len(spec))
        margins = np.array(
            [-lam[n] * params.Phi.value(lam[n]) - spec.log_moduli[n] for n in ns]
        )
        return MembershipReport(which, ns, margins, bool(np.all(margins >= 0)))

    xs = params.sample_grid[params.sample_grid > params.x0]
    margins = np.empty(xs.size)
    for i, x in enumerate(xs):
        log_mu = log_maximal_term(spec, float(x)).log_value
        if which == "D":
            required = x * params.Phi.value(x)
        elif which == "D0":
            required = params.K * x * params.Phi.value(x)
        else:
            required = params.K1 * x * params.Phi.value(params.K2 * x)
        margins[i] = log_mu - required
    return MembershipReport(which, xs, margins, bool(np.all(margins >= 0)))


@dataclass(frozen=True, eq=False)
class LowerOrderEstimate:
    """Two-sided surrogate for liminf ln ln M_f(r) / ln r.

    ``lower`` uses the phase-search maximum (a lower bound for M),
    ``upper`` the modulus-envelope sum (an upper bound).  Both take the
    minimum over the points from index len(r_grid) // 2 on, a heuristic
    liminf stand-in, and are estimates only.
    """

    lower: float
    upper: float
    positive: bool
    r_grid: np.ndarray
    per_point_lower: np.ndarray
    per_point_upper: np.ndarray


def estimate_lower_order(spec: SeriesSpec, r_grid) -> LowerOrderEstimate:
    """Estimate the lower order of a gap power series on an r-grid with
    the default phase search."""
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 2 or not np.all(np.diff(r_grid) > 0):
        raise ValueError("r_grid must be increasing with at least two points")
    if r_grid[0] <= 1.0:
        raise ValueError("r_grid must start above 1")

    def loglog_over_logr(log_m: float, r: float) -> float:
        return math.log(log_m) / math.log(r) if log_m > 0 else -math.inf

    low = np.empty(r_grid.size)
    up = np.empty(r_grid.size)
    for i, r in enumerate(r_grid):
        x = math.log(r)
        m = max_modulus(spec, x)
        log_m_lower = m.log_mu + math.log(m.value) if m.value > 0 else -math.inf
        low[i] = loglog_over_logr(log_m_lower, r)
        up[i] = loglog_over_logr(m.log_mu + math.log(m.sum_scaled), r)
    tail_start = r_grid.size // 2
    lower = float(np.min(low[tail_start:]))
    upper = float(np.min(up[tail_start:]))
    return LowerOrderEstimate(lower, upper, lower > 0.0, r_grid, low, up)

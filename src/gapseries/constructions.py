"""Two explicit constructions on top of the series core.

The damping gadget divides the coefficients by exp(q * drift_n), where
the drift accumulates weighted tails of the reciprocal-gap series.  The
damped series has well-separated central-index segments: shifted copies
of its segments tile the axis outside a union of short transition
intervals, and on the tiles every non-central term of the original
series is damped at least geometrically in its index distance from the
central one.  The transition intervals form the exceptional set whose
generalized measure the package bounds.

The witness factory goes the opposite way: given exponents whose
growth condition fails for some b, it builds a series whose maximal-term
switch points are spread so slowly that the two leading terms stay
comparable on an infinite family of intervals of divergent total
measure, defeating the asymptotic identity there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .criteria import criterion_inverse_shifted
from .errors import HorizonExceeded, MonotoneViolation, OutsideExceptionalSetWarning, TailNotCertified
from .measure import IntervalSet, MonotoneFn
from .series import (
    REL_TOL,
    CentralIndexTable,
    ExponentSequence,
    SeriesSpec,
    central_index_table,
    evaluate,
    log_maximal_term,
    sum_modulus,
    term_value,
    _readonly,
)


@dataclass(frozen=True, eq=False)
class DampingGadget:
    """Damping exponents and shift data for one damping strength q.

    drift[n]        cumulative damping exponent (drift[0] = 0, non-negative)
    log_damping[n]  q * drift[n]
    crossings[k]    abscissa where the damped lines k-1 and k exchange
                    slope dominance relative to the originals (k >= 1)
    shifts[k]       tile shift for segment k; consecutive shifts differ by
                    exactly 2q/gap_k (index 0 extends the identity down)
    inner_tail_error  certified bound on the truncation remainder of the
                    inner reciprocal-gap tails

    All sequences are exact telescopes of common-horizon truncated inner
    sums, so the pairwise domination inequality holds up to rounding
    regardless of the truncation point.
    """

    exponents: ExponentSequence
    q: float
    n_terms: int
    drift: np.ndarray
    log_damping: np.ndarray
    crossings: np.ndarray
    shifts: np.ndarray
    inner_tail_error: float

    def __post_init__(self):
        for name in ("drift", "log_damping", "crossings", "shifts"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def build_damping_gadget(
    exponents: ExponentSequence,
    q: float,
    n_terms: int,
    tail_tol: float = 1e-8,
) -> DampingGadget:
    """Build the damping gadget to depth ``n_terms``.

    The inner tails  T_j = sum_{m>j} (1/gap_m + 1/gap_{m+1})  are
    truncated at the stored horizon; the remainder is certified by a
    ratio test over the last stored terms, assuming eventually-geometric
    gap growth.  TailNotCertified is raised when the terms do not decay
    or the certified remainder exceeds ``tail_tol``.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    lam = exponents.values
    n_stored = len(exponents)
    if n_terms > n_stored - 1:
        raise ValueError(f"n_terms={n_terms} needs at least {n_terms + 1} stored exponents")
    if n_stored < 3:
        raise ValueError("need at least three exponents to form inner tails")
    gaps = exponents.gaps
    inner = 1.0 / gaps[:-1] + 1.0 / gaps[1:]

    window = inner[-min(10, max(2, inner.size // 2)) :]
    ratios = window[1:] / window[:-1]
    rho = float(ratios.max())
    if rho >= 1.0:
        raise TailNotCertified(
            f"inner reciprocal-gap terms do not decay (worst ratio {rho:.4g}); "
            "supply a sequence with growing gaps or more terms"
        )
    tail_error = float(inner[-1] * rho / (1.0 - rho))
    if tail_error > tail_tol:
        raise TailNotCertified(
            f"certified inner-tail remainder {tail_error:.3e} exceeds tail_tol={tail_tol:g}"
        )

    # suffix sums over a common horizon keep all telescoping identities exact
    tails = np.concatenate([np.cumsum(inner[::-1])[::-1], [0.0]])

    drift = np.zeros(n_terms + 1)
    for n in range(1, n_terms + 1):
        drift[n] = drift[n - 1] + gaps[n - 1] * tails[n - 1]
    crossings = np.full(n_terms + 1, np.nan)
    shifts = np.full(n_terms + 1, np.nan)
    for k in range(1, n_terms + 1):
        crossings[k] = -tails[k - 1]
        shifts[k] = q * crossings[k] + q / gaps[k - 1]
    shifts[0] = shifts[1] - 2.0 * q / gaps[0]
    return DampingGadget(
        exponents, q, n_terms, drift, q * drift, crossings, shifts, tail_error
    )


def domination_margin(gadget: DampingGadget, n, k):
    """Slack in the pairwise domination inequality for term pair (n, k).

    Returns  -q|n-k| - (ln damping_n - ln damping_k + shift_k * (lambda_n
    - lambda_k)).  Non-negative in exact arithmetic; implementations
    should allow a slack of inner_tail_error * (|n-k| + 1).

    ``n`` and ``k`` are integers or integer arrays that broadcast; arrays
    give an array of margins, two scalars a float (np.float64).
    Elementwise float arithmetic rounds the same either way, so both are
    bit-identical.
    """
    n = np.asarray(n)
    k = np.asarray(k)
    if not (np.all((0 <= n) & (n <= gadget.n_terms)) and np.all((1 <= k) & (k <= gadget.n_terms))):
        raise ValueError("n must be in [0, n_terms], k in [1, n_terms]")
    lam = gadget.exponents.values
    lhs = gadget.log_damping[n] - gadget.log_damping[k] + gadget.shifts[k] * (lam[n] - lam[k])
    return -gadget.q * np.abs(n - k) - lhs


def damped_series(spec: SeriesSpec, gadget: DampingGadget) -> SeriesSpec:
    """Divide coefficients by the damping factors: ln|a_n| - q*drift_n.

    The result is truncated to the gadget horizon.
    """
    n = gadget.n_terms + 1
    if len(spec) < n:
        raise ValueError("spec is shorter than the gadget horizon")
    return SeriesSpec(
        ExponentSequence(spec.exponents.values[:n], spec.exponents.kind),
        spec.log_moduli[:n] - gadget.log_damping,
        spec.phases[:n],
        complete=spec.complete,
    )


def _shifted_segments(spec: SeriesSpec, gadget: DampingGadget) -> tuple[CentralIndexTable, np.ndarray]:
    table = central_index_table(damped_series(spec, gadget))
    if table.segment_indices[-1] > gadget.n_terms:
        raise HorizonExceeded("damped-series hull reaches beyond the gadget horizon")
    return table, table.jump_points


def transition_zones(spec: SeriesSpec, gadget: DampingGadget, depth: int | None = None) -> IntervalSet:
    """Tiles on which the original series provably keeps central index k.

    For each interior segment [R_i, R_{i+1}) of the damped series with
    index k, the tile is [R_i + shift_k, R_{i+1} + shift_k).  Outside the
    transition set these tiles cover the certified range.
    """
    table, jumps = _shifted_segments(spec, gadget)
    seg = table.segment_indices
    pairs = []
    for i in range(1, seg.size - 1):
        k = int(seg[i])
        if depth is not None and k > depth:
            break
        a = jumps[i - 1] + gadget.shifts[k]
        b = jumps[i] + gadget.shifts[k]
        pairs.append((a, b))
    return IntervalSet.from_pairs(pairs)


def transition_exceptional_set(
    spec: SeriesSpec, gadget: DampingGadget, depth: int
) -> IntervalSet:
    """Union of the transition intervals around the first jumps.

    The jump of the damped series from index k_prev to k_next at abscissa
    R contributes [R + shift_{k_prev}, R + shift_{k_next}); intervals
    whose upper index exceeds ``depth`` are excluded, so the set lines up
    term-by-term with the measure bound to the same depth.  Parts below
    the origin are clipped: the exceptional set lives on [0, inf).
    """
    table, jumps = _shifted_segments(spec, gadget)
    seg = table.segment_indices
    if seg[-1] < depth:
        raise HorizonExceeded(f"table reaches index {seg[-1]}, requested depth {depth}")
    pairs = []
    for i, r in enumerate(jumps):
        k_prev, k_next = int(seg[i]), int(seg[i + 1])
        if k_next > depth:
            break
        a = r + gadget.shifts[k_prev]
        b = r + gadget.shifts[k_next]
        a = max(a, 0.0)
        if a < b:
            pairs.append((a, b))
    return IntervalSet.from_pairs(pairs)


def covered_transitions(spec: SeriesSpec, gadget: DampingGadget, depth: int) -> list[int]:
    """Indices k whose unit transition k -> k+1 is covered by the
    exceptional set to ``depth`` (hull-skipped indices are included via
    the enclosing jump)."""
    table, _ = _shifted_segments(spec, gadget)
    seg = table.segment_indices
    out: list[int] = []
    for i in range(seg.size - 1):
        k_prev, k_next = int(seg[i]), int(seg[i + 1])
        if k_next > depth:
            break
        out.extend(range(k_prev, k_next))
    return out


def transition_measure_bound(
    gadget: DampingGadget,
    h: MonotoneFn,
    phi,
    depth: int,
) -> float:
    """Partial sum of the closed-form bound on the h-measure of the
    transition set:  2q * sum_k h'(phi(lambda_k) + 2q/gap_{k+1}) /
    gap_{k+1}  to ``depth`` terms, i.e. 2q times the inverse-shifted
    criterion at b = 2q.

    The term-by-term comparison requires h to have non-decreasing
    derivative and the series to satisfy the growth condition tied to
    phi's inverse on the covered range.
    """
    if depth > gadget.n_terms:
        raise ValueError(f"depth {depth} exceeds gadget horizon {gadget.n_terms}")
    return 2.0 * gadget.q * criterion_inverse_shifted(gadget.exponents, h, phi, 2.0 * gadget.q, depth).total


def residual_threshold(q: float) -> float:
    """Closed-form cap on the scaled residual off the transition set:
    2 e^{-q} / (1 - e^{-q})."""
    return 2.0 * math.exp(-q) / (1.0 - math.exp(-q))


def leading_term_residual(spec: SeriesSpec, x: float, y_values, rel_tol: float = REL_TOL) -> float:
    """Worst |F(x+iy) - central term| / mu(x, F) over the sampled phases.

    When x lies outside the transition set of a damping gadget for the
    same exponents (caller's responsibility) and inside the verified
    tiles, the result is bounded by residual_threshold(q) up to rel_tol.
    Inside the set no claim is made; the value is still returned.
    """
    top = log_maximal_term(spec, x)
    worst = 0.0
    for y in np.asarray(y_values, dtype=float):
        res = evaluate(spec, x, float(y), rel_tol)
        lead = term_value(spec, top.index, x, float(y))
        lead_c = math.exp(lead.log_magnitude - top.log_value) * complex(
            math.cos(lead.phase), math.sin(lead.phase)
        )
        worst = max(worst, abs(complex(res.ratio_re, res.ratio_im) - lead_c))
    return worst


@dataclass(frozen=True, eq=False)
class WitnessSeries:
    """A series whose maximal term switches so slowly that the asymptotic
    identity fails on intervals of divergent total measure.

    switch_points[n] (n >= 1) is the abscissa where term n becomes
    maximal; increments[k] (k >= 1) are the switch-point steps.  Index 0
    of both arrays is unused (NaN).  All coefficients are positive, and
    on each interval [switch_points[n], switch_points[n] + 1/gap_n] the
    previous term stays within a factor e of the maximal one, so the
    series value on the real axis exceeds (1 + excess) times the maximal
    term there.
    """

    spec: SeriesSpec
    increments: np.ndarray
    switch_points: np.ndarray
    b: float
    excess: float = math.exp(-1.0)

    def __post_init__(self):
        object.__setattr__(self, "increments", _readonly(self.increments))
        object.__setattr__(self, "switch_points", _readonly(self.switch_points))

    @property
    def n_terms(self) -> int:
        return len(self.spec) - 1

    @property
    def intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Left ends switch_n and widths 1/gap_n of the exceptional
        intervals [switch_n, switch_n + 1/gap_n]; interval n >= 1 sits at
        position n - 1 of both arrays."""
        return self.switch_points[1:], 1.0 / self.spec.exponents.gaps


def build_witness_series(
    exponents: ExponentSequence,
    phi1,
    b: float,
    n_terms: int,
) -> WitnessSeries:
    """Build the witness series for growth handle ``phi1`` and parameter b.

    Steps are  r_1 = max(b*phi1(b*lambda_2), 1/gap_2)  and for k >= 2
    r_k = max(b*phi1(b*lambda_{k+1}) - b*phi1(b*lambda_k), 1/gap_{k+1});
    switch points start at 1, 1 and accumulate the steps; coefficients
    decay by the switch point times the gap at every index.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    if n_terms < 3:
        raise ValueError("need at least three terms")
    lam = exponents.values
    if len(exponents) < n_terms + 1:
        raise ValueError(f"n_terms={n_terms} needs {n_terms + 1} stored exponents")
    gaps = exponents.gaps

    growth = np.array([b * phi1(b * lam[k]) for k in range(n_terms + 1)])
    if np.any(np.diff(growth[2:]) < 0):
        raise MonotoneViolation("phi1 must be non-decreasing on the needed arguments")

    increments = np.full(n_terms, np.nan)
    increments[1] = max(growth[2], 1.0 / gaps[1])
    for k in range(2, n_terms - 1):
        increments[k] = max(growth[k + 1] - growth[k], 1.0 / gaps[k])

    switch = np.full(n_terms + 1, np.nan)
    switch[1] = switch[2] = 1.0
    acc = 0.0
    for n in range(3, n_terms + 1):
        acc += increments[n - 2]
        switch[n] = acc
    if switch[3] < switch[2]:
        raise MonotoneViolation(
            "switch points dip after the seed pair; the first step must be >= 1"
        )

    # growth floor: switch[n] >= b*phi1(b*lambda_{n-1}); it telescopes for
    # n >= 3 and is re-checked numerically here
    floor_ok = switch[3:] >= growth[2:-1] - 1e-12 * np.maximum(1.0, np.abs(growth[2:-1]))
    if not np.all(floor_ok):
        bad = 3 + int(np.argmin(floor_ok))
        raise MonotoneViolation(f"switch point {bad} fell below its growth floor")

    log_moduli = np.zeros(n_terms + 1)
    with np.errstate(over="ignore"):
        for n in range(1, n_terms + 1):
            log_moduli[n] = log_moduli[n - 1] - switch[n] * gaps[n - 1]
    if not np.all(np.isfinite(log_moduli)):
        raise HorizonExceeded("the witness log moduli leave the float64 range")
    spec = SeriesSpec(
        ExponentSequence(lam[: n_terms + 1], exponents.kind),
        log_moduli,
    )
    return WitnessSeries(spec, increments, switch, b)


def witness_exceptional_set(ws: WitnessSeries, depth: int) -> IntervalSet:
    """First ``depth`` intervals [switch_n, switch_n + 1/gap_n], stored
    half-open with closed-right membership semantics.  HorizonExceeded
    when a width 1/gap_n is lost in the rounding of its switch point."""
    if depth < 0 or depth > ws.n_terms:
        raise ValueError(f"depth must lie in [0, {ws.n_terms}]")
    left, width = (v[:depth].tolist() for v in ws.intervals)
    pairs = [(a, a + w) for a, w in zip(left, width)]
    try:
        return IntervalSet.from_pairs(pairs, include_right=True)
    except ValueError as exc:
        raise HorizonExceeded(f"a witness interval is below float64 resolution: {exc}") from exc


def witness_ratio(ws: WitnessSeries, x: float, rel_tol: float = REL_TOL) -> float:
    """F(x) / mu(x, F) on the real axis (all coefficients are positive).

    On the witness exceptional set the ratio is at least 1 + excess up to
    rounding; outside the set a warning is emitted and no bound applies.
    """
    left, width = ws.intervals
    if not np.any((left <= x) & (x <= left + width)):
        warnings.warn(
            f"x={x!r} lies outside the witness exceptional set; the excess "
            "bound does not apply",
            OutsideExceptionalSetWarning,
            stacklevel=2,
        )
    return sum_modulus(ws.spec, x, rel_tol)


def witness_measure_partials(
    ws: WitnessSeries, h: MonotoneFn, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums of the interval h-measures and of their lower bound
    sum h'(switch_n)/gap_n.

    The per-interval measure dominates the bound term-by-term whenever h
    has non-decreasing derivative, so divergence of the bound certifies
    divergence of the measure.
    """
    if depth < 1 or depth > ws.n_terms:
        raise ValueError(f"depth must lie in [1, {ws.n_terms}]")
    left, width = (v[:depth].tolist() for v in ws.intervals)
    inc = [h.value(a + w) - h.value(a) for a, w in zip(left, width)]
    low = [h.derivative(a) * w for a, w in zip(left, width)]
    return np.cumsum(inc), np.cumsum(low)

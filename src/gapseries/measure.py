"""Monotone densities and measures of finite unions of intervals.

A ``MonotoneFn`` is a handle for a positive continuous function
increasing to infinity, tagged with the monotonicity of its derivative:
``L_plus`` (non-decreasing derivative), ``L_minus`` (non-increasing) or
plain ``L``.  The derivative is supplied explicitly rather than
differenced numerically, because every downstream convergence condition
consumes it directly.

An ``IntervalSet`` is a sorted disjoint union of half-open intervals
[a, b); it carries the exceptional sets detected or constructed
elsewhere in the package.
"""

from __future__ import annotations

import functools
import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import BracketError, DomainError, QuadratureError

#: tolerance of ``MonotoneFn.inv`` when a handle has no explicit inverse
_INV_TOL = 1e-12
#: doublings of the upper bracket, then bisection steps, of numeric_inverse
_MAX_DOUBLINGS = 200
_MAX_BISECTIONS = 500
#: random pairs drawn by check_class_tag, from a generator with this seed
_CLASS_TAG_SAMPLES = 100
_CLASS_TAG_SEED = 0


@dataclass(frozen=True)
class MonotoneFn:
    """An increasing function with an explicit derivative.

    ``inverse`` is optional; when absent, ``inv`` falls back to bisection.
    ``radial(a, b)``, the integral of h'(r)/r over [a, b), is optional
    too; when absent, ``h_log_measure`` falls back to quadrature.  Class
    tags are asserted by sampling (see ``check_class_tag``), not proven:
    handles may be arbitrary user callables.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    class_tag: str = "L"
    domain_floor: float = 0.0
    inverse: Callable[[float], float] | None = None
    name: str = ""
    radial: Callable[[float, float], float] | None = None

    def __call__(self, x: float) -> float:
        return self.value(x)

    def inv(self, target: float) -> float:
        if self.inverse is not None:
            return self.inverse(target)
        return numeric_inverse(self, target, _INV_TOL)


def _np_exp(v: float) -> float:
    with np.errstate(over="ignore"):
        return float(np.exp(v))


def _np_pow(base: float, exponent: float) -> float:
    # inf past the float range and for 0 ** -e, nan for a negative base and
    # a fractional exponent
    with np.errstate(all="ignore"):
        return float(np.power(base, exponent))


def _log_ratio(a: float, b: float) -> float:
    # ln(b/a) without the rounding of b/a near 1
    return math.log1p((b - a) / a)


def identity() -> MonotoneFn:
    return MonotoneFn(
        lambda x: x, lambda x: 1.0, "L_plus", inverse=lambda t: t, name="identity", radial=_log_ratio
    )


def power(exponent: float, scale: float = 1.0) -> MonotoneFn:
    """scale * x**exponent; class L+ for exponent >= 1, else L-."""
    if exponent <= 0 or scale <= 0:
        raise ValueError("exponent and scale must be positive")
    tag = "L_plus" if exponent >= 1.0 else "L_minus"

    # math.pow raises, for numpy floats too, where np.power returns inf or nan
    def value(x):
        try:
            return scale * math.pow(x, exponent)
        except (OverflowError, ValueError):
            return scale * _np_pow(x, exponent)

    def derivative(x):
        try:
            return scale * exponent * math.pow(x, exponent - 1.0)
        except (OverflowError, ValueError):
            return scale * exponent * _np_pow(x, exponent - 1.0)

    # integral of scale * exponent * r**(q - 1) over [a, b), with q = exponent - 1:
    # scale * exponent / q * (b**q - a**q)
    q = exponent - 1.0
    coef = scale * exponent / q if q else scale
    if q == 1.0:
        def radial(a, b):
            return coef * (b - a)
    elif q == 0.0:
        def radial(a, b):
            return coef * _log_ratio(a, b)
    else:
        def radial(a, b):
            # r**q as r**exponent / r: q = exponent - 1 may be rounded, and
            # ln(r) would amplify that rounding.  Where b**q and a**q lie
            # within a factor e of each other their difference would cancel,
            # so it is taken as a**q * expm1(q ln(b/a)).  Overflow gives inf,
            # as value() does.
            try:
                y = q * _log_ratio(a, b)
                if abs(y) <= 1.0:
                    return coef * (a**exponent / a) * math.expm1(y)
                return coef * (b**exponent / b - a**exponent / a)
            except OverflowError:
                return math.inf

    return MonotoneFn(
        value,
        derivative,
        tag,
        inverse=lambda t: (t / scale) ** (1.0 / exponent),
        name=f"power({exponent:g})" if scale == 1.0 else f"power({exponent:g},{scale:g})",
        radial=radial,
    )


def exponential(rate: float = 1.0) -> MonotoneFn:
    """exp(rate * x) with rate > 0; class L+."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return MonotoneFn(
        lambda x: _np_exp(rate * x),
        lambda x: rate * _np_exp(rate * x),
        "L_plus",
        inverse=lambda t: math.log(t) / rate,
        name=f"exp({rate:g})",
    )


def log_shifted() -> MonotoneFn:
    """ln(1 + x); class L- (derivative 1/(1+x) decreases)."""
    return MonotoneFn(
        lambda x: math.log1p(x),
        lambda x: 1.0 / (1.0 + x),
        "L_minus",
        inverse=lambda t: math.expm1(t),
        name="log_shifted",
        # ln(b/(1+b)) - ln(a/(1+a)) = ln(1 + (b-a)/(a(1+b)))
        radial=lambda a, b: math.log1p((b - a) / (a * (1.0 + b))),
    )


def affine(slope: float, intercept: float = 0.0) -> MonotoneFn:
    if slope <= 0:
        raise ValueError("slope must be positive")
    return MonotoneFn(
        lambda x: slope * x + intercept,
        lambda x: slope,
        "L_plus",
        inverse=lambda t: (t - intercept) / slope,
        name=f"affine({slope:g},{intercept:g})",
        radial=lambda a, b: slope * _log_ratio(a, b),
    )


_BUILTINS: dict[str, Callable[..., MonotoneFn]] = {
    "identity": identity,
    "power": power,
    "exp": exponential,
    "log_shifted": log_shifted,
    "affine": affine,
}


def builtin(name: str, **params) -> MonotoneFn:
    """Instantiate a builtin density by name; see _BUILTINS for the set."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin function {name!r}; have {sorted(_BUILTINS)}") from None
    return factory(**params)


def numeric_inverse(f: MonotoneFn | Callable[[float], float], target: float, tol: float = 1e-10) -> float:
    """x with |f(x) - target| <= tol, for increasing f, via bisection.

    The upper bracket is found by doubling the step from the domain
    floor (0 for a plain callable).  Raises BracketError when the target
    cannot be bracketed within _MAX_DOUBLINGS doublings or bisection
    stalls above ``tol``.
    """
    if isinstance(f, MonotoneFn):
        floor, fn = f.domain_floor, f.value
    else:
        floor, fn = 0.0, f
    flo = fn(floor)
    if flo > target:
        raise BracketError(f"target {target!r} lies below f({floor!r}) = {flo!r}")
    if abs(flo - target) <= tol:
        return floor
    step = 1.0
    hi = floor + step
    for _ in range(_MAX_DOUBLINGS):
        with np.errstate(over="ignore"):
            if fn(hi) >= target:
                break
        step *= 2.0
        hi = floor + step
    else:
        raise BracketError(f"could not bracket target {target!r} within {_MAX_DOUBLINGS} doublings")
    lo = floor
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        val = fn(mid)
        if abs(val - target) <= tol:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= math.ulp(max(abs(lo), abs(hi))):
            break
    if abs(fn(0.5 * (lo + hi)) - target) <= tol:
        return 0.5 * (lo + hi)
    raise BracketError(f"bisection stalled above tolerance {tol!r} for target {target!r}")


def check_class_tag(fn: MonotoneFn, lo: float, hi: float) -> bool:
    """Spot-check the class tag on random pairs in [lo, hi]."""
    rng = np.random.default_rng(_CLASS_TAG_SEED)
    a = rng.uniform(lo, hi, _CLASS_TAG_SAMPLES)
    b = rng.uniform(lo, hi, _CLASS_TAG_SAMPLES)
    a, b = np.minimum(a, b), np.maximum(a, b)
    keep = b > a
    a, b = a[keep], b[keep]
    va = np.array([fn.value(t) for t in a])
    vb = np.array([fn.value(t) for t in b])
    if not np.all(va < vb):
        return False
    da = np.array([fn.derivative(t) for t in a])
    db = np.array([fn.derivative(t) for t in b])
    if fn.class_tag == "L_plus":
        return bool(np.all(db >= da))
    if fn.class_tag == "L_minus":
        return bool(np.all(db <= da))
    return True


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Finite sorted disjoint union of half-open intervals [a, b).

    Overlapping inputs are merged; touching intervals are kept separate,
    which preserves the lengths of constructed families.  When
    ``include_right`` is set, membership tests treat each interval as
    closed on the right (measures are unaffected).
    """

    intervals: tuple[tuple[float, float], ...]
    include_right: bool = False

    def __post_init__(self):
        cleaned = []
        for a, b in self.intervals:
            a, b = float(a), float(b)
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("interval endpoints must be finite")
            if not a < b:
                raise ValueError(f"empty or reversed interval [{a}, {b})")
            cleaned.append((a, b))
        cleaned.sort()
        merged: list[tuple[float, float]] = []
        for a, b in cleaned:
            if merged and a < merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        object.__setattr__(self, "intervals", tuple(merged))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]], include_right: bool = False) -> "IntervalSet":
        return cls(tuple(pairs), include_right)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    @property
    def total_length(self) -> float:
        return math.fsum(b - a for a, b in self.intervals)

    @property
    def bounds(self) -> tuple[float, float] | None:
        if not self.intervals:
            return None
        return self.intervals[0][0], self.intervals[-1][1]

    def contains(self, x: float) -> bool:
        pos = bisect_right([a for a, _ in self.intervals], x)
        if pos == 0:
            return False
        a, b = self.intervals[pos - 1]
        return x <= b if self.include_right else x < b

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        pieces = []
        for a, b in self.intervals:
            cur = a
            for c, d in other.intervals:
                if d <= cur or c >= b:
                    continue
                if c > cur:
                    pieces.append((cur, min(c, b)))
                cur = max(cur, d)
                if cur >= b:
                    break
            if cur < b:
                pieces.append((cur, b))
        return IntervalSet(tuple(pieces), self.include_right)

    def coalesce(self) -> "IntervalSet":
        """Merge touching neighbours; measures are unchanged."""
        merged: list[tuple[float, float]] = []
        for a, b in self.intervals:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return IntervalSet(tuple(merged), self.include_right)

    def log_image(self) -> "IntervalSet":
        """Image under x = ln r; endpoints must be positive."""
        if any(a <= 0 for a, _ in self.intervals):
            raise DomainError("log image requires positive endpoints")
        return IntervalSet(tuple((math.log(a), math.log(b)) for a, b in self.intervals), self.include_right)


def h_measure(h: MonotoneFn, intervals: IntervalSet) -> float:
    """Stieltjes measure sum h(b_i) - h(a_i); exact by additivity."""
    for a, _ in intervals:
        if a < h.domain_floor:
            raise DomainError(f"interval start {a} below domain floor {h.domain_floor}")
    return math.fsum(h.value(b) - h.value(a) for a, b in intervals)


def log_measure(intervals: IntervalSet, strict: bool = False) -> float:
    """Logarithmic measure sum ln(b_i) - ln(a_i).

    With ``strict`` the classical domain [1, inf) is enforced; otherwise
    any positive endpoints are accepted.
    """
    for a, _ in intervals:
        if a <= 0:
            raise DomainError(f"logarithmic measure needs positive endpoints, got {a}")
        if strict and a < 1.0:
            raise DomainError(f"interval start {a} < 1 in strict mode")
    return math.fsum(math.log(b) - math.log(a) for a, b in intervals)


_MAX_PANELS = 200


@functools.cache
def _gauss_legendre(n: int) -> tuple[tuple[float, float], ...]:
    # (node, weight) pairs on [-1, 1]; numpy.polynomial loads on first use,
    # so start-up does not pay for it
    return tuple(zip(*(g.tolist() for g in np.polynomial.legendre.leggauss(n))))


def _panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(integral of f over [a, b], error estimate): the 20-point
    Gauss-Legendre sum and its distance to the 10-point sum."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    coarse = half * sum(w * f(mid + half * t) for t, w in _gauss_legendre(10))
    fine = half * sum(w * f(mid + half * t) for t, w in _gauss_legendre(20))
    return fine, abs(fine - coarse)


def _quad_sum(f: Callable[[float], float], intervals: IntervalSet, quad_tol: float, what: str) -> float:
    """Sum of the integrals of f over the intervals.

    Each interval is cut into panels, halving the one with the largest
    estimate, until their summed estimate is below quad_tol * 1e-2 or not
    finite, or _MAX_PANELS panels are used.  Raises QuadratureError when
    the estimate summed over every interval exceeds quad_tol or the result
    is not finite.
    """
    abs_tol = quad_tol * 1e-2
    total = 0.0
    err = 0.0
    for a, b in intervals:
        value, est = _panel(f, a, b)
        panels = [(-est, a, b, value)]  # a heap, largest estimate first
        while abs_tol < est < math.inf and len(panels) < _MAX_PANELS:
            _, lo, hi, _ = heapq.heappop(panels)
            mid = 0.5 * (lo + hi)
            for left, right in ((lo, mid), (mid, hi)):
                val, e = _panel(f, left, right)
                heapq.heappush(panels, (-e, left, right, val))
            value = sum(p[3] for p in panels)
            est = -sum(p[0] for p in panels)
        total += value
        err += est
    if not (err <= quad_tol and math.isfinite(total)):
        raise QuadratureError(f"{what} did not converge to quad_tol={quad_tol:g}", achieved=err)
    return total


def h_log_measure(h: MonotoneFn, intervals_r: IntervalSet, quad_tol: float = 1e-8) -> float:
    """Radial measure integral of h'(r)/r over the set.  Under the
    substitution x = ln r it equals the measure of the log image with
    density h'(e^x).

    Uses the handle's closed-form ``radial`` when it has one (every
    builtin but ``exp``); otherwise adaptive quadrature to ``quad_tol``.
    """
    for a, _ in intervals_r:
        if a <= 0:
            raise DomainError(f"radial measure needs positive endpoints, got {a}")
    if h.radial is not None:
        return math.fsum(h.radial(a, b) for a, b in intervals_r)
    return _quad_sum(lambda r: h.derivative(r) / r, intervals_r, quad_tol, "radial measure")


def density_measure(density: Callable[[float], float], intervals: IntervalSet, quad_tol: float = 1e-8) -> float:
    """Integral of an arbitrary density over the set, by adaptive quadrature."""
    return _quad_sum(density, intervals, quad_tol, "density measure")

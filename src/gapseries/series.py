"""Log-domain core for entire series of exponential terms.

A series  sum_n a_n exp(z*lambda_n)  is stored as the exponent sequence
(lambda_n) together with ln|a_n| and arg(a_n).  All magnitude arithmetic
happens on logarithms, so terms like exp(x*lambda_n) never overflow;
complex sums are formed only after rescaling by the maximal term.

For a gap power series  f(z) = sum_k f_k z^{n_k}  use integer exponents
and substitute x = ln r: the maximal term, central index and the modulus
extrema on |z| = r coincide with the ones computed here on the vertical
line Re z = x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GapSeriesError, HorizonExceeded, InvalidTolerance

TWO_PI = 2.0 * math.pi

#: a maximizing index within this many slots of a truncated horizon is
#: refused: the stored prefix cannot certify that the true maximum is not
#: further out.
DEFAULT_GUARD_MARGIN = 5

#: default bound on the certified truncation error of an evaluation,
#: relative to the maximal term
REL_TOL = 1e-9

#: shift delta of the tail certificate, which bounds the remainder by the
#: maximal term at x + delta (see _certified_prefix)
TAIL_SHIFT = 1.0

#: the zoom scans that refine a modulus extremum stop once their step in y
#: is below this
PHASE_TOL = 1e-10

_KINDS = ("dirichlet", "gap-power", "general")


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ExponentSequence:
    """Strictly increasing non-negative exponents.

    kind:
      * ``dirichlet``: requires the first exponent to be 0,
      * ``gap-power``: requires every exponent to be an integer,
      * ``general``:   no extra constraint (used by the criteria checkers
        for sequences that fit neither convention).
    """

    values: np.ndarray
    kind: str = "dirichlet"

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        v = self.values
        if v.ndim != 1 or v.size == 0:
            raise ValueError("exponent sequence must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)) or v[0] < 0:
            raise ValueError("exponents must be finite and non-negative")
        if v.size > 1 and not np.all(np.diff(v) > 0):
            raise ValueError("exponents must be strictly increasing")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown exponent kind {self.kind!r}")
        if self.kind == "dirichlet" and v[0] != 0.0:
            raise ValueError("a dirichlet exponent sequence must start at 0")
        if self.kind == "gap-power" and not np.all(v == np.round(v)):
            raise ValueError("gap-power exponents must be integers")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def gaps(self) -> np.ndarray:
        """Consecutive differences lambda_{n+1} - lambda_n."""
        return np.diff(self.values)

    @property
    def min_gap(self) -> float:
        g = self.gaps
        return float(g.min()) if g.size else math.inf

    def is_integral(self) -> bool:
        return bool(np.all(self.values == np.round(self.values)))


def geometric_exponents(base: float, count: int, kind: str = "dirichlet") -> ExponentSequence:
    """0, base, base^2, ..., base^(count-1)."""
    if count < 1:
        raise ValueError("count must be positive")
    if base <= 1.0:
        raise ValueError("base must exceed 1")
    try:
        vals = [0.0] + [float(base) ** n for n in range(1, count)]
    except OverflowError:
        raise ValueError(f"series.base = {base:g}: base**{count - 1} overflows float64") from None
    return ExponentSequence(np.array(vals), kind)


def power_exponents(scale: float, power: float, count: int, kind: str = "dirichlet") -> ExponentSequence:
    """scale * n^power for n = 0, 1, ..., count-1."""
    if count < 1:
        raise ValueError("count must be positive")
    if scale <= 0 or power <= 0:
        raise ValueError("scale and power must be positive")
    vals = scale * np.arange(count, dtype=float) ** power
    return ExponentSequence(vals, kind)


@dataclass(frozen=True, eq=False)
class SeriesSpec:
    """Stored prefix of a series: exponents, ln|a_n| and arg(a_n).

    Only nonzero coefficients are stored, so every log modulus must be
    finite; so must every phase.  ``complete=True`` marks the prefix as
    the whole series (a polynomial in e^z, or in z for gap-power
    exponents); truncation tail bounds and the horizon guard are skipped
    in that case.
    """

    exponents: ExponentSequence
    log_moduli: np.ndarray
    phases: np.ndarray | None = None
    complete: bool = False

    def __post_init__(self):
        object.__setattr__(self, "log_moduli", _readonly(self.log_moduli))
        if self.phases is None:
            ph = np.zeros(len(self.exponents))
        else:
            ph = np.asarray(self.phases, dtype=float)
            if not np.all(np.isfinite(ph)):
                raise ValueError("phases must be finite")
            ph = np.mod(ph, TWO_PI)
        object.__setattr__(self, "phases", _readonly(ph))
        n = len(self.exponents)
        if self.log_moduli.shape != (n,) or self.phases.shape != (n,):
            raise ValueError("exponents, log_moduli and phases must have equal length")
        if not np.all(np.isfinite(self.log_moduli)):
            raise ValueError("log moduli must be finite (drop zero coefficients)")

    def __len__(self) -> int:
        return len(self.exponents)

    def entirety_proxy_ok(self, from_index: int = 1) -> bool:
        """Check that ln|a_n| / lambda_n decreases beyond ``from_index``.

        A finite-prefix stand-in for the entirety requirement
        ln|a_n| / lambda_n -> -inf; meaningful for constructed instances,
        not enforced on arbitrary user prefixes.
        """
        lam = self.exponents.values
        mask = lam > 0
        ratios = self.log_moduli[mask] / lam[mask]
        start = max(0, from_index - int(np.argmax(mask)))
        tail = ratios[start:]
        if tail.size < 2:
            return True
        return bool(np.all(np.diff(tail) <= 0) and tail[-1] < tail[0])


@dataclass(frozen=True)
class TermValue:
    """A single term a_n * exp((x+iy) lambda_n) in log-polar form."""

    log_magnitude: float
    phase: float

    def __post_init__(self):
        object.__setattr__(self, "phase", float(self.phase) % TWO_PI)


def term_value(spec: SeriesSpec, n: int, x: float, y: float = 0.0) -> TermValue:
    lam = spec.exponents.values[n]
    return TermValue(float(spec.log_moduli[n] + x * lam), float(spec.phases[n] + y * lam))


class MaximalTerm(NamedTuple):
    log_value: float
    index: int


def _argmax_last(values: np.ndarray) -> int:
    # np.argmax returns the first maximizer; ties resolve to the largest
    # index by scanning the reversed array.
    return int(values.size - 1 - np.argmax(values[::-1]))


def log_maximal_term(spec: SeriesSpec, x: float) -> MaximalTerm:
    """Largest term at abscissa x: max_n (ln|a_n| + x*lambda_n).

    Returns the log of the maximal term together with the central index,
    the largest index attaining the maximum.

    Raises HorizonExceeded when the maximum overflows float64, and when
    the spec is a truncation and the argmax lies within
    DEFAULT_GUARD_MARGIN of the stored horizon: the prefix then cannot
    certify that the true maximum is among the stored terms.
    """
    with np.errstate(over="ignore"):
        return _log_terms(spec, x)[1]


def _log_terms(spec: SeriesSpec, x: float) -> tuple[np.ndarray, MaximalTerm]:
    """Every ln|a_n| + x*lambda_n, and the maximal term as log_maximal_term
    gives it.  Call under np.errstate(over="ignore"): x*lambda_n may
    overflow to +-inf, and a -inf term is never maximal."""
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    values = spec.log_moduli + x * spec.exponents.values
    idx = _argmax_last(values)
    if not math.isfinite(values[idx]):
        raise HorizonExceeded(f"ln mu({x!r}) overflows float64")
    n = len(spec)
    if not spec.complete and n > DEFAULT_GUARD_MARGIN and idx > n - DEFAULT_GUARD_MARGIN:
        raise HorizonExceeded(
            f"maximal term at index {idx} of {n} stored terms is within "
            f"guard margin {DEFAULT_GUARD_MARGIN} of the horizon"
        )
    return values, MaximalTerm(float(values[idx]), idx)


@dataclass(frozen=True, eq=False)
class CentralIndexTable:
    """Piecewise-constant central index: nu(x) = segment_indices[i] on
    [jump_points[i-1], jump_points[i]), with the first segment extending
    to -inf and the last to +inf."""

    jump_points: np.ndarray
    segment_indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "jump_points", _readonly(self.jump_points))
        object.__setattr__(self, "segment_indices", _readonly(self.segment_indices, dtype=int))
        if self.segment_indices.size != self.jump_points.size + 1:
            raise ValueError("need exactly one more segment than jump points")
        if self.jump_points.size and not np.all(np.diff(self.jump_points) > 0):
            raise ValueError("jump points must be strictly increasing")
        if not np.all(np.diff(self.segment_indices) > 0):
            raise ValueError("segment indices must be strictly increasing")

    def index_at(self, x):
        """Central index at x (scalar or array).  At a jump point the new,
        larger index applies, matching the largest-tied-index convention."""
        pos = np.searchsorted(self.jump_points, x, side="right")
        out = self.segment_indices[pos]
        return int(out) if np.isscalar(x) else out

    def segment_span(self, position: int) -> tuple[float, float]:
        """Half-open x-range of the segment at ``position``."""
        lo = -math.inf if position == 0 else float(self.jump_points[position - 1])
        hi = math.inf if position == self.jump_points.size else float(self.jump_points[position])
        return lo, hi


def central_index_table(spec: SeriesSpec) -> CentralIndexTable:
    """Segment structure of the central index.

    The maximal term as a function of x is the upper envelope of the
    lines ln|a_n| + x*lambda_n.  Its vertices are the upper convex hull
    of the points (lambda_n, ln|a_n|); the jump points are the abscissas
    where consecutive supporting lines intersect.  Collinear middle
    points are dropped, which reproduces the convention that a tie
    resolves to the largest index.
    """
    lam = spec.exponents.values
    c = spec.log_moduli
    hull: list[int] = []
    for i in range(len(spec)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (lam[a] - lam[o]) * (c[i] - c[o]) - (c[a] - c[o]) * (lam[i] - lam[o])
            if cross >= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)

    def jump(i: int, j: int) -> float:
        return (c[i] - c[j]) / (lam[j] - lam[i])

    jumps = [jump(hull[i], hull[i + 1]) for i in range(len(hull) - 1)]
    # Rounding can produce an empty segment; drop its vertex and re-join.
    i = 0
    while i + 1 < len(jumps):
        if jumps[i + 1] <= jumps[i]:
            del hull[i + 1]
            del jumps[i]
            jumps[i] = jump(hull[i], hull[i + 1])
            i = max(i - 1, 0)
        else:
            i += 1
    return CentralIndexTable(np.array(jumps), np.array(hull))


class EvalResult(NamedTuple):
    """Value of F(x+iy) divided by the maximal term, plus ln mu(x)."""

    ratio_re: float
    ratio_im: float
    log_mu: float


def _certified_prefix(spec: SeriesSpec, x: float, rel_tol: float) -> tuple[np.ndarray, MaximalTerm, int]:
    """Scaled term magnitudes exp(ln|a_n| + x*lambda_n - ln mu) for a
    prefix whose unsummed remainder is certified below rel_tol.

    With delta = TAIL_SHIFT, the tail beyond index N of the full series is
    bounded by
        mu(x+delta)/mu(x) * exp(-delta*lambda_N) / (1 - exp(-delta*g_min)),
    a geometric envelope using the smallest stored gap g_min.  Summation
    stops at the first N where this bound drops below rel_tol.  Complete
    specs (and single-term prefixes, which carry no gap information) have
    no tail and are summed whole.
    """
    if not (0.0 < rel_tol < 1.0):
        raise InvalidTolerance(f"rel_tol must lie in (0, 1), got {rel_tol}")
    with np.errstate(over="ignore"):
        values, top = _log_terms(spec, x)
        # the maximum is finite, so an overflowing term is -inf and scales to 0
        scaled = values - top.log_value
        if spec.complete or len(spec) < 2:
            return np.exp(scaled), top, len(spec) - 1
        shifted = _log_terms(spec, x + TAIL_SHIFT)[1]

    lam = spec.exponents.values
    gmin = spec.exponents.min_gap
    log_geom = math.log1p(-math.exp(-TAIL_SHIFT * gmin))
    log_tail = (shifted.log_value - top.log_value) - TAIL_SHIFT * lam - log_geom
    certified = log_tail < math.log(rel_tol)
    if not certified.any():
        raise HorizonExceeded(
            "truncation tail bound cannot be driven below "
            f"rel_tol={rel_tol:g} with {len(spec)} stored terms"
        )
    stop = int(np.argmax(certified))
    stop = max(stop, top.index)
    return np.exp(scaled[: stop + 1]), top, stop


def evaluate(spec: SeriesSpec, x: float, y: float, rel_tol: float = REL_TOL) -> EvalResult:
    """F(x+iy) / mu(x, F) with certified truncation error below rel_tol."""
    w, top, stop = _certified_prefix(spec, x, rel_tol)
    ang = spec.phases[: stop + 1] + y * spec.exponents.values[: stop + 1]
    s = np.sum(w * np.exp(1j * ang))
    return EvalResult(float(s.real), float(s.imag), top.log_value)


def sum_modulus(spec: SeriesSpec, x: float, rel_tol: float = REL_TOL) -> float:
    """Upper envelope sum |a_n| e^{x lambda_n} / mu(x, F); always >= 1."""
    w, _, _ = _certified_prefix(spec, x, rel_tol)
    return float(np.sum(w))


@dataclass(frozen=True)
class PhaseSearchOpts:
    """Grid-plus-refinement options for modulus extrema over y.

    For reliable results on integral exponents the grid should have at
    least four points per unit of the top exponent (|F| restricted to the
    circle is a trigonometric polynomial of that degree).  Zoom scans
    refine the grid extremum from plus or minus one grid step until their
    step is below PHASE_TOL; the tail certificate shifts by TAIL_SHIFT.
    """

    grid_points: int = 4096
    rel_tol: float = REL_TOL

    def __post_init__(self):
        if self.grid_points < 2:
            raise InvalidTolerance(f"grid_points must be at least 2, got {self.grid_points}")


@dataclass(frozen=True)
class ModulusResult:
    """A modulus extremum in maximal-term units.

    ``direction`` records the certified side: a maximum search returns a
    lower bound for sup |F|, a minimum search an upper bound for inf |F|
    (both up to the truncation tolerance of the underlying evaluation).
    ``window_approximate`` is set when non-integral exponents forced the
    search onto a finite y-window instead of one exact period.
    ``log_mu``, ``nu`` and ``sum_scaled`` come from the certified prefix the
    search summed: they equal log_maximal_term(spec, x) and
    sum_modulus(spec, x, rel_tol) at the search's rel_tol.
    """

    value: float
    y_at: float
    direction: str
    window_approximate: bool
    log_mu: float
    nu: int
    sum_scaled: float


#: complex entries per block of the phase basis, of the phase profile, of the
#: rotated refinement weights and of each zoom scan's basis: the kernel's
#: working memory stays bounded whatever the prefix length, grid size or number
#: of abscissas.  On the sweep benchmark, blocks of 2^12 to 2^14 entries run
#: equally fast, and the larger ones raised the process's peak RSS by about 1.4 MB.
_BLOCK_ENTRIES = 1 << 12

#: points per zoom scan: odd, so one sits on the scan's centre; each scan
#: shrinks the half-width to the previous scan's step, 16 times smaller
_SCAN_POINTS = 33


def _grid_extrema(
    weights: np.ndarray, lam: np.ndarray, ph: np.ndarray, ys: np.ndarray, sign: float
) -> tuple[np.ndarray, np.ndarray]:
    """Grid index and value of the extremum of |sum_n w_n e^{i(ph_n + y*lam_n)}|
    over ``ys``, for every row of ``weights`` (one abscissa per row).

    The phase basis e^{i(ph + y*lam)} does not depend on the abscissa, so
    every row shares it: the profile is one real matrix product per block.
    Ties go to the first grid point, as with np.argmin on the whole profile.
    """
    cols, n = weights.shape
    best_j = np.zeros(cols, dtype=int)
    best = np.full(cols, math.inf)  # sign * |F| at best_j
    rows = min(ys.size, max(1, _BLOCK_ENTRIES // n))
    width = max(1, _BLOCK_ENTRIES // rows)
    for r0 in range(0, ys.size, rows):
        block = ys[r0 : r0 + rows]
        basis = np.exp(1j * (ph[None, :] + block[:, None] * lam[None, :]))
        stacked = np.concatenate([basis.real, basis.imag])
        for c0 in range(0, cols, width):
            part = stacked @ weights[c0 : c0 + width].T
            vals = sign * np.hypot(part[: block.size], part[block.size :])
            j = np.argmin(vals, axis=0)
            v = vals[j, np.arange(j.size)]
            cur = slice(c0, c0 + width)
            better = v < best[cur]
            best[cur] = np.where(better, v, best[cur])
            best_j[cur] = np.where(better, r0 + j, best_j[cur])
    return best_j, best


def _zoom(
    weights: np.ndarray, lam: np.ndarray, ph: np.ndarray, y: np.ndarray, width: float, sign: float
) -> tuple[np.ndarray, np.ndarray]:
    """Refine each row's minimum of sign * |sum_n w_n e^{i(ph_n + y*lam_n)}|
    from its entry of ``y`` by zoom scans.

    A scan samples _SCAN_POINTS points across y +- width and recentres on the
    best (the first on ties); width shrinks to the scan's step until that step
    is below PHASE_TOL.  Weights rotated to their row's centre,
    w e^{i(ph + y*lam)}, let one basis e^{i*t*lam} serve every row; its rows
    are powers of e^{i*step*lam}, since the basis only picks the next centre.
    Each row is scanned by its own product with the basis: a product across
    rows rounds differently with the number of rows, and near the extremum
    that rounding picks the centre.  Returns the final centres and sign * |F|
    there, summed as evaluate sums it.
    """
    offsets = np.linspace(-1.0, 1.0, _SCAN_POINTS)
    points = max(1, _BLOCK_ENTRIES // lam.size)
    while True:
        rotated = weights * np.exp(1j * (ph[None, :] + y[:, None] * lam[None, :]))
        if width < PHASE_TOL:
            return y, sign * np.abs(rotated.sum(axis=1))
        ts = width * offsets
        unit = np.exp(1j * (ts[1] - ts[0]) * lam)
        row = np.exp(1j * ts[0] * lam)
        vals = np.empty((y.size, ts.size))
        for p0 in range(0, ts.size, points):
            basis = np.empty((min(points, ts.size - p0), lam.size), dtype=complex)
            for p in range(len(basis)):
                basis[p], row = row, row * unit
            for k, r in enumerate(rotated):
                vals[k, p0 : p0 + len(basis)] = np.abs(basis @ r)
        y = y + ts[np.argmin(sign * vals, axis=1)]
        width /= (_SCAN_POINTS - 1) // 2


def _phase_extrema(spec: SeriesSpec, xs: np.ndarray, opts: PhaseSearchOpts, want_max: bool) -> list:
    """The envelope kernel: sup_y or inf_y of |F(x+iy)| / mu(x,F) at every x.

    Each x gets one certified prefix; a GapSeriesError raised there takes
    the x's slot in the returned list and leaves its neighbours intact.
    All other abscissas share one phase basis up to the longest prefix:
    one matrix product per block gives every profile, then zoom scans
    (_zoom) refine every grid extremum, one row at a time.  Each result keeps
    the better of its grid value and its refined value.
    """
    direction = "lower" if want_max else "upper"
    sign = -1.0 if want_max else 1.0
    results: list = []
    live, prefixes, tops = [], [], []
    for x in xs:
        try:
            w, top, stop = _certified_prefix(spec, float(x), opts.rel_tol)
        except GapSeriesError as exc:
            results.append(exc)
            continue
        total = float(np.sum(w))
        if stop == 0:
            results.append(ModulusResult(float(w[0]), 0.0, direction, False, top.log_value, top.index, total))
        else:
            results.append(None)
            live.append(len(results) - 1)
            prefixes.append(w)
            tops.append((top, total))
    if not live:
        return results

    n = max(w.size for w in prefixes)
    weights = np.zeros((len(live), n))
    for k, w in enumerate(prefixes):
        weights[k, : w.size] = w
    lam, ph = spec.exponents.values[:n], spec.phases[:n]
    periodic = spec.exponents.is_integral()
    span = TWO_PI if periodic else 10.0 * TWO_PI / spec.exponents.min_gap
    ys = np.linspace(0.0, span, opts.grid_points, endpoint=not periodic)
    j, grid_best = _grid_extrema(weights, lam, ph, ys, sign)

    y_ref, f_ref = np.empty(len(live)), np.empty(len(live))
    lanes = max(1, _BLOCK_ENTRIES // n)
    for k0 in range(0, len(live), lanes):
        part = slice(k0, k0 + lanes)
        y_ref[part], f_ref[part] = _zoom(weights[part], lam, ph, ys[j[part]], ys[1] - ys[0], sign)

    refined = f_ref < grid_best
    y_best = np.where(refined, y_ref % span if periodic else y_ref, ys[j])
    v_best = sign * np.where(refined, f_ref, grid_best)
    for k, slot in enumerate(live):
        top, total = tops[k]
        results[slot] = ModulusResult(
            float(v_best[k]), float(y_best[k]), direction, not periodic, top.log_value, top.index, total)
    return results


def _modulus(spec: SeriesSpec, x, opts: PhaseSearchOpts | None, want_max: bool):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    results = _phase_extrema(spec, xs, opts or PhaseSearchOpts(), want_max)
    if np.ndim(x):
        return results
    if isinstance(results[0], GapSeriesError):
        raise results[0]
    return results[0]


def max_modulus(
    spec: SeriesSpec, x: float | np.ndarray | list[float], opts: PhaseSearchOpts | None = None
) -> ModulusResult | list[ModulusResult | GapSeriesError]:
    """sup_y |F(x+iy)| / mu(x,F), certified from below.

    For integral exponents the search covers one exact period [0, 2*pi);
    otherwise the window [0, 20*pi / min_gap] is scanned and the result is
    flagged window-approximate (the true supremum over all of R is not finitely
    computable for incommensurable exponents).  The refinement may move
    ``y_at`` up to 16/15 of a grid step outside the window; the value is
    |F| there, so it still bounds the supremum over all of R from below.

    ``x`` may also be a 1-d array of abscissas.  The result is then a list
    holding, per abscissa, its ModulusResult or the GapSeriesError raised
    there, and all abscissas share one phase basis (see _phase_extrema).
    """
    return _modulus(spec, x, opts, want_max=True)


def min_modulus(
    spec: SeriesSpec, x: float | np.ndarray | list[float], opts: PhaseSearchOpts | None = None
) -> ModulusResult | list[ModulusResult | GapSeriesError]:
    """inf_y |F(x+iy)| / mu(x,F), certified from above; see max_modulus."""
    return _modulus(spec, x, opts, want_max=False)

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gapseries import (
    ExponentSequence,
    GapSeriesError,
    HorizonExceeded,
    ModulusResult,
    InvalidTolerance,
    PhaseSearchOpts,
    SeriesSpec,
    central_index_table,
    evaluate,
    geometric_exponents,
    log_maximal_term,
    max_modulus,
    min_modulus,
    power_exponents,
    sum_modulus,
    term_value,
)
from gapseries.series import PHASE_TOL
from conftest import brute_force_max, random_spec, random_entire_spec

TWO_PI = 2 * math.pi


def single_term(log_a0=0.0):
    return SeriesSpec(ExponentSequence([0.0]), np.array([log_a0]))


class TestExponentSequence:
    def test_dirichlet_needs_zero_start(self):
        with pytest.raises(ValueError):
            ExponentSequence([1.0, 2.0], "dirichlet")

    def test_gap_power_needs_integers(self):
        with pytest.raises(ValueError):
            ExponentSequence([0.0, 1.5], "gap-power")

    def test_general_kind_allows_both(self):
        seq = ExponentSequence([1.0, math.e, math.e**2], "general")
        assert len(seq) == 3

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            ExponentSequence([0.0, 1.0, 1.0])

    def test_factories(self):
        g = geometric_exponents(2.0, 5)
        assert list(g.values) == [0.0, 2.0, 4.0, 8.0, 16.0]
        p = power_exponents(1.0, 1.0, 4)
        assert list(p.values) == [0.0, 1.0, 2.0, 3.0]
        assert p.is_integral()


class TestSpec:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SeriesSpec(ExponentSequence([0.0, 1.0]), np.zeros(3))

    def test_infinite_log_modulus_rejected(self):
        with pytest.raises(ValueError):
            SeriesSpec(ExponentSequence([0.0, 1.0]), np.array([0.0, -np.inf]))

    @pytest.mark.parametrize("phase", [np.nan, np.inf])
    def test_nonfinite_phase_rejected(self, phase):
        with pytest.raises(ValueError, match="phases must be finite"):
            SeriesSpec(ExponentSequence([0.0, 1.0]), np.zeros(2), np.array([phase, 0.0]))

    def test_phases_wrapped(self):
        spec = SeriesSpec(ExponentSequence([0.0]), np.zeros(1), np.array([3 * TWO_PI + 1.0]))
        assert abs(spec.phases[0] - 1.0) < 1e-12

    def test_entirety_proxy(self):
        lam = np.arange(10.0)
        good = SeriesSpec(ExponentSequence(lam), -(lam**2))
        assert good.entirety_proxy_ok()
        flat = SeriesSpec(ExponentSequence(lam), np.zeros(10))
        assert not flat.entirety_proxy_ok()


class TestLogMaximalTerm:
    def test_single_term(self):
        assert log_maximal_term(single_term(), 7.0) == (0.0, 0)

    def test_three_terms_oracle(self):
        # oracle: direct scan of (0, -3+4, -9+8) = (0, 1, -1)
        spec = SeriesSpec(ExponentSequence([0.0, 2.0, 4.0]), np.array([0.0, -3.0, -9.0]))
        assert brute_force_max(spec, 2.0) == (1.0, 1)
        assert log_maximal_term(spec, 2.0) == (1.0, 1)

    def test_tie_goes_to_largest_index(self):
        spec = SeriesSpec(ExponentSequence([0.0, 1.0]), np.zeros(2))
        assert log_maximal_term(spec, 0.0) == (0.0, 1)

    def test_guard_trips_on_truncated_argmax_at_end(self):
        lam = np.arange(60.0)
        spec = SeriesSpec(ExponentSequence(lam), np.zeros(60))
        with pytest.raises(HorizonExceeded):
            log_maximal_term(spec, 1.0)

    def test_guard_skipped_for_complete_spec(self):
        lam = np.arange(60.0)
        spec = SeriesSpec(ExponentSequence(lam), np.zeros(60), complete=True)
        assert log_maximal_term(spec, 1.0).index == 59

    def test_nonfinite_x_rejected(self):
        with pytest.raises(ValueError):
            log_maximal_term(single_term(), math.inf)

    def test_overflowing_maximum_raises_without_warning(self):
        # x * 1000 overflows float64: the maximum was inf and every envelope nan
        spec = SeriesSpec(ExponentSequence([0.0, 1.0, 1000.0]), np.array([0.0, -1.0, -3.0]), complete=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HorizonExceeded):
                log_maximal_term(spec, 1e306)
            with pytest.raises(HorizonExceeded):
                sum_modulus(spec, 1e306)
            # far left the overflowing terms are -inf and scale to zero
            assert log_maximal_term(spec, -1e306) == (0.0, 0)
            assert sum_modulus(spec, -1e306) == 1.0


class TestCentralIndexTable:
    def test_single_term_degenerate(self):
        t = central_index_table(single_term())
        assert t.jump_points.size == 0
        assert t.index_at(-5.0) == 0 and t.index_at(123.0) == 0

    def test_two_jump_example(self):
        spec = SeriesSpec(ExponentSequence([0.0, 1.0, 2.0]), np.array([0.0, 0.0, -4.0]))
        t = central_index_table(spec)
        assert np.allclose(t.jump_points, [0.0, 4.0])
        assert list(t.segment_indices) == [0, 1, 2]
        assert t.index_at(0.0) == 1  # boundary: new index applies

    def test_collinear_middle_dropped(self):
        spec = SeriesSpec(ExponentSequence([0.0, 1.0, 2.0]), np.array([0.0, -1.0, -2.0]))
        t = central_index_table(spec)
        assert list(t.segment_indices) == [0, 2]
        assert t.index_at(1.0) == 2
        assert brute_force_max(spec, 1.0)[1] == 2

    def test_matches_brute_force_on_random_specs(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            t = central_index_table(spec)
            lo = (t.jump_points[0] - 5.0) if t.jump_points.size else -5.0
            hi = (t.jump_points[-1] + 5.0) if t.jump_points.size else 5.0
            xs = rng.uniform(lo, hi, 200)
            got = t.index_at(xs)
            want = np.array([brute_force_max(spec, float(x))[1] for x in xs])
            assert np.array_equal(got, want)

    def test_index_nondecreasing(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            t = central_index_table(spec)
            xs = np.sort(rng.uniform(-10, 10, 100))
            idx = t.index_at(xs)
            assert np.all(np.diff(idx) >= 0)

    def test_segment_span(self):
        spec = SeriesSpec(ExponentSequence([0.0, 1.0, 2.0]), np.array([0.0, 0.0, -4.0]))
        t = central_index_table(spec)
        assert t.segment_span(0) == (-math.inf, 0.0)
        assert t.segment_span(1) == (0.0, 4.0)
        assert t.segment_span(2) == (4.0, math.inf)


class TestEvaluate:
    def test_single_term_any_point(self):
        spec = SeriesSpec(ExponentSequence([0.0]), np.zeros(1), np.array([0.7]))
        res = evaluate(spec, 3.0, 11.0)
        assert abs(complex(res.ratio_re, res.ratio_im)) == pytest.approx(1.0, abs=1e-14)
        assert res.ratio_re == pytest.approx(math.cos(0.7), abs=1e-14)

    def test_flat_three_term_sum(self):
        spec = SeriesSpec(ExponentSequence([0.0, 2.0, 4.0]), np.zeros(3), complete=True)
        res = evaluate(spec, 0.0, 0.0)
        assert res.ratio_re == pytest.approx(3.0, abs=1e-12)
        assert res.ratio_im == pytest.approx(0.0, abs=1e-12)

    def test_invalid_tolerance(self):
        with pytest.raises(InvalidTolerance):
            evaluate(single_term(), 0.0, 0.0, rel_tol=1.5)

    def test_uncertifiable_truncation_raises(self):
        # flat truncated prefix: the tail bound can never fall below tol
        spec = SeriesSpec(ExponentSequence(np.arange(30.0)), np.zeros(30))
        with pytest.raises(HorizonExceeded):
            evaluate(spec, -1.0, 0.0)

    def test_triangle_inequality(self, rng):
        for _ in range(25):
            spec = random_entire_spec(rng, 20)
            x = float(rng.uniform(0.0, 3.0))
            y = float(rng.uniform(0.0, 7.0))
            res = evaluate(spec, x, y, rel_tol=1e-6)
            assert abs(complex(res.ratio_re, res.ratio_im)) <= sum_modulus(spec, x, 1e-6) + 1e-9

    def test_periodic_in_y_for_integral_exponents(self, rng):
        lam = np.array([0.0, 1.0, 3.0, 7.0, 12.0])
        spec = SeriesSpec(
            ExponentSequence(lam, "gap-power"),
            -0.3 * lam**2,
            rng.uniform(0, TWO_PI, 5),
            complete=True,
        )
        for x in (0.5, 2.0):
            for y in (0.0, 1.3, 4.0):
                a = evaluate(spec, x, y, rel_tol=1e-10)
                b = evaluate(spec, x, y + TWO_PI, rel_tol=1e-10)
                assert abs(complex(a.ratio_re, a.ratio_im) - complex(b.ratio_re, b.ratio_im)) < 1e-12

    def test_tail_self_consistency_on_doubled_horizon(self, rng):
        # doubling the stored horizon moves the value by less than rel_tol
        rel_tol = 1e-6
        for _ in range(50):
            full = random_entire_spec(rng, 40)
            half = SeriesSpec(
                ExponentSequence(full.exponents.values[:20]),
                full.log_moduli[:20],
                full.phases[:20],
            )
            x = float(rng.uniform(0.0, 2.0))
            y = float(rng.uniform(0.0, 5.0))
            try:
                a = evaluate(half, x, y, rel_tol)
            except HorizonExceeded:
                continue
            b = evaluate(full, x, y, rel_tol)
            # log_mu agrees (same argmax region); compare scaled values
            assert a.log_mu == b.log_mu
            diff = abs(complex(a.ratio_re, a.ratio_im) - complex(b.ratio_re, b.ratio_im))
            assert diff < 2 * rel_tol


class TestModuli:
    def test_single_term_extrema(self):
        spec = single_term()
        assert max_modulus(spec, 5.0).value == 1.0
        assert min_modulus(spec, 5.0).value == 1.0
        assert sum_modulus(spec, 5.0) == 1.0

    def test_two_term_closed_forms(self):
        # f(z) = 1 + z at r = 1: M = 2 at phase 0, m = 0 at phase pi
        spec = SeriesSpec(ExponentSequence([0, 1], "gap-power"), np.zeros(2), complete=True)
        mx = max_modulus(spec, 0.0)
        mn = min_modulus(spec, 0.0)
        assert mx.value == pytest.approx(2.0, abs=1e-12)
        assert mx.direction == "lower" and not mx.window_approximate
        assert mn.value == pytest.approx(0.0, abs=1e-9)
        assert mn.direction == "upper"

    def test_flat_three_term_sum_modulus(self):
        spec = SeriesSpec(ExponentSequence([0.0, 2.0, 4.0]), np.zeros(3), complete=True)
        assert sum_modulus(spec, 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_envelope_ordering(self, rng):
        opts = PhaseSearchOpts(grid_points=512, rel_tol=1e-8)
        for _ in range(15):
            spec = random_entire_spec(rng, 30)
            x = float(rng.uniform(0.0, 2.0))
            mn = min_modulus(spec, x, opts).value
            mx = max_modulus(spec, x, opts).value
            s = sum_modulus(spec, x, 1e-8)
            assert mn <= mx + 1e-12
            assert mx <= s + 1e-12
            assert s >= 1.0 - 1e-12

    def test_max_dominates_sampled_values(self, rng):
        opts = PhaseSearchOpts(grid_points=2048, rel_tol=1e-8)
        spec = random_entire_spec(rng, 25)
        x = 1.0
        mx = max_modulus(spec, x, opts).value
        for y in rng.uniform(0.0, TWO_PI, 50):
            res = evaluate(spec, x, float(y), rel_tol=1e-8)
            assert abs(complex(res.ratio_re, res.ratio_im)) <= mx + 1e-9

    def test_window_flag_for_incommensurable_exponents(self):
        lam = np.array([0.0, 1.0, math.sqrt(2.0) + 1.0])
        spec = SeriesSpec(ExponentSequence(lam), np.array([0.0, -1.0, -3.0]), complete=True)
        res = max_modulus(spec, 0.5, PhaseSearchOpts(grid_points=1024))
        assert res.window_approximate

    @pytest.mark.parametrize("kwargs", [{"grid_points": 1}, {"grid_points": 0}])
    def test_search_options_out_of_range_raise(self, kwargs):
        # the phase search needs a grid step ys[1] - ys[0]
        with pytest.raises(InvalidTolerance):
            PhaseSearchOpts(**kwargs)


EPS = np.finfo(float).eps
#: a coarse grid keeps the property tests fast; the properties hold on any grid
KERNEL_OPTS = PhaseSearchOpts(grid_points=256)
#: derandomized: the same examples on every run, so a rounding-level bound
#: cannot turn into a flaky failure
KERNEL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _floats(lo, hi, size):
    return st.lists(st.floats(lo, hi, exclude_max=True), min_size=size, max_size=size).map(np.array)


@st.composite
def gap_polynomials(draw):
    """Complete gap polynomial (up to 7 terms, degree < 200) and abscissas near |z| = 1."""
    k = draw(st.integers(2, 7))
    lam = [0] + sorted(draw(st.lists(st.integers(1, 199), min_size=k - 1, max_size=k - 1, unique=True)))
    spec = SeriesSpec(
        ExponentSequence(np.array(lam, dtype=float), "gap-power"),
        draw(_floats(-2.0, 0.0, k)),
        draw(_floats(0.0, TWO_PI, k)),
        complete=True,
    )
    return spec, np.array(sorted(draw(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=6))))


@st.composite
def truncated_geometric(draw):
    """Truncated base-2 geometric prefix with random phases, the shape the
    sweep benchmark uses; large abscissas trip the horizon guard."""
    n = draw(st.integers(12, 31))
    lam = geometric_exponents(2.0, n).values
    log_moduli = -lam * (draw(st.floats(0.08, 0.2)) * lam + 1.0) + draw(_floats(0.0, 1.0, n))
    spec = SeriesSpec(ExponentSequence(lam), log_moduli, draw(_floats(0.0, TWO_PI, n)))
    return spec, np.array(sorted(draw(st.lists(st.floats(0.5, 300.0), min_size=1, max_size=6))))


kernel_cases = st.one_of(gap_polynomials(), truncated_geometric())


def _complete_gap(lam, log_moduli, phases, x):
    """A gap_polynomials case: the complete polynomial and one abscissa."""
    spec = SeriesSpec(ExponentSequence(np.array(lam, dtype=float), "gap-power"),
                      np.array(log_moduli, dtype=float), np.array(phases, dtype=float), complete=True)
    return spec, np.array([x])


def _zoomed_argmax(f, lo, hi, xatol=1e-14):
    """argmax of a vectorised f on [lo, hi]: 33-point scans, each over the
    two sample steps around the previous best, until a step is below xatol."""
    while True:
        ys = np.linspace(lo, hi, 33)
        k = int(np.argmax(f(ys)))
        if ys[1] - ys[0] <= xatol:
            return ys[k]
        lo, hi = ys[max(k - 1, 0)], ys[min(k + 1, 32)]


def _grid_profile(spec, x, log_mu):
    """|F(x+iy)| / mu on the search grid, summed directly over every stored
    term; on these specs the terms past the certified prefix lie far below
    an ulp of the sum."""
    lam = spec.exponents.values
    if spec.exponents.is_integral():
        ys = np.linspace(0.0, TWO_PI, KERNEL_OPTS.grid_points, endpoint=False)
    else:
        ys = np.linspace(0.0, 10.0 * TWO_PI / spec.exponents.min_gap, KERNEL_OPTS.grid_points)
    w = np.exp(spec.log_moduli + x * lam - log_mu)
    return np.array([abs(np.sum(w * np.exp(1j * (spec.phases + y * lam)))) for y in ys])


class TestEnvelopeKernel:
    """max_modulus/min_modulus over an x-grid: one shared phase basis."""

    @KERNEL_SETTINGS
    @given(kernel_cases)
    # a zoom scan summed across rows rounds differently for two rows than for
    # one, and that rounding moves this minimum's refined abscissa by 9e-11
    @example((_complete_gap([0, 1, 95, 136], [-2, -1, -1, -1], [0] * 4, 0.0)[0], np.zeros(2)))
    def test_grid_call_matches_point_calls(self, case):
        spec, xs = case
        for fn in (max_modulus, min_modulus):
            batch = fn(spec, xs, KERNEL_OPTS)
            assert len(batch) == xs.size
            for x, got in zip(xs, batch):
                try:
                    want = fn(spec, float(x), KERNEL_OPTS)
                except GapSeriesError as exc:
                    assert type(got) is type(exc)
                    continue
                total = sum_modulus(spec, float(x), KERNEL_OPTS.rel_tol)
                # the row fields come from the certified prefix, bit for bit
                assert (got.log_mu, got.nu, got.sum_scaled) == (*log_maximal_term(spec, float(x)), total)
                # the grid profile comes from a matrix product whose summation
                # order depends on the number of abscissas
                assert abs(got.value - want.value) <= (len(spec) + 4) * EPS * total
                assert (got.direction, got.window_approximate, got.log_mu) == (
                    want.direction, want.window_approximate, want.log_mu)

    @KERNEL_SETTINGS
    @given(kernel_cases)
    def test_value_reproduced_by_evaluate(self, case):
        spec, xs = case
        for fn in (max_modulus, min_modulus):
            for x, res in zip(xs, fn(spec, xs, KERNEL_OPTS)):
                if isinstance(res, GapSeriesError):
                    continue
                ulp = math.ulp(sum_modulus(spec, float(x), KERNEL_OPTS.rel_tol))
                # a refined abscissa outside [0, 2*pi) is reported modulo the
                # period; evaluating at the wrapped value rounds the phases
                # differently, so the unwrapped abscissa is tried as well
                shifts = (0.0, TWO_PI, -TWO_PI) if spec.exponents.is_integral() else (0.0,)
                misses = []
                for shift in shifts:
                    e = evaluate(spec, float(x), res.y_at - shift, KERNEL_OPTS.rel_tol)
                    misses.append(abs(abs(complex(e.ratio_re, e.ratio_im)) - res.value))
                assert min(misses) <= 4 * ulp

    @KERNEL_SETTINGS
    @given(kernel_cases)
    def test_extrema_bracket_direct_grid_and_sum(self, case):
        spec, xs = case
        maxima = max_modulus(spec, xs, KERNEL_OPTS)
        minima = min_modulus(spec, xs, KERNEL_OPTS)
        for x, mx, mn in zip(xs, maxima, minima):
            if isinstance(mx, GapSeriesError):
                assert type(mn) is type(mx)
                continue
            total = sum_modulus(spec, float(x), KERNEL_OPTS.rel_tol)
            profile = _grid_profile(spec, float(x), mx.log_mu)
            slack = 4 * math.ulp(total)
            assert mn.value <= profile.min() + slack
            assert profile.max() <= mx.value + slack
            assert mn.value <= mx.value <= total * (1.0 + (len(spec) + 4) * EPS)

    @KERNEL_SETTINGS
    @given(kernel_cases)
    # two extrema within one grid step of the grid extremum: a search that
    # assumes one extremum per bracket keeps 0.043544 and 0.160781 here
    @example(_complete_gap([0, 1, 3, 116, 183], [-1, -1, -1, -1, -2], [0, 0, 0, 1, 1], 0.009765625))
    @example(_complete_gap([0, 1, 2, 152, 199], [-1] * 5, [0] * 5, 0.0))
    def test_refinement_matches_an_independent_search(self, case):
        spec, xs = case
        lam = spec.exponents.values
        span = TWO_PI if spec.exponents.is_integral() else 10.0 * TWO_PI / spec.exponents.min_gap
        step = span / 256
        for fn, sign in ((max_modulus, 1.0), (min_modulus, -1.0)):
            for x, res in zip(xs, fn(spec, xs, KERNEL_OPTS)):
                if isinstance(res, GapSeriesError):
                    continue
                w = np.exp(spec.log_moduli + float(x) * lam - res.log_mu)

                def modulus(y):
                    return abs(np.sum(w * np.exp(1j * (spec.phases + np.asarray(y)[..., None] * lam)), axis=-1))

                def exact_modulus(y):
                    with mpmath.workdps(40):
                        y = mpmath.mpf(float(y))
                        terms = zip(w.tolist(), spec.phases.tolist(), lam.tolist())
                        return float(abs(mpmath.fsum(wk * mpmath.expj(pk + y * lk) for wk, pk, lk in terms)))

                # dense scan around the reported abscissa, then zoomed scans of
                # the best sample's neighbourhood to 1e-14 in y; the float
                # values the scans pick from are biased up by rounding, so the
                # picked abscissas are evaluated in mpmath
                ys = res.y_at + np.linspace(-step / 8, step / 8, 33)
                best = ys[np.argmax(sign * modulus(ys))]
                ref = _zoomed_argmax(lambda y: sign * modulus(y), best - step / 256, best + step / 256)
                # PHASE_TOL away from the extremum, |F| is off by at most half its
                # curvature (<= sum w lam^2) times PHASE_TOL^2 at a maximum; a
                # minimum may sit at a zero of F, where only the Lipschitz
                # bound sum w lam holds
                tol = PHASE_TOL
                off = 0.5 * np.sum(w * lam**2) * tol**2 if sign > 0 else np.sum(w * lam) * tol
                # res.value is |F| evaluated in float64 at some y that the zoom
                # scans reach from the search window: they move at most 16/15 of
                # a grid step past it, so |y| <= span + 16/15 step.  The phase
                # ph_k + y*lam_k rounds twice (product and sum, half an ulp
                # each), which moves it by at most eps * (|ph_k| + |y| lam_k)
                # and term k by w_k times that.  The complex exponential, the
                # product with w_k, the n - 1 additions (a matrix product on the
                # grid path) and the final modulus add at most (n + 4) eps sum(w).
                reach = span + 16 / 15 * step
                phase = EPS * np.sum(w * (np.abs(spec.phases) + reach * lam))
                summation = (lam.size + 4) * EPS * np.sum(w)
                found = max(sign * exact_modulus(ref), sign * exact_modulus(best))
                assert found - sign * res.value <= off + phase + summation

    @KERNEL_SETTINGS
    @given(truncated_geometric(), st.integers(0, 6))
    def test_horizon_exceeded_stays_in_its_slot(self, case, position):
        spec, xs = case
        # at x = 1e20 the last stored term is maximal: the guard trips
        bad = np.insert(xs, min(position, xs.size), 1e20)
        with pytest.raises(HorizonExceeded):
            max_modulus(spec, 1e20, KERNEL_OPTS)
        for fn in (max_modulus, min_modulus):
            with_bad = fn(spec, bad, KERNEL_OPTS)
            assert isinstance(with_bad.pop(min(position, xs.size)), HorizonExceeded)
            plain = fn(spec, xs, KERNEL_OPTS)
            # exceptions compare by identity: compare their types
            assert [r if isinstance(r, ModulusResult) else type(r) for r in with_bad] == [
                r if isinstance(r, ModulusResult) else type(r) for r in plain]

    @pytest.mark.parametrize("n, abscissas, bound", [
        # one unblocked 33-point scan basis of 200,000 terms alone takes 106 MB
        (200_000, 1, 48e6),
        # 500 abscissas on 1,000 terms: the prefixes and the weight matrix
        # take 8 MB, and zooming every lane at once would add 24 MB
        (1_000, 500, 16e6),
    ])
    def test_long_prefix_memory_stays_bounded(self, n, abscissas, bound):
        rng = np.random.default_rng(0)
        spec = SeriesSpec(
            ExponentSequence(np.arange(n, dtype=float), "gap-power"),
            -rng.uniform(0.0, 1.0, n),
            rng.uniform(0.0, TWO_PI, n),
            complete=True,
        )
        tracemalloc.start()
        try:
            max_modulus(spec, -np.linspace(0.0, 1e-3, abscissas), PhaseSearchOpts(grid_points=16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_scalar_call_returns_one_result(self):
        spec = SeriesSpec(ExponentSequence([0, 1], "gap-power"), np.zeros(2), complete=True)
        res = max_modulus(spec, np.float64(0.0))
        assert isinstance(res, ModulusResult)
        assert max_modulus(spec, [0.0])[0] == res


def test_term_value_wraps_phase():
    spec = SeriesSpec(ExponentSequence([0.0, 2.0]), np.array([0.0, -1.0]), np.array([0.5, 1.0]))
    tv = term_value(spec, 1, 3.0, 10.0)
    assert tv.log_magnitude == pytest.approx(-1.0 + 6.0)
    assert tv.phase == pytest.approx((1.0 + 20.0) % TWO_PI)

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapseries import (
    ExponentSequence,
    HorizonExceeded,
    MonotoneViolation,
    OutsideExceptionalSetWarning,
    SeriesSpec,
    TailNotCertified,
    build_damping_gadget,
    build_witness_series,
    central_index_table,
    covered_transitions,
    criterion_gap,
    criterion_inverse_shifted,
    criterion_scaled_inverse,
    damped_series,
    domination_margin,
    geometric_exponents,
    h_measure,
    identity,
    leading_term_residual,
    log_shifted,
    power,
    power_exponents,
    residual_threshold,
    transition_exceptional_set,
    transition_measure_bound,
    transition_zones,
    witness_exceptional_set,
    witness_measure_partials,
    witness_ratio,
)
from conftest import brute_force_max

GEOM40 = geometric_exponents(2.0, 40)
GEOM31 = geometric_exponents(2.0, 31)


def quadratic_spec(exponents, shift=-1.0):
    lam = exponents.values
    return SeriesSpec(exponents, -lam**2 / 8.0 + shift * lam)


class TestDampingGadget:
    def test_drift_starts_at_zero(self):
        g = build_damping_gadget(GEOM40, 1.0, 10)
        assert g.drift[0] == 0.0
        assert np.all(g.drift >= 0.0)

    def test_first_drift_against_direct_inner_sums(self):
        # oracle: brute-force inner sums over the stored horizon; the
        # infinite geometric value is 5 with remainder below 1e-9
        lam = GEOM40.values
        gaps = np.diff(lam)
        t0 = sum(1.0 / gaps[m] + 1.0 / gaps[m + 1] for m in range(len(gaps) - 1))
        g = build_damping_gadget(GEOM40, 1.0, 10)
        assert g.drift[1] == pytest.approx(gaps[0] * t0, rel=1e-15)
        assert g.drift[1] == pytest.approx(5.0, abs=1e-9)

    def test_shift_steps_telescope(self):
        for q in (0.5, 1.0, 2.0):
            g = build_damping_gadget(GEOM40, q, 30)
            gaps = GEOM40.gaps
            for k in range(0, 30):
                want = 2.0 * q / gaps[k]
                assert g.shifts[k + 1] - g.shifts[k] == pytest.approx(want, abs=g.inner_tail_error + 1e-12)

    def test_unit_gaps_not_certified(self):
        with pytest.raises(TailNotCertified):
            build_damping_gadget(power_exponents(1.0, 1.0, 50), 1.0, 30)

    def test_tight_tail_tolerance_not_certified(self):
        with pytest.raises(TailNotCertified):
            build_damping_gadget(geometric_exponents(2.0, 12), 1.0, 10, tail_tol=1e-15)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            build_damping_gadget(GEOM40, 1.0, 40)
        with pytest.raises(ValueError):
            build_damping_gadget(ExponentSequence([0.0, 1.0]), 1.0, 1)


class TestDominationMargin:
    def test_zero_on_diagonal(self):
        g = build_damping_gadget(GEOM40, 1.0, 30)
        for k in (1, 5, 17, 30):
            assert domination_margin(g, k, k) == 0.0

    def test_all_pairs_nonnegative_up_to_rounding(self):
        for q in (0.5, 1.0, 2.0):
            g = build_damping_gadget(GEOM40, q, 39)
            for n in range(0, 40):
                for k in range(1, 40):
                    m = domination_margin(g, n, k)
                    assert m >= -1e-9 * (abs(n - k) + 1)

    def test_margin_grows_at_least_linearly(self):
        g = build_damping_gadget(GEOM40, 1.0, 30)
        for k in (2, 5, 10):
            margins = [domination_margin(g, k + d, k) for d in range(0, 12)]
            diffs = np.diff(margins)
            # first step is the tight one (exactly zero); later steps
            # exceed q per unit of index distance
            assert np.all(diffs[1:] >= g.q)

    def test_index_bounds(self):
        g = build_damping_gadget(GEOM40, 1.0, 10)
        with pytest.raises(ValueError):
            domination_margin(g, 0, 0)
        with pytest.raises(ValueError):
            domination_margin(g, 11, 1)

    def test_out_of_range_entry_in_an_array(self):
        g = build_damping_gadget(GEOM40, 1.0, 10)
        n = np.arange(0, 11)
        for bad_n, bad_k in ((np.append(n, 11), 1), (n, np.append(np.ones(10, int), 0)), (3, [1, 2, 11])):
            with pytest.raises(ValueError):
                domination_margin(g, bad_n, bad_k)

    def test_scalar_call_returns_float(self):
        g = build_damping_gadget(GEOM40, 1.0, 10)
        for n, k in ((4, 2), (np.int64(4), np.int64(2))):
            m = domination_margin(g, n, k)
            assert isinstance(m, float) and np.ndim(m) == 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        base=st.floats(1.3, 4.0),
        q=st.floats(0.05, 5.0),
        n_terms=st.integers(2, 60),
    )
    def test_array_grid_matches_scalar_formula_bit_for_bit(self, base, q, n_terms):
        g = build_damping_gadget(geometric_exponents(base, n_terms + 90), q, n_terms)
        lam = g.exponents.values
        n, k = np.meshgrid(np.arange(0, n_terms + 1), np.arange(1, n_terms + 1), indexing="ij")
        grid = domination_margin(g, n, k)
        assert grid.shape == n.shape
        # the scalar formula as written before margins became arrays
        loop = np.array(
            [
                [
                    -g.q * abs(i - j) - (g.log_damping[i] - g.log_damping[j] + g.shifts[j] * (lam[i] - lam[j]))
                    for j in range(1, n_terms + 1)
                ]
                for i in range(0, n_terms + 1)
            ]
        )
        scalar = np.array(
            [[domination_margin(g, i, j) for j in range(1, n_terms + 1)] for i in range(0, n_terms + 1)]
        )
        # compare bit patterns, so -0.0 and 0.0 count as different
        assert np.array_equal(grid.view(np.int64), loop.view(np.int64))
        assert np.array_equal(grid.view(np.int64), scalar.view(np.int64))


class TestDampedSeries:
    def test_vanishing_q_is_identity(self):
        spec = quadratic_spec(GEOM31)
        g = build_damping_gadget(GEOM31, 1e-12, 30)
        out = damped_series(spec, g)
        assert np.max(np.abs(out.log_moduli - spec.log_moduli)) < 1e-10

    def test_first_term_unchanged(self):
        spec = quadratic_spec(GEOM31)
        g = build_damping_gadget(GEOM31, 1.0, 30)
        assert damped_series(spec, g).log_moduli[0] == spec.log_moduli[0]

    def test_jump_points_shift_right(self):
        spec = quadratic_spec(GEOM31)
        g = build_damping_gadget(GEOM31, 1.0, 30)
        before = central_index_table(spec)
        after = central_index_table(damped_series(spec, g))
        # compare jumps between segments present in both tables
        jb = {
            (int(before.segment_indices[i]), int(before.segment_indices[i + 1])): before.jump_points[i]
            for i in range(before.jump_points.size)
        }
        ja = {
            (int(after.segment_indices[i]), int(after.segment_indices[i + 1])): after.jump_points[i]
            for i in range(after.jump_points.size)
        }
        common = set(jb) & set(ja)
        assert common
        for key in common:
            assert ja[key] >= jb[key] - 1e-12

    def test_spec_shorter_than_gadget_rejected(self):
        g = build_damping_gadget(GEOM40, 1.0, 35)
        with pytest.raises(ValueError):
            damped_series(quadratic_spec(GEOM31), g)


class TestTransitionStructure:
    def setup_method(self):
        self.spec = quadratic_spec(GEOM31)
        self.gadget = build_damping_gadget(GEOM31, 1.0, 30)

    def test_central_index_on_zones(self):
        zones = transition_zones(self.spec, self.gadget, depth=24)
        table = central_index_table(damped_series(self.spec, self.gadget))
        seg = table.segment_indices
        jumps = table.jump_points
        for i in range(1, seg.size - 1):
            k = int(seg[i])
            if k > 24:
                break
            a = jumps[i - 1] + self.gadget.shifts[k]
            b = jumps[i] + self.gadget.shifts[k]
            for t in (0.1, 0.5, 0.9):
                x = a + t * (b - a)
                assert brute_force_max(self.spec, x)[1] == k
                assert zones.contains(x)

    def test_exceptional_set_depth_zero_empty(self):
        assert not transition_exceptional_set(self.spec, self.gadget, 0)

    def test_identity_measure_telescopes(self):
        e1 = transition_exceptional_set(self.spec, self.gadget, 25)
        covered = covered_transitions(self.spec, self.gadget, 25)
        gaps = GEOM31.gaps
        want = sum(2.0 * self.gadget.q / gaps[j] for j in covered)
        assert e1.total_length == pytest.approx(want, rel=1e-12)

    def test_negative_part_clipped(self):
        # +lambda shift pushes the first transition interval below 0
        spec = quadratic_spec(GEOM31, shift=+1.0)
        e1 = transition_exceptional_set(spec, self.gadget, 25)
        assert all(a >= 0.0 for a, _ in e1)

    def test_measure_bound_identity_density(self):
        depth = 20
        bound = transition_measure_bound(self.gadget, identity(), lambda t: t, depth)
        want = 2.0 * self.gadget.q * criterion_gap(GEOM31, depth).total
        assert bound == pytest.approx(want, rel=1e-15)

    def test_measure_bound_square_density_direct(self):
        depth = 20
        lam = GEOM31.values
        gaps = GEOM31.gaps
        q = self.gadget.q
        want = sum(
            (2 * q / gaps[k]) * (2.0 * (lam[k] + 2 * q / gaps[k])) for k in range(depth)
        )
        bound = transition_measure_bound(self.gadget, power(2.0), lambda t: t, depth)
        assert bound == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("h", [identity(), power(2.0), power(0.5), log_shifted()], ids=lambda h: h.name)
    def test_measure_bound_is_the_inverse_shifted_criterion(self, q, h):
        gadget = build_damping_gadget(GEOM31, q, 30)
        phi = lambda t: 1.0 + math.sqrt(t)
        depth = 30
        bound = transition_measure_bound(gadget, h, phi, depth)
        assert bound == 2.0 * q * criterion_inverse_shifted(GEOM31, h, phi, 2.0 * q, depth).total
        # the loop the bound was summed by before, as the reference
        lam, gaps = GEOM31.values, GEOM31.gaps
        want = 0.0
        for k in range(depth):
            step = 2.0 * q / gaps[k]
            want += step * h.derivative(phi(lam[k]) + step)
        assert abs(bound - want) <= depth * np.finfo(float).eps * abs(want)

    def test_measure_dominated_by_bound(self):
        e1 = transition_exceptional_set(self.spec, self.gadget, 25)
        for h in (identity(), power(2.0)):
            measured = h_measure(h, e1)
            bound = transition_measure_bound(self.gadget, h, lambda t: t, 25)
            assert measured <= bound + 1e-8

    def test_depth_beyond_table_raises(self):
        with pytest.raises(HorizonExceeded):
            transition_exceptional_set(self.spec, self.gadget, 31)


class TestLeadingTermResidual:
    def test_threshold_closed_form(self):
        assert residual_threshold(1.0) == pytest.approx(1.1639534137386528, abs=1e-14)

    def test_single_term_residual_zero(self):
        spec = SeriesSpec(ExponentSequence([0.0]), np.zeros(1), np.array([1.1]))
        assert leading_term_residual(spec, 4.0, [0.0, 1.0, 2.0]) == pytest.approx(0.0, abs=1e-15)

    def test_bounded_outside_transition_set(self):
        spec = quadratic_spec(GEOM31)
        gadget = build_damping_gadget(GEOM31, 1.0, 30)
        table = central_index_table(damped_series(spec, gadget))
        seg, jumps = table.segment_indices, table.jump_points
        ys = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        cap = residual_threshold(1.0)
        for i in range(2, min(seg.size - 1, 20)):
            k = int(seg[i])
            a = jumps[i - 1] + gadget.shifts[k]
            b = jumps[i] + gadget.shifts[k]
            x = 0.5 * (a + b)
            assert leading_term_residual(spec, x, ys, rel_tol=1e-9) <= cap + 1e-6


class TestWitnessSeries:
    def test_dense_hand_recursion(self):
        # lambda_n = n, phi1 = id, b = 1: steps 2, 1, 1, ...; switch
        # points 1, 1, 2, 3, 4, 5 by hand
        ws = build_witness_series(power_exponents(1.0, 1.0, 12), lambda t: t, 1.0, 10)
        assert ws.switch_points[1] == 1.0 and ws.switch_points[2] == 1.0
        assert list(ws.switch_points[3:8]) == [2.0, 3.0, 4.0, 5.0, 6.0]
        assert ws.increments[1] == 2.0
        assert np.all(ws.increments[2:9] == 1.0)
        assert ws.spec.log_moduli[0] == 0.0

    def test_switch_point_identity(self):
        ws = build_witness_series(GEOM31, lambda t: t, 1.0, 28)
        for n in range(3, 28):
            assert ws.switch_points[n + 1] - ws.switch_points[n] == ws.increments[n - 1]

    def test_steps_dominate_reciprocal_gaps(self):
        ws = build_witness_series(GEOM31, lambda t: t, 1.0, 28)
        gaps = GEOM31.gaps
        for k in range(1, 27):
            assert ws.increments[k] >= 1.0 / gaps[k]

    def test_growth_floor(self):
        # the floor telescopes from n = 3 on; the seed pair can sit below
        # it for sparse exponents (switch_2 = 1 < lambda_1 here)
        ws = build_witness_series(GEOM31, lambda t: t, 1.0, 28)
        lam = GEOM31.values
        for n in range(3, 29):
            assert ws.switch_points[n] >= ws.b * (ws.b * lam[n - 1]) - 1e-12
        assert ws.switch_points[2] < lam[1]

    def test_growth_floor_holds_everywhere_for_dense_gaps(self):
        ws = build_witness_series(power_exponents(1.0, 1.0, 40), lambda t: t, 1.0, 30)
        lam = ws.spec.exponents.values
        for n in range(1, 31):
            assert ws.switch_points[n] >= ws.b * (ws.b * lam[n - 1]) - 1e-12

    def test_maximal_term_structure(self):
        # brute-force check of the switch-interval structure
        ws = build_witness_series(power_exponents(1.0, 1.0, 40), lambda t: t, 1.0, 38)
        for n in (3, 7, 20, 30):
            for t in (0.0, 0.3, 0.9):
                x = ws.switch_points[n] + t * (ws.switch_points[n + 1] - ws.switch_points[n])
                value, idx = brute_force_max(ws.spec, float(x))
                assert idx == n
                lam_n = ws.spec.exponents.values[n]
                assert value == pytest.approx(ws.spec.log_moduli[n] + x * lam_n, rel=1e-15)

    def test_entirety_proxy(self):
        ws = build_witness_series(GEOM31, lambda t: t, 1.0, 28)
        lam = ws.spec.exponents.values[1:]
        ratios = -ws.spec.log_moduli[1:] / lam
        assert np.all(np.diff(ratios) >= -1e-15)
        assert ratios[-1] > 10 * ratios[0]

    def test_decreasing_phi1_rejected(self):
        with pytest.raises(MonotoneViolation):
            build_witness_series(GEOM31, lambda t: -t, 1.0, 10)

    def test_needs_enough_exponents(self):
        with pytest.raises(ValueError):
            build_witness_series(ExponentSequence([0.0, 1.0, 2.0]), lambda t: t, 1.0, 3)


class TestWitnessExceptionalSet:
    def test_intervals_are_switch_points_and_reciprocal_gaps(self):
        ws = build_witness_series(GEOM31, lambda t: t, 1.0, 28)
        left, width = ws.intervals
        gaps = GEOM31.gaps
        assert left.size == width.size == ws.n_terms
        for n in range(1, ws.n_terms + 1):
            assert left[n - 1] == ws.switch_points[n]
            assert width[n - 1] == 1.0 / gaps[n - 1]

    def test_single_interval(self):
        ws = build_witness_series(power_exponents(1.0, 1.0, 12), lambda t: t, 1.0, 10)
        e = witness_exceptional_set(ws, 1)
        assert e.intervals == ((1.0, 2.0),)
        assert e.include_right

    def test_interval_lengths_and_fit(self):
        ws = build_witness_series(GEOM31, lambda t: t, 1.0, 28)
        e = witness_exceptional_set(ws, 20)
        gaps = GEOM31.gaps
        for n in range(3, 21):
            a = float(ws.switch_points[n])
            b = a + 1.0 / gaps[n - 1]
            assert (a, b) in e.intervals  # exact member, length 1/gap
            assert b < ws.switch_points[n + 1]  # fits inside the segment

    def test_interval_below_float_resolution_raises_horizon_exceeded(self):
        # at depth 28 the width 1/gap = 2^-27 is below one ulp of the switch point
        ws = build_witness_series(GEOM31, lambda t: t, 1.0, 30)
        assert witness_exceptional_set(ws, 27)
        with pytest.raises(HorizonExceeded, match="below float64 resolution"):
            witness_exceptional_set(ws, 28)

    def test_depth_validation(self):
        ws = build_witness_series(power_exponents(1.0, 1.0, 12), lambda t: t, 1.0, 10)
        with pytest.raises(ValueError):
            witness_exceptional_set(ws, 11)


class TestWitnessRatio:
    def setup_method(self):
        self.ws = build_witness_series(power_exponents(1.0, 1.0, 600), lambda t: t, 1.0, 500)

    def test_excess_at_switch_points(self):
        for n in range(1, 31):
            ratio = witness_ratio(self.ws, float(self.ws.switch_points[n]))
            assert ratio >= 2.0 - 1e-9  # neighbour term ties the maximal one

    def test_excess_inside_intervals(self):
        gaps = self.ws.spec.exponents.gaps
        floor = 1.0 + self.ws.excess
        for n in range(1, 31):
            a = float(self.ws.switch_points[n])
            for t in (0.25, 0.5, 1.0):
                ratio = witness_ratio(self.ws, a + t / gaps[n - 1])
                assert ratio >= floor - 1e-9

    def test_positivity_floor_everywhere(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OutsideExceptionalSetWarning)
            assert witness_ratio(self.ws, 37.4142) >= 1.0

    def test_warns_outside_the_set(self):
        ws = build_witness_series(GEOM31, lambda t: t, 1.0, 25)
        with pytest.warns(OutsideExceptionalSetWarning):
            witness_ratio(ws, 3.0)  # between the seed block and the next interval

    def test_warns_exactly_outside_the_closed_intervals(self):
        ws = build_witness_series(GEOM31, lambda t: t, 1.0, 25)
        gaps = GEOM31.gaps
        closed = [(ws.switch_points[n], ws.switch_points[n] + 1.0 / gaps[n - 1]) for n in range(1, 26)]
        # both ends of the first 15 intervals and their float neighbours
        points = [
            float(x) for a, b in closed[:15]
            for end in (a, b) for x in (np.nextafter(end, -math.inf), end, np.nextafter(end, math.inf))
        ]
        for x in points:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                witness_ratio(ws, x)
            warned = any(issubclass(w.category, OutsideExceptionalSetWarning) for w in caught)
            assert warned == (not any(a <= x <= b for a, b in closed)), x


class TestWitnessMeasurePartials:
    def test_identity_density_matches_gap_sums(self):
        ws = build_witness_series(GEOM31, lambda t: t, 1.0, 28)
        measure, lower = witness_measure_partials(ws, identity(), 25)
        gap_partials = criterion_gap(GEOM31, 25).partial_sums
        assert np.array_equal(lower, gap_partials)
        assert np.allclose(measure, gap_partials, rtol=1e-12)

    def test_partials_nondecreasing_and_ordered(self):
        ws = build_witness_series(power_exponents(1.0, 1.0, 300), lambda t: t, 1.0, 250)
        measure, lower = witness_measure_partials(ws, power(2.0), 200)
        assert np.all(np.diff(measure) >= 0)
        assert np.all(np.diff(lower) >= 0)
        assert np.all(measure >= lower)

    def test_lower_bound_dominates_divergent_criterion_terms(self):
        # switch points sit above the growth floor, so the interval-measure
        # lower bound dominates the divergent criterion sum term by term
        seq = power_exponents(1.0, 1.0, 300)
        ws = build_witness_series(seq, lambda t: t, 1.0, 250)
        h = power(2.0)
        _, lower = witness_measure_partials(ws, h, 200)
        lower_terms = np.diff(np.concatenate([[0.0], lower]))
        crit = criterion_scaled_inverse(seq, h, lambda t: t, 1.0, 250).terms
        # lower term n corresponds to criterion term n-1
        assert np.all(lower_terms[1:] >= crit[: lower_terms.size - 1] - 1e-12)


class TestWitnessMembership:
    @pytest.mark.parametrize("b", [1.0, 2.0])
    def test_rescaled_growth_class_constants(self, b):
        # membership constants K1 = 1/(2b), K2 = 1/(4b) for the built series
        from gapseries import ClassMembershipParams, class_membership, identity as ident

        ws = build_witness_series(power_exponents(1.0, 1.0, 300), lambda t: t, b, 250)
        params = ClassMembershipParams(
            ident(),
            np.linspace(2.0, 40.0, 40),
            K1=1.0 / (2.0 * b),
            K2=1.0 / (4.0 * b),
            x0=1.0,
        )
        assert class_membership(ws.spec, params, "D1").passed


class TestTransitionZonesDepth:
    def test_depth_caps_segment_indices(self):
        spec = quadratic_spec(GEOM31)
        gadget = build_damping_gadget(GEOM31, 1.0, 30)
        table = central_index_table(damped_series(spec, gadget))
        shallow = transition_zones(spec, gadget, depth=10)
        deep = transition_zones(spec, gadget)
        assert len(shallow) < len(deep)
        # each shallow zone is one of the deep zones
        assert set(shallow.intervals) <= set(deep.intervals)
        # zone count matches the interior segments with index <= 10
        interior = [int(k) for k in table.segment_indices[1:-1] if k <= 10]
        assert len(shallow) == len(interior)


class TestPlainInverseExploratory:
    def test_decreasing_density_terms(self):
        from gapseries import criterion_plain_inverse, log_shifted

        seq = geometric_exponents(2.0, 31)
        rep = criterion_plain_inverse(seq, log_shifted(), lambda t: t, 30)
        lam = seq.values[:30]
        want = 1.0 / ((1.0 + lam) * seq.gaps[:30])
        assert np.allclose(rep.terms, want, rtol=1e-14)
        assert rep.verdict == "converging"


class TestTelescopingInternals:
    def test_crossing_shift_step_identity(self):
        # the key per-index step: (q*crossing_j - shift_{j-1}) * gap_j == q,
        # exact by construction of the common-horizon suffix sums
        for q in (0.5, 1.0, 2.0):
            g = build_damping_gadget(GEOM40, q, 30)
            gaps = GEOM40.gaps
            for j in range(2, 31):
                step = (q * g.crossings[j] - g.shifts[j - 1]) * gaps[j - 1]
                assert step == pytest.approx(q, rel=1e-12)

    def test_margins_exact_even_with_loose_tail(self):
        # polynomial gaps defeat the geometric tail model at tight
        # tolerances, but the margins stay exact telescopes regardless
        cubes = ExponentSequence(np.arange(120.0) ** 3)
        with pytest.raises(TailNotCertified):
            build_damping_gadget(cubes, 1.0, 100, tail_tol=1e-8)
        g = build_damping_gadget(cubes, 1.0, 100, tail_tol=0.1)
        assert g.inner_tail_error > 1e-8
        for n in range(0, 101, 7):
            for k in range(1, 101, 7):
                assert domination_margin(g, n, k) >= -1e-10 * (abs(n - k) + 1)

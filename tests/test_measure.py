import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gapseries
from gapseries import (
    BracketError,
    DomainError,
    IntervalSet,
    MonotoneFn,
    QuadratureError,
    affine,
    builtin,
    check_class_tag,
    density_measure,
    exponential,
    h_log_measure,
    h_measure,
    identity,
    log_measure,
    log_shifted,
    numeric_inverse,
    power,
)

E = math.e


class TestIntervalSet:
    def test_sorted_and_merged(self):
        s = IntervalSet.from_pairs([(3.0, 4.0), (0.0, 1.5), (1.0, 2.0)])
        assert s.intervals == ((0.0, 2.0), (3.0, 4.0))

    def test_touching_kept_separate(self):
        s = IntervalSet.from_pairs([(0.0, 1.0), (1.0, 2.0)])
        assert len(s) == 2
        assert s.coalesce().intervals == ((0.0, 2.0),)

    def test_reject_empty_interval(self):
        with pytest.raises(ValueError):
            IntervalSet.from_pairs([(1.0, 1.0)])

    def test_membership_half_open_vs_closed(self):
        half = IntervalSet.from_pairs([(0.0, 1.0)])
        closed = IntervalSet.from_pairs([(0.0, 1.0)], include_right=True)
        assert half.contains(0.0) and not half.contains(1.0)
        assert closed.contains(1.0)
        assert not closed.contains(1.0000001)

    def test_total_length_and_bounds(self):
        s = IntervalSet.from_pairs([(0.0, 1.0), (2.0, 5.0)])
        assert s.total_length == 4.0
        assert s.bounds == (0.0, 5.0)
        assert IntervalSet.empty().bounds is None

    def test_difference(self):
        a = IntervalSet.from_pairs([(0.0, 3.0), (5.0, 6.0)])
        b = IntervalSet.from_pairs([(2.0, 5.5)])
        assert a.difference(b).intervals == ((0.0, 2.0), (5.5, 6.0))

    def test_log_image(self):
        s = IntervalSet.from_pairs([(1.0, E)])
        assert s.log_image().intervals == ((0.0, 1.0),)
        with pytest.raises(DomainError):
            IntervalSet.from_pairs([(-1.0, 2.0)]).log_image()


class TestHMeasure:
    def test_identity_is_lebesgue(self):
        assert h_measure(identity(), IntervalSet.from_pairs([(1.0, 3.0)])) == 2.0

    def test_square_two_intervals(self):
        s = IntervalSet.from_pairs([(0.0, 1.0), (2.0, 3.0)])
        assert h_measure(power(2.0), s) == 6.0

    def test_empty_set(self):
        assert h_measure(identity(), IntervalSet.empty()) == 0.0

    def test_domain_floor_enforced(self):
        with pytest.raises(DomainError):
            h_measure(identity(), IntervalSet.from_pairs([(-1.0, 0.5)]))

    def test_additive_over_disjoint_union(self, rng):
        h = power(2.0)
        for _ in range(50):
            a = np.sort(rng.uniform(0.0, 10.0, 6))
            parts = [IntervalSet.from_pairs([(a[2 * i], a[2 * i + 1])]) for i in range(3)]
            union = IntervalSet.from_pairs([(a[0], a[1]), (a[2], a[3]), (a[4], a[5])])
            assert h_measure(h, union) == pytest.approx(
                sum(h_measure(h, p) for p in parts), rel=1e-14
            )

    def test_monotone_under_inclusion(self, rng):
        h = exponential(0.3)
        for _ in range(50):
            a, b = np.sort(rng.uniform(0.0, 5.0, 2))
            if a == b:
                continue
            inner = IntervalSet.from_pairs([(a + 0.25 * (b - a), b - 0.25 * (b - a))])
            outer = IntervalSet.from_pairs([(a, b)])
            assert h_measure(h, inner) <= h_measure(h, outer)


class TestLogMeasure:
    def test_unit_interval(self):
        assert log_measure(IntervalSet.from_pairs([(1.0, E)])) == pytest.approx(1.0, abs=1e-15)

    def test_two_intervals(self):
        s = IntervalSet.from_pairs([(E, E**2), (E**3, E**4)])
        assert log_measure(s) == pytest.approx(2.0, abs=1e-12)

    def test_empty(self):
        assert log_measure(IntervalSet.empty()) == 0.0

    def test_strict_mode(self):
        s = IntervalSet.from_pairs([(0.5, 2.0)])
        assert log_measure(s) == pytest.approx(math.log(4.0))
        with pytest.raises(DomainError):
            log_measure(s, strict=True)

    def test_positive_endpoints_required(self):
        with pytest.raises(DomainError):
            log_measure(IntervalSet.from_pairs([(0.0, 1.0)]))


class TestHLogMeasure:
    def test_identity_density(self):
        assert h_log_measure(identity(), IntervalSet.from_pairs([(1.0, E)])) == pytest.approx(1.0, abs=1e-12)

    def test_square_closed_form(self):
        # integrand 2r/r = 2 on [1, 2)
        assert h_log_measure(power(2.0), IntervalSet.from_pairs([(1.0, 2.0)])) == pytest.approx(2.0, abs=1e-12)

    def test_exponential_against_ei(self):
        s = IntervalSet.from_pairs([(0.5, 4.0)])
        want = float(mpmath.ei(4.0) - mpmath.ei(0.5))
        assert h_log_measure(exponential(), s) == pytest.approx(want, rel=1e-12)

    def test_matches_log_measure_for_identity(self, rng):
        for _ in range(20):
            a, b = np.sort(rng.uniform(0.2, 8.0, 2))
            if b - a < 1e-3:
                continue
            s = IntervalSet.from_pairs([(a, b)])
            assert h_log_measure(identity(), s) == pytest.approx(log_measure(s), abs=1e-10)

    def test_substitution_identity(self, rng):
        # integral of h'(r)/r over [a,b) equals integral of h'(e^x) over [ln a, ln b)
        hs = [identity(), power(2.0), exponential()]
        for _ in range(100):
            a, b = np.sort(rng.uniform(0.5, 6.0, 2))
            if b - a < 1e-3:
                continue
            s = IntervalSet.from_pairs([(a, b)])
            for h in hs:
                lhs = h_log_measure(h, s, 1e-10)
                rhs = density_measure(lambda x: h.derivative(math.exp(x)), s.log_image(), 1e-10)
                assert abs(lhs - rhs) <= 1e-8

    def test_positive_endpoints_required(self):
        with pytest.raises(DomainError):
            h_log_measure(identity(), IntervalSet.from_pairs([(0.0, 1.0)]))

    def test_quadrature_error_carries_estimate(self):
        # a wildly oscillating handle defeats the quadrature budget
        nasty = MonotoneFn(lambda x: x, lambda x: 1.0 + math.sin(1.0 / (x - 1.0000001)) if x > 1 else 1.0)
        with pytest.raises(QuadratureError) as err:
            h_log_measure(nasty, IntervalSet.from_pairs([(1.0, 2.0)]), 1e-13)
        assert err.value.achieved > 0


# each builtin with a closed-form radial measure: (factory, its parameter
# strategy, h'(r) in mpmath)
RADIAL_BUILTINS = {
    "identity": (identity, st.fixed_dictionaries({}), lambda r: mpmath.mpf(1)),
    "affine": (
        affine,
        st.fixed_dictionaries({"slope": st.floats(0.01, 100.0), "intercept": st.floats(-10.0, 10.0)}),
        lambda r, slope, intercept: mpmath.mpf(slope),
    ),
    "log_shifted": (log_shifted, st.fixed_dictionaries({}), lambda r: 1 / (1 + r)),
    "power": (
        power,
        st.fixed_dictionaries({
            "exponent": st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.05, 6.0)),
            "scale": st.floats(0.01, 100.0),
        }),
        lambda r, exponent, scale: mpmath.mpf(scale) * exponent * r ** (mpmath.mpf(exponent) - 1),
    ),
}


@st.composite
def radial_intervals(draw):
    """[a, b) with a in [e^-3, e^12]: narrow ((b-a)/a down to 2^-40) or wide
    (b/a up to e^5)."""
    a = math.exp(draw(st.floats(-3.0, 12.0)))
    if draw(st.booleans()):
        b = a * (1.0 + 2.0 ** draw(st.floats(-40.0, -1.0)))
    else:
        b = a * math.exp(draw(st.floats(0.5, 5.0)))
    return a, b


class TestRadialClosedForms:
    @pytest.mark.parametrize("name", sorted(RADIAL_BUILTINS))
    def test_against_mpmath_integral(self, name):
        factory, params, mp_density = RADIAL_BUILTINS[name]

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(params, radial_intervals())
        def check(kwargs, interval):
            a, b = interval
            h = factory(**kwargs)
            with mpmath.workdps(50):
                want = mpmath.quad(lambda r: mp_density(r, **kwargs) / r, [mpmath.mpf(a), mpmath.mpf(b)])
                got = h.radial(a, b)
                assert abs(got - want) <= 1e-15 * want
            assert h_log_measure(h, IntervalSet.from_pairs([(a, b)])) == got

        check()

    def test_exp_has_no_closed_form(self):
        assert exponential().radial is None

    def test_sums_intervals(self):
        s = IntervalSet.from_pairs([(1.0, 2.0), (3.0, 5.0)])
        assert h_log_measure(power(2.0), s) == 6.0
        assert h_log_measure(identity(), s) == pytest.approx(math.log(2.0) + math.log(5.0 / 3.0), rel=1e-15)


# densities without a closed-form radial measure, for the quadrature: (h, h'(r) in mpmath)
QUADRATURE_DENSITIES = {
    "exp(0.3)": (exponential(0.3), lambda r: 0.3 * mpmath.exp(0.3 * r)),
    "exp(2)": (exponential(2.0), lambda r: 2 * mpmath.exp(2 * r)),
    "power(2.5)": (power(2.5), lambda r: 2.5 * r**1.5),
    "log_shifted": (log_shifted(), lambda r: 1 / (1 + r)),
}


@st.composite
def quadrature_intervals(draw):
    """[a, b) with a in [e^-3, e] and b <= 5: narrow or wide, as above."""
    a = math.exp(draw(st.floats(-3.0, 1.0)))
    if draw(st.booleans()):
        return a, a * (1.0 + 2.0 ** draw(st.floats(-40.0, -1.0)))
    return a, min(5.0, a * math.exp(draw(st.floats(0.05, 4.0))))


class TestQuadratureOracle:
    """The Gauss-Legendre panel rule against mpmath.quad at 30 digits."""

    @pytest.mark.parametrize("name", sorted(QUADRATURE_DENSITIES))
    def test_against_mpmath_quad(self, name):
        h, mp_derivative = QUADRATURE_DENSITIES[name]
        radial = MonotoneFn(h.value, h.derivative, name=h.name)  # no closed form: quadrature

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(quadrature_intervals())
        def check(interval):
            a, b = interval
            la, lb = math.log(a), math.log(b)
            with mpmath.workdps(30):
                want_r = mpmath.quad(lambda r: mp_derivative(r) / r, [mpmath.mpf(a), mpmath.mpf(b)])
                want_x = mpmath.quad(lambda t: mp_derivative(mpmath.exp(t)), [mpmath.mpf(la), mpmath.mpf(lb)])
            assert abs(h_log_measure(radial, IntervalSet(((a, b),))) - want_r) <= 1e-8
            got_x = density_measure(lambda t: h.derivative(math.exp(t)), IntervalSet(((la, lb),)))
            assert abs(got_x - want_x) <= 1e-8

        check()


class TestNumericInverse:
    def test_identity(self):
        assert numeric_inverse(identity(), 5.0, 1e-10) == pytest.approx(5.0, abs=1e-9)

    def test_square_root(self):
        assert numeric_inverse(power(2.0), 9.0, 1e-10) == pytest.approx(3.0, abs=1e-9)

    def test_round_trip(self, rng):
        f = exponential(0.7)
        for t in rng.uniform(1.5, 100.0, 100):
            x = numeric_inverse(f, float(t), 1e-9)
            assert abs(f.value(x) - t) <= 1e-9

    def test_below_range_raises(self):
        with pytest.raises(BracketError):
            numeric_inverse(exponential(), 0.5, 1e-10)  # e^x >= 1 on [0, inf)

    def test_monotone_fn_inv_uses_explicit_inverse(self):
        assert power(2.0).inv(16.0) == 4.0


class TestMonotoneFnLibrary:
    def test_builtin_dispatch(self):
        assert builtin("power", exponent=3.0).name == "power(3)"
        with pytest.raises(ValueError):
            builtin("nope")

    def test_class_tags(self):
        assert identity().class_tag == "L_plus"
        assert power(2.0).class_tag == "L_plus"
        assert power(0.5).class_tag == "L_minus"
        assert exponential().class_tag == "L_plus"
        assert log_shifted().class_tag == "L_minus"
        assert affine(2.0, 1.0).class_tag == "L_plus"

    def test_power_overflows_to_inf(self):
        # float ** raises OverflowError past 1.8e308; the density must not
        h = power(3.0)
        assert h.value(1e200) == math.inf
        assert h.derivative(1e200) == math.inf
        assert h.value(2.0) == 8.0 and h.derivative(2.0) == 12.0

    def test_class_tag_spot_check(self):
        assert check_class_tag(power(2.0), 0.1, 10.0)
        assert check_class_tag(log_shifted(), 0.1, 10.0)
        wrong = MonotoneFn(lambda x: x**2, lambda x: 2 * x, "L_minus")
        assert not check_class_tag(wrong, 0.1, 10.0)

    def test_lagrange_bounds(self, rng):
        # non-decreasing derivative: increment <= width * h'(right end);
        # non-increasing: increment <= width * h'(left end)
        plus, minus = power(2.0), log_shifted()
        for _ in range(1000):
            a, b = np.sort(rng.uniform(0.01, 20.0, 2))
            if a == b:
                continue
            assert plus.value(b) - plus.value(a) <= (b - a) * plus.derivative(b) + 1e-12
            assert minus.value(b) - minus.value(a) <= (b - a) * minus.derivative(a) + 1e-12

    def test_explicit_derivative_vs_finite_difference(self):
        h = exponential(0.5)
        for x in (0.5, 2.0, 7.0):
            eps = 1e-6
            fd = (h.value(x + eps) - h.value(x - eps)) / (2 * eps)
            assert h.derivative(x) == pytest.approx(fd, rel=1e-8)


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy blocked, the sweep,
    # gap-power's h_image footer and both quadrature measures still run
    src = str(Path(gapseries.__file__).resolve().parents[1])
    configs = Path(__file__).resolve().parent.parent / "configs"
    code = f"""
import math, sys
sys.modules["scipy"] = None
from gapseries import IntervalSet, cli, density_measure, exponential, h_log_measure
for command, name in (("sweep", "geometric_damped_sweep.json"), ("gap-power", "two_term_gap_power.json")):
    out = {str(tmp_path)!r} + "/" + command + ".csv"
    assert cli.main([command, "--config", {str(configs)!r} + "/" + name, "--out", out, "--quiet"]) == 0
s = IntervalSet(((1.0, 2.0),))
print(h_log_measure(exponential(), s), density_measure(math.exp, s))
"""
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    got = [float(v) for v in res.stdout.split()]
    assert got == pytest.approx([float(mpmath.ei(2.0) - mpmath.ei(1.0)), E**2 - E], rel=1e-12)
    assert "#measure,h_log," in (tmp_path / "sweep.csv").read_text()
    assert "#measure,h_image," in (tmp_path / "gap-power.csv").read_text()

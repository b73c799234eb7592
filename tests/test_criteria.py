import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapseries import (
    ClassMembershipParams,
    ExponentSequence,
    SeriesSpec,
    class_membership,
    criterion_exp_inverse,
    criterion_gap,
    criterion_inverse_shifted,
    criterion_plain_inverse,
    criterion_power_growth,
    criterion_scaled_inverse,
    criterion_scaled_inverse_shifted,
    estimate_lower_order,
    exponential,
    geometric_exponents,
    identity,
    log_shifted,
    make_report,
    power,
    power_exponents,
)

GEOM = geometric_exponents(2.0, 31)               # 0, 2, 4, ..., 2^30
DENSE = power_exponents(1.0, 1.0, 1001)           # 0, 1, 2, ...
SQUARES = ExponentSequence(np.arange(1001.0) ** 2)
POW2 = ExponentSequence(2.0 ** np.arange(31), "gap-power")   # 1, 2, 4, ...
POW2_LONG = ExponentSequence(2.0 ** np.arange(65), "gap-power")
#: criterion terms with the edge values: zero, inf, the smallest subnormal
#: and a float whose sums overflow
TERM_LISTS = st.lists(st.sampled_from([0.0, math.inf, 5e-324, 1e308]) | st.floats(0.0, 1e3), max_size=70)


class TestVerdicts:
    def test_geometric_gap_sum_converges(self):
        rep = criterion_gap(GEOM, 30)
        # oracle: 1/2 + sum_{k=1}^{29} 2^-k = 1.5 - 2^-29
        assert rep.total == pytest.approx(1.5 - 2.0**-29, rel=1e-15)
        assert rep.verdict == "converging"

    def test_unit_gaps_diverge(self):
        rep = criterion_gap(DENSE, 1000)
        assert np.all(rep.terms == 1.0)
        assert rep.verdict == "diverging"

    def test_square_gaps_diverge(self):
        rep = criterion_gap(SQUARES, 1000)
        want = np.array([1.0 / (2 * n + 1) for n in range(1000)])
        assert np.array_equal(rep.terms, want)
        assert rep.verdict == "diverging"

    def test_partial_sums_nondecreasing(self):
        for rep in (criterion_gap(GEOM, 30), criterion_gap(DENSE, 500)):
            assert np.all(np.diff(rep.partial_sums) >= 0)

    def test_short_series_inconclusive(self):
        assert make_report("x", [1.0, 0.5, 0.25]).verdict == "inconclusive"

    def test_negative_terms_rejected(self):
        with pytest.raises(ValueError):
            make_report("x", [1.0, -0.1])

    def test_all_zero_terms_converge(self):
        assert make_report("x", np.zeros(64)).verdict == "converging"

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(TERM_LISTS)
    def test_checkpoints_equal_reports_of_prefixes(self, terms):
        size = len(terms)
        with np.errstate(over="ignore"):  # sums of 1e308 terms overflow to inf on purpose
            rows = make_report("x", terms, 0.5).checkpoints()
            prefixes = [make_report("x", terms[:n], 0.5) for n, *_ in rows]
        # n_terms = 2, 4, 8, ... and the last term, a single term included
        assert [n for n, *_ in rows] == [n for n in range(1, size + 1) if n == size or (n > 1 and n & (n - 1) == 0)]
        for (n, total, ratio, verdict), want in zip(rows, prefixes):
            last = want.block_ratios[-1] if want.block_ratios.size else math.nan
            assert np.float64(total).tobytes() == np.float64(want.total).tobytes(), n
            assert np.float64(ratio).tobytes() == np.float64(last).tobytes(), n
            assert verdict == want.verdict, n

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(TERM_LISTS)
    def test_block_ratios_follow_the_block_rule(self, terms):
        with np.errstate(over="ignore"):
            got = make_report("x", terms).block_ratios
        # reference: block j >= 1 sums terms[2^(j-1) : 2^j] one by one; term 0 is in no block
        blocks = [sum(terms[2 ** (j - 1) : 2**j], 0.0) for j in range(1, len(terms).bit_length())]
        want = []
        for prev, nxt in zip(blocks, blocks[1:]):
            if nxt == 0.0:
                want.append(0.0)
            elif nxt == math.inf or prev == 0.0:
                want.append(math.inf)
            else:
                want.append(nxt / prev)
        assert got.size == len(want)
        # a block of m non-negative terms rounds by at most (m - 1) eps in any
        # summation order, so a ratio of two such blocks by at most 2m eps
        rtol = 2 * 2 ** len(terms).bit_length() * np.finfo(float).eps
        for g, w in zip(got.tolist(), want):
            assert g == w if w in (0.0, math.inf) else math.isclose(g, w, rel_tol=rtol), (g, w)


class TestBlockOracles:
    def test_cubic_exponents_keep_the_tail_digits(self):
        # terms 1/((1 + n^3 + 1/gap) gap) ~ n^-5 / 3, so each dyadic block is
        # about 2^-4 of the one before; block differences of converged partial
        # sums read 0 here
        cubes = ExponentSequence(np.arange(20001.0) ** 3, "gap-power")
        rep = criterion_inverse_shifted(cubes, log_shifted(), lambda t: t, 1.0, 20000)
        assert np.allclose(rep.block_ratios[-3:], 1.0 / 16.0, rtol=0.05)
        assert rep.verdict == "converging"

    @pytest.mark.parametrize("make", [
        lambda h: criterion_scaled_inverse(GEOM, h, lambda t: t, 0.5, 30),
        lambda h: criterion_scaled_inverse(GEOM, h, lambda t: t, 1.0, 30),
        lambda h: criterion_scaled_inverse(GEOM, h, lambda t: t, 2.0, 30),
        lambda h: criterion_plain_inverse(GEOM, h, lambda t: t, 30),
    ], ids=["scaled_inverse-0.5", "scaled_inverse-1", "scaled_inverse-2", "plain_inverse"])
    def test_infinite_first_term_does_not_decide(self, make):
        # h = x^0.5 has h'(0) = inf, so term 0 and every partial sum are inf;
        # the later terms decay like 2^(-1.5 n), and term 0 is in no block
        rep = make(power(0.5))
        assert rep.terms[0] == math.inf and np.all(np.isfinite(rep.terms[1:]))
        assert rep.verdict == "converging"


class TestReductionToGapCriterion:
    """With the identity density (derivative exactly 1) every criterion
    collapses to the reciprocal-gap sum, bitwise."""

    def test_all_variants(self):
        h = identity()
        base = criterion_gap(GEOM, 30).terms
        phi = lambda t: t
        variants = [
            criterion_inverse_shifted(GEOM, h, phi, 0.7, 30),
            criterion_scaled_inverse_shifted(GEOM, h, phi, 0.7, 30),
            criterion_scaled_inverse(GEOM, h, phi, 0.7, 30),
            criterion_power_growth(GEOM, h, 2.0, 0.7, 30),
            criterion_exp_inverse(GEOM, h, phi, 0.7, 30),
            criterion_plain_inverse(GEOM, h, phi, 30),
        ]
        for rep in variants:
            assert np.array_equal(rep.terms, base), rep.name

    def test_on_dense_gaps_too(self):
        h = identity()
        base = criterion_gap(DENSE, 200).terms
        rep = criterion_inverse_shifted(DENSE, h, lambda t: math.sqrt(t), 2.0, 200)
        assert np.array_equal(rep.terms, base)


B, ALPHA = 0.7, 2.0


def PHI(t):
    return 1.0 + math.sqrt(t)


# term k of each weighted criterion is h'(arg) / gap_k; these are the
# arguments as each criterion wrote them out before they shared one helper
SEED_ARGS = {
    "inverse_shifted": lambda lam, g, k: PHI(lam[k]) + B / g[k],
    "scaled_inverse_shifted": lambda lam, g, k: PHI(B * lam[k]) + B / g[k],
    "scaled_inverse": lambda lam, g, k: B * PHI(B * lam[k]),
    "power_growth": lambda lam, g, k: B * lam[k] ** (1.0 / ALPHA) + B / g[k],
    "exp_inverse": lambda lam, g, k: float(np.exp(PHI(lam[k]) + B / g[k])),
    "plain_inverse": lambda lam, g, k: PHI(lam[k]),
}
CALLS = {
    "inverse_shifted": lambda e, h, n: criterion_inverse_shifted(e, h, PHI, B, n),
    "scaled_inverse_shifted": lambda e, h, n: criterion_scaled_inverse_shifted(e, h, PHI, B, n),
    "scaled_inverse": lambda e, h, n: criterion_scaled_inverse(e, h, PHI, B, n),
    "power_growth": lambda e, h, n: criterion_power_growth(e, h, ALPHA, B, n),
    "exp_inverse": lambda e, h, n: criterion_exp_inverse(e, h, PHI, B, n),
    "plain_inverse": lambda e, h, n: criterion_plain_inverse(e, h, PHI, n),
}


class TestSeedTermReference:
    @pytest.mark.parametrize("name", list(SEED_ARGS))
    @pytest.mark.parametrize(
        "h", [power(2.0), power(0.5), log_shifted(), exponential()], ids=lambda h: h.name
    )
    @pytest.mark.parametrize("exponents, n", [(GEOM, 30), (SQUARES, 300)], ids=["geometric", "squares"])
    def test_terms_match_the_seed_expression(self, name, h, exponents, n):
        lam, g = exponents.values[:n], exponents.gaps[:n]
        quiet = np.errstate(over="ignore") if name == "exp_inverse" else contextlib.nullcontext()
        with quiet:
            want = np.array([h.derivative(SEED_ARGS[name](lam, g, k)) for k in range(n)]) / g
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = CALLS[name](exponents, h, n)
        assert rep.terms.tobytes() == want.tobytes()
        assert (rep.name, rep.b) == (name, None if name == "plain_inverse" else B)

    def test_exp_inverse_overflows_to_inf_without_a_warning(self):
        # exp(1 + sqrt(2^k)) passes the float range at k = 19
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = criterion_exp_inverse(GEOM, power(2.0), PHI, B, 30)
        assert np.all(np.isinf(rep.terms[19:])) and np.all(np.isfinite(rep.terms[:19]))
        assert rep.total == math.inf


class TestInverseShifted:
    def test_pow2_square_density_diverges(self):
        # oracle: 2*(2^k + 2^-k)/2^k; terms tend to 2
        rep = criterion_inverse_shifted(POW2, power(2.0), lambda t: t, 1.0, 30)
        lam = 2.0 ** np.arange(30)
        want = 2.0 * (lam + 1.0 / lam) / lam
        assert np.allclose(rep.terms, want, rtol=1e-14)
        assert rep.terms[0] == 4.0
        assert rep.verdict == "diverging"

    def test_exp_growth_converges(self):
        # lambda_n = e^n with Phi = e^x, phi = ln: terms ~ 2n/(e^n (e-1))
        lam = np.exp(np.arange(64.0))
        seq = ExponentSequence(lam, "general")
        rep = criterion_inverse_shifted(seq, power(2.0), math.log, 1.0, 63)
        gaps = np.diff(lam)
        want = 2.0 * (np.log(lam[:63]) + 1.0 / gaps) / gaps
        assert np.allclose(rep.terms, want, rtol=1e-14)
        assert rep.verdict == "converging"

    def test_monotone_in_b_for_nondecreasing_density(self):
        h = power(3.0)
        phi = lambda t: math.sqrt(t)
        t1 = criterion_inverse_shifted(GEOM, h, phi, 0.5, 30).terms
        t2 = criterion_inverse_shifted(GEOM, h, phi, 2.0, 30).terms
        assert np.all(t1 <= t2)


class TestScaledVariants:
    def test_coincides_with_inverse_shifted_at_b1(self):
        h = power(2.0)
        phi = lambda t: math.log1p(t)
        a = criterion_inverse_shifted(GEOM, h, phi, 1.0, 30)
        b = criterion_scaled_inverse_shifted(GEOM, h, phi, 1.0, 30)
        assert np.array_equal(a.terms, b.terms)

    def test_scaled_inverse_shifted_diverges(self):
        # lambda_n = 2^n, h = x^2, phi0 = id, b = 2
        rep = criterion_scaled_inverse_shifted(POW2, power(2.0), lambda t: t, 2.0, 30)
        lam = 2.0 ** np.arange(30)
        want = 2.0 * (2.0 * lam + 2.0 / lam) / lam
        assert np.allclose(rep.terms, want, rtol=1e-14)
        assert rep.verdict == "diverging"

    def test_scaled_inverse_table(self):
        # lambda_n = 2^n, h = x^3, phi1 = log1p, b = 1
        rep = criterion_scaled_inverse(POW2_LONG, power(3.0), math.log1p, 1.0, 64)
        lam = 2.0 ** np.arange(64)
        want = 3.0 * np.log1p(lam) ** 2 / lam
        assert np.allclose(rep.terms, want, rtol=1e-14)
        assert rep.verdict == "converging"


class TestPowerGrowth:
    def test_matches_scaled_inverse_shifted_at_alpha_one(self):
        h = power(2.0)
        a = criterion_power_growth(GEOM, h, 1.0, 1.0, 30)
        b = criterion_scaled_inverse_shifted(GEOM, h, lambda t: t, 1.0, 30)
        assert np.array_equal(a.terms, b.terms)

    def test_sqrt_growth_converges(self):
        rep = criterion_power_growth(POW2_LONG, power(2.0), 2.0, 1.0, 64)
        lam = 2.0 ** np.arange(64)
        want = 2.0 * (np.sqrt(lam) + 1.0 / lam) / lam
        assert np.allclose(rep.terms, want, rtol=1e-14)
        assert rep.verdict == "converging"


class TestExpInverse:
    def test_log_density_converges(self):
        rep = criterion_exp_inverse(POW2, log_shifted(), lambda t: t, 1.0, 30)
        lam = 2.0 ** np.arange(30)
        with np.errstate(over="ignore"):
            want = 1.0 / ((1.0 + np.exp(lam + 1.0 / lam)) * lam)
        assert np.allclose(rep.terms, want, rtol=1e-14, equal_nan=False)
        assert rep.verdict == "converging"

    def test_cubes_with_identity_density(self):
        cubes = ExponentSequence(np.arange(200.0) ** 3, "gap-power")
        rep = criterion_exp_inverse(cubes, identity(), lambda t: t, 1.0, 199)
        assert np.array_equal(rep.terms, criterion_gap(cubes, 199).terms)
        assert rep.verdict == "converging"

    def test_overflowed_partial_sums_diverge(self):
        # 2 exp(n^2 + 1/(2n+1)) / (2n+1) passes the float range at n = 27; the
        # blocks after it hold inf - inf, which must read as divergence
        squares = ExponentSequence(np.arange(12000.0) ** 2, "gap-power")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = criterion_exp_inverse(squares, power(2.0), lambda t: t, 1.0)
        assert rep.total == math.inf
        overflowed = rep.partial_sums[[2**j - 1 for j in range(2, 2 + rep.block_ratios.size)]] == math.inf
        assert overflowed.any() and np.all(rep.block_ratios[overflowed] == math.inf)
        assert np.all(np.isfinite(rep.block_ratios[~overflowed]))
        assert rep.verdict == "diverging"


class TestVerdictStability:
    @pytest.mark.parametrize(
        "make",
        [
            lambda n: criterion_gap(GEOM, n),
            lambda n: criterion_gap(DENSE, n),
            lambda n: criterion_inverse_shifted(POW2, power(2.0), lambda t: t, 1.0, n),
            lambda n: criterion_scaled_inverse(POW2, power(3.0), math.log1p, 1.0, n),
        ],
    )
    def test_verdict_survives_doubling(self, make):
        short = make(15)
        long = make(30)
        if short.verdict != "inconclusive":
            assert short.verdict == long.verdict


class TestClassMembership:
    def test_flat_coefficients_fast_growth(self):
        spec = SeriesSpec(GEOM, np.zeros(31), complete=True)
        params = ClassMembershipParams(identity(), np.linspace(5, 20, 16))
        rep = class_membership(spec, params, "D")
        assert rep.passed
        assert np.all(rep.margins >= 0)

    def test_slow_growth_fails_plain_class(self):
        lam = GEOM.values
        spec = SeriesSpec(GEOM, -0.5 * lam**2, complete=True)
        params = ClassMembershipParams(identity(), np.linspace(5, 20, 16))
        assert not class_membership(spec, params, "D").passed

    def test_scaled_class_constants(self):
        # ln mu(x) ~ x^2/2 with dips to ~0.44 x^2: fails K=1, passes K=0.4
        lam = GEOM.values
        spec = SeriesSpec(GEOM, -lam**2 / 2.0, complete=True)
        grid = np.linspace(5, 20, 16)
        assert not class_membership(spec, ClassMembershipParams(identity(), grid), "D0").passed
        loose = ClassMembershipParams(identity(), grid, K=0.4)
        assert class_membership(spec, loose, "D0").passed

    def test_coefficient_decay_class(self):
        lam = GEOM.values
        spec = SeriesSpec(GEOM, -lam * lam, complete=True)
        params = ClassMembershipParams(identity(), np.zeros(0))
        rep = class_membership(spec, params, "D_phi")
        assert rep.passed and np.all(rep.margins >= 0)
        tight = SeriesSpec(GEOM, -0.5 * lam * lam, complete=True)
        assert not class_membership(tight, params, "D_phi").passed

    def test_unknown_class_rejected(self):
        spec = SeriesSpec(GEOM, np.zeros(31), complete=True)
        with pytest.raises(ValueError):
            class_membership(spec, ClassMembershipParams(identity(), np.array([5.0])), "D2")


class TestLowerOrder:
    @staticmethod
    def exp_series(n_terms=120):
        lam = np.arange(float(n_terms))
        return SeriesSpec(
            ExponentSequence(lam, "gap-power"),
            -np.array([math.lgamma(k + 1.0) for k in range(n_terms)]),
        )

    def test_exponential_has_order_one(self):
        est = estimate_lower_order(self.exp_series(), np.linspace(5.0, 30.0, 12))
        assert est.lower == pytest.approx(1.0, abs=0.1)
        assert est.upper == pytest.approx(1.0, abs=0.1)
        assert est.positive

    def test_single_term_flagged_nonpositive(self):
        spec = SeriesSpec(ExponentSequence([0.0]), np.zeros(1))
        est = estimate_lower_order(spec, np.linspace(5.0, 30.0, 8))
        assert est.lower == -math.inf
        assert not est.positive

    def test_refinement_moves_estimate_down_or_stable(self):
        spec = self.exp_series()
        coarse_grid = np.linspace(5.0, 30.0, 8)
        fine_grid = np.unique(np.concatenate([coarse_grid, np.linspace(5.0, 30.0, 15)]))
        coarse = estimate_lower_order(spec, coarse_grid)
        fine = estimate_lower_order(spec, fine_grid)
        assert fine.lower <= coarse.lower + 1e-12

    def test_grid_validation(self):
        spec = self.exp_series()
        with pytest.raises(ValueError):
            estimate_lower_order(spec, np.array([0.5, 2.0]))
        with pytest.raises(ValueError):
            estimate_lower_order(spec, np.array([5.0, 4.0]))

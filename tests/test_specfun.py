"""Special-function kernels against exact, quadrature, and mpmath oracles."""
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from ansec.specfun import (
    beta_int,
    expint_en,
    hyp2f1_1b_c,
    hyp2f1_appendix_closed_form,
    scaled_expint_en,
    scaled_expint_sum,
)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


class TestGammaBeta:
    def test_beta_exact_small(self):
        assert beta_int(1, 1) == 1.0
        assert rel_err(beta_int(2, 3), 1.0 / 12.0) < 1e-14

    def test_beta_4_6(self):
        # exact rational oracle: 3! * 5! / 9! = 720/362880 = 1/504
        assert rel_err(beta_int(4, 6), 1.0 / 504.0) < 1e-13

    def test_beta_symmetry(self):
        for a, b in [(2, 9), (3, 17), (40, 7)]:
            assert beta_int(a, b) == beta_int(b, a)

    def test_beta_large_no_overflow(self):
        assert 0.0 < beta_int(200, 300) < 1.0

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-1, 2), (2.5, 1), (True, 1), (1, True)])
    def test_beta_domain(self, a, b):
        with pytest.raises(ValueError):
            beta_int(a, b)


class TestExpint:
    def test_e0_closed_form(self):
        assert rel_err(expint_en(0, 1.0), math.exp(-1.0)) < 1e-15
        assert rel_err(scaled_expint_en(0, 2.5), 1.0 / 2.5) == 0.0

    def test_e1_at_1(self):
        # mpmath mp.dps=40 expint(1, 1)
        assert rel_err(expint_en(1, 1.0), 0.21938393439552027368) < 1e-14

    def test_en_at_zero(self):
        assert expint_en(3, 0.0) == 0.5
        assert expint_en(2, 0.0) == 1.0
        assert rel_err(expint_en(3, 1e-9), 0.5) < 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
    @pytest.mark.parametrize(
        "x", [1e-8, 1e-4, 0.1, 0.5, 1.0, 1.4999, 1.5, 2.0, 5.0, 20.0, 50.0]
    )
    def test_against_scipy_grid(self, n, x):
        assert rel_err(expint_en(n, x), float(special.expn(n, x))) < 1e-12

    @pytest.mark.parametrize(
        "n,x,want",
        [
            # mpmath mp.dps=40 expint(n, x), scaled by exp(x)
            (1, 100.0, 0.00990194228673301840641),
            (1, 700.0, 0.00142653641830088669178),
            (4, 700.0, 0.00142046597745297609656),
            (10, 700.0, 0.00140847856740637929392),
        ],
    )
    def test_scaled_large_x(self, n, x, want):
        assert rel_err(scaled_expint_en(n, x), want) < 1e-12

    def test_scaled_asymptotic_1e6(self):
        val = scaled_expint_en(1, 1e6)
        assert 9.99e-7 <= val <= 1.0e-6
        # mpmath mp.dps=40 exp(x)*expint(1, x) at x=1e6
        assert rel_err(val, 9.99999000001999994e-7) < 1e-12

    def test_scaled_huge_x_no_overflow(self):
        for x in (1e12, 1e150, 1e300):
            for n in (1, 4, 16):
                val = scaled_expint_en(n, x)
                assert math.isfinite(val)
                assert rel_err(val, 1.0 / x) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 256])
    def test_scaled_past_continued_fraction(self, n):
        # From about x = 3e16, b += 2 no longer changes the continued
        # fraction's b, so it cannot converge there; every x up to inf works.
        with mpmath.workdps(30):
            for x in np.logspace(16, 308, 147).tolist():
                want = float(mpmath.exp(mpmath.mpf(x)) * mpmath.expint(n, mpmath.mpf(x)))
                assert abs(scaled_expint_en(n, x) - want) <= 1e-15 * want, x
        assert scaled_expint_en(n, math.inf) == 0.0

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("x", [1e-6, 0.01, 0.3, 1.0, 1.5, 3.0, 10.0, 60.0])
    def test_recurrence(self, n, x):
        # n E_{n+1}(x) = e^{-x} - x E_n(x)
        lhs = n * expint_en(n + 1, x)
        rhs = math.exp(-x) - x * expint_en(n, x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)

    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("x", [200.0, 1e4, 1e8])
    def test_recurrence_scaled_large_x(self, n, x):
        # same identity multiplied by e^x, valid where e^{-x} underflows
        lhs = n * scaled_expint_en(n + 1, x)
        rhs = 1.0 - x * scaled_expint_en(n, x)
        # forming rhs cancels to ~1 ulp of 1.0, hence the absolute floor
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs) + 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            expint_en(1, -0.5)
        with pytest.raises(ValueError):
            expint_en(1, 0.0)
        with pytest.raises(ValueError):
            expint_en(0, 0.0)
        with pytest.raises(ValueError):
            expint_en(-1, 1.0)
        with pytest.raises(ValueError):
            scaled_expint_en(True, 1.0)


class TestScaledSum:
    def test_single_term_at_1(self):
        # mpmath mp.dps=40 e * expint(1, 1)
        assert rel_err(scaled_expint_sum(1, 1.0), 0.59634736232319407434) < 1e-13

    def test_two_terms_at_0p75(self):
        # mpmath mp.dps=40 exp(x) * (expint(1,x) + expint(2,x)) at x=0.75
        assert rel_err(scaled_expint_sum(2, 0.75), 1.180125376646761282) < 1e-13

    def test_four_terms_at_1e3(self):
        # mpmath mp.dps=40 exp(x) * sum(expint(k,x) for k in 1..4) at x=1000
        assert rel_err(scaled_expint_sum(4, 1e3), 0.0039900397913340055772) < 1e-10

    @pytest.mark.parametrize("n_terms", [1, 2, 4, 8, 64])
    @pytest.mark.parametrize("x", [1e-6, 0.2, 1.0, 7.0, 50.0])
    def test_scaling_consistency(self, n_terms, x):
        # against the plain-form sum, which is representable for x <= 50
        plain = math.fsum(expint_en(k, x) for k in range(1, n_terms + 1))
        assert rel_err(scaled_expint_sum(n_terms, x), math.exp(x) * plain) < 1e-9

    @pytest.mark.parametrize("x", [1e-8, 1.0, 1e3, 1e9, 1e300])
    def test_no_overflow_anywhere(self, x):
        assert math.isfinite(scaled_expint_sum(8, x))

    @pytest.mark.parametrize(
        "n,x,want",
        [
            # mpmath mp.dps=40 exp(x) * sum(expint(k, x) for k in 1..n);
            # guards the log-domain series prefactor at large term counts
            (256, 0.2, 7.15344496545304),
            (256, 2.0, 4.85788828788757),
            (128, 0.05, 7.84424482393462),
            (300, 1e-6, 19.5176254433734),
        ],
    )
    def test_many_terms(self, n, x, want):
        assert rel_err(scaled_expint_sum(n, x), want) < 1e-13

    def test_per_term_decomposition(self):
        # the sum must equal its own scaled terms, each oracle-checked above
        x = 3.7
        total = math.fsum(scaled_expint_en(k, x) for k in range(1, 7))
        assert rel_err(scaled_expint_sum(6, x), total) < 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            scaled_expint_sum(0, 1.0)
        with pytest.raises(ValueError):
            scaled_expint_sum(True, 1.0)
        with pytest.raises(ValueError):
            scaled_expint_sum(2, 0.0)
        with pytest.raises(ValueError):
            scaled_expint_sum(2, -1.0)


def euler_integral_2f1(b: int, c: int, x: float) -> float:
    # 2F1(1, b; c; x) by adaptive quadrature of Euler's representation:
    # Gamma(c)/(Gamma(b)Gamma(c-b)) * int_0^1 t^{b-1} (1-t)^{c-b-1}/(1-xt) dt
    coef = math.exp(math.lgamma(c) - math.lgamma(b) - math.lgamma(c - b))
    val, err = integrate.quad(
        lambda t: t ** (b - 1) * (1 - t) ** (c - b - 1) / (1 - x * t),
        0.0,
        1.0,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
    )
    assert err < 1e-10 * max(abs(val), 1.0)
    return coef * val


class TestHyp2f1:
    def test_at_zero(self):
        assert hyp2f1_1b_c(1, 3, 0.0) == 1.0

    def test_log_identity_value(self):
        # -ln(1-x)/x at x = 0.5
        want = -math.log(0.5) / 0.5
        assert rel_err(hyp2f1_1b_c(1, 2, 0.5), want) < 1e-13
        assert rel_err(want, 1.3862943611198906188) < 1e-15

    @pytest.mark.parametrize(
        "b,c,x,want",
        [
            # mpmath mp.dps=40 hyp2f1(1, b, c, x)
            (2, 5, -3.0, 0.49174669956766668128),
            (1, 4, -0.25, 0.94306539426292672989),
            (1, 4, -2.0, 0.70781647425487020846),
            (2, 4, -2.0, 0.52812235049675319436),
            (3, 8, 0.9, 1.6009274646698264057),
            (62, 64, 62.0 / 63.0, 25.73135399234428932),
            (4, 6, -49.5, 0.032382079271402836149),
        ],
    )
    def test_frozen_values(self, b, c, x, want):
        assert rel_err(hyp2f1_1b_c(b, c, x), want) < 1e-12

    @pytest.mark.parametrize(
        "b,c,x",
        [
            (2, 5, -3.0),
            (1, 2, 0.5),
            (3, 4, 0.8),
            (2, 7, -0.1),
            (5, 9, -20.0),
            (1, 6, -0.9),
            (4, 5, 0.95),
        ],
    )
    def test_against_euler_integral(self, b, c, x):
        assert rel_err(hyp2f1_1b_c(b, c, x), euler_integral_2f1(b, c, x)) < 1e-10

    @pytest.mark.parametrize("b,c", [(1, 2), (2, 5), (3, 4), (5, 11)])
    @pytest.mark.parametrize("x", [-30.0, -2.0, -0.4, 0.2, 0.6, 0.9])
    def test_pfaff_invariance(self, b, c, x):
        # 2F1(1,b;c;x) = (1-x)^{-1} 2F1(1,c-b;c;x/(x-1))
        lhs = hyp2f1_1b_c(b, c, x)
        rhs = hyp2f1_1b_c(c - b, c, x / (x - 1.0)) / (1.0 - x)
        assert rel_err(lhs, rhs) < 1e-11

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp2f1_1b_c(2, 5, 1.0)
        with pytest.raises(ValueError):
            hyp2f1_1b_c(2, 5, 1.5)
        with pytest.raises(ValueError):
            hyp2f1_1b_c(3, 3, 0.5)
        with pytest.raises(ValueError):
            hyp2f1_1b_c(0, 3, 0.5)
        with pytest.raises(ValueError):
            hyp2f1_1b_c(True, 3, 0.2)

    def test_purity(self):
        assert hyp2f1_1b_c(3, 8, 0.9) == hyp2f1_1b_c(3, 8, 0.9)
        assert scaled_expint_sum(4, 2.0) == scaled_expint_sum(4, 2.0)


def mpmath_2f1(a: int, b: int, c: int, x: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.hyp2f1(a, b, c, mpmath.mpf(x)))


class TestAppendixForms:
    def test_n1_first_form(self):
        got = hyp2f1_appendix_closed_form(1, 0.5, "first-form")
        assert rel_err(got, 1.3862943611198906188) < 1e-13

    def test_second_matches_general_route(self):
        got = hyp2f1_appendix_closed_form(3, -0.25, "second-form")
        assert rel_err(got, hyp2f1_1b_c(1, 4, -0.25)) < 1e-10

    def test_limit_at_zero(self):
        assert hyp2f1_appendix_closed_form(2, 0.0, "first-form") == 1.0
        assert hyp2f1_appendix_closed_form(2, 0.0, "second-form") == 1.0

    def test_first_form_frozen(self):
        # mpmath mp.dps=40 hyp2f1(3, 3, 4, -0.25)
        got = hyp2f1_appendix_closed_form(3, -0.25, "first-form")
        assert rel_err(got, 0.60356185232827310713) < 1e-12

    @pytest.mark.parametrize("n_cap", range(1, 13))
    @pytest.mark.parametrize(
        "x",
        [-50.0, -10.0, -2.0, -0.5, -0.01, -1e-4, 1e-4, 0.01, 0.3, 0.6, 0.9, 0.95],
    )
    def test_both_forms_against_mpmath(self, n_cap, x):
        first = hyp2f1_appendix_closed_form(n_cap, x, "first-form")
        second = hyp2f1_appendix_closed_form(n_cap, x, "second-form")
        assert rel_err(first, mpmath_2f1(n_cap, n_cap, n_cap + 1, x)) < 1e-9
        assert rel_err(second, mpmath_2f1(1, 1, n_cap + 1, x)) < 1e-9

    @pytest.mark.parametrize("n_cap", [1, 2, 5, 12])
    @pytest.mark.parametrize("x", [-25.0, -0.7, 0.45, 0.9])
    def test_form_relation(self, n_cap, x):
        # second = (1-x)^{N-1} * first
        first = hyp2f1_appendix_closed_form(n_cap, x, "first-form")
        second = hyp2f1_appendix_closed_form(n_cap, x, "second-form")
        assert rel_err(second, (1.0 - x) ** (n_cap - 1) * first) < 1e-11

    def test_deep_underflow_guard(self):
        # closed form would underflow at large N with small |x|
        got = hyp2f1_appendix_closed_form(150, 0.01, "second-form")
        assert rel_err(got, mpmath_2f1(1, 1, 151, 0.01)) < 1e-12

    def test_extreme_negative_argument(self):
        got = hyp2f1_appendix_closed_form(63, -1e6, "second-form")
        assert rel_err(got, mpmath_2f1(1, 1, 64, -1e6)) < 1e-9

    def test_form_validation(self):
        with pytest.raises(ValueError):
            hyp2f1_appendix_closed_form(3, 0.5, "third-form")
        with pytest.raises(ValueError):
            hyp2f1_appendix_closed_form(0, 0.5, "first-form")
        with pytest.raises(ValueError):
            hyp2f1_appendix_closed_form(True, 0.5, "first-form")
        with pytest.raises(ValueError):
            hyp2f1_appendix_closed_form(3, 1.0, "first-form")


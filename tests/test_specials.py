import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi

from projbound import (
    NumericalError,
    bessel_first_zero,
    bessel_first_zeros,
    bessel_j,
    hypergeom_F,
    log_gamma,
)

from helpers import (
    bessel_first_zero_scan,
    hypergeom_series,
    mp_bessel_first_zero,
    mp_besselj,
    mp_hyp2f1,
)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == 0.0

    def test_half_integer(self):
        assert log_gamma(1.5) == pytest.approx(math.log(math.sqrt(math.pi) / 2), rel=1e-14)

    def test_factorial(self):
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_relative_error_over_domain(self):
        for x in np.linspace(0.05, 200.0, 173):
            with mpmath.workdps(40):
                want = float(mpmath.loggamma(x))
            got = log_gamma(float(x))
            # exp(log_gamma) relative error <= 1e-13 means |log diff| <= ~1e-13
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-2.5)


class TestHypergeomF:
    def test_zero_upper_parameter(self):
        # F(0, a+1; a+2; z) = 1 for any z
        assert hypergeom_F(0.0, 3.7, 0.7) == pytest.approx(1.0, rel=1e-14)

    def test_terminating_linear_case(self):
        # F(-1, a+1; a+2; z) = 1 - (a+1) z / (a+2)
        for alpha, eps in [(1.0, 0.3), (5.0, 0.9), (2.5, 0.05)]:
            want = 1.0 - (alpha + 1.0) * eps / (alpha + 2.0)
            assert hypergeom_F(1.0, alpha, eps) == pytest.approx(want, rel=1e-13)

    def test_at_zero(self):
        assert hypergeom_F(-0.5, -0.5, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_euler_vs_series(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            beta = rng.uniform(-0.9, 2.0)
            alpha = rng.uniform(-0.9, 50.0)
            eps = rng.uniform(0.0, 0.95)
            a = hypergeom_F(beta, alpha, eps)
            b = hypergeom_series(beta, alpha, eps)
            assert a == pytest.approx(b, rel=1e-10)

    def test_against_mpmath(self):
        for beta, alpha, eps in [(-0.5, -0.5, 0.5), (1.0, 3.0, 0.2), (0.5, 7.0, 0.85)]:
            want = mp_hyp2f1(-beta, alpha + 1.0, alpha + 2.0, eps)
            assert hypergeom_F(beta, alpha, eps) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1033.5, 1100.5, 9997.0])
    def test_terminating_forms_past_the_rule(self, alpha):
        # the 64-point rule's weights overflow from alpha = 1033.5, and 0.5^(alpha+1)
        # underflows later: beta = 0 and beta = 1 terminate, and their series answers
        for eps in (0.0, 0.3, 0.99):
            assert hypergeom_F(0.0, alpha, eps) == 1.0
            assert hypergeom_F(1.0, alpha, eps) == 1.0 - (alpha + 1.0) * eps / (alpha + 2.0)
            want = mp_hyp2f1(-1.0, alpha + 1.0, alpha + 2.0, eps)
            assert hypergeom_F(1.0, alpha, eps) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("alpha,eps", [(1028.5, 0.999), (1033.0, 0.3)])
    def test_a_dot_past_the_float_range_raises_no_warning(self, alpha, eps):
        # finite weights, but their dot with (1 - eps s)^(-1/2) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="out of the float range"):
                hypergeom_F(-0.5, alpha, eps)

    @pytest.mark.parametrize("alpha", [1e14, 2e14, 1e17])
    def test_no_arithmetic_on_infinite_weights(self, alpha):
        # here the rule's weights hold both +inf and -inf, and their dot product
        # warned "invalid value" before the terminating series answered
        eps = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hypergeom_F(0.0, alpha, eps) == 1.0
            assert hypergeom_F(1.0, alpha, eps) == 1.0 - (alpha + 1.0) * eps / (alpha + 2.0)
            with pytest.raises(NumericalError) as exc:
                hypergeom_F(-0.5, alpha, eps)
        assert str(exc.value).endswith(f"at alpha={alpha}, beta=-0.5, eps=0.5")

    @pytest.mark.parametrize("beta", [-0.5, 0.5, 2.0])
    def test_other_beta_past_the_rule_is_a_numerical_error(self, beta):
        with pytest.raises(NumericalError, match=f"alpha=1100.5, beta={beta}, eps=0.25"):
            hypergeom_F(beta, 1100.5, 0.25)

    def test_rule_value_kept_where_finite(self):
        # below the overflow the 64-point value stands, even where beta terminates
        alpha, eps = 1000.0, 0.5
        u, w = roots_jacobi(64, 0.0, alpha)
        s = 0.5 * (1.0 + u)
        rule = (alpha + 1.0) * 0.5 ** (alpha + 1.0) * float(np.dot(w, (1.0 - eps * s) ** 1.0))
        assert hypergeom_F(1.0, alpha, eps) == rule

    def test_domain(self):
        with pytest.raises(ValueError):
            hypergeom_F(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            hypergeom_F(1.0, 0.0, -0.1)
        with pytest.raises(ValueError):
            hypergeom_F(1.0, -1.0, 0.5)


class TestBesselJ:
    def test_half_order_zero_at_pi(self):
        # J_{1/2} is proportional to sin(x)/sqrt(x)
        assert abs(bessel_j(0.5, math.pi)) < 1e-12

    def test_half_order_closed_form(self):
        for x in (0.3, 1.7, 4.0, 11.5):
            want = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(want, rel=1e-12)

    def test_at_origin(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.0, 0.0) == 0.0

    def test_against_mpmath_grid(self):
        for nu in (0.0, 0.5, 1.0, 3.5, 20.0, 99.5, 200.0, 398.0):
            for x in (0.1, 1.0, 10.0, 50.0, 250.0, 450.0):
                want = mp_besselj(nu, x)
                assert bessel_j(nu, x) == pytest.approx(want, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_j(-0.5, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0.0, -1.0)
        # no upper cap on the order or the argument
        for nu in (0.0, 502.0, 598.0):
            assert bessel_j(nu, 1001.0) == pytest.approx(mp_besselj(nu, 1001.0), abs=1e-12)


class TestBesselFirstZero:
    def test_half_order_is_pi(self):
        z = bessel_first_zero(0.5)
        assert z.value == pytest.approx(math.pi, abs=1e-13)

    def test_frozen_reference_values(self):
        # values confirmed by the high-precision oracle below
        assert bessel_first_zero(0.0).value == pytest.approx(2.404825557695773, abs=1e-12)
        assert bessel_first_zero(1.0).value == pytest.approx(3.831705970207512, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 7.0, 31.5, 99.0, 200.0, 398.0, 598.0])
    def test_against_mpmath(self, nu):
        assert bessel_first_zero(nu).value == pytest.approx(
            mp_bessel_first_zero(nu), abs=1e-11
        )

    @pytest.mark.parametrize("nu", [20.0, 99.5])
    def test_bracketed_oracle_matches_besseljzero(self, nu):
        # from nu = 20 on the oracle brackets the zero instead of calling besseljzero
        with mpmath.workdps(40):
            want = float(mpmath.besseljzero(nu, 1))
        assert mp_bessel_first_zero(nu) == want

    def test_monotone_in_order_with_bracket(self):
        prev = 0.0
        for nu in np.arange(0.0, 50.5, 0.5):
            z = bessel_first_zero(float(nu))
            assert z.value > prev
            assert z.residual < 1e-12
            assert math.sqrt(nu * (nu + 2.0)) < z.value < math.sqrt(
                2.0 * (nu + 1.0) * (nu + 3.0)
            )
            assert z.value > nu
            prev = z.value

    def test_matches_scan_oracle_bit_for_bit(self):
        # every order asym meets up to m = 300, fractional orders, and nu = 0,
        # where the scan starts at lower == 0
        field_orders = [d * (m - 1) / 2.0 for d in (1, 2, 4) for m in range(2, 301)]
        fractional = np.random.default_rng(31).uniform(0.0, 600.0, 200).tolist()
        orders = field_orders + fractional + [0.0]
        zeros = bessel_first_zeros(orders)
        assert [z.nu for z in zeros] == orders
        for nu, z in zip(orders, zeros):
            want = bessel_first_zero_scan(nu)
            assert (z.value, z.residual) == want, nu
            one = bessel_first_zero(nu)  # solved alone
            assert (one.value, one.residual) == want, nu

    def test_domain(self):
        with pytest.raises(ValueError, match="bessel_first_zero requires nu >= 0"):
            bessel_first_zero(-1.0)
        for bad in (math.nan, -0.5):
            with pytest.raises(ValueError, match="bessel_first_zeros requires nu >= 0"):
                bessel_first_zeros([1.0, bad, 2.0])
        with pytest.raises(ValueError):
            bessel_first_zeros([[1.0, 2.0]])
        assert bessel_first_zeros([]) == []
        # no upper cap on the order: nu = 598 is the quaternionic case at m = 300
        for nu in (502.0, 598.0):
            j = bessel_first_zero(nu).value
            assert mp_besselj(nu, j - 1e-9) > 0.0 > mp_besselj(nu, j + 1e-9)
            olver = nu + 1.8557571 * nu ** (1 / 3) + 1.033150 * nu ** (-1 / 3)
            assert j == pytest.approx(olver, abs=1e-4)
            assert math.sqrt(nu * (nu + 2.0)) < j < math.sqrt(2.0 * (nu + 1.0) * (nu + 3.0))


class TestRepeatedOrders:
    """bessel_first_zeros returns every order of one call, a repeated one each time it is given."""

    def test_signed_zero_order_comes_back_as_requested(self):
        zeros = bessel_first_zeros([-0.0, 0.0]) + bessel_first_zeros([0.0, -0.0])
        signs = [math.copysign(1.0, z.nu) for z in zeros]
        assert signs == [-1.0, 1.0, 1.0, -1.0]
        want = bessel_first_zero_scan(0.0)
        assert all((z.value, z.residual) == want for z in zeros)

    def test_repeated_orders_match_each_order_solved_alone(self):
        orders = [3.0, 40.5, 3.0, 3.0, 40.5, 598.0, 40.5]
        zeros = bessel_first_zeros(orders)
        assert [z.nu for z in zeros] == orders
        for z in zeros:
            alone = bessel_first_zero(z.nu)
            assert (z.value.hex(), z.residual.hex()) == (alone.value.hex(), alone.residual.hex())

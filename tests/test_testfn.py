import math

import numpy as np
import pytest

from projbound import (
    Field,
    NumericalError,
    bound_from_test_function,
    build_test_function,
    eval_f,
    field_params,
    jacobi_eval,
    tau,
)
from projbound.jacobi import jacobi_norm_nu_all, jacobi_value_at_one_all

from helpers import conv_oracle, quad_tail, real_m3_testfn_oracle


def coeff_scale(tf):
    return max(np.abs(tf.coeff_f).max(), np.abs(tf.coeff_h).max(), np.abs(tf.coeff_g).max())


class TestConstruction:
    def test_complex_m2_l1_by_hand(self):
        tf = build_test_function(Field.C, 2, 1, k_max=60)
        # raised family is (1,1); P_1 ~ t, so xi = 0 and c_0[h] = 1
        assert tf.xi == pytest.approx(0.0, abs=1e-14)
        assert tf.coeff_h[0] == pytest.approx(1.0, rel=1e-13)
        assert bound_from_test_function(tf) == pytest.approx(2.0, rel=1e-12)

    def test_quaternion_m2_l2_by_hand(self):
        tf = build_test_function(Field.H, 2, 2, k_max=60)
        xi = 7**-0.5
        assert tf.xi == pytest.approx(xi, abs=1e-13)
        want = 4.0 / ((2.0 + xi) * (1.0 - xi) ** 2)
        assert bound_from_test_function(tf) == pytest.approx(want, rel=1e-12)

    def test_real_m2_recovers_classical_value(self):
        for p in range(2, 41, 2):
            tf = build_test_function(Field.R, 2, p // 2, k_max=p // 2 + 8)
            assert bound_from_test_function(tf) == pytest.approx(p / 2 + 1, rel=1e-10)

    def test_quaternion_m2_l1(self):
        tf = build_test_function(Field.H, 2, 1, k_max=40)
        assert bound_from_test_function(tf) == pytest.approx(2.0, rel=1e-12)

    def test_complex_m2_l2(self):
        tf = build_test_function(Field.C, 2, 2, k_max=40)
        assert bound_from_test_function(tf) == pytest.approx(2.0 / (1.0 - 5**-0.5), rel=1e-12)

    def test_sign_pattern_real_m3_l5(self):
        tf = build_test_function(Field.R, 3, 5, k_max=200)
        scale = np.abs(tf.coeff_f).max()
        assert abs(tf.coeff_f[6]) <= 1e-12 * scale
        assert np.all(tf.coeff_f[7:] < 0.0)

    def test_k_max_past_numpy_is_a_value_error(self):
        # numpy cannot size a (2**70 + 1,) table: the error names k_max, not numpy's limit
        with pytest.raises(ValueError, match=f"^k_max must fit in memory as a table, got {2**70}$"):
            build_test_function(Field.R, 2, 1, k_max=2**70)

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            build_test_function(Field.C, 2, 5, k_max=6)
        with pytest.raises(ValueError):
            build_test_function(Field.C, 2, 0, k_max=10)

    @pytest.mark.filterwarnings("error")
    def test_series_tail_is_reported_without_a_warning(self):
        # real-field coefficients decay algebraically: the default truncation's
        # tail term exceeds 1e-12 * f(1), the report carries it and no warning is
        # raised, and enlarging k_max shrinks it
        tf_small = build_test_function(Field.R, 3, 5, k_max=200)
        assert tf_small.series_tail_term > 1e-12 * tf_small.value_at_one
        tf_big = build_test_function(Field.R, 3, 5, k_max=1000)
        assert tf_big.series_tail_term < tf_small.series_tail_term

    @pytest.mark.filterwarnings("error")
    def test_last_finite_tables_before_the_float_range(self):
        tf = build_test_function(Field.H, 231, 2)
        for table in (tf.coeff_h, tf.coeff_g, tf.coeff_f):
            assert np.isfinite(table).all()
        assert math.isfinite(tf.value_at_one) and math.isfinite(tf.series_tail_term)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [232, 267, 518])
    def test_tables_past_the_float_range_are_a_numerical_error(self, m):
        # over H at l=2, tau * P_k(1) overflows from m=232 (c_f would read 0), c_f
        # is NaN from m=267, and a Python float power overflows from m=518
        with pytest.raises(NumericalError, match=rf"^test function \(field=H, m={m}, l=2\): "):
            build_test_function(Field.H, m, 2)


class TestCoefficientsAgainstQuadrature:
    @pytest.mark.parametrize(
        "field,m,l",
        [(Field.R, 2, 3), (Field.R, 4, 2), (Field.C, 2, 4), (Field.C, 3, 2), (Field.H, 2, 3)],
    )
    def test_closed_forms_match_tail_integrals(self, field, m, l):
        tf = build_test_function(field, m, l, k_max=40)
        params = tf.params
        a, b = params.alpha, params.beta
        p_r_xi = jacobi_eval(params, tf.r, tf.xi)
        scale = coeff_scale(tf)
        for k in range(26):
            h_quad = quad_tail(a, b, tf.xi, lambda t, k=k: jacobi_eval(params, k, t))
            g_quad = quad_tail(
                a,
                b,
                tf.xi,
                lambda t, k=k: (jacobi_eval(params, tf.r, t) - p_r_xi)
                * jacobi_eval(params, k, t),
            )
            assert abs(tf.coeff_h[k] - h_quad) <= 1e-10 * scale
            assert abs(tf.coeff_g[k] - g_quad) <= 1e-10 * scale

    def test_product_rule_from_independent_coefficients(self):
        # c_k[f] must equal c_k[g] c_k[h] / (tau * P_k(1)) with both factors
        # recomputed by quadrature rather than by the closed forms
        tf = build_test_function(Field.H, 3, 3, k_max=40)
        params = tf.params
        a, b = params.alpha, params.beta
        p_r_xi = jacobi_eval(params, tf.r, tf.xi)
        t0 = tau(params)
        scale = np.abs(tf.coeff_f).max()
        for k in range(20):
            h_quad = quad_tail(a, b, tf.xi, lambda t, k=k: jacobi_eval(params, k, t))
            g_quad = quad_tail(
                a,
                b,
                tf.xi,
                lambda t, k=k: (jacobi_eval(params, tf.r, t) - p_r_xi)
                * jacobi_eval(params, k, t),
            )
            product = g_quad * h_quad / (t0 * jacobi_value_at_one_all(params, k)[k])
            assert abs(tf.coeff_f[k] - product) <= 1e-10 * scale

    def test_c0_of_g_identity(self):
        # c_0[g] = -P_r(xi) c_0[h] because c_r[h] vanishes
        for field, m, l in [(Field.R, 3, 2), (Field.C, 2, 5), (Field.H, 2, 2)]:
            tf = build_test_function(field, m, l, k_max=30)
            p_r_xi = jacobi_eval(tf.params, tf.r, tf.xi)
            assert tf.coeff_g[0] == pytest.approx(-p_r_xi * tf.coeff_h[0], rel=1e-11)

    def test_vanishing_at_r(self):
        for field, m, l in [(Field.R, 2, 4), (Field.C, 3, 3), (Field.H, 4, 2)]:
            tf = build_test_function(field, m, l, k_max=60)
            assert abs(tf.coeff_h[tf.r]) <= 1e-12 * abs(tf.coeff_h[0])
            assert abs(tf.coeff_f[tf.r]) <= 1e-12 * np.abs(tf.coeff_f).max()


class TestMembership:
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("l", [1, 4, 9])
    def test_certificate(self, field, m, l):
        # coefficient certificate on the standard table: never positive past
        # degree l, and strictly negative past l+1 wherever c_k[h] does not
        # vanish identically (at m=2, l=1 the root sits at 0 and alternate
        # coefficients are exact zeros)
        tf = build_test_function(field, m, l, k_max=200)
        scale = np.abs(tf.coeff_f).max()
        high = tf.coeff_f[tf.r + 1 :]
        assert np.all(high <= 0.0)
        nonzero = tf.coeff_h[tf.r + 1 :] != 0.0
        assert np.all(high[nonzero] < 0.0)
        assert np.count_nonzero(nonzero) >= (len(high) // 2)
        assert np.all(tf.coeff_f[l + 1 :] <= 1e-12 * scale)
        assert tf.coeff_f[0] > 0.0 and tf.value_at_one > 0.0
        # nonnegativity is a statement about the function, so evaluate it
        # with the series pushed far enough that truncation is below the
        # tolerance (the truncated tail of the slow real-field series alone
        # can reach ~1e-6 * f(1))
        tf_eval = build_test_function(field, m, l, k_max=2400)
        grid = np.linspace(-1.0, 1.0, 2000)
        vals = eval_f(tf_eval, grid)
        assert vals.min() >= -1e-8 * tf_eval.value_at_one

    def test_schwartz_bound(self):
        for field, m, l in [(Field.R, 3, 3), (Field.C, 2, 4), (Field.H, 2, 2)]:
            tf = build_test_function(field, m, l, k_max=1200)
            params = tf.params
            a, b = params.alpha, params.beta
            p_r_xi = jacobi_eval(params, tf.r, tf.xi)
            norm_h_sq = tf.coeff_h[0]
            norm_g_sq = quad_tail(
                a, b, tf.xi, lambda t: (jacobi_eval(params, tf.r, t) - p_r_xi) ** 2
            )
            cap = math.sqrt(norm_g_sq * norm_h_sq) / tau(params)
            grid = np.linspace(-1.0, 1.0, 1500)
            assert np.abs(eval_f(tf, grid)).max() <= cap * (1.0 + 1e-8)


class TestSeriesEvaluation:
    def test_value_at_one_vs_c0_of_g(self):
        # tau * f(1) = c_0[g]; at k_max=1200 truncation sits below 1e-7 relative
        for field, m, l in [(Field.R, 2, 5), (Field.C, 3, 2), (Field.H, 2, 3)]:
            tf = build_test_function(field, m, l, k_max=1200)
            want = tf.coeff_g[0] / tau(tf.params)
            assert eval_f(tf, 1.0) == pytest.approx(want, rel=1e-6)

    def test_nonnegative_near_minus_one(self):
        tf = build_test_function(Field.C, 2, 1, k_max=200)
        assert eval_f(tf, -0.9) >= -1e-8 * tf.value_at_one

    def test_scalar_and_array_agree(self):
        tf = build_test_function(Field.R, 3, 2, k_max=80)
        grid = np.array([-0.5, 0.0, 0.75])
        vals = eval_f(tf, grid)
        for t, v in zip(grid, vals):
            assert eval_f(tf, float(t)) == pytest.approx(float(v), rel=1e-14)


class TestConvolutionGeometry:
    @pytest.mark.parametrize("delta,m", [(1, 2), (1, 3), (2, 2), (4, 2)])
    def test_basis_convolutions_are_diagonal(self, delta, m):
        field = {1: Field.R, 2: Field.C, 4: Field.H}[delta]
        params = field_params(field, m)
        t_vals = (-0.8, -0.3, 0.2, 0.6, 0.95)
        t0 = tau(params)
        for j in range(7):
            for k in range(7):
                b_mk = (
                    t0 * jacobi_norm_nu_all(params, k)[k] * jacobi_value_at_one_all(params, k)[k]
                )
                if j == k == 0:
                    assert b_mk == pytest.approx(1.0, rel=1e-13)
                for t in t_vals:
                    got = conv_oracle(
                        delta,
                        m,
                        lambda s, j=j: jacobi_eval(params, j, s),
                        lambda s, k=k: jacobi_eval(params, k, s),
                        t,
                    )
                    want = jacobi_eval(params, k, t) / b_mk if j == k else 0.0
                    assert got == pytest.approx(want, abs=2e-12)

    def test_series_matches_direct_convolution_real_m3(self):
        tf = build_test_function(Field.R, 3, 2, k_max=1600)
        params = tf.params

        def jac(r, s):
            return jacobi_eval(params, r, s)

        for t in (-0.9, -0.3, 0.2, 0.7, 0.95):
            want = real_m3_testfn_oracle(tf.r, tf.xi, t, jac)
            assert eval_f(tf, t) == pytest.approx(want, abs=1e-8)

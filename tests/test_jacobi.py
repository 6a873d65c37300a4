import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from projbound import (
    Field,
    JacobiParams,
    NumericalError,
    build_test_function,
    field_params,
    hypergeom_F,
    incomplete_weight_integral,
    jacobi,
    jacobi_deriv,
    jacobi_eval,
    jacobi_eval_all,
    largest_root,
    tau,
    yudin_bound,
)
from projbound.jacobi import (
    _RULE_ORDER,
    _coefficients,
    _gauss_jacobi,
    _solve_largest_root,
    tail_rule,
    jacobi_norm_nu_all,
    jacobi_value_at_one_all,
)

from helpers import (
    clear_largest_root_memo,
    gauss_jacobi,
    largest_root_eigh,
    largest_root_scan,
    loop_coefficients,
    monomial_moment,
    mp_jacobi,
)

FIELD_PARAMS = [field_params(f, m) for f in Field for m in range(2, 7)]

#: parameter sets on which the table, the root and scalar values are pinned to the per-row
#: loop; the field tables are exact small integers whatever the order of operations, so
#: the last two, not dyadic, are the ones that catch a reordered product
PINNED_PARAMS = [field_params(f, m) for f in Field for m in (2, 3, 4, 16, 58, 200, 300)] + [
    JacobiParams(-0.5, -0.5),
    JacobiParams(100.0, 1.0),
    JacobiParams(399.0, 2.0),
    JacobiParams(0.37, -0.21),
    JacobiParams(123.456, 7.89),
]
PINNED_DEGREES = [0, 1, 2, 3, 7, 64, 600, 1000, 2000]


def binom_general(a: float, k: int) -> float:
    return math.exp(gammaln(a + k + 1) - gammaln(a + 1) - gammaln(k + 1))


class TestFieldParse:
    @pytest.mark.parametrize("name", ["Q", "", "RR", "1"])
    def test_unknown_name(self, name):
        with pytest.raises(ValueError) as exc:
            Field.parse(name)
        assert str(exc.value) == f"unknown field {name!r}: expected one of R, C, H"


class TestEval:
    def test_degree_zero_is_one(self):
        assert jacobi_eval(JacobiParams(0.7, -0.3), 0, 0.37) == 1.0

    def test_value_at_one_is_binomial(self):
        # P_2^{(1,1)}(1) = C(3,2) = 3
        assert jacobi_eval(JacobiParams(1, 1), 2, 1.0) == pytest.approx(3.0, rel=1e-14)

    def test_degree_one_closed_form(self):
        assert jacobi_eval(JacobiParams(1, 1), 1, 0.5) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("params", FIELD_PARAMS, ids=str)
    def test_normalization_at_one(self, params):
        for k in range(31):
            want = binom_general(params.alpha, k)
            assert jacobi_eval(params, k, 1.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("params", FIELD_PARAMS, ids=str)
    def test_sup_norm_attained_at_one(self, params):
        # holds whenever max(alpha, beta) >= -1/2, true for all field parameters
        assert max(params.alpha, params.beta) >= -0.5
        t = np.linspace(-1.0, 1.0, 10_000)
        for k in (1, 3, 7, 15):
            vals = np.abs(jacobi_eval(params, k, t))
            assert vals.max() <= jacobi_value_at_one_all(params, k)[k] * (1 + 1e-10)

    def test_eval_all_matches_single(self):
        params = JacobiParams(2.0, 0.5)
        t = np.array([-0.9, -0.2, 0.3, 0.99])
        table = jacobi_eval_all(params, 12, t)
        for k in range(13):
            assert np.allclose(table[k], jacobi_eval(params, k, t), rtol=1e-14)

    @pytest.mark.parametrize("params", PINNED_PARAMS, ids=str)
    def test_scalar_route_matches_array_route_bit_for_bit(self, params):
        # a scalar t runs on Python floats, an array t on numpy: same doubles,
        # and the same inf or NaN where P_k overflows (alpha = 399, k = 2000)
        for k in PINNED_DEGREES:
            for t in (-0.83, 0.0, 0.41, 0.999, 1.0):
                with np.errstate(over="ignore", invalid="ignore"):
                    want = jacobi_eval(params, k, np.array([t]))
                got = [jacobi_eval(params, k, t), jacobi_eval_all(params, k, t)[k]]
                assert np.array_equal(got, [want[0]] * 2, equal_nan=True)

    @pytest.mark.parametrize("params", PINNED_PARAMS, ids=str)
    def test_coefficient_table_matches_row_loop_bit_for_bit(self, params):
        for k in PINNED_DEGREES:
            table = _coefficients(params, k)
            want = np.array(loop_coefficients(params.alpha, params.beta, k), dtype=float)
            assert table.shape == (4, k)
            assert np.array_equal(table, want.reshape(k, 4).T)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            JacobiParams(0.0, -1.5)
        with pytest.raises(ValueError):
            jacobi_eval(JacobiParams(0, 0), -1, 0.0)

    @pytest.mark.parametrize("k", [-1, -2])
    @pytest.mark.parametrize("evaluate", [jacobi_eval, jacobi_eval_all])
    def test_negative_degree_rejected(self, evaluate, k):
        with pytest.raises(ValueError, match=f"degree must be >= 0, got {k}"):
            evaluate(JacobiParams(1.0, 0.5), k, 0.3)


class TestDeriv:
    def test_linear(self):
        # P_1^{(1,1)}(t) = 2t
        for t in (-0.7, 0.0, 0.4, 1.3):
            assert jacobi_deriv(JacobiParams(1, 1), 1, t) == pytest.approx(2.0, rel=1e-14)

    def test_even_polynomial_odd_derivative(self):
        assert jacobi_deriv(JacobiParams(0, 0), 2, 0.0) == 0.0

    def test_degree_zero_derivative(self):
        assert jacobi_deriv(JacobiParams(0.5, 0.5), 0, 0.2) == 0.0

    def test_shift_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = rng.uniform(-0.9, 3.0, size=2)
            k = int(rng.integers(1, 14))
            t = rng.uniform(-1.0, 1.0)
            params = JacobiParams(a, b)
            lhs = jacobi_deriv(params, k, t)
            rhs = 0.5 * (k + a + b + 1) * jacobi_eval(params.raised(), k - 1, t)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_derivative_against_finite_differences(self):
        params = JacobiParams(1.5, -0.25)
        h = 1e-6
        for k in (1, 2, 5, 9):
            for t in (-0.6, 0.1, 0.8):
                fd = (jacobi_eval(params, k, t + h) - jacobi_eval(params, k, t - h)) / (2 * h)
                assert jacobi_deriv(params, k, t) == pytest.approx(fd, rel=5e-9)


class TestTauAndNorms:
    def test_tau_legendre(self):
        assert tau(JacobiParams(0, 0)) == pytest.approx(2.0, rel=1e-14)

    def test_tau_arcsine(self):
        assert tau(JacobiParams(-0.5, -0.5)) == pytest.approx(math.pi, rel=1e-14)

    def test_tau_parabolic(self):
        assert tau(JacobiParams(1, 1)) == pytest.approx(4.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("params", FIELD_PARAMS, ids=str)
    def test_tau_against_quadrature(self, params):
        rule = gauss_jacobi(params, 24)
        assert rule.integrate(np.ones_like) == pytest.approx(tau(params), rel=1e-13)

    def test_nu_zero_is_reciprocal_tau(self):
        for params in (JacobiParams(0.3, 1.7), JacobiParams(-0.5, -0.5)):
            nu_0 = jacobi_norm_nu_all(params, 0)[0]
            assert nu_0 == pytest.approx(1.0 / tau(params), rel=1e-13)

    def test_nu_legendre_degree_one(self):
        assert jacobi_norm_nu_all(JacobiParams(0, 0), 1)[1] == pytest.approx(1.5, rel=1e-13)

    def test_nu_parabolic_degree_one(self):
        # 1 / integral of 4 t^2 (1 - t^2) = 15/16
        nu_1 = jacobi_norm_nu_all(JacobiParams(1, 1), 1)[1]
        assert nu_1 == pytest.approx(15.0 / 16.0, rel=1e-13)

    @pytest.mark.parametrize("params", FIELD_PARAMS, ids=str)
    def test_norms_match_quadrature(self, params):
        rule = gauss_jacobi(params, 48)
        for k in range(21):
            sq = rule.integrate(lambda t, k=k: jacobi_eval(params, k, t) ** 2)
            assert 1.0 / jacobi_norm_nu_all(params, k)[k] == pytest.approx(sq, rel=1e-11)

    @pytest.mark.parametrize("params", FIELD_PARAMS, ids=str)
    def test_orthogonality(self, params):
        rule = gauss_jacobi(params, 48)
        table = jacobi_eval_all(params, 20, rule.nodes)
        for k in range(1, 21):
            for j in range(k):
                val = float(np.dot(rule.weights, table[j] * table[k]))
                assert abs(val) < 1e-11


class TestLargestRoot:
    def test_linear_case(self):
        assert largest_root(JacobiParams(2, 2), 1) == pytest.approx(0.0, abs=1e-13)

    def test_quadratic_cases(self):
        assert largest_root(JacobiParams(1, 1), 2) == pytest.approx(5**-0.5, abs=1e-13)
        assert largest_root(JacobiParams(2, 2), 2) == pytest.approx(7**-0.5, abs=1e-13)

    @pytest.mark.parametrize("params", FIELD_PARAMS, ids=str)
    def test_root_is_a_root_and_interlaces(self, params):
        prev = -1.0
        for k in range(1, 31):
            root = largest_root(params, k)
            assert prev < root < 1.0
            scale = jacobi_value_at_one_all(params, k)[k]
            assert abs(jacobi_eval(params, k, root)) <= 1e-11 * scale
            prev = root

    def test_derivative_root_consistency(self):
        # the largest stationary point of P_{l+1} is the largest root of the
        # raised family at degree l
        from scipy.optimize import brentq

        for params in (field_params(Field.C, 3), field_params(Field.H, 2)):
            for l in (1, 2, 5, 9):
                xi = largest_root(params.raised(), l)
                grid = np.cos(np.linspace(math.pi, 0.0, 8 * (l + 1) + 1))
                dv = jacobi_deriv(params, l + 1, grid)
                sign_flips = np.nonzero(np.sign(dv[:-1]) * np.sign(dv[1:]) < 0)[0]
                a, b = grid[sign_flips[-1]], grid[sign_flips[-1] + 1]
                direct = brentq(
                    lambda t: jacobi_deriv(params, l + 1, t), a, b, xtol=1e-15
                )
                assert xi == pytest.approx(direct, abs=1e-12)

    def test_degree_200(self):
        params = JacobiParams(4.0, 2.0)
        root = largest_root(params, 200)
        assert 0.999 < root < 1.0
        # residual scaled by local derivative: the root is accurate
        res = jacobi_eval(params, 200, root)
        slope = jacobi_deriv(params, 200, root)
        assert abs(res / slope) < 1e-13

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            largest_root(JacobiParams(0, 0), 0)

    def test_lapack_failure_raises(self, monkeypatch):
        import scipy.linalg.lapack

        def failed(d, e, *args):
            return 0, np.zeros_like(d), None, None, 1

        clear_largest_root_memo()  # a root an earlier test solved would never reach dstebz
        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", failed)
        with pytest.raises(NumericalError, match="info=1"):
            largest_root(JacobiParams(2.0, 0.5), 5)

    @pytest.mark.parametrize("params", PINNED_PARAMS, ids=str)
    def test_matches_eigh_tridiagonal_route_bit_for_bit(self, params):
        for k in PINNED_DEGREES[1:]:
            want = largest_root_eigh(params.alpha, params.beta, k)
            got = largest_root(params, k)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize(
        "alpha,beta", [(-0.5, -0.5), (0.5, -0.5), (2, 2), (1.5, 0.5), (100, 1)]
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 30, 120, 600])
    def test_matches_scan_oracle(self, alpha, beta, k):
        ref = largest_root_scan(alpha, beta, k)
        got = largest_root(JacobiParams(alpha, beta), k)
        assert abs(got - ref) <= 4 * np.spacing(abs(ref)) + 1e-12 * (1.0 - ref)

    @pytest.mark.parametrize(
        "alpha,beta,k", [(-0.5, -0.5, 40), (-0.5, -0.5, 1000), (0.5, 0.0, 90), (0.5, 0.0, 1000)]
    )
    def test_within_one_ulp_of_the_root(self, alpha, beta, k):
        # the Newton polish matters here: the bare top eigenvalue of the
        # Jacobi matrix was 1.03-1.43 ulp away from these roots
        x = largest_root(JacobiParams(alpha, beta), k)
        below, above = (mp_jacobi(alpha, beta, k, np.nextafter(x, t)) for t in (-1.0, 2.0))
        assert (below > 0) != (above > 0)

    def test_no_overflow_at_high_degree_and_large_alpha(self):
        # P_1000(1) is about 4e361, past the float range, so a root search
        # that evaluates the unnormalised recurrence meets inf and NaN here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = largest_root(JacobiParams(399.0, 2.0), 1000)

        def positive(t):
            return mp_jacobi(399.0, 2.0, 1000, t, dps=50) > 0

        assert positive(x * (1 - 1e-12)) != positive(x * (1 + 1e-12))
        assert all(positive(t) for t in np.linspace(x, 1.0, 41)[1:])

    @pytest.mark.parametrize("field,m", [(Field.C, 10**17), (Field.H, 10**16), (Field.C, 10**20)])
    def test_newton_step_past_the_float_range_is_a_numerical_error(self, field, m):
        # P_k' underflows to 0 at these alpha: the step p/d was a ZeroDivisionError
        params = field_params(field, m).raised()
        with pytest.raises(NumericalError) as exc:
            largest_root(params, 2)
        assert str(exc.value) == (
            f"Newton step not finite at alpha={params.alpha}, beta={params.beta}, k=2"
        )



#: the raised (alpha+1, beta+1) families whose largest roots are the xi of bound, table and testfn
MEMO_PARAMS = [field_params(f, m).raised() for f in Field for m in (2, 3, 30)]
#: degrees on which keys that compare equal are checked to solve to the same bits
MEMO_DEGREES = [1, 2, 3, 7, 30, 120, 600]


class TestLargestRootMemo:
    """Each solved largest root is kept per process; a hit is the solved double, bit for bit."""

    @pytest.mark.parametrize("params", MEMO_PARAMS, ids=str)
    def test_hit_returns_the_solved_double(self, params):
        for k in (1, 2, 30, 600):
            clear_largest_root_memo()
            solved = largest_root(params, k)
            hits = _solve_largest_root.cache_info().hits
            assert largest_root(params, k).hex() == solved.hex()
            assert _solve_largest_root.cache_info().hits == hits + 1

    @pytest.mark.parametrize("k", MEMO_DEGREES)
    def test_signed_zero_params_solve_to_the_same_bits(self, k):
        # +0.0 and -0.0 compare equal, so they share one key
        bits = set()
        for alpha in (0.0, -0.0):
            for beta in (0.0, -0.0):
                clear_largest_root_memo()
                bits.add(largest_root(JacobiParams(alpha, beta), k).hex())
        assert len(bits) == 1

    @pytest.mark.parametrize("alpha,beta", [(2, 2), (100, 1), (1, 0), (3, 1)])
    def test_int_and_float_params_solve_to_the_same_bits(self, alpha, beta):
        for k in MEMO_DEGREES:
            clear_largest_root_memo()
            from_int = largest_root(JacobiParams(alpha, beta), k)
            from_float = largest_root(JacobiParams(float(alpha), float(beta)), k)
            assert from_int.hex() == from_float.hex()
            assert _solve_largest_root.cache_info().misses == 2  # typed: two keys

    def test_failed_solve_is_not_kept(self, monkeypatch):
        import scipy.linalg.lapack

        def failed(d, e, *args):
            return 0, np.zeros_like(d), None, None, 1

        clear_largest_root_memo()
        with monkeypatch.context() as patch:
            patch.setattr(scipy.linalg.lapack, "dstebz", failed)
            for _ in range(2):
                with pytest.raises(NumericalError, match="info=1"):
                    largest_root(JacobiParams(2.0, 0.5), 5)
            assert _solve_largest_root.cache_info().currsize == 0
        assert largest_root(JacobiParams(2.0, 0.5), 5).hex() == largest_root_eigh(2.0, 0.5, 5).hex()

    def test_degree_zero_raises_on_every_call(self):
        clear_largest_root_memo()
        for _ in range(3):
            with pytest.raises(ValueError, match="degree must be >= 1"):
                largest_root(JacobiParams(0, 0), 0)
        assert _solve_largest_root.cache_info().currsize == 0


class TestRuleReader:
    """hypergeom_F and tail_rule read scipy's rules through one memo: each key is fetched once."""

    @pytest.fixture
    def fetched(self, monkeypatch):
        """The (order, alpha, beta) of every roots_jacobi call, from an empty memo on."""
        calls, fetch = [], jacobi.roots_jacobi

        def counting(order, alpha, beta):
            calls.append((order, alpha, beta))
            return fetch(order, alpha, beta)

        monkeypatch.setattr(jacobi, "roots_jacobi", counting)
        _gauss_jacobi.cache_clear()
        yield calls
        _gauss_jacobi.cache_clear()  # keep no rule fetched through the wrapper

    def test_real_bound_fetches_one_rule(self, fetched):
        # the closed form's F(-b, a+1; a+2; eps) and the integral ratio's F(-a, a+1; a+2; h/2)
        # both read the (0, a) rule: over R, alpha = a = (m-3)/2
        for _ in range(2):
            yudin_bound(Field.R, 7, 40)
            assert fetched == [(_RULE_ORDER, 0.0, 2.0)]

    def test_test_function_fetches_its_two_tail_rules_once(self, fetched):
        alpha = field_params(Field.C, 3).alpha
        for _ in range(2):
            build_test_function(Field.C, 3, 5)
            assert sorted(fetched) == [(_RULE_ORDER, alpha, 0.0), (_RULE_ORDER + 12, alpha, 0.0)]

    def test_overflowed_rules_are_fetched_once_and_read_by_no_caller(self, fetched):
        # from alpha = 1033.5 scipy's weights overflow: C and H take the terminating series
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                assert hypergeom_F(0.0, 1040.0, 0.3) == 1.0
                assert hypergeom_F(1.0, 1040.0, 0.3) == 1.0 - 1041.0 * 0.3 / 1042.0
                with pytest.raises(NumericalError, match="^tail_rule: weights past the float"):
                    tail_rule(JacobiParams(1040.0, 1.0), -0.9, _RULE_ORDER)
        assert fetched == [(_RULE_ORDER, 0.0, 1040.0), (_RULE_ORDER, 1040.0, 0.0)]

    def test_rule_arrays_are_read_only(self, fetched):
        u, w, s, finite = _gauss_jacobi(_RULE_ORDER, 0.0, 2.0)
        assert finite and not any(a.flags.writeable for a in (u, w, s))
        assert s.tobytes() == (0.5 * (1.0 + u)).tobytes()


class TestGaussJacobi:
    def test_weight_sum_and_constant(self):
        rule = gauss_jacobi(JacobiParams(0, 0), 5)
        assert rule.integrate(np.ones_like) == pytest.approx(2.0, rel=1e-14)

    def test_orthogonality_spot_check(self):
        params = JacobiParams(1, 1)
        rule = gauss_jacobi(params, 16)
        val = rule.integrate(lambda t: jacobi_eval(params, 3, t) * jacobi_eval(params, 5, t))
        assert abs(val) < 1e-13

    def test_norm_spot_check(self):
        params = JacobiParams(1, 1)
        rule = gauss_jacobi(params, 16)
        val = rule.integrate(lambda t: jacobi_eval(params, 4, t) ** 2)
        assert val == pytest.approx(1.0 / jacobi_norm_nu_all(params, 4)[4], rel=1e-11)

    @pytest.mark.parametrize("order", [1, 2, 5, 8, 16])
    def test_monomial_exactness(self, order):
        # exact for degree <= 2*order - 1 against a 60-digit moment oracle
        for params in (JacobiParams(0.5, -0.5), JacobiParams(3.0, 1.0)):
            rule = gauss_jacobi(params, order)
            for j in range(2 * order):
                got = float(np.dot(rule.weights, rule.nodes**j))
                want = monomial_moment(params.alpha, params.beta, j)
                assert got == pytest.approx(want, rel=2e-13, abs=1e-14)

    def test_structure(self):
        rule = gauss_jacobi(JacobiParams(2.5, 0.0), 13)
        assert rule.order == 13 and rule.nodes.shape == (13,)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert np.all(rule.nodes > -1) and np.all(rule.nodes < 1)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_jacobi(JacobiParams(0, 0), 0)


class TestIncompleteWeightIntegral:
    def test_legendre_half(self):
        assert incomplete_weight_integral(JacobiParams(0, 0), 0.0) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_parabolic_half(self):
        # integral of (1-t)(1+t) over [0,1] is 2/3 by the elementary antiderivative
        assert incomplete_weight_integral(JacobiParams(1, 1), 0.0) == pytest.approx(
            2.0 / 3.0, rel=1e-13
        )

    def test_arcsine_is_arccos(self):
        params = JacobiParams(-0.5, -0.5)
        for xi in (-0.8, -0.1, 0.3, 0.9):
            assert incomplete_weight_integral(params, xi) == pytest.approx(
                math.acos(xi), rel=1e-13
            )

    def test_against_adaptive_quadrature(self):
        import mpmath

        rng = np.random.default_rng(11)
        for _ in range(25):
            a, b = rng.uniform(-0.7, 3.0, size=2)
            xi = rng.uniform(-0.9, 0.95)
            with mpmath.workdps(30):
                want = float(
                    mpmath.quad(lambda t: (1 - t) ** a * (1 + t) ** b, [xi, 1])
                )
            got = incomplete_weight_integral(JacobiParams(a, b), xi)
            assert got == pytest.approx(want, rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            incomplete_weight_integral(JacobiParams(0, 0), 1.0)
        with pytest.raises(ValueError):
            incomplete_weight_integral(JacobiParams(0, 0), -1.0)

    @pytest.mark.parametrize("alpha", [1000.0, 1020.5, 1033.0])
    def test_below_the_rule_overflow_matches_the_power(self, alpha):
        # beta = 0: the integral is (1 - xi)^(alpha+1) / (alpha+1), near 1e288 at xi = -0.9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xi in (-0.9, 0.5):
                want = float(mpmath.mpf(1.0 - xi) ** (alpha + 1) / (alpha + 1))
                got = incomplete_weight_integral(JacobiParams(alpha, 0.0), xi)
                assert got == pytest.approx(want, rel=1e-12) and math.isfinite(got)

    @pytest.mark.parametrize(
        "alpha,beta,xi",
        # inf with two RuntimeWarnings (mpmath: 1.489e286); NaN (true value 9.3e-2206);
        # NaN nodes as well as weights
        [(1040, 1, -0.9), (1100, 0, 0.99), (2e14, 0, 0.5)],
    )
    def test_rule_past_the_float_range_is_a_numerical_error(self, alpha, beta, xi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as exc:
                incomplete_weight_integral(JacobiParams(alpha, beta), xi)
        assert str(exc.value) == (
            f"tail_rule: weights past the float range for {JacobiParams(alpha, beta)}, xi={xi}"
        )

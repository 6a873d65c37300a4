import dataclasses
import json
import math
import sys

import numpy as np
import pytest

import projbound.bounds
import projbound.specials
from projbound import (
    BoundReport,
    Field,
    NumericalError,
    asymptotic_report,
    bessel_j,
    bound_from_test_function,
    build_test_function,
    ceil_snap,
    delta_C,
    delta_H,
    field_params,
    kappa,
    lambda_asym,
    largest_root,
    log_gamma,
    lp_bound,
    oscillation_report,
    real_integral_ratio,
    root_asymptotic_ratio,
    yudin_bound,
)
from projbound.bounds import lp_bound_h_alt

from helpers import (
    asymptotic_rows_loop,
    clear_bessel_zero_memo,
    lambda_factorial,
    mp_inverse_betainc,
    mp_real_yudin,
)


#: the inputs of R/C/H x m in {2,3,5,10,20,30,60,100,150,200,250,300} x
#: p in {2,4,6,8,10,20,40,100,200,500,1000,2000,4000} whose bound is past the float range
PAST_FLOAT_RANGE = [
    *((Field.R, m, p) for m, p in [(200, 4000), (250, 4000), (300, 2000), (300, 4000)]),
    *((Field.C, m, p) for m, p in [(100, 4000), (150, 2000), (150, 4000)]),
    *((Field.C, m, p) for m, p in [(200, 2000), (200, 4000)]),
    *((Field.C, m, p) for m in (250, 300) for p in (1000, 2000, 4000)),
    *((Field.H, m, p) for m, p in [(60, 4000), (100, 2000), (100, 4000)]),
    *((Field.H, m, p) for m in (150, 200, 250, 300) for p in (1000, 2000, 4000)),
]


class TestCeilSnap:
    def test_plain_ceiling(self):
        assert ceil_snap(3.2) == 4
        assert ceil_snap(-1.7) == -1

    def test_integer_snap(self):
        assert ceil_snap(6.0000000000001) == 6
        assert ceil_snap(5.9999999999999) == 6
        assert ceil_snap(6.001) == 7


class TestLpBound:
    def test_real_m2_is_q_plus_one(self):
        for q in range(1, 50):
            assert lp_bound(Field.R, 2, q) == q + 1

    def test_complex_m2_q8(self):
        assert lp_bound(Field.C, 2, 8) == 25

    def test_complex_m2_floor_form(self):
        # with q = p/2 the bound is (floor(q/2)+1)(ceil(q/2)+1) = floor((q+2)^2/4) for every q
        for p in range(2, 4001, 2):
            assert lp_bound(Field.C, 2, p // 2) == (p + 4) ** 2 // 16

    def test_quaternion_m2_q2(self):
        assert lp_bound(Field.H, 2, 2) == 6

    def test_quaternion_values_are_exact_integers(self):
        # a remainder of the division by 2m-1 raises NumericalError; the grid
        # is the one lp_bound's docstring names
        for m in range(2, 301):
            for q in [*range(1, 200), *range(200, 4001, 37)]:
                val = lp_bound(Field.H, m, q)
                assert isinstance(val, int) and val >= 1

    def test_monotone_in_q(self):
        for field in Field:
            for m in (2, 3, 4):
                for p in (2, 6, 12, 20):
                    assert lp_bound(field, m, p // 2) <= lp_bound(field, m, p)

    def test_validation(self):
        with pytest.raises(ValueError):
            lp_bound(Field.R, 1, 3)
        with pytest.raises(ValueError):
            lp_bound(Field.R, 2, 0)

    def test_h_alt_variant_disagrees(self):
        # the variant form gives 10 at p=2 where the bound is 2
        assert lp_bound_h_alt(2) == 10
        assert lp_bound(Field.H, 2, 1) == 2


class TestYudinBound:
    def test_real_m2_exact(self):
        for p in range(2, 41, 2):
            rep = yudin_bound(Field.R, 2, p)
            assert rep.yudin_raw == pytest.approx(p / 2 + 1, rel=1e-10)
            assert rep.yudin_bound == p // 2 + 1 == rep.lp_bound

    def test_complex_m2_p4(self):
        rep = yudin_bound(Field.C, 2, 4)
        assert rep.yudin_raw == pytest.approx(2.0 / (1.0 - 5**-0.5), rel=1e-12)
        assert rep.yudin_bound == 4
        assert rep.lp_bound == 4

    def test_quaternion_m2_p4(self):
        rep = yudin_bound(Field.H, 2, 4)
        xi = 7**-0.5
        assert rep.xi == pytest.approx(xi, abs=1e-13)
        assert rep.yudin_raw == pytest.approx(4.0 / ((2.0 + xi) * (1.0 - xi) ** 2), rel=1e-12)
        assert rep.yudin_bound == 5
        assert rep.lp_bound == 6

    @pytest.mark.parametrize("field", list(Field), ids=[f.name for f in Field])
    def test_xi_at_p2_is_positive_zero(self, field):
        # at m = 2 alpha = beta, so P_1 has its root at t = 0: xi is +0.0, not -0.0
        assert math.copysign(1.0, yudin_bound(field, 2, 2).xi) == 1.0

    def test_report_invariants(self):
        rep = yudin_bound(Field.C, 3, 12)
        assert rep.yudin_bound >= 1 and rep.lp_bound >= 1
        assert 0.0 < rep.epsilon < 1.0
        assert rep.epsilon == pytest.approx((1.0 - rep.xi) / 2.0, rel=1e-14)

    def test_round_trip_dict(self):
        rep = yudin_bound(Field.H, 3, 8)
        again = BoundReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert again == rep

    def test_dict_keys_and_delta(self):
        rep = yudin_bound(Field.C, 2, 18)
        doc = rep.to_dict()
        assert list(doc) == [
            "field", "m", "p", "lp_bound", "yudin_raw", "yudin_bound", "epsilon", "xi"
        ]
        assert doc["field"] == "C"
        assert rep.delta == rep.yudin_bound - rep.lp_bound == 1
        # keys that name no field, such as the CLI's delta, are ignored
        assert BoundReport.from_dict(doc | {"delta": 7}) == rep

    @pytest.mark.parametrize("field,m,p", PAST_FLOAT_RANGE, ids=lambda v: str(v))
    def test_past_the_float_range_is_a_numerical_error(self, field, m, p):
        # exp(log_raw) would overflow: the error names the input and the log
        with pytest.raises(NumericalError) as exc:
            yudin_bound(field, m, p)
        assert str(exc.value).startswith(
            f"bound past the float range for field={field.name}, m={m}, p={p}: log_raw="
        )
        assert float(str(exc.value).rsplit("=", 1)[1]) > math.log(sys.float_info.max)

    def test_validation(self):
        with pytest.raises(ValueError):
            yudin_bound(Field.R, 2, 3)
        with pytest.raises(ValueError):
            yudin_bound(Field.R, 2, 0)


class TestFormEquivalence:
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    def test_closed_form_vs_test_function(self, field):
        for m in (2, 3):
            for p in (2, 10, 20):
                rep = yudin_bound(field, m, p)
                tf = build_test_function(field, m, p // 2, k_max=p // 2 + 4)
                assert rep.yudin_raw == pytest.approx(bound_from_test_function(tf), rel=1e-10)

    def test_real_integral_ratio(self):
        for m in (2, 3, 4, 5):
            for p in (2, 8, 18, 30):
                assert real_integral_ratio(m, p) == pytest.approx(
                    yudin_bound(Field.R, m, p).yudin_raw, rel=1e-10
                )

    @pytest.mark.parametrize(
        "field,n_past_float_range", [(Field.R, 3), (Field.C, 6), (Field.H, 8)], ids=["R", "C", "H"]
    )
    def test_closed_form_is_inverse_incomplete_beta(self, field, n_past_float_range):
        # raw = 1 / I_eps(a+1, b+1) at the program's own root for every field; over C
        # and H this one identity covers the per-field forms (1/eps)^(m-1) and
        # eps^-(2m-2) / ((2m-1) - (2m-2) eps)
        past = []
        for m in (2, 3, 5, 10, 30, 100, 200, 300):
            params = field_params(field, m)
            for p in [*range(2, 201, 2), 300, 500, 1000, 2000, 4000]:
                xi = largest_root(params.raised(), p // 2)
                want = mp_inverse_betainc(params.alpha, params.beta, (1.0 - xi) / 2.0)
                if want == math.inf:
                    with pytest.raises(NumericalError, match=f"field={field.name}, m={m}, p={p}:"):
                        yudin_bound(field, m, p)
                    past.append((m, p))
                    continue
                rep = yudin_bound(field, m, p)
                assert rep.xi == xi
                assert rep.yudin_raw == pytest.approx(want, rel=1e-11), (m, p)
                assert rep.yudin_bound >= 1 and rep.lp_bound >= 1
        assert len(past) == n_past_float_range, past

    def test_real_integral_ratio_is_the_one_cross_check(self, monkeypatch):
        reports = {f: yudin_bound(f, 3, 12) for f in Field}
        ratio = projbound.bounds._real_ratio_from_xi
        monkeypatch.setattr(
            projbound.bounds, "_real_ratio_from_xi", lambda m, xi: ratio(m, xi) * (1 + 1e-6)
        )
        with pytest.raises(NumericalError, match="bound forms disagree for field=R, m=3, p=12"):
            yudin_bound(Field.R, 3, 12)
        assert yudin_bound(Field.C, 3, 12) == reports[Field.C]
        assert yudin_bound(Field.H, 3, 12) == reports[Field.H]

    @pytest.mark.parametrize("m,p", [(200, 2000), (170, 4000)])
    def test_real_large_m_forms_match_mpmath(self, m, p):
        # (0.5 (1-eta))^(a+1), a = (m-3)/2, is subnormal or 0.0 as a float at these inputs
        rep = yudin_bound(Field.R, m, p)
        want = mp_real_yudin(m, rep.xi)
        assert rep.yudin_raw == pytest.approx(want, rel=1e-12)
        assert real_integral_ratio(m, p) == pytest.approx(want, rel=1e-12)

    def test_gegenbauer_root_relation(self):
        # the substitution root eta (largest root of the symmetric family at
        # degree p+1) must satisfy eta^2 = (1+xi)/2
        for m in range(2, 7):
            for p in (2, 10, 24):
                params = field_params(Field.R, m)
                xi = largest_root(params.raised(), p // 2)
                half = (m - 1) / 2.0
                eta = largest_root(
                    # symmetric family equivalent to the degree-(p+1) Gegenbauer
                    type(params)(half, half),
                    p + 1,
                )
                assert eta * eta == pytest.approx((1.0 + xi) / 2.0, abs=1e-12)


class TestDeltaTables:
    def test_delta_c_spot_values(self):
        assert delta_C(2) == 0
        assert delta_C(16) == 0
        assert delta_C(18) == 1
        assert delta_C(90) == 38

    def test_delta_h_spot_values(self):
        assert delta_H(2) == 0
        assert delta_H(4) == -1
        assert delta_H(22) == 12
        assert delta_H(24) == 14
        assert delta_H(50) == 782

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_C(3)
        with pytest.raises(ValueError):
            delta_H(0)


class TestAsymptoticConstants:
    def test_lambda_small_m(self):
        assert lambda_asym(Field.R, 2).value == pytest.approx(2.0, rel=1e-12)
        assert lambda_asym(Field.C, 2).value == pytest.approx(16.0, rel=1e-12)
        assert lambda_asym(Field.H, 2).value == pytest.approx(3072.0, rel=1e-12)

    def test_lambda_case_table_consistency_runs(self):
        # the unified Gamma form against the exact factorial case table
        for field in Field:
            for m in range(2, 21):
                exact = math.log(lambda_factorial(field.delta, m))
                assert abs(lambda_asym(field, m).log_value - exact) <= 1e-10

    def test_lambda_overflow_returns_log(self):
        lam = lambda_asym(Field.H, 200)
        assert lam.value == math.inf
        assert math.isfinite(lam.log_value)

    def test_kappa_real_m2_equality_case(self):
        assert kappa(Field.R, 2).value == pytest.approx(1.0, abs=1e-10)

    def test_kappa_below_one_elsewhere(self):
        assert kappa(Field.R, 3).value < 1.0
        assert kappa(Field.C, 2).value < 1.0

    @pytest.mark.parametrize("m", [0, 1])
    def test_kappa_validation(self, m):
        for field in Field:
            with pytest.raises(ValueError, match="m must be >= 2"):
                kappa(field, m)
            with pytest.raises(ValueError, match="m must be >= 2"):
                lambda_asym(field, m)

    def test_kappa_complex_m2_value(self):
        from projbound import bessel_first_zero

        j1 = bessel_first_zero(1.0).value
        assert kappa(Field.C, 2).value == pytest.approx(j1 * j1 / 16.0, rel=1e-12)

    def test_zero_bracket_inequality(self):
        # (nu+1)^nu (nu+3)^nu <= Gamma(nu+1)^2 * 8^nu on half-integers up to 50
        nu = 1.0
        while nu <= 50.0:
            lhs = nu * (math.log(nu + 1.0) + math.log(nu + 3.0))
            rhs = 2.0 * log_gamma(nu + 1.0) + nu * math.log(8.0)
            assert lhs <= rhs + 1e-12
            nu += 0.5

    def test_report_rows(self):
        rows = asymptotic_report(Field.R, [2, 3, 4])
        assert rows[0].kappa == pytest.approx(1.0, abs=1e-10)
        assert rows[0].lp_liminf_log == pytest.approx(-math.log(2.0), rel=1e-12)
        # real m=2: the two liminf constants coincide
        assert rows[0].testfn_liminf_log == pytest.approx(rows[0].lp_liminf_log, abs=1e-10)
        for row in rows:
            assert row.gap_factor_log == pytest.approx(
                row.nu * 2.0 * math.log(2.0) + row.log_kappa, rel=1e-12
            )

    def test_testfn_constant_matches_jacobi_parameter_form(self):
        # the test-function constant Gamma(a+2) Gamma(b+1) / Gamma(a+b+2) / j^{d(m-1)},
        # built here from the field's Jacobi parameters
        for field in Field:
            d = field.delta
            for row in asymptotic_report(field, range(2, 301)):
                params = field_params(field, row.m)
                a, b = params.alpha, params.beta
                want = (
                    log_gamma(a + 2.0) + log_gamma(b + 1.0) - log_gamma(a + b + 2.0)
                    - d * (row.m - 1) * math.log(row.bessel_zero)
                )
                assert row.testfn_liminf_log == want

    def test_lp_constant_matches_jacobi_parameter_form(self):
        # 1/lambda = Gamma(b+1) / (Gamma(a+b+2) Gamma(a+2) 4^{d(m-1)}), built here from
        # the field's Jacobi parameters
        for field in Field:
            d = field.delta
            for row in asymptotic_report(field, range(2, 301)):
                params = field_params(field, row.m)
                a, b = params.alpha, params.beta
                want = -(
                    log_gamma(a + b + 2.0) + log_gamma(a + 2.0) - log_gamma(b + 1.0)
                    + 2.0 * d * (row.m - 1) * math.log(2.0)
                )
                assert row.lp_liminf_log == want

    def test_three_log_gammas_per_row(self, monkeypatch):
        # log Gamma at nu+1 and d*m/2 per row, at d/2 once per report
        calls = []
        scalar, array = projbound.bounds.log_gamma, projbound.bounds.gammaln

        def counting_scalar(x):
            calls.append(x)
            return scalar(x)

        def counting_array(x):
            calls.extend(np.ravel(x).tolist())
            return array(x)

        rows = asymptotic_report(Field.H, range(2, 301))  # the zeros are solved
        monkeypatch.setattr(projbound.bounds, "log_gamma", counting_scalar)
        monkeypatch.setattr(projbound.bounds, "gammaln", counting_array)
        assert asymptotic_report(Field.H, range(2, 301)) == rows
        assert len(calls) == 2 * len(rows) + 1

    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    @pytest.mark.parametrize(
        "m_list",
        [range(2, 301), [1000, 100_000, 1_000_000_000], [7], []],
        ids=["2..300", "large", "one", "empty"],
    )
    def test_rows_match_the_per_row_loop(self, field, m_list):
        rows = asymptotic_report(field, m_list)
        want = asymptotic_rows_loop(field, m_list)
        assert len(rows) == len(want) == len(m_list)
        for row, ref in zip(rows, want):
            for f in dataclasses.fields(row):
                got, exp = getattr(row, f.name), getattr(ref, f.name)
                assert type(got) is type(exp), (row.m, f.name)
                if isinstance(exp, float):  # hex tells -0.0 from 0.0
                    assert got.hex() == exp.hex(), (row.m, f.name, got, exp)
                else:
                    assert got == exp, (row.m, f.name)

    def test_report_validation(self):
        for field in Field:
            with pytest.raises(ValueError, match="m must be >= 2"):
                asymptotic_report(field, [2, 1])
            # checked before any zero is solved
            for m_list in ([0], [2, 0]):
                with pytest.raises(ValueError, match="m must be >= 2, got 0"):
                    asymptotic_report(field, m_list)
            clear_bessel_zero_memo()
            with pytest.raises(ValueError, match="m must be >= 2, got 1"):
                asymptotic_report(field, [1])
            assert projbound.specials._ZERO_CACHE == {}

    def test_one_zero_solve_per_report(self, monkeypatch):
        # the per-order solves made about 13,000 jv calls for this report
        calls = []
        original = projbound.specials._besselj

        def counting(nu, x):
            calls.append(nu)
            return original(nu, x)

        clear_bessel_zero_memo()
        monkeypatch.setattr(projbound.specials, "_besselj", counting)
        rows = asymptotic_report(Field.H, range(2, 301))
        assert len(rows) == 299
        assert len(calls) <= 80
        # a second report over the same orders reads every zero from the memo
        calls.clear()
        assert asymptotic_report(Field.H, range(2, 301)) == rows
        assert calls == []

    def test_rows_carry_the_bessel_residual(self):
        for field in Field:
            rows = asymptotic_report(field, range(2, 301))
            for row in rows:
                assert 0.0 <= row.bessel_residual <= 1e-12
                assert row.bessel_residual == abs(bessel_j(row.nu, row.bessel_zero))

    def test_log_kappa_decreasing_in_m(self):
        rows = asymptotic_report(Field.C, [50, 100, 200])
        logs = [r.log_kappa for r in rows]
        assert logs[0] > logs[1] > logs[2]


class TestOscillationReport:
    def test_structure_and_spot_values(self):
        rep = oscillation_report(50)
        by_p = {row.p: row for row in rep.h_rows}
        assert by_p[22].delta == 12
        assert by_p[24].delta == 14
        assert by_p[24].d1 == 2
        assert by_p[2].d1 is None and by_p[4].d2 is None

    def test_h_second_difference_alternates(self):
        rep = oscillation_report(50)
        for row in rep.h_rows:
            if row.p >= 14:
                assert row.d2_sign_match is True

    def test_c_flags_are_self_consistent(self):
        rep = oscillation_report(90)
        by_p = {row.p: row for row in rep.c_rows}
        for row in rep.c_rows:
            if row.d1 is not None and by_p.get(row.p - 2) and by_p[row.p - 2].d1 is not None:
                assert row.d1_nondecreasing == (row.d1 >= by_p[row.p - 2].d1)

    def test_c_first_difference_grows_as_a_trend(self):
        # pointwise d1 oscillates (0,1,0,1,...); the growth shows up in
        # window averages, which is what the report is for
        rep = oscillation_report(90)
        d1 = {row.p: row.d1 for row in rep.c_rows if row.d1 is not None}

        def window_mean(lo, hi):
            vals = [d1[p] for p in range(lo, hi + 1, 2)]
            return sum(vals) / len(vals)

        early = window_mean(18, 40)
        middle = window_mean(42, 66)
        late = window_mean(68, 90)
        assert early < middle < late

    @pytest.mark.parametrize("p_max", [8, 90])
    def test_rows_match_recomputed_differences(self, p_max):
        ps = range(2, p_max + 1, 2)
        dh = {p: delta_H(p) for p in ps}
        dc = {p: delta_C(p) for p in ps}
        rep = oscillation_report(p_max)
        assert [row.p for row in rep.h_rows] == [row.p for row in rep.c_rows] == list(ps)
        for row in rep.h_rows:
            p = row.p
            d1 = dh[p] - dh[p - 2] if p >= 4 else None
            d2 = d1 - (dh[p - 2] - dh[p - 4]) if p >= 6 else None
            expected = (-1) ** (p // 2 + 1) if d2 is not None else None
            match = None if d2 is None else d2 != 0 and (d2 > 0) == (expected > 0)
            assert (row.delta, row.d1, row.d2) == (dh[p], d1, d2)
            assert row.d2_sign_expected == expected
            assert row.d2_sign_match is match
        for row in rep.c_rows:
            p = row.p
            d1 = dc[p] - dc[p - 2] if p >= 4 else None
            prev = dc[p - 2] - dc[p - 4] if p >= 6 else None
            assert (row.delta, row.d1) == (dc[p], d1)
            assert row.d1_nondecreasing is (None if prev is None else d1 >= prev)

    def test_validation(self):
        with pytest.raises(ValueError):
            oscillation_report(6)


class TestRootAsymptotics:
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    @pytest.mark.parametrize("m", [2, 3])
    def test_ratio_tends_to_one(self, field, m):
        # the eps ~ j^2/p^2 law: the finite-p deficit shrinks like 1/p
        errs = [abs(root_asymptotic_ratio(field, m, p) - 1.0) for p in (200, 400, 800, 1600)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1.5e-2

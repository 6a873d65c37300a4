"""Closed-form cardinality bounds and their comparisons.

Two lower bounds for the node count of an index-p projective cubature
formula (equivalently, for the target dimension of an isometric embedding of
l_2^m into l_p^n over the same field):

* the classical linear programming bound Lambda(m, q), q = p/2, an explicit
  binomial expression, exact in integer arithmetic;
* the Yudin-type bound obtained from the convolution test function, whose
  closed form involves the largest Jacobi root xi, eps = (1-xi)/2 and a
  terminating-or-not Gauss hypergeometric value.

The module also provides the large-p and large-m comparisons: the quotient
kappa of the two asymptotic constants, its exponential decay, and the
difference tables delta_C / delta_H with their oscillation report.  Every
Bessel zero comes from a large-m row, kept per (field, m) in a bounded memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterator, Optional

from .fields import Field, field_params
from .jacobi import JacobiParams, NumericalError, _shown, largest_root
from .specials import bessel_first_zeros, hypergeom_F, log_gamma

#: relative slack within which the real closed form must match the integral ratio
_CONSISTENCY_RTOL = 1e-9

#: relative slack within which ceil_snap treats a value as an integer
_SNAP_RTOL = 1e-9


def ceil_snap(z: float) -> int:
    """Smallest integer >= z, snapping to an integer within relative slack.

    The snap keeps values that are exact integers in exact arithmetic (the
    real rank-one case lands on integers) from being inflated by the last
    few ulps of floating-point noise.
    """
    nearest = round(z)
    if abs(z - nearest) <= _SNAP_RTOL * max(1.0, abs(z)):
        return int(nearest)
    return math.ceil(z)


def lp_bound(field: Field, m: int, q: int) -> int:
    """Classical LP bound Lambda(m, q) on nodes of an index-2q cubature formula.

    Exact integer arithmetic throughout.  The quaternionic case divides by
    2m-1 exactly; at even q it is the Narayana number N(2m-1+q/2, q/2+1).
    tests/test_bounds.py checks both for m <= 300 with q <= 199 and every
    37th q up to 4000.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {_shown(m)}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {_shown(q)}")
    if field is Field.R:
        return math.comb(m + q - 1, m - 1)
    if field is Field.C:
        return math.comb(m + q // 2 - 1, m - 1) * math.comb(m + (q + 1) // 2 - 1, m - 1)
    n = 2 * m - 2
    return math.comb(n + q // 2, n) * math.comb(n + (q + 1) // 2 + 1, n) // (n + 1)


def lp_bound_h_alt(p: int) -> int:
    """Variant quaternionic m=2 bound with q replaced by p in the floor arguments.

    Disagrees with lp_bound(H, 2, p//2) (e.g. gives 10 instead of 2 at p=2);
    kept only for side-by-side comparison in verbose table output.
    """
    return math.comb(p // 2 + 2, 2) * math.comb((p + 2) // 2 + 3, 2) // 3


@dataclass(frozen=True)
class BoundReport:
    """Both lower bounds for one (field, m, p), with the root data behind them."""

    field: Field
    m: int
    p: int
    lp_bound: int
    yudin_raw: float
    yudin_bound: int
    epsilon: float
    xi: float

    @property
    def delta(self) -> int:
        """Rounded Yudin-type bound minus the LP bound."""
        return self.yudin_bound - self.lp_bound

    def to_dict(self) -> dict:
        """Every field by name, in declaration order; the field tag as its name."""
        return self.__dict__ | {"field": self.field.name}

    @classmethod
    def from_dict(cls, d: dict) -> "BoundReport":
        """Inverse of to_dict; keys that name no field (the CLI's delta) are ignored."""
        values = {f.name: d[f.name] for f in fields(cls)}
        values["field"] = Field.parse(values["field"])
        return cls(**values)


def _check_even_p(p: int) -> None:
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be a positive even integer, got {_shown(p)}")


@lru_cache(maxsize=1 << 12, typed=True)  # a failed (field, m) is not kept
def _field_constants(field: Field, m: int) -> tuple[JacobiParams, float, float, float, float]:
    """What yudin_bound needs of (field, m) alone: raised params, alpha, beta, two log terms.

    The first log term is log Gamma(a+2) + log Gamma(b+1) - log Gamma(a+b+2)
    of the closed form; the second, over R only (else nan), is the log of the
    full integral in the integral ratio, see _real_ratio_from_xi.
    """
    params = field_params(field, m)
    a, b = params.alpha, params.beta
    log_gammas = log_gamma(a + 2.0) + log_gamma(b + 1.0) - log_gamma(a + b + 2.0)
    log_full = math.nan
    if field is Field.R:
        # integral_0^1 (1-s^2)^a ds = 2^{2a} Gamma(a+1)^2 / Gamma(2a+2), a = (m-3)/2 over R
        log_full = 2.0 * a * math.log(2.0) + 2.0 * log_gamma(a + 1.0) - log_gamma(2.0 * a + 2.0)
    return params.raised(), a, b, log_gammas, log_full


def _real_ratio_from_xi(m: int, xi: float) -> float:
    # with h = 1 - eta, integral_eta^1 (1-s^2)^a ds = h^{a+1} 2^a F(-a, a+1; a+2; h/2) / (a+1):
    # the full integral's ratio to it, in logs since h^{a+1} underflows at large m
    log_full = _field_constants(Field.R, m)[4]
    a, eta = (m - 3) / 2.0, math.sqrt((1.0 + xi) / 2.0)
    h = ((1.0 - xi) / 2.0) / (1.0 + eta)  # 1 - eta without the cancellation
    tail_f = hypergeom_F(a, a, h / 2.0) / (a + 1.0)
    log_tail = (a + 1.0) * math.log(h) + a * math.log(2.0) + math.log(tail_f)
    return math.exp(log_full - log_tail)


def real_integral_ratio(m: int, p: int) -> float:
    """Real-case form of the test-function bound as a ratio of two integrals.

    integral_0^1 (1-s^2)^a ds / integral_eta^1 (1-s^2)^a ds with a = (m-3)/2
    and eta = sqrt((1+xi)/2).  Algebraically equal to the closed form; kept
    as an independent numeric route.
    """
    _check_even_p(p)
    return _real_ratio_from_xi(m, largest_root(_field_constants(Field.R, m)[0], p // 2))


def yudin_bound(field: Field, m: int, p: int) -> BoundReport:
    """Yudin-type lower bound for (field, m, p), raw and rounded, plus LP bound.

    Evaluates the closed form 1/I_eps(a+1, b+1) in the log domain; over R it must
    agree with the integral ratio, an independent route.  A raw value past the
    float range raises NumericalError.  Every term that depends on (field, m)
    alone is computed once per (field, m) while _field_constants keeps it.
    """
    _check_even_p(p)
    raised, a, b, log_gammas, _ = _field_constants(field, m)
    xi = largest_root(raised, p // 2)
    eps = (1.0 - xi) / 2.0
    if not 0.0 < eps < 1.0:
        where = f"field={field.name}, m={_shown(m)}, p={p}"
        raise NumericalError(f"epsilon={eps} outside (0,1) for {where}")

    log_raw = log_gammas - math.log(hypergeom_F(b, a, eps)) - (a + 1.0) * math.log(eps)
    try:
        raw = math.exp(log_raw)
    except OverflowError:
        where = f"field={field.name}, m={_shown(m)}, p={p}"
        raise NumericalError(f"bound past the float range for {where}: {log_raw=!r}") from None

    if field is Field.R:
        reference = _real_ratio_from_xi(m, xi)
        if abs(raw - reference) > _CONSISTENCY_RTOL * abs(reference):
            raise NumericalError(
                f"bound forms disagree for field={field.name}, m={_shown(m)}, p={p}: "
                f"closed form {raw!r} vs integral ratio {reference!r}"
            )

    return BoundReport(
        field=field,
        m=m,
        p=p,
        lp_bound=lp_bound(field, m, p // 2),
        yudin_raw=raw,
        yudin_bound=ceil_snap(raw),
        epsilon=eps,
        xi=xi,
    )


def delta_C(p: int) -> int:
    """Rounded Yudin-type bound minus the LP bound, complex field, m=2."""
    return yudin_bound(Field.C, 2, p).delta


def delta_H(p: int) -> int:
    """Rounded Yudin-type bound minus the LP bound, quaternionic field, m=2."""
    return yudin_bound(Field.H, 2, p).delta


@dataclass(frozen=True)
class LogScaled:
    """A positive quantity carried with its natural log (value may overflow to inf)."""

    value: float
    log_value: float


def _exp_safe(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def lambda_asym(field: Field, m: int) -> LogScaled:
    """Constant lambda(m) in the large-p growth of the LP bound, p^{d(m-1)} / lambda.

    lambda = Gamma(dm/2) Gamma(nu+1) 4^{d(m-1)} / Gamma(d/2), nu = d(m-1)/2, in
    the log domain.  The one-m case of asymptotic_report.
    """
    log_val = -asymptotic_report(field, [m])[0].lp_liminf_log
    return LogScaled(value=_exp_safe(log_val), log_value=log_val)


def kappa(field: Field, m: int) -> LogScaled:
    """Quotient of the LP-side and test-function-side asymptotic constants.

    kappa = j_{nu,1}^{2 nu} / (Gamma(nu+1)^2 * 16^nu), nu = d(m-1)/2; strictly
    below 1 except in the real m=2 case, and exponentially small in m.  The
    one-m case of asymptotic_report.
    """
    row = asymptotic_report(field, [m])[0]
    return LogScaled(value=row.kappa, log_value=row.log_kappa)


@dataclass(frozen=True)
class AsymptoticRow:
    """Per-m comparison of asymptotic constants (log domain where they underflow)."""

    m: int
    nu: float
    bessel_zero: float
    bessel_residual: float  # |J_nu(bessel_zero)|, as the zero solver returned it
    kappa: float
    log_kappa: float
    log_kappa_approx: float  # log of (1/(pi*d*m)) * (e/4)^{d(m-1)}
    log_ratio: float  # log_kappa - log_kappa_approx
    lp_liminf_log: float  # log of 1/lambda(m)
    testfn_liminf_log: float  # log of the test-function side constant
    gap_factor_log: float  # log of 2^{d(m-1)} * kappa


_ASYM_ROWS: dict[tuple[Field, int], tuple] = {}  # (field, m) -> the 10 fields of its row after m
_ASYM_ROWS_SIZE = 1 << 14  # most rows _ASYM_ROWS holds


def _asymptotic_columns(field: Field, m_list) -> list:
    """asymptotic_report's rows as columns: one sequence per AsymptoticRow field, in order.

    The m column is m_list; the other fields of each row come from _ASYM_ROWS, which
    keeps them per (field, m), or from one _solve_rows batch of the rows it lacks.  A
    batch that raises stores nothing, and one that would pass _ASYM_ROWS_SIZE empties it.
    """
    m_list = list(m_list)
    for m in m_list:
        if m < 2:
            raise ValueError(f"m must be >= 2, got {_shown(m)}")
    rows = {m: row for m in m_list if (row := _ASYM_ROWS.get((field, m)))}  # atomic against clear
    if missing := [m for m in dict.fromkeys(m_list) if m not in rows]:
        rows.update(zip(missing, _solve_rows(field, missing)))
        if len(_ASYM_ROWS) + len(missing) > _ASYM_ROWS_SIZE:
            _ASYM_ROWS.clear()
        _ASYM_ROWS.update(((field, m), rows[m]) for m in missing[:_ASYM_ROWS_SIZE])
    return [m_list, *(zip(*map(rows.__getitem__, m_list)) if m_list else [()] * 10)]


def _solve_rows(field: Field, m_list: list) -> Iterator[tuple]:
    """AsymptoticRow's fields after m, one tuple per m of m_list (each m >= 2), in order.

    The Bessel zeros j_{nu,1} of all rows come from one bessel_first_zeros call;
    log Gamma(d/2) is taken once, and each row is the per-row formula in scalars.
    """
    d = field.delta
    lg_d = log_gamma(d / 2.0)
    for m, zero in zip(m_list, bessel_first_zeros([d * (m - 1) / 2.0 for m in m_list])):
        nu, j1 = zero.nu, zero.value
        dm1 = 2.0 * nu  # d*(m-1) as a float, exactly
        lg_nu, lg_dm, log_j1 = log_gamma(nu + 1.0), log_gamma(d * m / 2.0), math.log(j1)
        log_kap = 2.0 * nu * log_j1 - 2.0 * lg_nu - nu * math.log(16.0)
        log_approx = -math.log(math.pi * d * m) + dm1 * (1.0 - math.log(4.0))
        # then 1/lambda and Gamma(a+2) Gamma(b+1) / Gamma(a+b+2) / j^{d(m-1)}, whose
        # a+2, b+1, a+b+2 are exactly nu+1, d/2, d*m/2
        yield (nu, j1, zero.residual, _exp_safe(log_kap), log_kap, log_approx,
               log_kap - log_approx, -(lg_dm + lg_nu - lg_d + 2.0 * dm1 * math.log(2.0)),
               lg_nu + lg_d - lg_dm - dm1 * log_j1, dm1 * math.log(2.0) + log_kap)


def asymptotic_report(field: Field, m_list) -> list[AsymptoticRow]:
    """Rows comparing the two liminf constants and their quotient for each m."""
    return list(map(AsymptoticRow, *_asymptotic_columns(field, m_list)))


@dataclass(frozen=True)
class OscillationRow:
    p: int
    delta: int
    d1: Optional[int]  # delta(p) - delta(p-2)
    d2: Optional[int]  # d1(p) - d1(p-2)
    d2_sign_expected: Optional[int]  # the observed alternation pattern (-1)^(p/2+1)
    d2_sign_match: Optional[bool]


@dataclass(frozen=True)
class MonotonicityRow:
    p: int
    delta: int
    d1: Optional[int]
    d1_nondecreasing: Optional[bool]


@dataclass(frozen=True)
class OscillationReport:
    """Difference tables for both fields at m=2; patterns reported, not asserted."""

    h_rows: list
    c_rows: list


def _differences(values: list) -> list:
    """[None, v1 - v0, v2 - v1, ...]; a difference with a None operand is None."""
    return [None] + [None if u is None or v is None else v - u for u, v in zip(values, values[1:])]


def oscillation_report(p_max: int) -> OscillationReport:
    """First/second differences of delta_H and delta_C up to p_max (even, >= 8).

    The alternating sign of the quaternionic second difference and the
    monotonicity of the complex first difference are observed regularities;
    this report flags them without asserting them.
    """
    if p_max < 8 or p_max % 2 != 0:
        raise ValueError(f"p_max must be an even integer >= 8, got {_shown(p_max)}")
    ps = list(range(2, p_max + 1, 2))
    dh, dc = [delta_H(p) for p in ps], [delta_C(p) for p in ps]
    d1h, d1c = _differences(dh), _differences(dc)
    d2h = _differences(d1h)

    h_rows = []
    for p, delta, d1, d2 in zip(ps, dh, d1h, d2h):
        expected = 1 if (p // 2 + 1) % 2 == 0 else -1
        match = None if d2 is None else (d2 > 0) == (expected > 0) and d2 != 0
        h_rows.append(
            OscillationRow(
                p=p,
                delta=delta,
                d1=d1,
                d2=d2,
                d2_sign_expected=expected if d2 is not None else None,
                d2_sign_match=match,
            )
        )

    c_rows = [
        MonotonicityRow(
            p=p,
            delta=delta,
            d1=d1,
            d1_nondecreasing=None if (d1 is None or prev is None) else d1 >= prev,
        )
        for p, delta, d1, prev in zip(ps, dc, d1c, [None] + d1c)
    ]
    return OscillationReport(h_rows=h_rows, c_rows=c_rows)


def root_asymptotic_ratio(field: Field, m: int, p: int) -> float:
    """eps(p) * p^2 / j_{alpha+1,1}^2; tends to 1 as p grows at fixed (field, m).

    At finite p it follows (1 + (alpha+beta+3)/p)^-2 * (1 + O(p^-2)), with
    alpha, beta the field's Jacobi parameters (Mehler-Heine with Szego's
    effective degree p/2 + (alpha+beta+3)/2), so it approaches 1 from below.
    """
    report = yudin_bound(field, m, p)
    j1 = asymptotic_report(field, [m])[0].bessel_zero  # nu = d(m-1)/2 = alpha + 1
    return report.epsilon * p * p / (j1 * j1)

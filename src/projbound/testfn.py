"""Construction of the convolution test function behind the Yudin-type bound.

For a degree parameter l the function f_l is the zonal convolution g*h of a
shifted degree-(l+1) Jacobi polynomial g (truncated below xi, the largest
root of its derivative) with the indicator h of [xi, 1].  Its Jacobi-Fourier
coefficients have closed forms; by construction f_l is nonnegative with
nonpositive coefficients beyond degree l, which is exactly what the linear
programming argument needs.  The resulting cardinality bound is
tau / c_0[h].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field, field_params
from .jacobi import (
    _RULE_ORDER,
    JacobiParams,
    NumericalError,
    _shown,
    incomplete_weight_integral,
    jacobi_eval,
    jacobi_eval_all,
    jacobi_norm_nu_all,
    jacobi_value_at_one_all,
    largest_root,
    tail_rule,
    tau,
)


@dataclass(frozen=True)
class YudinTestFunction:
    """f_l = g*h with its Jacobi-Fourier coefficient tables.

    coeff_h[k], coeff_g[k], coeff_f[k] are the weighted-projection
    coefficients c_k of h, g and f_l for 0 <= k <= k_max.
    series_tail_term is the magnitude |nu_K c_K[f]| P_K(1) of the last
    retained series term: an indicator of truncation quality (the
    coefficients decay algebraically, so take k_max well past the degrees
    that matter when evaluating near t = 1).
    """

    field: Field
    m: int
    l: int
    r: int
    xi: float
    lam: float
    params: JacobiParams
    coeff_h: np.ndarray
    coeff_g: np.ndarray
    coeff_f: np.ndarray
    k_max: int
    value_at_one: float
    series_tail_term: float


@np.errstate(all="ignore")  # a value past the float range is a NumericalError below
def build_test_function(field: Field, m: int, l: int, k_max: int = 200) -> YudinTestFunction:
    """Build f_l for the projective space over `field` in K^m.

    Args:
        field: ground field tag.
        m: number of K-coordinates, >= 2.
        l: degree parameter (p/2 for an index-p cubature bound), >= 1.
        k_max: truncation degree of the coefficient tables, >= l+2.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {_shown(l)}")
    if k_max < l + 2:
        raise ValueError(f"k_max must be >= l+2, got {_shown(k_max)} (l={_shown(l)})")
    params = field_params(field, m)
    r = l + 1
    lam = params.lam
    # largest root of P_r' == largest root of the raised family at degree l
    xi = largest_root(params.raised(), l)

    try:
        k = np.arange(k_max + 1, dtype=float)
    except (ValueError, MemoryError):  # numpy refuses k_max, or cannot find 8 k_max bytes
        raise ValueError(f"k_max must fit in memory as a table, got {_shown(k_max)}") from None
    try:
        raised_at_xi = jacobi_eval_all(params.raised(), k_max - 1, xi)
        w_raised = params.raised().weight(xi)
        coeff_h = np.empty(k_max + 1)
        coeff_h[0] = incomplete_weight_integral(params, xi)
        coeff_h[1:] = w_raised * raised_at_xi / (2.0 * k[1:])

        # the tail nodes of g's direct quadrature at k = r (below), and xi last
        t_q, w_q = tail_rule(params, xi, order=_RULE_ORDER + 2 * r)
        p_r = jacobi_eval(params, r, np.append(t_q, xi))
        p_r_q, p_r_at_xi = p_r[:-1], float(p_r[-1])
        coeff_g = r * (r + lam) * p_r_at_xi / ((k - r) * (k + r + lam)) * coeff_h
        # the closed form excludes k = r; there c_r[h] = 0 and g needs direct quadrature
        coeff_g[r] = float(np.dot(w_q, (p_r_q - p_r_at_xi) * p_r_q))

        p_at_one = jacobi_value_at_one_all(params, k_max)
        tau_p_at_one = tau(params) * p_at_one
        coeff_f = coeff_g * coeff_h / tau_p_at_one
        nu = jacobi_norm_nu_all(params, k_max)
        value_at_one = float(np.dot(nu * coeff_f, p_at_one))
        tail = abs(nu[k_max] * coeff_f[k_max]) * p_at_one[k_max]
        checked = (coeff_h, coeff_g, tau_p_at_one, coeff_f, (value_at_one, tail))
        if not all(np.isfinite(values).all() for values in checked):
            raise OverflowError
    except (OverflowError, NumericalError):  # also a float power, exp or tail rule past the range
        where = f"test function (field={field.name}, m={_shown(m)}, l={l})"
        raise NumericalError(f"{where}: coefficients past the float range") from None

    for arr in (coeff_h, coeff_g, coeff_f):
        arr.setflags(write=False)
    return YudinTestFunction(
        field=field,
        m=m,
        l=l,
        r=r,
        xi=xi,
        lam=lam,
        params=params,
        coeff_h=coeff_h,
        coeff_g=coeff_g,
        coeff_f=coeff_f,
        k_max=k_max,
        value_at_one=value_at_one,
        series_tail_term=tail,
    )


def eval_f(tf: YudinTestFunction, t):
    """Evaluate the truncated Jacobi-Fourier series of f_l at t (scalar or array).

    tf.series_tail_term reports the magnitude of the last retained term;
    truncation hurts most near t = 1, where every P_k peaks.
    """
    nu = jacobi_norm_nu_all(tf.params, tf.k_max)
    basis = jacobi_eval_all(tf.params, tf.k_max, t)
    vals = np.tensordot(nu * tf.coeff_f, basis, axes=(0, 0))
    return float(vals) if np.isscalar(t) else vals


def bound_from_test_function(tf: YudinTestFunction) -> float:
    """Cardinality lower bound tau / c_0[h] produced by this test function."""
    return tau(tf.params) / tf.coeff_h[0]

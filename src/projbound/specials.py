"""Scalar special functions: log-Gamma, a Gauss 2F1 value, Bessel J and its first zero.

Only the narrow slices needed by the bound formulas are exposed: the
hypergeometric value F(-beta, alpha+1; alpha+2; eps) that appears in the
closed-form bound, and the first positive zero j_{nu,1} that governs its
large-p behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln
from scipy.special import jv as _besselj

from .jacobi import NumericalError, _roots_jacobi_cached

# The scan step must stay below the minimal gap between consecutive zeros of
# J_nu (>= 3.11 over all nu >= 0), so a sign change is never skipped.
_SCAN_STEP = 1.5

#: Gauss-Jacobi order of the Euler integral behind hypergeom_F
_HYPERGEOM_ORDER = 64


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return float(gammaln(x))


def hypergeom_F(beta: float, alpha: float, eps: float) -> float:
    """F(-beta, alpha+1; alpha+2; eps) for alpha > -1, 0 <= eps < 1.

    Computed through the Euler integral
        (alpha+1) * integral_0^1 s^alpha (1 - eps*s)^beta ds,
    where the endpoint factor s^alpha is absorbed into a Gauss-Jacobi rule and
    the remaining factor is analytic for eps < 1.
    """
    if not alpha > -1.0:
        raise ValueError(f"hypergeom_F requires alpha > -1, got {alpha}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"hypergeom_F requires 0 <= eps < 1, got {eps}")
    # s = (1+u)/2 turns s^alpha ds into a (0, alpha) Jacobi weight on (-1, 1)
    u, w = _roots_jacobi_cached(_HYPERGEOM_ORDER, 0.0, alpha)
    s = 0.5 * (1.0 + u)
    return (alpha + 1.0) * 0.5 ** (alpha + 1.0) * float(np.dot(w, (1.0 - eps * s) ** beta))


def bessel_j(nu: float, x: float) -> float:
    """Bessel function J_nu(x) for nu >= 0, x >= 0."""
    if not nu >= 0.0:
        raise ValueError(f"bessel_j requires nu >= 0, got {nu}")
    if not x >= 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    return float(_besselj(nu, x))


def _bessel_j_deriv(nu: float, x: float) -> float:
    # J_nu'(x) = J_{nu-1}(x) - (nu/x) J_nu(x); scipy handles negative order
    return float(_besselj(nu - 1.0, x)) - (nu / x) * float(_besselj(nu, x))


@dataclass(frozen=True)
class BesselZero:
    """First positive zero of J_nu, with the residual |J_nu(value)| achieved."""

    nu: float
    value: float
    residual: float


def bessel_first_zero(nu: float) -> BesselZero:
    """First positive zero j_{nu,1}, by bracketed Newton/bisection on J_nu.

    J_nu is positive on (0, j_{nu,1}) and sqrt(nu*(nu+2)) < j_{nu,1} <
    sqrt(2*(nu+1)*(nu+3)), so an upward scan from the lower bound with a step
    below the minimal zero gap brackets exactly the first zero.
    """
    if not nu >= 0.0:
        raise ValueError(f"bessel_first_zero requires nu >= 0, got {nu}")
    lower = math.sqrt(nu * (nu + 2.0))
    upper = math.sqrt(2.0 * (nu + 1.0) * (nu + 3.0))

    lo, f_lo = lower, bessel_j(nu, lower) if lower > 0.0 else 1.0
    hi = None
    x = lower
    while x < upper + _SCAN_STEP:
        x = x + _SCAN_STEP
        f = bessel_j(nu, x)
        if f < 0.0:
            hi = x
            break
        lo, f_lo = x, f
    if hi is None or f_lo <= 0.0:
        raise NumericalError(f"bessel_first_zero: bracketing failed for nu={nu}")

    # invariant: J_nu(lo) > 0 > J_nu(hi)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f = bessel_j(nu, x)
        if f > 0.0:
            lo = x
        elif f < 0.0:
            hi = x
        df = _bessel_j_deriv(nu, x)
        x_new = x - f / df if df != 0.0 else math.nan
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 4e-16 * x:
            x = x_new
            break
        x = x_new
    else:
        raise NumericalError(f"bessel_first_zero: no convergence for nu={nu}")

    residual = abs(bessel_j(nu, x))
    if not (lower < x < upper):
        raise NumericalError(f"bessel_first_zero: {x} escaped bracket for nu={nu}")
    if residual > 1e-12:
        raise NumericalError(f"bessel_first_zero: residual {residual} too large for nu={nu}")
    return BesselZero(nu=nu, value=x, residual=residual)

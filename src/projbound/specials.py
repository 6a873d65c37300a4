"""Special functions: log-Gamma, a Gauss 2F1 value, Bessel J and its first zero.

Only the narrow slices needed by the bound formulas are exposed: the
hypergeometric value F(-beta, alpha+1; alpha+2; eps) of the closed-form
bound, on jacobi's Gauss-Jacobi rule reader, and the first positive zero
j_{nu,1} behind its large-p behavior, for an array of orders at once.  The
module is a pure solver: bounds keeps each solved asymptotic row instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln
from scipy.special import jv as _besselj

from .jacobi import _RULE_ORDER, NumericalError, _gauss_jacobi

# The scan step must stay below the minimal gap between consecutive zeros of
# J_nu (>= 3.11 over all nu >= 0), so a sign change is never skipped.
_SCAN_STEP = 1.5


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return float(gammaln(x))


def hypergeom_F(beta: float, alpha: float, eps: float) -> float:
    """F(-beta, alpha+1; alpha+2; eps) for alpha > -1, 0 <= eps < 1.

    Computed through the Euler integral
        (alpha+1) * integral_0^1 s^alpha (1 - eps*s)^beta ds,
    where s = (1+u)/2 turns s^alpha ds into the (0, alpha) Jacobi weight, read
    as a 64-point rule from jacobi's `_gauss_jacobi`; the remaining factor is
    analytic for eps < 1.  From alpha = 1033.5 the weights overflow, and from
    alpha = 1074 0.5^(alpha+1) underflows; where the rule's value is not
    finite and positive, beta = 0 and beta = 1 take the terminating series,
    and any other beta raises NumericalError.
    """
    if not alpha > -1.0:
        raise ValueError(f"hypergeom_F requires alpha > -1, got {alpha}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"hypergeom_F requires 0 <= eps < 1, got {eps}")
    _, w, s, finite = _gauss_jacobi(_RULE_ORDER, 0.0, alpha)
    scale = (alpha + 1.0) * 0.5 ** (alpha + 1.0) if finite else 0.0  # 0: no weight is read
    f = (1.0 - eps * s) ** beta
    if scale > 2.0**-960:  # the weights sum to 1/scale: for beta > -1 the dot stays finite
        value = scale * float(np.dot(w, f))
    else:  # the dot may pass the float range (inf), or the weights did (scale 0)
        with np.errstate(over="ignore"):
            value = scale and scale * float(np.dot(w, f))
    if 0.0 < value < math.inf:
        return value
    if beta == 0.0:
        return 1.0
    if beta == 1.0:
        return 1.0 - (alpha + 1.0) * eps / (alpha + 2.0)
    raise NumericalError(
        f"hypergeom_F: Gauss-Jacobi rule out of the float range at alpha={alpha}, "
        f"beta={beta}, eps={eps}"
    )


def bessel_j(nu: float, x: float) -> float:
    """Bessel function J_nu(x) for nu >= 0, x >= 0."""
    if not nu >= 0.0:
        raise ValueError(f"bessel_j requires nu >= 0, got {nu}")
    if not x >= 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    return float(_besselj(nu, x))


@dataclass(frozen=True)
class BesselZero:
    """First positive zero of J_nu, with the residual |J_nu(value)| achieved."""

    nu: float
    value: float
    residual: float


def bessel_first_zeros(nus) -> list[BesselZero]:
    """First positive zeros j_{nu,1} of a 1-D sequence of orders, by bracketed Newton/bisection.

    J_nu is positive on (0, j_{nu,1}) and sqrt(nu*(nu+2)) < j_{nu,1} <
    sqrt(2*(nu+1)*(nu+3)), so an upward scan from the lower bound with a step
    below the minimal zero gap brackets exactly the first zero.  Newton steps
    on J_nu, with J_nu'(x) = J_{nu-1}(x) - (nu/x) J_nu(x), polish it; a step
    that does not land strictly inside the bracket is replaced by bisection,
    and an order stops once its step is within 4e-16*x.

    The orders are solved together: each scan or Newton step is one
    scipy.special.jv call on the orders still running, and an order drops
    out of the arrays once it is bracketed or converged.  Every operation is
    elementwise, so each zero and residual is the same double that solving
    its order alone gives.
    """
    nu = np.asarray(nus, dtype=float)
    if nu.ndim != 1:
        raise ValueError(f"bessel_first_zeros takes a 1-D sequence of orders, got shape {nu.shape}")
    if not np.all(nu >= 0.0):
        raise ValueError(f"bessel_first_zeros requires nu >= 0, got {nu[~(nu >= 0.0)][0]}")
    return list(map(BesselZero, nu.tolist(), *_solve_first_zeros(nu)))


def _solve_first_zeros(nu: np.ndarray) -> tuple[list[float], list[float]]:
    lower = np.sqrt(nu * (nu + 2.0))
    upper = np.sqrt(2.0 * (nu + 1.0) * (nu + 3.0))

    # scan: [lo, hi] is the first step of x = lower, lower + 1.5, ... over
    # which J_nu turns negative; `run` indexes the orders still scanning
    lo, f_lo, hi = np.empty_like(nu), np.empty_like(nu), np.empty_like(nu)
    run, n_run, x, up = np.arange(nu.size), nu, lower, upper
    f = np.where(lower > 0.0, _besselj(nu, lower), 1.0)
    while run.size:
        stuck = ~(x < up + _SCAN_STEP)
        if np.count_nonzero(stuck):
            raise NumericalError(f"bessel_first_zeros: bracketing failed for nu={n_run[stuck][0]}")
        x_next = x + _SCAN_STEP
        f_next = _besselj(n_run, x_next)
        neg = f_next < 0.0
        if np.count_nonzero(neg):
            done = run[neg]
            lo[done], f_lo[done], hi[done] = x[neg], f[neg], x_next[neg]
            keep = ~neg
            run, n_run, x_next, f_next, up = (
                run[keep], n_run[keep], x_next[keep], f_next[keep], up[keep]
            )
        x, f = x_next, f_next
    if np.count_nonzero(f_lo <= 0.0):
        raise NumericalError(f"bessel_first_zeros: bracketing failed for nu={nu[f_lo <= 0.0][0]}")

    # Newton from the midpoint; invariant: J_nu(lo) > 0 > J_nu(hi).  One jv
    # call gives J_nu(x) and J_{nu-1}(x), one row of `orders` each.
    value = np.empty_like(nu)
    run, orders, x = np.arange(nu.size), np.stack((nu, nu - 1.0)), 0.5 * (lo + hi)
    # df == 0 makes the Newton step inf or nan, which the bracket test rejects
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            if not run.size:
                break
            j = _besselj(orders, x)
            f = j[0]
            np.copyto(lo, x, where=f > 0.0)
            np.copyto(hi, x, where=f < 0.0)
            x_new = x - f / (j[1] - (orders[0] / x) * f)
            np.copyto(x_new, 0.5 * (lo + hi), where=~((lo < x_new) & (x_new < hi)))
            done = np.abs(x_new - x) <= 4e-16 * x
            x = x_new
            if np.count_nonzero(done):
                value[run[done]] = x[done]
                keep = ~done
                run, orders, x, lo, hi = run[keep], orders[:, keep], x[keep], lo[keep], hi[keep]
    if run.size:
        raise NumericalError(f"bessel_first_zeros: no convergence for nu={orders[0, 0]}")

    residual = np.abs(_besselj(nu, value))
    escaped = ~((lower < value) & (value < upper))
    if escaped.any():
        i = int(np.argmax(escaped))
        raise NumericalError(f"bessel_first_zeros: {value[i]} escaped bracket for nu={nu[i]}")
    large = residual > 1e-12
    if large.any():
        i = int(np.argmax(large))
        raise NumericalError(f"bessel_first_zeros: residual {residual[i]} too large for nu={nu[i]}")
    return value.tolist(), residual.tolist()


def bessel_first_zero(nu: float) -> BesselZero:
    """First positive zero j_{nu,1}: the one-order case of bessel_first_zeros."""
    if not nu >= 0.0:
        raise ValueError(f"bessel_first_zero requires nu >= 0, got {nu}")
    return bessel_first_zeros([nu])[0]

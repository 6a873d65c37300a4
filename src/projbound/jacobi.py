"""Jacobi polynomials for the weight (1-t)^alpha (1+t)^beta on (-1, 1).

Everything downstream (test functions, closed-form bounds, the design
verifier) is built on this family, normalized so that P_k(1) = C(alpha+k, k),
and every value of it comes from one forward three-term recurrence (Szego,
Orthogonal Polynomials, 4.5) over one array of coefficients.  The same array
gives the largest root: LAPACK bisection finds the top eigenvalue of the Jacobi
matrix (Golub & Welsch 1969), and Newton steps polish it; each solved root is
kept in a bounded per-process memo, so a repeated (alpha, beta, k) costs one
lookup.  One bounded memo, `_gauss_jacobi`, reads scipy's Gauss-Jacobi rules:
the Euler integral behind specials.hypergeom_F and the integrals over a tail
[xi, 1] of the weight are evaluated on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, roots_jacobi


#: Gauss-Jacobi order of hypergeom_F's Euler integral and of the tail weight integral
_RULE_ORDER = 64

#: magnitude past which the Newton polish of largest_root rescales P_k and P_k'
_RESCALE = 1e100


class NumericalError(RuntimeError):
    """A numeric routine failed to converge, or its value is past the float range."""


def _shown(value) -> str:
    """value as an error message repeats it, a str quoted: cut to 200 characters and "..."."""
    text = repr(value) if isinstance(value, str) else str(value)
    return text if len(text) <= 200 else text[:200] + "..."


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents alpha, beta; both must exceed -1 for integrability."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ValueError(
                f"Jacobi parameters must be > -1, got alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def lam(self) -> float:
        """lambda = alpha + beta + 1, the recurring exponent sum."""
        return self.alpha + self.beta + 1.0

    def raised(self) -> "JacobiParams":
        """Parameters (alpha+1, beta+1) of the derivative family."""
        return JacobiParams(self.alpha + 1.0, self.beta + 1.0)

    def weight(self, t):
        return (1.0 - t) ** self.alpha * (1.0 + t) ** self.beta


def _coefficients(params: JacobiParams, k: int) -> np.ndarray:
    """Coefficients (c1, c2, c3, c4) of c1 P_n = (c2 + c3 t) P_{n-1} - c4 P_{n-2}, n = 1..k.

    One (4, k) array, column n-1 for row n; row n = 1 gives P_1 from P_0 = 1 and
    P_{-1} = 0.  Rows 2..k come from whole-array passes over n that take every sum
    and product left to right, so each entry is the double a per-row loop gives.
    """
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {_shown(k)}")
    a, b = params.alpha, params.beta
    try:
        coeffs = np.empty((4, k))
    except (ValueError, MemoryError):  # numpy refuses k, or cannot find 32 k bytes
        raise ValueError(f"degree {_shown(k)} is too large for its recurrence table") from None
    if k >= 1:
        coeffs[:, 0] = (2.0, a - b, a + b + 2.0, 0.0)
    if k >= 2:
        n = np.arange(2.0, k + 1.0)
        two_n, n_a = 2.0 * n, n + a
        s = two_n + a + b
        s_1, s_2 = s - 1.0, s - 2.0
        coeffs[0, 1:] = two_n * (n_a + b) * s_2
        coeffs[1, 1:] = s_1 * (a * a - b * b)
        coeffs[2, 1:] = s_2 * s_1 * s
        coeffs[3, 1:] = 2.0 * (n_a - 1.0) * (n + b - 1.0) * s
    return coeffs


def _iter_values(coeffs: np.ndarray, t: np.ndarray):
    """Yield P_0(t), ..., P_k(t) by the forward recurrence over a (4, k) `_coefficients` table."""
    # a 0-d t runs on Python floats: the same rounding as numpy float64, at far less cost per step
    t, pk = (float(t), 1.0) if t.ndim == 0 else (t, np.ones_like(t))
    p_prev = 0.0
    yield pk
    for c1, c2, c3, c4 in zip(*coeffs.tolist()):
        pk, p_prev = ((c2 + c3 * t) * pk - c4 * p_prev) / c1, pk
        yield pk


def jacobi_eval(params: JacobiParams, k: int, t):
    """Evaluate P_k at t (scalar or ndarray) by the forward three-term recurrence.

    Degree-k polynomial with P_k(1) = C(alpha+k, k); t may lie outside [-1, 1].
    """
    scalar = np.isscalar(t)
    for pk in _iter_values(_coefficients(params, k), np.asarray(t, dtype=float)):
        pass
    return float(pk) if scalar else pk


def jacobi_eval_all(params: JacobiParams, k_max: int, t) -> np.ndarray:
    """All values P_0(t), ..., P_{k_max}(t) in one recurrence pass.

    Returns an array of shape (k_max+1,) + shape(t).
    """
    coeffs, t = _coefficients(params, k_max), np.asarray(t, dtype=float)  # rejects k_max < 0 first
    out = np.empty((k_max + 1,) + t.shape, dtype=float)
    for n, pn in enumerate(_iter_values(coeffs, t)):
        out[n] = pn
    return out


def jacobi_deriv(params: JacobiParams, k: int, t):
    """d/dt P_k(t), via the degree-shift identity to the (alpha+1, beta+1) family."""
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {_shown(k)}")
    if k == 0:
        return 0.0 if np.isscalar(t) else np.zeros_like(np.asarray(t, dtype=float))
    return 0.5 * (k + params.lam) * jacobi_eval(params.raised(), k - 1, t)


def tau(params: JacobiParams) -> float:
    """Total weight mass: integral of (1-t)^alpha (1+t)^beta over (-1, 1)."""
    a, b = params.alpha, params.beta
    return math.exp(
        (a + b + 1.0) * math.log(2.0) + gammaln(a + 1.0) + gammaln(b + 1.0) - gammaln(a + b + 2.0)
    )


def jacobi_norm_nu_all(params: JacobiParams, k_max: int) -> np.ndarray:
    """nu_0, ..., nu_{k_max} in one vectorized pass."""
    a, b = params.alpha, params.beta
    out = np.empty(k_max + 1)
    out[0] = 1.0 / tau(params)  # the generic formula is 0/0 at k=0 when lam=0
    if k_max >= 1:
        k = np.arange(1, k_max + 1, dtype=float)
        log_sq_norm = (
            (a + b + 1.0) * math.log(2.0)
            - np.log(2.0 * k + a + b + 1.0)
            + gammaln(k + a + 1.0)
            + gammaln(k + b + 1.0)
            - gammaln(k + a + b + 1.0)
            - gammaln(k + 1.0)
        )
        out[1:] = np.exp(-log_sq_norm)
    return out


def jacobi_value_at_one_all(params: JacobiParams, k_max: int) -> np.ndarray:
    """P_0(1), ..., P_{k_max}(1) in one vectorized pass."""
    a = params.alpha
    k = np.arange(k_max + 1, dtype=float)
    return np.exp(gammaln(a + k + 1.0) - gammaln(a + 1.0) - gammaln(k + 1.0))


def largest_root(params: JacobiParams, k: int) -> float:
    """Largest root of P_k, located in (-1, 1).

    The roots of P_k are the eigenvalues of the k x k Jacobi matrix of the
    recurrence (Golub & Welsch 1969).  Row n of the coefficient table gives
    t P_{n-1} = A_n P_n + B_n P_{n-1} + C_n P_{n-2} with A = c1/c3,
    B = -c2/c3 and C = c4/c3, so the matrix is symmetric with diagonal
    B_1..B_k and off-diagonal sqrt(A_n C_{n+1}).  LAPACK bisection (dstebz,
    absolute tolerance 0) gives its top eigenvalue to a few ulps; two Newton
    steps on P_k / P_k', over the same table as Python floats and rescaled
    together so that neither overflows, polish it to near machine precision.
    Each solved root is kept per process, keyed by (alpha, beta, k), for the
    2**14 keys used last; a repeated key returns the stored double.
    """
    return _solve_largest_root(params.alpha, params.beta, k)


@lru_cache(maxsize=1 << 14, typed=True)  # about 4 MB when full; a failed solve is not kept
def _solve_largest_root(alpha: float, beta: float, k: int) -> float:
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {_shown(k)}")
    params = JacobiParams(alpha, beta)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge alpha raises below instead
        coeffs = _coefficients(params, k)
    if not np.isfinite(coeffs).all():
        raise NumericalError(f"Jacobi coefficients past the float range at {alpha=}, {beta=}, {k=}")
    c1, c2, c3, c4 = coeffs
    # 0.0 - c2, not -c2: a zero diagonal (alpha = beta) stays +0.0, and so does xi at k = 1
    diag = (0.0 - c2) / c3
    if k == 1:
        x = float(diag[0])
    else:
        from scipy.linalg.lapack import dstebz  # scipy.linalg costs import time

        off = np.sqrt(c1[:-1] / c3[:-1] * c4[1:] / c3[1:])
        _, w, _, _, info = dstebz(diag, off, 2, 0.0, 1.0, k, k, 0.0, "E")
        if info != 0:
            raise NumericalError(f"dstebz failed with info={info} for k={k}, {params}")
        x = float(w[0])
    rows, big, small = list(zip(*coeffs.tolist())), _RESCALE, -_RESCALE
    for _ in range(2):
        p_prev, p, d_prev, d = 0.0, 1.0, 0.0, 0.0
        for c1_n, c2_n, c3_n, c4_n in rows:
            s = c2_n + c3_n * x
            d, d_prev = (s * d + c3_n * p - c4_n * d_prev) / c1_n, d
            p, p_prev = (s * p - c4_n * p_prev) / c1_n, p
            if p > big or p < small or d > big or d < small:
                p, p_prev, d, d_prev = (v / big for v in (p, p_prev, d, d_prev))
        x -= (p / d) if d else math.inf  # P_k' underflows to 0 at a huge alpha
    if not math.isfinite(x):
        raise NumericalError(f"Newton step not finite at alpha={alpha}, beta={beta}, k={k}")
    return x


@lru_cache(maxsize=512, typed=True)
def _gauss_jacobi(order: int, alpha: float, beta: float):
    """Nodes u, weights w, half-nodes (1+u)/2 of scipy's Gauss-Jacobi rule, and whether w is finite.

    The arrays are read-only.  In the (alpha, 0) and (0, alpha) rules read here scipy's
    weights overflow from alpha = 1033.5; the flag is then False and callers read no weight.
    """
    with np.errstate(over="ignore"):
        u, w = roots_jacobi(order, alpha, beta)
    s = 0.5 * (1.0 + u)
    for array in (u, w, s):
        array.setflags(write=False)
    return u, w, s, bool(np.isfinite(w).all())


def tail_rule(params: JacobiParams, xi: float, order: int):
    """Nodes t and effective weights for integrals of f(t)*weight(t) over [xi, 1].

    The endpoint factor (1-t)^alpha is absorbed into a Gauss-Jacobi rule with
    parameters (alpha, 0) mapped affinely onto [xi, 1]; the remaining factor
    (1+t)^beta is smooth there and is folded into the weights.  The rule is
    read from `_gauss_jacobi` at (order, alpha, 0); one whose weights are not
    finite (from alpha = 1033.5) raises NumericalError.
    """
    if not (-1.0 < xi < 1.0):
        raise ValueError(f"xi must lie in (-1, 1), got {xi}")
    u, w, _, finite = _gauss_jacobi(order, params.alpha, 0.0)
    if not finite:
        raise NumericalError(f"tail_rule: weights past the float range for {params}, xi={xi}")
    t = 0.5 * ((1.0 + xi) + (1.0 - xi) * u)
    scale = (0.5 * (1.0 - xi)) ** (params.alpha + 1.0)
    return t, scale * w * (1.0 + t) ** params.beta


def incomplete_weight_integral(params: JacobiParams, xi: float) -> float:
    """Integral of (1-t)^alpha (1+t)^beta over [xi, 1], xi in (-1, 1)."""
    _, w = tail_rule(params, xi, _RULE_ORDER)
    return float(w.sum())

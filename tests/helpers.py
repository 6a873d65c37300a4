"""Independent numeric oracles shared by the test modules.

Everything here deliberately avoids the package's own evaluation paths:
moments come from high-precision mpmath arithmetic, convolutions from a
geometric quadrature over the sphere, special-function references from
mpmath, Gauss-Jacobi rules from scipy's Golub-Welsch nodes, projective
cosines from scalar quaternion products, largest Jacobi roots from a sign
scan over scipy's eval_jacobi.  sic_tetrahedron, mub_octahedron, hesse_sic
and simplex_hp1 build tight C and H designs from their geometry,
unitary_image moves a set off real coordinates, and embedding_defect tests
the isometric-embedding identity with the same quaternion products.  Agreement between these and the package is
the point of the tests.  Some exceptions share the package's route on
purpose and pin one step of it bit for bit: fsum_moments takes the
package's Gram cosines and checks the recurrence and moment summation;
frozen_gram_pass is the full-square complex-pair pass the package's half
pass over node pairs replaced, and pins the real moments to the same doubles;
frozen_features is the node-feature builder that the package's stacked complex
passes replaced, and pins every feature to the same double, signed zeros included;
bessel_first_zero_scan runs the package's Bessel-zero algorithm one order
and one scalar jv call at a time and checks the array-valued solver's path;
loop_coefficients and largest_root_eigh are the per-row Jacobi coefficient
loop and the eigh_tridiagonal root that the package's array-built table and
direct LAPACK call replaced, and pin both to the same doubles;
asymptotic_rows_loop is the per-row scalar loop that the package's column
passes over the asymptotic rows replaced, and pins every row field to the
same double; uncached_hypergeom_F, uncached_real_integral_ratio and
uncached_yudin_bound are the bound's expressions before its (field, m) terms
and its Euler-rule nodes were kept per process: three log_gamma calls per
bound, the nodes from roots_jacobi, the root from the unmemoised solver; they
pin every report field to the same double.
clear_bessel_zero_memo and clear_largest_root_memo empty the package's
per-process memos of first Bessel zeros and of largest Jacobi roots, so a test
that needs a cold solve gets one.  deadline turns a call that does not return
in time into a failed test instead of a hung suite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import signal
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_jacobi, jv, roots_jacobi

from projbound import bounds, jacobi, specials
from projbound.bounds import AsymptoticRow, BoundReport
from projbound.fields import Field, field_params
from projbound.cubature import PointSet, gram_matrix


def field_alpha_beta(delta: int, m: int) -> tuple[float, float]:
    return (delta * (m - 1) - 2) / 2.0, (delta - 2) / 2.0


@dataclass(frozen=True)
class Quaternion:
    """Hamilton quaternion w + x i + y j + z k."""

    w: float
    x: float
    y: float
    z: float

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __abs__(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])


def inner_sq(x, y) -> float:
    """|(x, y)|^2 of two nodes given as (m, 4) arrays.

    The inner product sum_i conj(x_i) y_i is built from Quaternion products,
    one coordinate pair at a time, so it shares no code with the package's
    vectorised Gram kernel.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2 or x.shape[1] != 4:
        raise ValueError(f"node shape mismatch: {x.shape} vs {y.shape}, expected (m, 4)")
    inner = sum(
        ((Quaternion(*xi).conjugate() * Quaternion(*yi)).as_array() for xi, yi in zip(x, y)),
        np.zeros(4),
    )
    return float(np.dot(inner, inner))


def projective_cos(x, y) -> float:
    """Projective cosine 2|(x,y)|^2 - 1 of two unit nodes given as (m, 4) arrays, by `inner_sq`."""
    return 2.0 * inner_sq(x, y) - 1.0


def _complex_nodes(rows) -> np.ndarray:
    """(n, m, 4) quaternion-embedded nodes of complex coordinate rows (n, m)."""
    z = np.asarray(rows, dtype=complex)
    nodes = np.zeros(z.shape + (4,))
    nodes[..., 0], nodes[..., 1] = z.real, z.imag
    return nodes


def bloch_design(vectors) -> PointSet:
    """Equal-weight states of CP^1 with the given unit Bloch vectors (x, y, z).

    The state of (sin th cos ph, sin th sin ph, cos th) is (cos th/2, e^{i ph} sin th/2),
    and |(u, v)|^2 = (1 + b_u . b_v) / 2 for Bloch vectors b_u, b_v.
    """
    rows = []
    for x, y, z in vectors:
        theta, phi = math.acos(z), math.atan2(y, x)
        rows.append([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)])
    return PointSet(Field.C, 2, _complex_nodes(rows))


def sic_tetrahedron() -> PointSet:
    """The SIC of CP^1 (C, m=2): Bloch vectors at a regular tetrahedron; tight at p=4."""
    return bloch_design(np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]) / math.sqrt(3))


def mub_octahedron() -> PointSet:
    """The three mutually unbiased bases of C^2: Bloch vectors at the octahedron; tight at p=6."""
    return bloch_design(np.concatenate([np.eye(3), -np.eye(3)]))


def hesse_sic() -> PointSet:
    """The Hesse SIC of CP^2 (C, m=3): 9 lines, |(u, v)|^2 = 1/4 for u != v; tight at p=4.

    (0, 1, -1), (0, w, -w^2), (0, w^2, -w) with w = e^{2 pi i/3}, and their cyclic shifts,
    divided by sqrt 2.
    """
    w = np.exp(2j * math.pi / 3.0)
    base = np.array([(0, 1, -1), (0, w, -(w**2)), (0, w**2, -w)])
    rows = [np.roll(row, shift) for shift in range(3) for row in base]
    return PointSet(Field.C, 3, _complex_nodes(np.array(rows) / math.sqrt(2.0)))


def simplex_hp1() -> PointSet:
    """The regular simplex of S^4 = HP^1 (H, m=2): 6 points; tight at p=4.

    A vertex (t, v) of S^4, t real and v in R^4 = H, maps to the node
    (sqrt((1+t)/2), conj(v) / (2 sqrt((1+t)/2))).  One vertex is the pole t = 1;
    the other five have t = -1/5 and v the vertices of a regular simplex of R^4
    with |v|^2 = 24/25, so every pair of vertices has inner product -1/5.
    """
    r5 = 1.0 / math.sqrt(5.0)
    base = [(1, 1, 1, -r5), (1, -1, -1, -r5), (-1, 1, -1, -r5), (-1, -1, 1, -r5), (0, 0, 0, 4 * r5)]
    vertices = [(1.0, np.zeros(4))] + [(-0.2, np.array(v) * math.sqrt(0.3)) for v in base]
    nodes = np.zeros((6, 2, 4))
    for node, (t, v) in zip(nodes, vertices):
        a = math.sqrt((1.0 + t) / 2.0)
        node[0, 0] = a
        node[1] = Quaternion(*v).conjugate().as_array() / (2.0 * a)
    return PointSet(Field.H, 2, nodes)


def unitary_image(ps, rng) -> PointSet:
    """ps moved by a unitary map of K^m, so no coordinate of a node stays real.

    Each coordinate is left-multiplied by a random unit scalar of K, then the
    coordinates are mixed by a random real rotation; both keep every |(x, y)|,
    hence every moment.  The products are Quaternion products.
    """
    d = ps.field.delta
    units = rng.standard_normal((ps.m, 4)) * (np.arange(4) < d)
    units = [Quaternion(*(u / np.linalg.norm(u))) for u in units]
    nodes = np.array(
        [[(u * Quaternion(*x)).as_array() for u, x in zip(units, node)] for node in ps.nodes]
    )
    rotation = np.linalg.qr(rng.standard_normal((ps.m, ps.m)))[0]
    return PointSet(ps.field, ps.m, np.einsum("ab,nbc->nac", rotation, nodes), ps.weights)


def haar_point_set(field, m: int, n: int, rng) -> PointSet:
    """n equal-weight nodes drawn from the unitarily invariant measure on the sphere of K^m."""
    nodes = np.zeros((n, m, 4))
    nodes[..., : field.delta] = rng.standard_normal((n, m, field.delta))
    nodes /= np.sqrt((nodes**2).sum(axis=(1, 2)))[:, None, None]
    return PointSet(field, m, nodes)


def embedding_defect(ps, p: int, rng, samples: int = 50) -> float:
    """max |sum_i w_i |(x, x_i)|^p - c| over `samples` Haar-random unit x, by `inner_sq`.

    The isometric-embedding identity: a weighted set has index p exactly when
    sum_i w_i |(x, x_i)|^p = c |x|^p for every x in K^m, with
    c = prod_{j<p/2} (d/2 + j) / (dm/2 + j), d = dim_R K, the mean of
    |(x, y)|^p over the unit sphere.
    """
    d, m = ps.field.delta, ps.m
    c = math.prod((d / 2.0 + j) / (d * m / 2.0 + j) for j in range(p // 2))
    pairs = list(zip(ps.weights, ps.nodes))
    return max(
        abs(math.fsum(w * inner_sq(x, node) ** (p // 2) for w, node in pairs) - c)
        for x in haar_point_set(ps.field, m, samples, rng).nodes
    )


def loop_coefficients(alpha: float, beta: float, k: int) -> list[tuple]:
    """Rows (c1, c2, c3, c4) of c1 P_n = (c2 + c3 t) P_{n-1} - c4 P_{n-2}, n = 1..k, one at a time.

    The per-row loop the package's array-built `_coefficients` replaced;
    the two must give the same doubles.
    """
    a, b = alpha, beta
    coeffs = [(2.0, a - b, a + b + 2.0, 0.0)][:k]  # no rows at k = 0
    for n in range(2, k + 1):
        c1 = 2.0 * n * (n + a + b) * (2.0 * n + a + b - 2.0)
        c2 = (2.0 * n + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * n + a + b - 2.0) * (2.0 * n + a + b - 1.0) * (2.0 * n + a + b)
        c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + a + b)
        coeffs.append((c1, c2, c3, c4))
    return coeffs


def largest_root_eigh(alpha: float, beta: float, k: int) -> float:
    """Largest root of P_k by eigh_tridiagonal on the Jacobi matrix of `loop_coefficients`.

    The route the package's direct LAPACK dstebz call replaced: the same
    matrix, scipy's wrapper around the same bisection, and the same two
    rescaled Newton steps; the two must give the same double.
    """
    coeffs = loop_coefficients(alpha, beta, k)
    c1, c2, c3, c4 = np.array(coeffs).T
    diag = (0.0 - c2) / c3
    off = np.sqrt(c1[:-1] / c3[:-1] * c4[1:] / c3[1:])
    top = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(k - 1, k - 1))
    x = float(top[0])
    for _ in range(2):
        p_prev, p, d_prev, d = 0.0, 1.0, 0.0, 0.0
        for c1_n, c2_n, c3_n, c4_n in coeffs:
            s = c2_n + c3_n * x
            d, d_prev = (s * d + c3_n * p - c4_n * d_prev) / c1_n, d
            p, p_prev = (s * p - c4_n * p_prev) / c1_n, p
            if abs(p) > 1e100 or abs(d) > 1e100:
                p, p_prev, d, d_prev = (v / 1e100 for v in (p, p_prev, d, d_prev))
        x -= p / d
    return x


def fsum_moments(ps, p: int, cos=None) -> list[float]:
    """M_1 .. M_{p/2} of a PointSet by math.fsum over the whole (n, n) weighted matrix.

    The kernel values w_i w_j P_k(cos_ij) come from the package's Gram
    cosines (or the given (n, n) cos), `loop_coefficients` and a recurrence
    loop of this function's own, and are summed by the full-matrix route
    moment_test replaced; both sums are correctly rounded, so they agree bit
    for bit.
    """
    alpha, beta = field_alpha_beta(ps.field.delta, ps.m)
    cos = gram_matrix(ps) if cos is None else cos
    pair_w = np.outer(ps.weights, ps.weights)
    p_prev, p_k = 0.0, np.ones_like(cos)
    moments = []
    for c1, c2, c3, c4 in loop_coefficients(alpha, beta, p // 2):
        p_k, p_prev = ((c2 + c3 * cos) * p_k - c4 * p_prev) / c1, p_k
        moments.append(math.fsum((pair_w * p_k).ravel()))
    return moments


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the body once `seconds` have passed (SIGALRM, main thread)."""

    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def frozen_gram_pass(ps, p: int) -> tuple[list[float], list[tuple[int, int]]]:
    """(M_1 .. M_{p/2}, coincident pairs i < j) by the replaced full-square pass.

    The complex-pair kernel over every ordered pair: each node q = z + w j
    maps to u = (z, conj(w)) in C^{2m}, and |(x, y)|^2 = |G1|^2 + |G2|^2 with
    G1 = conj(U) U^T and G2 = U (J U)^T, J u = (u[m:], -u[:m]), accumulated as
    elementwise outer products (G2 over H only, u real over R).  Coincident
    pairs are the j > i with cos_ij >= 1 - 1e-12, row by row, and the moments
    are `fsum_moments` of these cosines.  Over R the kernel rounds as the
    package's does, so the moments agree bit for bit; over C and H the
    cosines may differ in the last bits.
    """
    q, m = ps.nodes, ps.m
    u = q[..., 0] if ps.field.delta == 1 else q[..., 0] + 1j * q[..., 1]
    if ps.field.delta == 4:
        u = np.concatenate([u, q[..., 2] - 1j * q[..., 3]], axis=1)
    terms = [(u.conj(), u)]
    if ps.field.delta == 4:
        terms.append((u, np.concatenate([u[:, m:], -u[:, :m]], axis=1)))
    sq = np.zeros((ps.n, ps.n))
    for left, right in terms:
        g = np.zeros(sq.shape, dtype=u.dtype)
        for a, b in zip(left.T, right.T):
            g += np.multiply.outer(a, b)
        sq += g.real**2
        sq += g.imag**2
    cos = 2.0 * sq - 1.0
    i, j = np.nonzero(np.triu(cos >= 1.0 - 1e-12, 1))
    return fsum_moments(ps, p, cos), list(zip(i.tolist(), j.tolist()))


def frozen_features(ps) -> tuple[np.ndarray, np.ndarray]:
    """(left, right), each (D, n), by the replaced `cubature._features`.

    Over R the coordinates; over C and H |x_a|^2, then the delta real components
    of X_ab = z_a conj(z_b) + w_a conj(w_b) and Y_ab = w_a z_b - z_a w_b for the
    pairs a < b of `np.triu_indices`, the off-diagonal part doubled on the left.
    """
    q = np.moveaxis(ps.nodes, -1, 0)  # (4, n, m)
    if ps.field.delta == 1:
        return q[0].T, q[0].T
    a, b = np.triu_indices(ps.m, 1)
    z, w = q[0] + 1j * q[1], q[2] + 1j * q[3]
    x = z[:, a] * z[:, b].conj() + w[:, a] * w[:, b].conj()
    y = w[:, a] * z[:, b] - z[:, a] * w[:, b]
    off = np.concatenate([x.real, x.imag, y.real, y.imag][: ps.field.delta], axis=1).T
    diag = (q * q).sum(axis=0).T
    return np.concatenate([diag, 2.0 * off]), np.concatenate([diag, off])


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule: exact for polynomials of degree <= 2*order - 1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def integrate(self, f) -> float:
        """Integral of f(t) * (1-t)^alpha (1+t)^beta over (-1, 1)."""
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_jacobi(params, order: int) -> QuadratureRule:
    """Gauss-Jacobi rule with `order` nodes for the weight of params (alpha, beta)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    a, b = params.alpha, params.beta
    nodes, weights = roots_jacobi(order, a, b)
    if not (np.all(np.diff(nodes) > 0) and np.all(weights > 0)):
        raise RuntimeError(f"gauss_jacobi: invalid rule for order={order}, {params}")
    mass = math.exp(
        (a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
        - math.lgamma(a + b + 2.0)
    )
    if abs(weights.sum() - mass) > 1e-12 * mass:
        raise RuntimeError(
            f"gauss_jacobi: weight sum {weights.sum()!r} deviates from {mass!r} "
            f"(order={order}, {params})"
        )
    return QuadratureRule(nodes, weights, order)


def largest_root_scan(alpha: float, beta: float, k: int) -> float:
    """Largest root of P_k^(alpha, beta) by a sign scan, then safeguarded Newton.

    P_k(1) > 0 and every root is simple and interior, so the first
    non-positive value on a Chebyshev angle grid of 8k points, scanned down
    from t = 1, brackets the largest root; Newton steps kept inside the
    bracket by bisection then polish it.  Values come from
    scipy.special.eval_jacobi and the derivative from its (alpha+1, beta+1)
    family, so no arithmetic is shared with the package's recurrence.
    """
    grid = np.cos(np.pi * np.arange(8 * k + 1) / (8 * k))
    values = eval_jacobi(k, alpha, beta, grid)
    i = int(np.argmin(values > 0.0))
    if values[i] == 0.0:
        return float(grid[i])
    lo, hi = grid[i], grid[i - 1]

    # invariant: P_k(hi) > 0 > P_k(lo)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f = eval_jacobi(k, alpha, beta, x)
        if f == 0.0:
            return float(x)
        if f > 0.0:
            hi = x
        else:
            lo = x
        df = 0.5 * (k + alpha + beta + 1.0) * eval_jacobi(k - 1, alpha + 1.0, beta + 1.0, x)
        x_new = x - f / df if df != 0.0 else math.nan
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 4e-16 * max(1.0, abs(x)) or (hi - lo) <= 4e-16:
            return float(x_new)
        x = x_new
    raise RuntimeError(f"largest_root_scan: no convergence for k={k}, ({alpha}, {beta})")


def bessel_first_zero_scan(nu: float) -> tuple[float, float]:
    """First positive zero j_{nu,1} and |J_nu| there, by the one-order scan plus Newton.

    The package's per-order algorithm, kept here one order and one scalar
    scipy.special.jv call at a time as the path reference for its
    array-valued solver: an upward scan in steps of 1.5 from
    sqrt(nu*(nu+2)) brackets the first zero, then Newton steps kept strictly
    inside the bracket by bisection, with J_nu'(x) = J_{nu-1}(x) -
    (nu/x) J_nu(x), stop once a step is within 4e-16*x.  Returns
    (value, residual).
    """
    step = 1.5
    lower = math.sqrt(nu * (nu + 2.0))
    upper = math.sqrt(2.0 * (nu + 1.0) * (nu + 3.0))

    lo, f_lo = lower, float(jv(nu, lower)) if lower > 0.0 else 1.0
    hi = None
    x = lower
    while x < upper + step:
        x = x + step
        f = float(jv(nu, x))
        if f < 0.0:
            hi = x
            break
        lo, f_lo = x, f
    if hi is None or f_lo <= 0.0:
        raise RuntimeError(f"bessel_first_zero_scan: bracketing failed for nu={nu}")

    # invariant: J_nu(lo) > 0 > J_nu(hi)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f = float(jv(nu, x))
        if f > 0.0:
            lo = x
        elif f < 0.0:
            hi = x
        df = float(jv(nu - 1.0, x)) - (nu / x) * float(jv(nu, x))
        x_new = x - f / df if df != 0.0 else math.nan
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 4e-16 * x:
            return x_new, abs(float(jv(nu, x_new)))
        x = x_new
    raise RuntimeError(f"bessel_first_zero_scan: no convergence for nu={nu}")


def clear_bessel_zero_memo() -> None:
    """Empty the memo of bessel_first_zeros, so its next call solves every order it gets."""
    specials._ZERO_CACHE.clear()


def clear_largest_root_memo() -> None:
    """Empty the memo of largest_root, so its next call solves the (alpha, beta, k) it gets."""
    jacobi._solve_largest_root.cache_clear()


def mp_jacobi(alpha: float, beta: float, k: int, x: float, dps: int = 60):
    """P_k^(alpha, beta)(x) as an mpmath number, by the three-term recurrence at dps digits.

    Returned unrounded: at high degree and large alpha the value exceeds the
    float range.
    """
    with mpmath.workdps(dps):
        a, b, x = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(x)
        p_prev, p = mpmath.mpf(1), ((a + b + 2) * x + (a - b)) / 2
        if k == 0:
            return p_prev
        for n in range(2, k + 1):
            s = 2 * n + a + b
            p, p_prev = (
                ((s - 1) * ((a * a - b * b) + s * (s - 2) * x) * p
                 - 2 * (n + a - 1) * (n + b - 1) * s * p_prev)
                / (2 * n * (n + a + b) * (s - 2)),
                p,
            )
        return +p


def hypergeom_series(beta: float, alpha: float, eps: float, tol: float = 1e-17) -> float:
    """Power-series evaluation of F(-beta, alpha+1; alpha+2; eps)."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"hypergeom_series requires 0 <= eps < 1, got {eps}")
    total = term = 1.0
    n = 0
    while abs(term) > tol * abs(total):
        term *= (n - beta) * (n + alpha + 1.0) / ((n + alpha + 2.0) * (n + 1.0)) * eps
        total += term
        n += 1
        if n > 100_000:
            raise RuntimeError(f"hypergeom_series stalled at eps={eps}")
        if term == 0.0:
            break
    return total


def asymptotic_rows_loop(field, m_list) -> list:
    """asymptotic_report's rows, one m at a time in scalar arithmetic.

    The zeros come from the package's bessel_first_zeros; each row's log
    Gamma values, logs, sums and products are scalar Python floats, in the
    order of the formula the package's column passes must reproduce.
    """
    def exp_safe(x):
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf

    d = field.delta
    m_list = list(m_list)
    zeros = specials.bessel_first_zeros([d * (m - 1) / 2.0 for m in m_list])
    rows = []
    for m, zero in zip(m_list, zeros):
        nu, j1 = zero.nu, zero.value
        lg_nu = specials.log_gamma(nu + 1.0)
        lg_d = specials.log_gamma(d / 2.0)
        lg_dm = specials.log_gamma(d * m / 2.0)
        log_kap = 2.0 * nu * math.log(j1) - 2.0 * lg_nu - nu * math.log(16.0)
        log_approx = -math.log(math.pi * d * m) + d * (m - 1) * (1.0 - math.log(4.0))
        rows.append(
            AsymptoticRow(
                m=m,
                nu=nu,
                bessel_zero=j1,
                bessel_residual=zero.residual,
                kappa=exp_safe(log_kap),
                log_kappa=log_kap,
                log_kappa_approx=log_approx,
                log_ratio=log_kap - log_approx,
                lp_liminf_log=-(lg_dm + lg_nu - lg_d + 2.0 * d * (m - 1) * math.log(2.0)),
                testfn_liminf_log=lg_nu + lg_d - lg_dm - d * (m - 1) * math.log(j1),
                gap_factor_log=d * (m - 1) * math.log(2.0) + log_kap,
            )
        )
    return rows


def lambda_factorial(delta: int, m: int) -> int:
    """lambda(m) by the factorial case table of the field of dimension delta, exactly."""
    if delta == 1:
        return 2 ** (m - 1) * math.factorial(m - 1)
    if delta == 2:
        return 2 ** (4 * (m - 1)) * math.factorial(m - 1) ** 2
    return 2 ** (8 * (m - 1)) * math.factorial(2 * m - 1) * math.factorial(2 * m - 2)


def monomial_moment(alpha: float, beta: float, j: int) -> float:
    """integral of t^j (1-t)^alpha (1+t)^beta over (-1,1), 60-digit arithmetic."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for i in range(j + 1):
            total += (
                mpmath.binomial(j, i)
                * mpmath.mpf(2) ** i
                * (-1) ** (j - i)
                * mpmath.beta(beta + 1 + i, alpha + 1)
            )
        return float(mpmath.mpf(2) ** (alpha + beta + 1) * total)


@lru_cache(maxsize=None)
def _tail_rule(order: int, alpha: float):
    """scipy's Gauss-Jacobi rule for (1-u)^alpha on (-1, 1), built once per (order, alpha)."""
    u, w = roots_jacobi(order, alpha, 0.0)
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def quad_tail(alpha: float, beta: float, xi: float, f, order: int = 96) -> float:
    """integral of f(t) (1-t)^alpha (1+t)^beta over [xi, 1] by mapped Gauss-Jacobi."""
    u, w = _tail_rule(order, alpha)
    t = 0.5 * ((1.0 + xi) + (1.0 - xi) * u)
    scale = (0.5 * (1.0 - xi)) ** (alpha + 1.0)
    return scale * float(np.dot(w * (1.0 + t) ** beta, f(t)))


def conv_oracle(delta: int, m: int, g, h, t: float, ns: int = 48, nc: int = 48, nz: int = 48):
    """(g*h)(t) for zonal g, h on the projective space over a delta-dim field.

    Geometric route: the cosine s of a uniform point against a fixed node has
    the normalized Jacobi weight as density; conditionally on s, the cosine
    against a second fixed node at projective cosine t is
        2*(r^2 rho^2 + (1-r^2)(1-rho^2) c + 2 r rho sqrt((1-r^2)(1-rho^2) c) z) - 1
    with r^2=(1+s)/2, rho^2=(1+t)/2, c ~ Beta(delta/2, delta(m-2)/2) and z a
    projected-phase cosine with density prop. to (1-z^2)^((delta-3)/2).
    Exact (up to roundoff) for polynomial g, h once the rules are large enough.
    g is called once on the array of s nodes and h once on the (s, c, z) grid.
    """
    alpha, beta = field_alpha_beta(delta, m)
    s, ws = roots_jacobi(ns, alpha, beta)
    ws = ws / ws.sum()
    rho2 = (1.0 + t) / 2.0

    if m == 2:
        c_nodes, wc = np.array([1.0]), np.array([1.0])
    else:
        u, wu = roots_jacobi(nc, delta * (m - 2) / 2.0 - 1.0, delta / 2.0 - 1.0)
        c_nodes, wc = (1.0 + u) / 2.0, wu / wu.sum()
    if delta == 1:
        z, wz = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    else:
        z, wz = roots_jacobi(nz, (delta - 3) / 2.0, (delta - 3) / 2.0)
        wz = wz / wz.sum()

    # axes: (s, c, z)
    r2 = ((1.0 + s) / 2.0)[:, None, None]
    c = c_nodes[None, :, None]
    base = r2 * rho2 + (1.0 - r2) * (1.0 - rho2) * c
    cross = 2.0 * np.sqrt(np.maximum(r2 * rho2 * (1.0 - r2) * (1.0 - rho2) * c, 0.0))
    inner = h(2.0 * (base + cross * z) - 1.0) @ wz @ wc
    return float(np.dot(ws * g(s), inner))


def real_m3_testfn_oracle(r: int, xi: float, t: float, jacobi_scalar) -> float:
    """(g*h)(t) for the real m=3 test function, by direct sphere integration.

    g(s) = P_r(s) - P_r(xi) above xi (0 below), h the indicator of [xi, 1].
    The azimuthal average of the indicator has an arcsine closed form, so
    only a 1-D adaptive integral over the cosine s remains.
    `jacobi_scalar(r, s)` must evaluate the degree-r polynomial for the
    (alpha, beta) = (0, -1/2) family.
    """
    from scipy.integrate import quad

    rho = math.sqrt((1.0 + t) / 2.0)
    rho_xi = math.sqrt((1.0 + xi) / 2.0)
    p_r_xi = jacobi_scalar(r, xi)
    tau_val = 2.0 * math.sqrt(2.0)  # integral of (1+t)^(-1/2) over (-1,1)

    def upper_measure(a: float) -> float:
        # arcsine-density mass of {w >= a} on [-1, 1]
        if a <= -1.0:
            return 1.0
        if a >= 1.0:
            return 0.0
        return 0.5 - math.asin(a) / math.pi

    def integrand(s: float) -> float:
        r_cos = math.sqrt((1.0 + s) / 2.0)
        c = math.sqrt(max((1.0 - r_cos**2) * (1.0 - rho**2), 0.0))
        if c == 0.0:
            mass = 1.0 if abs(r_cos * rho) >= rho_xi else 0.0
        else:
            hi = (rho_xi - r_cos * rho) / c
            lo = (-rho_xi - r_cos * rho) / c
            mass = upper_measure(hi) + (1.0 - upper_measure(lo))
        return (1.0 + s) ** (-0.5) * (jacobi_scalar(r, s) - p_r_xi) * mass

    val, err = quad(integrand, xi, 1.0, limit=400, epsabs=1e-12, epsrel=1e-12)
    if err > 1e-9:
        raise RuntimeError(f"oracle quadrature error too large: {err}")
    return val / tau_val


def mp_besselj(nu: float, x: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.besselj(nu, x))


#: order from which mp_bessel_first_zero brackets the zero instead of calling besseljzero
_MP_BRACKET_FROM_NU = 20.0


def mp_bessel_first_zero(nu: float) -> float:
    """j_{nu,1} at 40 digits.

    Below nu = 20 by mpmath.besseljzero.  From nu = 20 on, besseljzero takes
    seconds per zero, so the zero is a bracketed findroot on besselj over
    (sqrt(nu(nu+2)), nu + 3.2446 nu^(1/3)): j_{nu,1} lies above the lower end,
    and j_{nu,2} above the upper one (Qu & Wong 1999, the second Airy zero
    over 2^(1/3)).  The sign check makes a bad bracket fail loudly.
    """
    with mpmath.workdps(40):
        if nu < _MP_BRACKET_FROM_NU:
            return float(mpmath.besseljzero(nu, 1))
        order = mpmath.mpf(nu)
        lo = mpmath.sqrt(order * (order + 2))
        hi = order + mpmath.mpf("3.2446") * mpmath.cbrt(order)
        if not mpmath.besselj(order, lo) > 0 > mpmath.besselj(order, hi):
            raise RuntimeError(f"J_nu does not change sign once over the bracket at nu={nu}")
        zero = mpmath.findroot(lambda x: mpmath.besselj(order, x), (lo, hi), solver="anderson")
        return float(zero)


def mp_hyp2f1(a: float, b: float, c: float, z: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.hyp2f1(a, b, c, z))


def mp_real_yudin(m: int, xi: float) -> float:
    """Real-field Yudin-type bound at the root xi, from mpmath's hyp2f1 at 40 digits.

    Gamma(a+2) Gamma(1/2) / Gamma(a+3/2) / F(1/2, a+1; a+2; eps) / eps^(a+1)
    with a = (m-3)/2 and eps = (1-xi)/2, evaluated in full at 40 digits so
    that eps^(a+1) neither underflows nor loses bits.
    """
    with mpmath.workdps(40):
        a = mpmath.mpf(m - 3) / 2
        eps = (1 - mpmath.mpf(xi)) / 2
        gammas = mpmath.gamma(a + 2) * mpmath.gamma(mpmath.mpf(1) / 2) / mpmath.gamma(a + 1.5)
        return float(gammas / mpmath.hyp2f1(0.5, a + 1, a + 2, eps) / eps ** (a + 1))


def mp_inverse_betainc(alpha: float, beta: float, eps: float) -> float:
    """1 / I_eps(alpha+1, beta+1), mpmath's regularized incomplete beta at 40 digits.

    The Yudin-type bound at eps for the Jacobi weight (alpha, beta); inf when
    the value is past the float range.
    """
    with mpmath.workdps(40):
        return float(1 / mpmath.betainc(alpha + 1, beta + 1, 0, mpmath.mpf(eps), regularized=True))


def _uncached_root(params, k: int) -> float:
    return jacobi._solve_largest_root.__wrapped__(params.alpha, params.beta, k)


def uncached_hypergeom_F(beta: float, alpha: float, eps: float) -> float:
    """hypergeom_F's 64-point Euler-integral value, its rule taken from roots_jacobi on each call."""
    u, w = roots_jacobi(64, 0.0, alpha)
    s = 0.5 * (1.0 + u)
    return (alpha + 1.0) * 0.5 ** (alpha + 1.0) * float(np.dot(w, (1.0 - eps * s) ** beta))


def _uncached_real_ratio(m: int, xi: float) -> float:
    a, eta = (m - 3) / 2.0, math.sqrt((1.0 + xi) / 2.0)
    h = ((1.0 - xi) / 2.0) / (1.0 + eta)
    tail_f = uncached_hypergeom_F(a, a, h / 2.0) / (a + 1.0)
    log_full = (
        2.0 * a * math.log(2.0) + 2.0 * specials.log_gamma(a + 1.0)
        - specials.log_gamma(2.0 * a + 2.0)
    )
    log_tail = (a + 1.0) * math.log(h) + a * math.log(2.0) + math.log(tail_f)
    return math.exp(log_full - log_tail)


def uncached_real_integral_ratio(m: int, p: int) -> float:
    """real_integral_ratio(m, p), every term computed afresh."""
    return _uncached_real_ratio(m, _uncached_root(field_params(Field.R, m).raised(), p // 2))


def uncached_yudin_bound(field, m: int, p: int) -> BoundReport:
    """yudin_bound(field, m, p) for even p >= 2 that hypergeom_F's rule answers, computed afresh."""
    params = field_params(field, m)
    a, b = params.alpha, params.beta
    xi = _uncached_root(params.raised(), p // 2)
    eps = (1.0 - xi) / 2.0
    log_raw = (
        specials.log_gamma(a + 2.0)
        + specials.log_gamma(b + 1.0)
        - specials.log_gamma(a + b + 2.0)
        - math.log(uncached_hypergeom_F(b, a, eps))
        - (a + 1.0) * math.log(eps)
    )
    try:
        raw = math.exp(log_raw)
    except OverflowError:
        raise jacobi.NumericalError(
            f"bound past the float range for field={field.name}, m={m}, p={p}: log_raw={log_raw!r}"
        ) from None
    if field is Field.R:
        reference = _uncached_real_ratio(m, xi)
        assert abs(raw - reference) <= bounds._CONSISTENCY_RTOL * abs(reference)
    return BoundReport(
        field=field,
        m=m,
        p=p,
        lp_bound=bounds.lp_bound(field, m, p // 2),
        yudin_raw=raw,
        yudin_bound=bounds.ceil_snap(raw),
        epsilon=eps,
        xi=xi,
    )


def bound_json_line(report: BoundReport) -> str:
    """`bound --format json`'s stdout for the report: each dataclass field by name, then delta."""
    doc = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    doc["field"] = report.field.name
    return json.dumps(doc | {"delta": report.delta}) + "\n"

"""Moment-test verifier for weighted point sets on the unit sphere of K^m.

A weighted set is an index-p projective cubature formula exactly when the
Jacobi moments M_k = sum_{i,j} w_i w_j P_k(x_i . x_j) vanish for
1 <= k <= p/2, where x.y = 2|(x,y)|^2 - 1 is the projective cosine.  Each
M_k is a sum of squared harmonic moments, hence nonnegative for every
weighted set; a strictly negative value therefore flags a numerical problem,
not a failed design.

Nodes are stored as quaternion coordinate quadruples for all three fields
(real and complex scalars are embedded with vanishing imaginary parts), so a
single inner-product kernel serves R, C and H.  The kernel splits each
quaternion q = z + w j into the complex pair z = q0 + i q1, w = q2 + i q3 and
works in C^{2m}.  The Gram matrix is never stored: one pass per moment test
computes it a row block at a time, and each block feeds the duplicate scan
and the moment sums.  The sums are correctly rounded by exact extraction, so
a moment does not depend on the node order.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import _check_even_p, yudin_bound
from .fields import Field, field_params
from .jacobi import NumericalError, _coefficients, _iter_values

_UNIT_NORM_TOL = 1e-12
_DUPLICATE_TOL = 1e-12
_MOMENT_NEGATIVE_GUARD = -1e-10

#: Gram entries per row block of the Gram pass (256 KiB of doubles)
_BLOCK_ELEMENTS = 1 << 15

#: reading of the vanishing-moment condition used by this verifier
INTERPRETATION_NOTE = (
    "moment test: harmonic components are required to vanish with the node "
    "weights as coefficients; with equal weights this is the projective "
    "(p/2)-design condition"
)


class PointSet:
    """Weighted nodes on the unit sphere of K^m, quaternion-embedded.

    nodes: array (n, m, 4); weights: array (n,) of positive reals summing
    to 1.  Every coordinate and weight must be finite.  Coordinates must
    respect the field (imaginary parts beyond the scalar dimension vanish),
    each node must have unit norm, and nodes are expected to be projectively
    distinct (verify reports coincident pairs and the moment test warns of
    them, but they are not errors: the moment test stays meaningful).  The
    set keeps read-only copies of nodes and weights.
    """

    def __init__(self, field: Field, m: int, nodes, weights=None):
        if m < 2:
            raise ValueError(f"m must be >= 2, got {m}")
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 3 or nodes.shape[1] != m or nodes.shape[2] != 4:
            raise ValueError(f"nodes must have shape (n, {m}, 4), got {nodes.shape}")
        n = nodes.shape[0]
        if n < 1:
            raise ValueError("point set must contain at least one node")
        if weights is None:
            weights = np.full(n, 1.0 / n)
        weights = np.array(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {weights.shape}")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("node coordinates must be finite")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")

        if field.delta < 4 and np.any(nodes[:, :, field.delta :] != 0.0):
            raise ValueError(
                f"nodes contain components outside the scalar dimension of field {field.name}"
            )
        norms = np.sqrt((nodes**2).sum(axis=(1, 2)))
        bad = np.nonzero(np.abs(norms - 1.0) > _UNIT_NORM_TOL)[0]
        if bad.size:
            raise ValueError(f"nodes {bad.tolist()} are not unit-norm (|1 - |x|| > 1e-12)")

        nodes.setflags(write=False)
        weights.setflags(write=False)
        self.field = field
        self.m = m
        self.nodes = nodes
        self.weights = weights
        self.n = n


def _gram_blocks(ps: PointSet):
    """Yield (r0, cos[r0:r1]): the projective cosines of rows r0..r1-1 with every node.

    Each node x, with quaternion coordinates q = z + w j, maps to
    u = (z, conj(w)) in C^{2m}.  Then (x, y) = u_x^H u_y + (u_x^T J u_y) j
    with J u = (u[m:], -u[:m]), so |(x, y)|^2 = |G1|^2 + |G2|^2 for
    G1 = conj(U) U^T and G2 = U (J U)^T.  Both are accumulated as
    elementwise outer products instead of a BLAS product: BLAS rounds an
    entry by its position in a tile, so a permuted point set would not get
    the permuted Gram matrix bit for bit.  Over R and C the w half of u
    vanishes, so u = z (real over R), G1 has m terms and G2 = 0; leaving
    out these exact zeros changes no bit of the result.

    A block holds about _BLOCK_ELEMENTS entries and each entry gets the same
    operations in the same order whatever the block, so no (n, n) array is made
    and peak memory does not depend on how earlier temporaries sat in the heap.
    """
    q = ps.nodes
    u = q[..., 0] if ps.field is Field.R else q[..., 0] + 1j * q[..., 1]
    if ps.field is Field.H:
        u = np.concatenate([u, q[..., 2] - 1j * q[..., 3]], axis=1)
    terms = [(u.conj(), u)]
    if ps.field is Field.H:
        terms.append((u, np.concatenate([u[:, ps.m :], -u[:, : ps.m]], axis=1)))
    rows = max(1, _BLOCK_ELEMENTS // ps.n)
    for r0 in range(0, ps.n, rows):
        sq = np.zeros((min(rows, ps.n - r0), ps.n))
        for left, right in terms:
            g = np.zeros(sq.shape, dtype=u.dtype)
            for a, b in zip(left[r0 : r0 + rows].T, right.T):
                g += np.multiply.outer(a, b)
            sq += g.real**2
            sq += g.imag**2
        yield r0, 2.0 * sq - 1.0


def gram_matrix(ps: PointSet) -> np.ndarray:
    """All pairwise projective cosines, shape (n, n); the result is the only (n, n) array made."""
    cos = np.empty((ps.n, ps.n))
    for r0, block in _gram_blocks(ps):
        cos[r0 : r0 + len(block)] = block
    return cos


class _ExactSum:
    """Correctly rounded sum of up to `count` floats, added in any chunks and order.

    Error-free extraction on a fixed ladder (Rump, Ogita & Oishi 2008,
    SIAM J. Sci. Comput. 31, ExtractVector).  With shift = ceil(log2(count + 2)),
    level j has e_j = e_0 - j (52 - shift) and sigma_j = 2^(e_j + shift).
    For |x| <= 2^e_j, q = (sigma_j + x) - sigma_j is a multiple of
    2^-53 sigma_j, x - q is exact and at most 2^e_{j+1}, and every sum of up
    to `count` such q is exact.  So each level's running sum is exact, and
    fsum of the few level sums rounds the exact total once.  The largest
    magnitude of the first nonzero chunk anchors e_0; a later value above it
    lands on a level j < 0, which is exact all the same.
    """

    def __init__(self, count: int):
        self.shift = (count + 1).bit_length()
        self.step = 52 - self.shift
        self.top: Optional[int] = None
        self.levels: dict[int, float] = {}

    def add(self, x: np.ndarray) -> None:
        """Add every entry of x, which is overwritten (it ends all zero)."""
        q = np.empty_like(x)
        while True:
            largest = max(x.max(), -x.min())
            if largest == 0.0:
                return
            if self.top is None:
                self.top = math.frexp(largest)[1]
            # the first level j with 2^e_j >= largest, as largest < 2^E for frexp's E
            j = (self.top - math.frexp(largest)[1]) // self.step
            sigma = math.ldexp(1.0, self.top - j * self.step + self.shift)
            np.add(x, sigma, out=q)
            q -= sigma
            self.levels[j] = self.levels.get(j, 0.0) + float(q.sum())
            x -= q

    def total(self) -> float:
        return math.fsum(self.levels.values())


def _gram_pass(ps: PointSet, p: int) -> tuple[list[float], list[tuple[int, int]]]:
    """(M_1 .. M_{p/2}, coincident pairs i < j) from one pass over the Gram row blocks.

    Each moment is the correctly rounded sum of the n^2 weighted kernel values
    w_i w_j P_k(cos_ij) by exact extraction (`_ExactSum`), whatever the node order.
    Pairs with cos_ij >= 1 - 1e-12 count as coincident; a moment below the -1e-10
    guard contradicts positive semidefiniteness and raises NumericalError.
    """
    _check_even_p(p)
    w = ps.weights
    sums = [_ExactSum(ps.n * ps.n) for _ in range(p // 2)]
    coeffs = _coefficients(field_params(ps.field, ps.m), p // 2)
    duplicates = []
    for r0, cos in _gram_blocks(ps):
        i, j = np.nonzero(np.triu(cos >= 1.0 - _DUPLICATE_TOL, r0 + 1))  # j > r0 + i
        duplicates += zip((i + r0).tolist(), j.tolist())
        pair_w = w[r0 : r0 + len(cos), None] * w[None, :]
        values = _iter_values(coeffs, cos)
        next(values)  # P_0
        for acc, p_k in zip(sums, values):
            acc.add(pair_w * p_k)
    moments = [acc.total() for acc in sums]
    for k, m_k in enumerate(moments, start=1):
        if m_k < _MOMENT_NEGATIVE_GUARD:
            raise NumericalError(
                f"moment M_{k} = {m_k!r} violates nonnegativity; numerical failure"
            )
    return moments, duplicates


def moment_test(ps: PointSet, p: int) -> list[float]:
    """Jacobi moments M_1 .. M_{p/2}, by `_gram_pass`; all vanish iff the set has index p.

    Coincident node pairs, which the moments cannot show, raise a UserWarning.
    """
    moments, duplicates = _gram_pass(ps, p)
    if duplicates:
        warnings.warn(f"point set has projectively coincident node pairs: {duplicates}",
                      stacklevel=2)
    return moments


@dataclass(frozen=True)
class VerificationReport:
    field: Field
    m: int
    p: int
    n: int
    moments: tuple
    max_abs_moment: float
    tolerance: float
    passed: bool
    lp_bound: int
    yudin_bound: int
    tight_lp: bool
    tight_yudin: bool
    duplicates: tuple
    note: str = INTERPRETATION_NOTE


def verify(ps: PointSet, p: int, tol: Optional[float] = None) -> VerificationReport:
    """Run the moment test and compare the cardinality against both bounds.

    Coincident node pairs are reported in `duplicates`, without a warning.
    tol defaults to 1e-10 * n, matching the accumulation of n^2 unit-scale
    terms per moment.  An explicit tol must be finite and positive.
    """
    if tol is None:
        tol = 1e-10 * ps.n
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    moments, duplicates = _gram_pass(ps, p)
    max_abs = max(abs(m_k) for m_k in moments)
    report = yudin_bound(ps.field, ps.m, p)
    return VerificationReport(
        field=ps.field,
        m=ps.m,
        p=p,
        n=ps.n,
        moments=tuple(moments),
        max_abs_moment=max_abs,
        tolerance=tol,
        passed=max_abs <= tol,
        lp_bound=report.lp_bound,
        yudin_bound=report.yudin_bound,
        tight_lp=ps.n == report.lp_bound,
        tight_yudin=ps.n == report.yudin_bound,
        duplicates=tuple(duplicates),
    )


def _json_int(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be a JSON integer, got {value!r}")
    return value


def _json_float(value, where: str) -> float:
    """A JSON number (int or float, not bool, not a string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{where}: {value} is outside the float range") from None


def _embed_scalar(components, delta: int, where: str) -> list[float]:
    if not isinstance(components, (list, tuple)) or len(components) != delta:
        raise ValueError(f"{where}: expected {delta} real components, got {components!r}")
    return [_json_float(c, where) for c in components] + [0.0] * (4 - delta)


def parse_point_set(doc: dict) -> tuple[PointSet, int]:
    """Build (PointSet, p) from the JSON document format.

    Format: {"field": "R"|"C"|"H", "m": int, "p": int,
             "nodes": [[[scalar components] x m] x n], "weights": [n reals]?}
    with delta components per scalar (1 real / 2 complex / 4 quaternion).
    Omitted weights default to 1/n, i.e. the set is tested as a projective
    (p/2)-design.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"point set document must be an object, got {type(doc).__name__}")
    for key in ("field", "m", "p", "nodes"):
        if key not in doc:
            raise ValueError(f"point set document is missing required key {key!r}")
    field = Field.parse(str(doc["field"]))
    m = _json_int(doc, "m")
    p = _json_int(doc, "p")
    _check_even_p(p)
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ValueError("'nodes' must be a nonempty list")
    nodes = []
    for i, node in enumerate(raw_nodes):
        if not isinstance(node, list) or len(node) != m:
            raise ValueError(f"nodes[{i}]: expected {m} coordinates, got {node!r}")
        nodes.append(
            [_embed_scalar(c, field.delta, f"nodes[{i}][{j}]") for j, c in enumerate(node)]
        )
    weights = doc.get("weights")
    if weights is not None:
        if not isinstance(weights, list):
            raise ValueError(f"'weights' must be a list, got {weights!r}")
        weights = [_json_float(w, f"weights[{i}]") for i, w in enumerate(weights)]
    return PointSet(field, m, np.array(nodes), weights), p


def load_point_set(path) -> tuple[PointSet, int]:
    """Read a point-set JSON file; parse errors carry line/column locations."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    return parse_point_set(doc)


def circle_design(p: int) -> PointSet:
    """Equal-weight nodes at angles j*pi/n on the real circle, n = p/2 + 1.

    The classical tight fixture: a projective (p/2)-design in R^2 meeting
    both lower bounds.
    """
    _check_even_p(p)
    n = p // 2 + 1
    nodes = np.zeros((n, 2, 4))
    angles = np.arange(n) * math.pi / n
    nodes[:, 0, 0] = np.cos(angles)
    nodes[:, 1, 0] = np.sin(angles)
    return PointSet(Field.R, 2, nodes)


def orthonormal_design(field: Field, m: int) -> PointSet:
    """The coordinate basis of K^m with weights 1/m; an index-2 cubature formula."""
    nodes = np.zeros((m, m, 4))
    for i in range(m):
        nodes[i, i, 0] = 1.0
    return PointSet(field, m, nodes)

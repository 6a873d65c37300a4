"""Moment-test verifier for weighted point sets on the unit sphere of K^m.

A weighted set is an index-p projective cubature formula exactly when the
Jacobi moments M_k = sum_{i,j} w_i w_j P_k(x_i . x_j) vanish for
1 <= k <= p/2, where x.y = 2|(x,y)|^2 - 1 is the projective cosine.  Each
M_k is a sum of squared harmonic moments, hence nonnegative for every
weighted set; a strictly negative value therefore flags a numerical problem,
not a failed design.

Nodes are stored as quaternion coordinate quadruples for all three fields
(real and complex scalars are embedded with vanishing imaginary parts).  The
kernel |(x, y)|^2 is a sum of real products in a fixed order, without BLAS, so
cos_ij and cos_ji are the same double and the pass forms each unordered pair
once, with pair weight w_i^2 or 2 w_i w_j.  The Gram matrix is never stored:
the pairs come in blocks of wrap-around offsets, row d pairing every node i
with node (i + d) mod n for d = 0 .. n/2 (at even n the second half of row n/2
repeats its first and is left out).  One operand's features and the weights
are wrapped once a pass, so a block's rows are strided views of them.  Each
block feeds the duplicate scan and, a group of degrees at a time, exact
per-degree sums; doubling is exact, so a moment is the rounded sum over all
n^2 ordered pairs in any order.  The duplicate scan skips the diagonal row,
keys each hit by its pair i < j and keeps the 100 smallest keys, the first
coincident pairs in row-major order, beside the count of all.
"""

from __future__ import annotations

import contextlib
import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import _check_even_p, yudin_bound
from .fields import Field, field_params
from .jacobi import NumericalError, _coefficients, _shown

_UNIT_NORM_TOL = 1e-12
_DUPLICATE_TOL = 1e-12
_MOMENT_NEGATIVE_GUARD = -1e-10

#: Gram entries per block of the Gram pass and of `gram_matrix` (256 KiB of doubles)
_BLOCK_ELEMENTS = 1 << 15

#: coincident pairs kept, in scan order, beside their total count
_DUPLICATES_KEPT = 100

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
            raise ValueError(f"m must be >= 2, got {_shown(m)}")
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 3 or nodes.shape[1] != m or nodes.shape[2] != 4:
            raise ValueError(f"nodes must have shape (n, {_shown(m)}, 4), got {nodes.shape}")
        n = nodes.shape[0]
        if n < 1:
            raise ValueError("point set must contain at least one node")
        if not np.isfinite(nodes).all():
            raise ValueError("node coordinates must be finite")
        if weights is None:  # 1/n each: positive, and summing to within 2^-53 of 1
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.array(weights, dtype=float)
            if weights.shape != (n,):
                raise ValueError(f"weights must have shape ({n},), got {weights.shape}")
            if not np.isfinite(weights).all():
                raise ValueError("weights must be finite")
            if (weights <= 0.0).any():
                raise ValueError("weights must be strictly positive")
            try:
                total = math.fsum(weights.tolist())
            except OverflowError:  # finite weights whose sum is past the float range
                total = math.inf
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")

        if nodes[:, :, field.delta :].any():
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


def _features(ps: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """(left, right), each (D, n): real node features with |(x, y)|^2 = sum_f left_f right_f.

    Over R: the coordinates, and the sum is (x, y), to be squared.  Over C and H:
    |x_a|^2, then the delta components of X_ab = x_a conj(x_b), a < b, doubled on
    the left, as |(x, y)|^2 = sum_a |x_a|^2 |y_a|^2 + 2 sum_{a<b} <X_ab, Y_ab>.
    """
    q = ps.nodes.transpose(2, 1, 0)  # (4, m, n)
    if ps.field is Field.R:
        return q[0], q[0]
    r = np.arange(ps.m)
    a, b = np.nonzero(r[:, None] < r)  # the pairs a < b, row by row
    zw = q[::2] + 1j * q[1::2]  # z and w of each coordinate z + w j
    zwa, zwb = zw[:, a], zw[:, b]
    s, t = zwa * zwb.conj(), zwa * zwb[::-1]  # complex products round by operand order: keep it
    s, t = s[0] + s[1], t[1] - t[0]  # X_ab = s + t j
    features = [(q * q).sum(axis=0), s.real, s.imag, t.real, t.imag]
    right = np.concatenate(features[: ps.field.delta + 1])
    left = right.copy(order="K")  # right's memory layout, as before: the block products feel it
    left[ps.m :] *= 2.0
    return left, right


def _cosines(field: Field, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """2 |(x, y)|^2 - 1, from `_features` operand stacks: the sum over f of left[f] * right[f].

    The products are added one feature at a time, elementwise; BLAS would round an entry by
    its place in a tile, so cos_ij != cos_ji.  Over R the sum is (x, y), and is squared.
    """
    g = left[0] * right[0]
    product = np.empty_like(g)
    for a, b in zip(left[1:], right[1:]):
        g += np.multiply(a, b, out=product)
    if field is Field.R:
        g *= g
    return np.subtract(np.multiply(g, 2.0, out=g), 1.0, out=g)  # 2 g - 1 in place


def _windows(x: np.ndarray, d0: int, shape: tuple[int, int]) -> np.ndarray:
    """windows[..., r, i] = x[..., d0 + r + i] for (r, i) < shape: a view of contiguous x."""
    step = x.strides[-1]
    return np.ndarray(x.shape[:-1] + shape, x.dtype, x, d0 * step, x.strides[:-1] + (step, step))


def _gram_pairs(ps: PointSet):
    """Yield (d0, cos, pair_w): every unordered pair's cosine and weight once, a block at a time.

    Row r of a block pairs each node i with node (i + d) mod n, at offset d = d0 + r; the
    offsets run 0 .. n // 2, max(1, _BLOCK_ELEMENTS // n) of them a block, so the first
    block's row 0 is the diagonal.  cos holds the rows one after another, and at even n it
    ends before the second half of row n/2, which repeats the first.  `right` and the weights
    are wrapped once, their first n // 2 columns repeated after the last, and each block reads
    its rows as `_windows` at d0.  pair_w is 2 w_i w_j, and w_i^2 on the diagonal row.
    """
    left, right = _features(ps)
    n, w = ps.n, ps.weights
    right, w_wrapped = (np.concatenate((x, x[..., : n // 2]), axis=-1) for x in (right, w))
    offsets = max(1, _BLOCK_ELEMENTS // n)
    for d0 in range(0, n // 2 + 1, offsets):
        shape = (min(offsets, n // 2 + 1 - d0), n)
        end = n * (n + 1) // 2 - d0 * n  # the pairs from offset d0 on: cuts the last block
        cos = _cosines(ps.field, left, _windows(right, d0, shape)).ravel()[:end]
        pair_w = (_windows(w_wrapped, d0, shape) * (2.0 * w)).ravel()[:end]  # 2 (w_i w_j) exactly
        if d0 == 0:
            pair_w[:n] = w * w
        yield d0, cos, pair_w


def gram_matrix(ps: PointSet) -> np.ndarray:
    """All pairwise projective cosines, shape (n, n); the result is the only (n, n) array made.

    Rows r0..r1 meet the columns r0..n-1 in one `_cosines` block written into the result, and
    the block past column r1 is mirrored below the diagonal; about _BLOCK_ELEMENTS pairs a
    block.  A block's own square is formed both ways round, each cosine the same double.
    """
    left, right = _features(ps)
    cos = np.empty((ps.n, ps.n))
    r0 = 0
    while r0 < ps.n:
        r1 = r0 + max(1, _BLOCK_ELEMENTS // (ps.n - r0))
        cos[r0:r1, r0:] = _cosines(ps.field, left[:, r0:r1, None], right[:, r0:])
        cos[r1:, r0:r1] = cos[r0:r1, r1:].T
        r0 = r1
    return cos


def _exact_row_sums(x: np.ndarray) -> np.ndarray:
    """Exact partial sums of each row of x, shape (rows, rungs); x ends all zero.

    ExtractVector (Rump, Ogita & Oishi 2008, SIAM J. Sci. Comput. 31) on a ladder per row:
    sigma starts at 2^shift times the row's top power of two, shift = ceil(log2(length + 2)),
    and falls 52 - shift bits a rung; q = (sigma + x) - sigma, x - q and the row sum of q
    are exact.  A row not finite or reaching 2^(1023 - shift) gets the one partial NaN.
    """
    shift = (x.shape[1] + 1).bit_length()
    q = np.empty_like(x)
    largest = np.abs(x, out=q).max(axis=1)
    ok = largest < 2.0 ** (1023 - shift)  # finite, with room for sigma
    sums = []
    if not ok.all():
        x[~ok] = largest[~ok] = 0.0
        sums.append(np.where(ok, 0.0, np.nan))
    sigma = np.ldexp(1.0, np.frexp(largest)[1] + shift)[:, None]
    nonzero = largest.any()  # x.any(), read off the row maxima
    while nonzero:
        np.add(x, sigma, out=q)
        q -= sigma
        sums.append(q.sum(axis=1))
        x -= q
        nonzero = x.any()
        sigma *= 2.0 ** (shift - 52)  # a power of two, or 0 past the subnormals
    return np.array(sums).reshape(-1, len(x)).T


@np.errstate(over="ignore", invalid="ignore")  # a term past the float range gives a NaN moment
def _gram_pass(ps: PointSet, p: int) -> tuple[list[float], list[tuple[int, int]], int]:
    """(M_1 .. M_{p/2}, the first coincident pairs i < j, their count), from one pass of pairs.

    A block of `_gram_pairs` takes the degrees in groups of about _BLOCK_ELEMENTS values,
    each P_k(cos) times the block's pair weights, w_i^2 or 2 w_i w_j; math.fsum of the
    `_exact_row_sums` partials rounds the n^2 values w_i w_j P_k(cos_ij) once, whatever the
    order of the pairs.  Pairs i < j with cos_ij >= 1 - 1e-12 count as coincident; the
    diagonal row, which may or may not pass the test (cos_ii < 1 - 1e-12 for a node inside
    the 1e-12 norm tolerance), is skipped.  Each hit is keyed i n + j, and a sorted merge
    keeps the _DUPLICATES_KEPT smallest keys: the first pairs in row-major order.  A moment
    below the -1e-10 guard, or NaN from a term past the float range, raises NumericalError.
    """
    _check_even_p(p)
    n = ps.n
    c1, c2, c3, c4 = _coefficients(field_params(ps.field, ps.m), p // 2)
    parts = [[] for _ in range(p // 2)]
    kept, count = np.empty(0, dtype=np.int64), 0
    for d0, cos, pair_w in _gram_pairs(ps):
        hit = cos >= 1.0 - _DUPLICATE_TOL
        if d0 == 0:  # the diagonal row: no coincident pair
            hit[:n] = False
        if np.count_nonzero(hit):
            r, i = np.divmod(np.flatnonzero(hit), n)
            j = (i + d0 + r) % n
            count += i.size
            keys = np.minimum(i, j) * n + np.maximum(i, j)
            kept = np.sort(np.concatenate((kept, keys)))[:_DUPLICATES_KEPT]
        group = max(1, _BLOCK_ELEMENTS // cos.size)
        p_prev, p_last = 0.0, 1.0  # P_{-1} and P_0; each degree moves them one along
        for k0 in range(0, p // 2, group):
            rows = np.multiply.outer(c3[k0 : k0 + group], cos)
            rows += c2[k0 : k0 + group, None]  # c2 + c3 cos, degrees k0 + 1 ..
            for k, row in enumerate(rows, start=k0):
                row *= p_last  # exact at degree 1, as is the c4 = 0 term
                row -= c4[k] * p_prev
                row /= c1[k]
                p_prev, p_last = p_last, row
            for part, row_sums in zip(parts[k0:], _exact_row_sums(rows * pair_w).tolist()):
                part += row_sums
    moments = [math.fsum(part) for part in parts]
    for k, m_k in enumerate(moments, start=1):
        if not m_k >= _MOMENT_NEGATIVE_GUARD:
            raise NumericalError(f"moment M_{k} = {m_k!r} is negative or not finite; "
                                 "numerical failure")
    return moments, [divmod(key, n) for key in kept.tolist()], count


def _coincident_note(pairs, count: int) -> str:
    """Names the coincident pairs, and their count when `pairs` holds only the first of them."""
    if count > len(pairs):
        return f"{count} projectively coincident node pairs, the first {len(pairs)}: {list(pairs)}"
    return f"projectively coincident node pairs: {list(pairs)}"


def moment_test(ps: PointSet, p: int) -> list[float]:
    """Jacobi moments M_1 .. M_{p/2}, by `_gram_pass`; all vanish iff the set has index p.

    Coincident node pairs, which the moments cannot show, raise a UserWarning.
    """
    moments, duplicates, count = _gram_pass(ps, p)
    if duplicates:
        warnings.warn(f"point set has {_coincident_note(duplicates, count)}", stacklevel=2)
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
    duplicate_count: int
    note: str = INTERPRETATION_NOTE


def verify(ps: PointSet, p: int, tol: Optional[float] = None) -> VerificationReport:
    """Run the moment test and compare the cardinality against both bounds.

    Coincident node pairs are reported without a warning: the first 100 in `duplicates`,
    all of them in `duplicate_count`.  A bound is tight only for a passing set.
    tol defaults to 1e-10 * n, a convention, not an error estimate: each moment is summed
    exactly and rounded once, so its error does not grow with n.  An explicit tol must be
    finite and positive.
    """
    if tol is None:
        tol = 1e-10 * ps.n
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    moments, duplicates, count = _gram_pass(ps, p)
    max_abs = max(abs(m_k) for m_k in moments)
    passed = max_abs <= tol
    report = yudin_bound(ps.field, ps.m, p)
    return VerificationReport(
        field=ps.field,
        m=ps.m,
        p=p,
        n=ps.n,
        moments=tuple(moments),
        max_abs_moment=max_abs,
        tolerance=tol,
        passed=passed,
        lp_bound=report.lp_bound,
        yudin_bound=report.yudin_bound,
        tight_lp=passed and ps.n == report.lp_bound,
        tight_yudin=passed and ps.n == report.yudin_bound,
        duplicates=tuple(duplicates),
        duplicate_count=count,
    )


def _json_int(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be a JSON integer, got {_shown(value)}")
    return value


def _json_float(value, where: str) -> float:
    """A JSON number (int or float, not bool, not a string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a JSON number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{where}: {_shown(value)} is outside the float range") from None


def _json_floats(raw: list, out: np.ndarray) -> bool:
    """Fill the float array `out` from nested lists of JSON numbers in array passes; else False."""
    values = np.array(raw, dtype=object)  # may nest deeper than numpy iterates, so shape first
    if values.shape == out.shape and all(t is not bool and issubclass(t, (int, float))
                                         for t in set(map(type, values.flat))):
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            out[...] = values  # float(v) for each v
            return True
    return False


def parse_point_set(doc: dict) -> tuple[PointSet, int]:
    """Build (PointSet, p) from the JSON document format.

    Format: {"field": "R"|"C"|"H", "m": int, "p": int,
             "nodes": [[[scalar components] x m] x n], "weights": [n reals]?}
    with delta components per scalar (1 real / 2 complex / 4 quaternion).
    Omitted weights default to 1/n, i.e. the set is tested as a projective
    (p/2)-design.  A list the array pass rejects is walked to name its first bad entry.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"point set document must be an object, got {type(doc).__name__}")
    for key in ("field", "m", "p", "nodes"):
        if key not in doc:
            raise ValueError(f"point set document is missing required key {key!r}")
    name = str(doc["field"])
    try:
        field = Field.parse(name)
    except ValueError:  # its message repeats the whole name
        raise ValueError(f"unknown field {_shown(name)}: expected one of R, C, H") from None
    m = _json_int(doc, "m")
    p = _json_int(doc, "p")
    _check_even_p(p)
    try:  # verify's table of p/2 degrees: a size numpy refuses is the file's error, not argv's
        np.empty((4, p // 2))
    except (ValueError, MemoryError):
        raise ValueError(f"'p' is too large for its degree table, got {_shown(p)}") from None
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ValueError("'nodes' must be a nonempty list")
    # no allocation unless nodes[0] has m coordinates (else the walk names it): m may be huge
    shaped = isinstance(raw_nodes[0], list) and len(raw_nodes[0]) == m
    nodes = np.zeros((len(raw_nodes), m, 4)) if shaped else None
    filled = shaped and _json_floats(raw_nodes, nodes[..., : field.delta])
    for i, node in enumerate(() if filled else raw_nodes):  # raises on a bad entry
        if not isinstance(node, list) or len(node) != m:
            raise ValueError(f"nodes[{i}]: expected {_shown(m)} coordinates, got {_shown(node)}")
        for j, c in enumerate(node):
            where = f"nodes[{i}][{j}]"
            if not isinstance(c, (list, tuple)) or len(c) != field.delta:
                got = _shown(c)
                raise ValueError(f"{where}: expected {field.delta} real components, got {got}")
            for value in c:
                _json_float(value, where)
    weights = doc.get("weights")
    if weights is not None:
        if not isinstance(weights, list):
            raise ValueError(f"'weights' must be a list, got {_shown(weights)}")
        values = np.empty(len(weights))
        if not _json_floats(weights, values):
            values = [_json_float(w, f"weights[{i}]") for i, w in enumerate(weights)]
        weights = values
    return PointSet(field, m, nodes, weights), p


def load_point_set(path) -> tuple[PointSet, int]:
    """Read a point-set JSON file; parse errors carry line/column locations."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        except RecursionError:  # lists or objects nested deeper than the decoder recurses
            raise ValueError(f"{path}: invalid JSON: nested too deeply to decode") from None
        except ValueError as exc:  # an integer past int's 4300-digit limit, or bytes not UTF-8
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
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

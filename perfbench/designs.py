"""Seeded weighted point sets for the verify-sweep workload, built with numpy only.

Nodes are held as quaternion coordinate quadruples, shape (n, m, 4), for every
field; a real or complex node simply has zero imaginary parts beyond the
scalar dimension delta.  Nothing here imports projbound: these constructions
are the known answers the verifier's output is checked against.

Known-PASS families (each passes the moment test at the index it is written
with):

* ``gauss_cp1``: weighted product-Gauss rules on CP^1.  Gauss-Legendre nodes
  in cos(theta) times equispaced phi form a degree-q rule on S^2; the Hopf
  map carries it to an index-2q projective rule on C^2.  A seeded unitary
  rotates it and a seeded phase multiplies each node.
* ``circle``: n equispaced lines through the origin of R^2 at a seeded
  offset angle; index 2(n-1).
* ``bases``: a union of B seeded orthonormal bases of K^m with equal
  weights; index 2 for every field, the quaternions included.

Known-FAIL family:

* ``haar``: n Haar-random unit nodes; M_1 is of order 1/n, far above the
  verifier's 1e-10*n tolerance, so the verdict is FAIL at every index.
"""

from __future__ import annotations

import math

import numpy as np

DELTA = {"R": 1, "C": 2, "H": 4}


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product over the last axis (length 4), broadcasting the rest."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(a: np.ndarray) -> np.ndarray:
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def _gaussian(rng: np.random.Generator, shape, delta: int) -> np.ndarray:
    out = np.zeros(tuple(shape) + (4,))
    out[..., :delta] = rng.standard_normal(tuple(shape) + (delta,))
    return out


def _normalize(x: np.ndarray) -> np.ndarray:
    """Scale each node (last two axes m, 4) to unit norm."""
    return x / np.sqrt((x * x).sum(axis=(-2, -1), keepdims=True))


def random_unitary(rng: np.random.Generator, field: str, m: int, count: int) -> np.ndarray:
    """`count` seeded unitary matrices over the field, as columns (count, m, m, 4).

    Gram-Schmidt on Gaussian columns with the inner product
    (u, v) = sum_c conj(u_c) v_c and right scalar multiplication, so the
    columns stay inside the field's subalgebra.
    """
    cols = _gaussian(rng, (count, m, m), DELTA[field])  # [batch, column, coord, 4]
    for a in range(m):
        v = cols[:, a]
        for b in range(a):
            u = cols[:, b]
            s = qmul(qconj(u), v).sum(axis=1)  # (count, 4)
            v = v - qmul(u, s[:, None, :])
        cols[:, a] = _normalize(v)
    return cols


def apply_unitary(cols: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """x -> sum_b u_b x_b for nodes (n, m, 4) and one unitary's columns (m, m, 4)."""
    return qmul(cols[None, :, :, :], nodes[:, :, None, :]).sum(axis=1)


def gauss_cp1(rng: np.random.Generator, q: int):
    """Index-2q weighted rule on CP^1 with ceil((q+1)/2) * (q+1) nodes."""
    g = (q + 2) // 2
    s = q + 1
    x, w = np.polynomial.legendre.leggauss(g)
    phi = 2.0 * math.pi * np.arange(s) / s + rng.uniform(0.0, 2.0 * math.pi)
    half = np.arccos(x) / 2.0
    n = g * s
    nodes = np.zeros((n, 2, 4))
    nodes[:, 0, 0] = np.repeat(np.cos(half), s)
    nodes[:, 1, 0] = np.outer(np.sin(half), np.cos(phi)).ravel()
    nodes[:, 1, 1] = np.outer(np.sin(half), np.sin(phi)).ravel()
    weights = np.repeat(w / 2.0, s) / s
    nodes = apply_unitary(random_unitary(rng, "C", 2, 1)[0], nodes)
    psi = rng.uniform(0.0, 2.0 * math.pi, n)
    phase = np.zeros((n, 1, 4))
    phase[:, 0, 0], phase[:, 0, 1] = np.cos(psi), np.sin(psi)
    return _normalize(qmul(nodes, phase)), weights


def circle(rng: np.random.Generator, n: int) -> np.ndarray:
    """n equispaced lines in R^2 at a seeded offset; index 2(n-1)."""
    angles = rng.uniform(0.0, math.pi) + math.pi * np.arange(n) / n
    nodes = np.zeros((n, 2, 4))
    nodes[:, 0, 0] = np.cos(angles)
    nodes[:, 1, 0] = np.sin(angles)
    return nodes


def bases(rng: np.random.Generator, field: str, m: int, count: int) -> np.ndarray:
    """Union of `count` seeded orthonormal bases of K^m; index 2, n = count*m."""
    cols = random_unitary(rng, field, m, count)
    return cols.reshape(count * m, m, 4)


def haar(rng: np.random.Generator, field: str, m: int, n: int) -> np.ndarray:
    """n Haar-random unit nodes of K^m."""
    return _normalize(_gaussian(rng, (n, m), DELTA[field]))


def to_document(field: str, p: int, nodes: np.ndarray, weights=None) -> dict:
    """The verifier's JSON point-set document for quaternion-embedded nodes."""
    d = DELTA[field]
    doc = {"field": field, "m": int(nodes.shape[1]), "p": int(p), "nodes": nodes[:, :, :d].tolist()}
    if weights is not None:
        doc["weights"] = np.asarray(weights, dtype=float).tolist()
    return doc


def from_document(doc: dict):
    """(field, p, nodes (n, m, 4), weights (n,)) back from a JSON document."""
    field = doc["field"]
    raw = np.asarray(doc["nodes"], dtype=float)
    nodes = np.zeros(raw.shape[:2] + (4,))
    nodes[:, :, : DELTA[field]] = raw
    n = nodes.shape[0]
    weights = np.asarray(doc.get("weights", np.full(n, 1.0 / n)), dtype=float)
    return field, int(doc["p"]), nodes, weights


def _complex_blocks(nodes: np.ndarray) -> np.ndarray:
    """Each quaternion-embedded node as a 2m x 2 complex matrix X with X^H Y = Q((x, y)).

    q = z1 + z2 j maps to [[z1, z2], [-conj(z2), conj(z1)]], a *-homomorphism
    with ||Q(q)||_F^2 = 2|q|^2.
    """
    z1 = nodes[..., 0] + 1j * nodes[..., 1]
    z2 = nodes[..., 2] + 1j * nodes[..., 3]
    n, m = z1.shape
    out = np.empty((n, m, 2, 2), dtype=complex)
    out[:, :, 0, 0], out[:, :, 0, 1] = z1, z2
    out[:, :, 1, 0], out[:, :, 1, 1] = -np.conj(z2), np.conj(z1)
    return out.reshape(n, 2 * m, 2)


def frame_potential(nodes: np.ndarray, weights: np.ndarray) -> float:
    """sum_ij w_i w_j |(x_i, x_j)|^2 as (1/2) tr(S^2), S = sum_i w_i X_i X_i^H.

    O(n m^2) work through the frame operator; it never forms a pairwise Gram.
    """
    x = _complex_blocks(nodes)
    s = np.einsum("i,iab,icb->ac", weights, x, np.conj(x))
    return 0.5 * float(np.real(np.einsum("ab,ba->", s, s)))


def jacobi_params(field: str, m: int):
    d = DELTA[field]
    return (d * (m - 1) - 2) / 2.0, (d - 2) / 2.0


def first_moment(field: str, m: int, nodes: np.ndarray, weights: np.ndarray) -> float:
    """M_1 = sum_ij w_i w_j P_1(2|(x_i, x_j)|^2 - 1) from the frame-operator identity."""
    a, b = jacobi_params(field, m)
    total = math.fsum(weights)
    t_mean = 2.0 * frame_potential(nodes, weights) - total * total
    return 0.5 * ((a + b + 2.0) * t_mean + (a - b) * total * total)

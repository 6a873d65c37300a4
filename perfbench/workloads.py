"""Seeded request generators for the three workloads.

A run measures one *block* of about 100 distinct requests, drawn from the
seed and stratified (every parameter range is cut into equal strata and each
stratum gets one draw near its middle), so blocks from different seeds have
nearly the same mix of costs.  The request loop runs the block in repeated
passes; see run.py for how the passes become metrics.

Why these workloads (and what each one leaves idle):

* ``bound-sweep`` -- how the paper's bound tables are made: ``bound`` and
  short-window ``table`` requests plus a minority of ``testfn`` requests, the
  field uniform over R/C/H, m mostly 2-4 with some 5-16 and a 2% tail up to
  200, p even and log-uniform over [2, 2000].  ``jacobi.largest_root`` (its
  scan of ``jacobi_eval`` calls) takes nearly all the time; ``cubature`` is
  idle.  The tail is two requests: C with m in [17, 58], and H with m in
  [190, 200] at p in [300, 320].  The program raises ``OverflowError`` on
  valid input further out (H, m >= 190, p >= 740; also C m=200 p=2000 and
  H m=120 p=1200), so the tail stays clear of that corner: every request of
  a workload must be answerable.  Each tail range is narrow, so the tail's
  cost, a large share of the block, barely varies between seeds, and tables
  cover 2 or 3 values of p: that keeps a pass short, so a run holds many
  passes.
* ``verify-sweep`` -- ``verify --verbose`` on point-set files: known-PASS
  product-Gauss rules on CP^1, circle designs in R^2 and unions of orthonormal
  bases, and known-FAIL Haar-random sets.  n spans 3 to 2000, so the work is
  in ``cubature`` (Gram kernel, duplicate scan, moment recurrence and fsum
  over n^2 per degree), where the Jacobi recurrence runs on arrays; p is
  small, so ``largest_root`` is nearly idle.  One point set per block has
  n=2000 and m=2, so every block peaks at the same memory.
* ``asym-sweep`` -- ``asym --field F --m-max M``, F uniform, M stratified
  over [2, 300].  ``specials.bessel_first_zero`` and ``bessel_j`` take
  nearly all the time; ``jacobi`` and ``cubature`` are idle.  For H, M
  stops at 251: larger M needs a Bessel order nu > 500, above the program's
  cap, and exits 2.

A request is a dict: ``argv`` (the CLI arguments), ``kind`` and ``expect``
(what the oracle needs to know about the input).  Every request is valid
input the program answers; a raise or a bad exit code is a failure.
"""

from __future__ import annotations

import json
import os

import numpy as np

import designs

WORKLOADS = ("bound-sweep", "verify-sweep", "asym-sweep")
FIELDS = ("R", "C", "H")
P_MAX = 2000


#: width of the seeded jitter around each stratum's midpoint, as a share of
#: the stratum.  Costs rise steeply across the ranges (p is log-uniform, and
#: a verify request costs about n^2 times the degree), so full-width jitter
#: moved the block's p50 and p90 by 20-40% from seed to seed, and a width of
#: 0.2 still moved verify's p90 by about 10%; a narrow window keeps seeds
#: distinct while the cost mix stays put.
JITTER = 0.05


def strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` values in (0, 1), one near the middle of each equal stratum, ascending."""
    return (np.arange(count) + 0.5 + JITTER * (rng.random(count) - 0.5)) / count


def cycle(values, count: int, period: int = 1) -> list:
    """`values` in turn, each held for `period` slots.

    Assigned along ascending strata, this spreads every value evenly over the
    stratified range.  The assignment is the same for every seed (the seed
    moves each draw within its stratum), so the block's most expensive
    requests, which set p90 and much of the throughput, keep the same field,
    m and width from seed to seed.
    """
    return [values[(i // period) % len(values)] for i in range(count)]


def log_uniform(u, lo: float, hi: float):
    return lo * (hi / lo) ** u


def even_p(u) -> int:
    """Even p, log-uniform over [2, P_MAX] for u in [0, 1)."""
    return int(min(P_MAX, max(2, 2 * round(log_uniform(u, 2.0, P_MAX) / 2))))


# ---------------------------------------------------------------------------
# bound-sweep

#: (kind, m range, count); in each group p (or l) is stratified and field,
#: m and table width cycle along the strata
BOUND_GROUPS = (
    ("bound", (2, 4), 50),
    ("bound", (5, 16), 6),
    ("table", (2, 4), 24),
    ("table", (5, 16), 6),
    ("testfn", (2, 4), 10),
    ("testfn", (5, 16), 2),
)


def _request(kind: str, field: str, m: int, p: int, width: int = 1) -> dict:
    """A bound or table request at p (a table covers `width` even p from p)."""
    expect = {"field": field, "m": m}
    if kind == "bound":
        argv = ["bound", "--field", field, "--m", str(m), "--p", str(p), "--format", "json"]
        expect["p"] = [p]
    else:
        p_min = min(p, P_MAX - 2 * (width - 1))
        p_max = p_min + 2 * (width - 1)
        argv = ["table", "--field", field, "--m", str(m), "--p-min", str(p_min),
                "--p-max", str(p_max), "--format", "json"]
        expect["p"] = list(range(p_min, p_max + 1, 2))
    return {"kind": kind, "argv": argv, "expect": expect}


def _testfn_request(field: str, m: int, l: int) -> dict:
    return {"kind": "testfn", "argv": ["testfn", "--field", field, "--m", str(m), "--l", str(l)],
            "expect": {"field": field, "m": m, "l": l, "kmax": 200}}


def bound_sweep_block(rng: np.random.Generator) -> list:
    # the 2% large-m tail, one stratum each: C with m log-uniform over
    # [17, 58] at p in the upper half of the log range, and H with m in
    # [190, 200] at p in [300, 320], well below the p where the program
    # overflows there (740)
    u_m, u_p, v_m, v_p = (strata(rng, 1)[0] for _ in range(4))
    requests = [
        _request("bound", "C", int(round(log_uniform(u_m, 17.0, 58.0))),
                 even_p(0.5 + 0.5 * u_p)),
        _request("bound", "H", 190 + int(11 * v_m), 2 * (150 + int(11 * v_p))),
    ]
    for kind, (m_lo, m_hi), count in BOUND_GROUPS:
        fields = cycle(FIELDS, count)
        if m_hi - m_lo == 2:
            ms = cycle((m_lo, m_lo + 1, m_hi), count, period=3)
        else:
            # a fixed stride keeps m spread over its range and apart from p
            ms = [m_lo + (7 * i) % (m_hi - m_lo + 1) for i in range(count)]
        widths = cycle((2, 3), count)  # p values per table
        for field, m, u, width in zip(fields, ms, strata(rng, count), widths):
            if kind == "testfn":
                requests.append(_testfn_request(field, m, int(round(log_uniform(u, 1.0, 150.0)))))
            else:
                requests.append(_request(kind, field, m, even_p(u), width))
    return requests


# ---------------------------------------------------------------------------
# asym-sweep

ASYM_PER_FIELD = 34
ASYM_M_MAX = 300
#: the program's cap on the Bessel order nu = delta (m - 1) / 2 in bessel_first_zero
NU_CAP = 500


def asym_m_max(field: str) -> int:
    """The largest m-max the program answers for `field`, at most ASYM_M_MAX."""
    return min(ASYM_M_MAX, 1 + (2 * NU_CAP) // designs.DELTA[field])


def asym_sweep_block(rng: np.random.Generator) -> list:
    requests = []
    for field in FIELDS:
        top = asym_m_max(field)
        for u in strata(rng, ASYM_PER_FIELD):
            m_max = 2 + int(u * (top - 1))
            requests.append({
                "kind": "asym",
                "argv": ["asym", "--field", field, "--m-max", str(m_max)],
                "expect": {"field": field, "m_max": m_max},
            })
    return requests


# ---------------------------------------------------------------------------
# verify-sweep

# (family, count, size range).  "mixed" slots are a union of orthonormal
# bases (PASS, p=2) or a Haar-random set (FAIL, p in {2, 4}), alternating,
# m in 2..4; sizes are node counts n, except for "gauss" where they are the
# degree q (n = ceil((q+1)/2) * (q+1)).  The "xl" slot has n=2000 and m=2.
VERIFY_SLOTS = (
    ("xl", 1, (2000, 2000)),
    ("mixed", 1, (400, 600)),
    ("mixed", 2, (150, 350)),
    ("mixed", 8, (40, 150)),
    ("mixed", 30, (10, 40)),
    ("gauss", 1, (18, 24)),
    ("gauss", 3, (10, 17)),
    ("gauss", 14, (2, 9)),
    ("circle", 3, (60, 120)),
    ("circle", 37, (3, 60)),
)


def _point_set(rng: np.random.Generator, family: str, size: float, field: str, m: int,
               passes: bool):
    """(field, p, nodes, weights or None, expected verdict) for one slot.

    field, m and passes (bases or Haar-random) apply to the xl and mixed slots.
    """
    if family == "gauss":
        q = int(size)
        nodes, weights = designs.gauss_cp1(rng, q)
        return "C", 2 * q, nodes, weights, True
    if family == "circle":
        n = int(size)
        return "R", 2 * (n - 1), designs.circle(rng, n), None, True
    if passes:
        count = max(1, int(round(size / m)))
        return field, 2, designs.bases(rng, field, m, count), None, True
    p = 2 * int(rng.integers(1, 3))
    return field, p, designs.haar(rng, field, m, int(round(size))), None, False


def verify_sweep_block(rng: np.random.Generator, directory: str) -> list:
    """Write the block's point-set files into `directory`; return its requests."""
    requests = []
    for family, count, (lo, hi) in VERIFY_SLOTS:
        ms = [2] * count if family == "xl" else cycle((2, 3, 4), count, period=3)
        slots = zip(strata(rng, count), cycle(FIELDS, count), ms,
                    cycle((True, False), count))
        for u, field, m, passes in slots:
            if family in ("gauss", "circle"):
                size = lo + int(u * (hi - lo + 1))
            else:
                size = log_uniform(u, lo, hi)
            field, p, nodes, weights, passes = _point_set(rng, family, size, field, m, passes)
            n, m = nodes.shape[0], nodes.shape[1]
            w = np.full(n, 1.0 / n) if weights is None else weights
            path = os.path.join(directory, f"set-{len(requests):03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(designs.to_document(field, p, nodes, weights), fh)
            requests.append({
                "kind": "verify",
                "argv": ["verify", path, "--verbose"],
                "expect": {"field": field, "m": m, "p": p, "n": n, "passed": passes,
                           "m1": designs.first_moment(field, m, nodes, w)},
            })
    return requests


# ---------------------------------------------------------------------------


def make_block(workload: str, seed: int, directory: str) -> list:
    """The workload's block of requests for `seed`, in a seeded random order."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "bound-sweep":
        block = bound_sweep_block(rng)
    elif workload == "asym-sweep":
        block = asym_sweep_block(rng)
    else:
        block = verify_sweep_block(rng, directory)
    return [block[i] for i in rng.permutation(len(block))]


BLOCK_SUMMARY = {
    "bound-sweep": "bound/table/testfn requests incl. 2 large-m tail requests",
    "verify-sweep": "verify requests on point sets with n from 3 to 2000",
    "asym-sweep": (f"asym requests, M stratified over [2, {ASYM_M_MAX}] "
                   f"([2, {asym_m_max('H')}] for H)"),
}

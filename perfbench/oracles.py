"""Per-request correctness checks, by routes independent of projbound.

Each check takes the request (its ``kind`` and ``expect``) and the captured
CLI output and returns None when the output is right, or a one-line reason.
None of these routes imports projbound:

* LP bound: the closed binomial formulas, with binomials by an exact
  multiplicative loop (not ``math.comb``);
* xi: the largest node of ``scipy.special.roots_jacobi(p/2, a+1, b+1)``,
  within a tolerance proportional to 1 - xi;
* Yudin bound: ``yudin_bound == ceil(yudin_raw)`` (with the program's 1e-9
  integer snap), and ``yudin_raw = tau / c_0[h] = 1 / I_eps(a+1, b+1)`` by the
  regularised incomplete beta function, compared in the log domain so that a
  bound above double range can be checked too;
* testfn: c_{l+1}[f] ~ 0 and c_k[f] <= 0 for k > l+1;
* verify: verdict and exit code match the known answer, M_1 matches the
  frame-operator identity;
* asym: integer-order zeros match ``scipy.special.jn_zeros``, every other zero
  is bracketed by a sign change of J_nu, and log kappa follows from the zero.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

from scipy import special

from designs import DELTA, jacobi_params

ULP1 = 2.0**-52

#: relative slack on xi, as a share of 1 - xi
XI_RTOL = 1e-9
#: relative slack on yudin_raw beyond what the xi slack propagates to
RAW_RTOL = 1e-9
#: the program's integer snap in ceil_snap
SNAP_RTOL = 1e-9
#: relative half-width of the sign-change bracket around a printed Bessel zero
ZERO_BRACKET = 1e-11


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    r = 1
    for i in range(1, k + 1):
        r = r * (n - k + i) // i
    return r


def lp_bound(field: str, m: int, q: int) -> int:
    """Classical LP bound Lambda_K(m, q) for an index-2q cubature formula."""
    if field == "R":
        return binom(m + q - 1, m - 1)
    if field == "C":
        return binom(m + q // 2 - 1, m - 1) * binom(m + (q + 1) // 2 - 1, m - 1)
    num = binom(2 * m + q // 2 - 2, 2 * m - 2) * binom(2 * m + (q + 1) // 2 - 1, 2 * m - 2)
    return -(-num // (2 * m - 1))


@lru_cache(maxsize=4096)
def xi_reference(field: str, m: int, k: int) -> float:
    """Largest root of P_k^(a+1, b+1) by scipy's Gauss-Jacobi nodes."""
    a, b = jacobi_params(field, m)
    return float(special.roots_jacobi(k, a + 1.0, b + 1.0)[0][-1])


def xi_tolerance(xi_ref: float) -> float:
    return XI_RTOL * (1.0 - xi_ref) + 4.0 * ULP1


def log_betainc_small(a: float, b: float, x: float) -> float:
    """ln I_x(a, b) for small x, by the series (DLMF 8.17.8)

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * sum_n (a+b)_n / (a+1)_n x^n.
    """
    total, term = 1.0, 1.0
    for n in range(100000):
        term *= (a + b + n) / (a + 1.0 + n) * x
        total += term
        if term <= 1e-17 * total:
            break
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return a * math.log(x) + b * math.log1p(-x) - math.log(a) - log_beta + math.log(total)


def log_raw_reference(field: str, m: int, eps: float) -> float:
    """ln of the Yudin raw bound tau / c_0[h] = 1 / I_eps(a+1, b+1)."""
    a, b = jacobi_params(field, m)
    value = float(special.betainc(a + 1.0, b + 1.0, eps))
    if value >= 1e-280:
        return -math.log(value)
    # I_eps underflows: the raw bound is beyond double range
    return -log_betainc_small(a + 1.0, b + 1.0, eps)


def raw_tolerance(field: str, m: int, xi_ref: float) -> float:
    """Relative slack on yudin_raw: its own plus the xi slack times d ln(raw)/d ln(eps)."""
    a, b = jacobi_params(field, m)
    return RAW_RTOL + 2.0 * (a + 1.0 + abs(b)) * xi_tolerance(xi_ref) / (1.0 - xi_ref)


def ceil_ok(raw: float, bound: int) -> bool:
    nearest = round(raw)
    if abs(raw - nearest) <= SNAP_RTOL * max(1.0, abs(raw)):
        return bound == nearest
    return bound == math.ceil(raw)


def _is_finite(x) -> bool:
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and math.isfinite(x))


def _row_problem(field: str, m: int, p: int, row: dict) -> str | None:
    """Check one (p, lp_bound, yudin_raw, yudin_bound, delta) row.

    Above 2^53 an exact ceiling cannot come from a double, so there the
    program may print yudin_bound and delta as null (flagged inexact) and
    yudin_raw as non-finite; whatever it prints is checked against ln(raw).
    """
    lp = lp_bound(field, m, p // 2)
    if row["lp_bound"] != lp:
        return f"p={p}: lp_bound {row['lp_bound']} != {lp}"
    raw, yb, delta = row["yudin_raw"], row["yudin_bound"], row["delta"]
    xi_ref = xi_reference(field, m, p // 2)
    log_ref = log_raw_reference(field, m, (1.0 - xi_ref) / 2.0)
    tol = raw_tolerance(field, m, xi_ref)
    exact = log_ref < 53.0 * math.log(2.0)
    logs = {}
    if _is_finite(raw):
        logs["yudin_raw"] = math.log(raw)
    elif _is_finite(yb):  # otherwise yudin_bound is checked as ceil(yudin_raw)
        logs["yudin_bound"] = math.log(yb)
    if _is_finite(row.get("log_raw")):
        logs["log_raw"] = row["log_raw"]
    if not logs:
        return f"p={p}: no finite yudin_raw, log_raw or yudin_bound"
    for key, value in logs.items():
        if not abs(value - log_ref) <= tol:
            return f"p={p}: ln {key} {value!r} vs {log_ref!r} (tol {tol:.1e})"
    if yb is None or delta is None:
        if exact:
            return f"p={p}: yudin_bound {yb} / delta {delta} missing for an exact bound"
        return None
    if _is_finite(raw) and not ceil_ok(raw, yb):
        return f"p={p}: yudin_bound {yb} != ceil({raw!r})"
    if delta != yb - lp:
        return f"p={p}: delta {delta} != {yb - lp}"
    return None


def check_bound(expect: dict, out: str) -> str | None:
    doc = json.loads(out)
    field, m, (p,) = expect["field"], expect["m"], expect["p"]
    if (doc["field"], doc["m"], doc["p"]) != (field, m, p):
        return f"echo {doc['field']},{doc['m']},{doc['p']} != {field},{m},{p}"
    xi, eps = doc["xi"], doc["epsilon"]
    xi_ref = xi_reference(field, m, p // 2)
    if not abs(xi - xi_ref) <= xi_tolerance(xi_ref):
        return f"xi {xi!r} vs roots_jacobi {xi_ref!r}"
    if eps != (1.0 - xi) / 2.0:
        return f"epsilon {eps!r} != (1 - xi)/2"
    return _row_problem(field, m, p, doc)


def check_table(expect: dict, out: str) -> str | None:
    doc = json.loads(out)
    field, m = expect["field"], expect["m"]
    if (doc["field"], doc["m"]) != (field, m):
        return f"echo {doc['field']},{doc['m']} != {field},{m}"
    if [row["p"] for row in doc["rows"]] != expect["p"]:
        return f"rows p {[row['p'] for row in doc['rows']]} != {expect['p']}"
    for row in doc["rows"]:
        problem = _row_problem(field, m, row["p"], row)
        if problem:
            return problem
    return None


def _csv_body(out: str):
    lines = out.splitlines()
    return lines[0], lines[1], [line.split(",") for line in lines[2:]]


def check_testfn(expect: dict, out: str) -> str | None:
    field, m, l, kmax = expect["field"], expect["m"], expect["l"], expect["kmax"]
    header, schema, rows = _csv_body(out)
    if schema != "k,c_h,c_g,c_f":
        return f"schema {schema!r}"
    fields = dict(item.split("=", 1) for item in header.split()[3:] if "=" in item)
    if (fields.get("field"), fields.get("m"), fields.get("l")) != (field, str(m), str(l)):
        return f"header {header!r}"
    if [int(r[0]) for r in rows] != list(range(kmax + 1)):
        return "k column is not 0..kmax"
    xi = float(fields["xi"])
    xi_ref = xi_reference(field, m, l)
    # xi is printed with 12 significant digits
    if not abs(xi - xi_ref) <= xi_tolerance(xi_ref) + 6e-13 * abs(xi_ref):
        return f"xi {xi!r} vs roots_jacobi {xi_ref!r}"
    c_f = [float(r[3]) for r in rows]
    scale = max(abs(c) for c in c_f)
    if not abs(c_f[l + 1]) <= 1e-9 * scale:
        return f"c_{l + 1}[f] = {c_f[l + 1]!r} is not ~0 (scale {scale!r})"
    for k in range(l + 2, kmax + 1):
        if c_f[k] > 1e-12 * scale:
            return f"c_{k}[f] = {c_f[k]!r} > 0 beyond l+1"
    return None


def check_verify(expect: dict, out: str, code: int) -> str | None:
    lines = out.splitlines()
    words = lines[0].split()
    status = "PASS:" if expect["passed"] else "FAIL:"
    want_code = 0 if expect["passed"] else 1
    if words[0] != status or code != want_code:
        return f"verdict {words[0]} exit {code}, expected {status} exit {want_code}"
    got = dict(zip(words[1:9:2], words[2:9:2]))
    want = {"field": expect["field"], "m": str(expect["m"]), "p": str(expect["p"]),
            "n": str(expect["n"])}
    if got != want:
        return f"echo {got} != {want}"
    lp, lp_ref = int(lines[1].split()[1]), lp_bound(expect["field"], expect["m"], expect["p"] // 2)
    if lp != lp_ref:
        return f"lp_bound {lp} != {lp_ref}"
    m1 = next(float(line.split("=")[1]) for line in lines if line.startswith("M_1 ="))
    ref = expect["m1"]
    a, b = jacobi_params(expect["field"], expect["m"])
    tol = 1e-12 * (a + b + 2.0) + 1e-10 * abs(ref)
    if not abs(m1 - ref) <= tol:
        return f"M_1 {m1!r} vs frame-operator {ref!r}"
    return None


@lru_cache(maxsize=2048)
def _jn_zero(n: int) -> float:
    return float(special.jn_zeros(n, 1)[0])


def check_asym(expect: dict, out: str) -> str | None:
    field, m_max = expect["field"], expect["m_max"]
    header, schema, rows = _csv_body(out)
    if not header.startswith(f"# projbound asym v1 field={field} "):
        return f"header {header!r}"
    if [int(r[0]) for r in rows] != list(range(2, m_max + 1)):
        return "m column is not 2..m-max"
    d = DELTA[field]
    for r in rows:
        m = int(r[0])
        nu, j, log_kappa = float(r[1]), float(r[2]), float(r[4])
        if nu != d * (m - 1) / 2.0:
            return f"m={m}: nu {nu!r}"
        if nu == int(nu):
            ref = _jn_zero(int(nu))
            # the zero is printed with 12 significant digits
            if not abs(j - ref) <= 1e-11 * ref:
                return f"m={m}: j_nu,1 {j!r} vs jn_zeros {ref!r}"
        else:
            lo = special.jv(nu, j * (1.0 - ZERO_BRACKET))
            hi = special.jv(nu, j * (1.0 + ZERO_BRACKET))
            if not (lo > 0.0 > hi):
                return f"m={m}: no sign change of J_nu around {j!r}"
        ref_log = 2.0 * nu * math.log(j) - 2.0 * math.lgamma(nu + 1.0) - nu * math.log(16.0)
        if not abs(log_kappa - ref_log) <= 1e-10 * (1.0 + abs(ref_log)) + 2.0 * nu * 1e-12:
            return f"m={m}: log_kappa {log_kappa!r} vs {ref_log!r}"
    return None


def check(request: dict, result: dict) -> str | None:
    """None if the request succeeded with the right output, else why it failed.

    Every workload input is valid and answerable, so a raise, an unexpected
    exit code or an output the oracle cannot read is a failure like a wrong
    answer.
    """
    kind, expect, out, code = request["kind"], request["expect"], result["out"], result["code"]
    if result.get("error"):
        return result["error"]
    if code not in ((0, 1) if kind == "verify" else (0,)):
        return f"exit code {code}"
    checks = {"bound": check_bound, "table": check_table, "testfn": check_testfn,
              "asym": check_asym}
    try:
        if kind == "verify":
            return check_verify(expect, out, code)
        return checks[kind](expect, out)
    except Exception as exc:  # an output the oracle cannot read is a wrong output
        return f"oracle could not check output: {type(exc).__name__}: {exc}"

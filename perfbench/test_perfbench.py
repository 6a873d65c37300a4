"""Tests of the benchmark's own generators, oracles and span arithmetic.

    python3 -m pytest perfbench -q

The moment checks here use numpy and scipy only; the oracle tests run the
real CLI from ``src/`` and then perturb its output.
"""

import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest
from scipy.special import eval_jacobi

import designs
import oracles
import run
import spans
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _documents(block):
    """Every request of the block, with each verify file's content inlined."""
    out = []
    for req in block:
        req = dict(req)
        if req["kind"] == "verify":
            with open(req["argv"][1], encoding="utf-8") as fh:
                req["file"] = json.load(fh)
            req["argv"] = [os.path.basename(a) for a in req["argv"]]
        out.append(req)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _documents(workloads.make_block(workload, 7, str(dirs[0])))
    again = _documents(workloads.make_block(workload, 7, str(dirs[1])))
    other = _documents(workloads.make_block(workload, 8, str(dirs[2])))
    assert len(first) >= 100
    assert first == again
    assert first != other


def moments(field, m, nodes, weights, k_max):
    """M_1..M_kmax by a complex Gram and scipy's Jacobi polynomials."""
    x = designs._complex_blocks(nodes)
    inner = np.einsum("iab,jac->ijbc", np.conj(x), x)
    t = np.sum(np.abs(inner) ** 2, axis=(2, 3)) - 1.0  # 2|(x_i, x_j)|^2 - 1
    a, b = designs.jacobi_params(field, m)
    return [float(weights @ eval_jacobi(k, a, b, t) @ weights) for k in range(1, k_max + 1)]


def test_generated_pass_designs_pass_and_fail_sets_fail(tmp_path):
    checked = 0
    for req in workloads.make_block("verify-sweep", 5, str(tmp_path)):
        exp = req["expect"]
        if exp["n"] > 1000:
            continue
        with open(req["argv"][1], encoding="utf-8") as fh:
            field, p, nodes, weights = designs.from_document(json.load(fh))
        ms = moments(field, exp["m"], nodes, weights, p // 2)
        assert math.isclose(ms[0], exp["m1"], rel_tol=1e-9, abs_tol=1e-12)
        if exp["passed"]:
            assert max(abs(v) for v in ms) < 1e-11, (exp, ms)
        else:
            assert ms[0] > 1e-6, (exp, ms)
        checked += 1
    assert checked >= 95


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_bases_are_index_2_but_not_4(field, m):
    rng = np.random.default_rng(0)
    nodes = designs.bases(rng, field, m, 4)
    w = np.full(len(nodes), 1.0 / len(nodes))
    m1, m2 = moments(field, m, nodes, w, 2)
    assert abs(m1) < 1e-13 and m2 > 1e-3


@pytest.mark.parametrize("q", [2, 5, 12, 24])
def test_gauss_cp1_has_index_exactly_2q(q):
    nodes, w = designs.gauss_cp1(np.random.default_rng(q), q)
    ms = moments("C", 2, nodes, w, q + 1)
    assert max(abs(v) for v in ms[:q]) < 1e-13 and ms[q] > 1e-6


def run_cli(argv):
    """Run projbound's CLI from src/ in-process; (stdout, exit code)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from projbound import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return out.getvalue(), code


def _bump_json(out, key, delta=0, row=None, factor=1.0):
    doc = json.loads(out)
    target = doc if row is None else doc["rows"][row]
    target[key] = target[key] * factor + delta
    return json.dumps(doc)


def _bump_csv(out, line, column, factor):
    lines = out.splitlines()
    cells = lines[line].split(",")
    cells[column] = repr(float(cells[column]) * factor)
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _set_m1(out):
    return "\n".join("M_1 = 0.001" if line.startswith("M_1 =") else line
                     for line in out.splitlines()) + "\n"


def _cases(tmp_path):
    rng = np.random.default_rng(1)
    nodes, weights = designs.gauss_cp1(rng, 3)
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(designs.to_document("C", 6, nodes, weights)))
    m1 = designs.first_moment("C", 2, nodes, weights)
    return [
        ({"kind": "bound", "argv": ["bound", "--field", "H", "--m", "3", "--p", "40",
                                    "--format", "json"],
          "expect": {"field": "H", "m": 3, "p": [40]}},
         [lambda o: _bump_json(o, "lp_bound", 1), lambda o: _bump_json(o, "xi", -1e-9),
          lambda o: _bump_json(o, "yudin_raw", factor=1.0 + 1e-7)]),
        ({"kind": "table", "argv": ["table", "--field", "R", "--m", "5", "--p-min", "10",
                                    "--p-max", "14", "--format", "json"],
          "expect": {"field": "R", "m": 5, "p": [10, 12, 14]}},
         [lambda o: _bump_json(o, "yudin_bound", 1, row=2)]),
        ({"kind": "testfn", "argv": ["testfn", "--field", "C", "--m", "2", "--l", "6"],
          "expect": {"field": "C", "m": 2, "l": 6, "kmax": 200}},
         [lambda o: _bump_csv(o, 2 + 9, 3, -1.0)]),
        ({"kind": "asym", "argv": ["asym", "--field", "R", "--m-max", "6"],
          "expect": {"field": "R", "m_max": 6}},
         [lambda o: _bump_csv(o, 2 + 1, 2, 1.0 + 1e-9), lambda o: _bump_csv(o, 2 + 2, 2, 1.001)]),
        ({"kind": "verify", "argv": ["verify", str(path), "--verbose"],
          "expect": {"field": "C", "m": 2, "p": 6, "n": len(nodes), "passed": True, "m1": m1}},
         [lambda o: o.replace("PASS:", "FAIL:", 1), _set_m1]),
    ]


def test_real_outputs_pass_and_perturbed_outputs_fail(tmp_path):
    for request, perturbations in _cases(tmp_path):
        out, code = run_cli(request["argv"])
        assert oracles.check(request, {"out": out, "code": code, "error": None}) is None, request
        for perturb in perturbations:
            bad = {"out": perturb(out), "code": code, "error": None}
            verdict = oracles.check(request, bad)
            assert isinstance(verdict, str), (request["kind"], verdict)


def test_raises_and_bad_exits_are_failures():
    request = {"kind": "asym", "argv": [], "expect": {"field": "H", "m_max": 300}}
    assert oracles.check(request, {"out": "", "code": 2, "error": None}) == "exit code 2"
    err = {"out": "", "code": None, "error": "OverflowError: math range error"}
    assert oracles.check(request, err) == err["error"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_inputs_stay_clear_of_what_the_program_refuses(seed, tmp_path):
    # asym: H needs nu = 2 (m - 1) <= 500; bound: the program overflows
    # from p = 740 at H m >= 190, and the large-m tail stays at m <= 200
    asym = [r["expect"] for r in workloads.make_block("asym-sweep", seed, str(tmp_path))]
    assert 240 <= max(e["m_max"] for e in asym if e["field"] == "H") <= 251
    assert max(e["m_max"] for e in asym) > 290
    block = workloads.make_block("bound-sweep", seed, str(tmp_path))
    tail = [r["expect"] for r in block if r["kind"] in ("bound", "table") and r["expect"]["m"] > 16]
    assert len(tail) == 2
    assert all(e["m"] <= 200 and (e["m"] < 100 or max(e["p"]) < 740) for e in tail)


def test_log_betainc_series_matches_scipy():
    from scipy.special import betainc

    for a, b, x in [(51.0, 2.0, 0.01), (8.5, 1.5, 0.05), (120.0, 1.0, 0.2)]:
        ref = math.log(betainc(a, b, x))
        assert math.isclose(oracles.log_betainc_small(a, b, x), ref, rel_tol=1e-12)


def _corner_output(field="H", m=195, p=1210):
    """A bound output above double range, as an exact-or-flagged program could print it."""
    import decimal

    xi = oracles.xi_reference(field, m, p // 2)
    eps = (1.0 - xi) / 2.0
    log_ref = oracles.log_raw_reference(field, m, eps)
    assert log_ref > 710.0  # beyond double range
    ceiling = int(decimal.Context(prec=60).exp(decimal.Decimal(log_ref)).to_integral_value(
        decimal.ROUND_CEILING))
    lp = oracles.lp_bound(field, m, p // 2)
    doc = {"field": field, "m": m, "p": p, "xi": xi, "epsilon": eps, "lp_bound": lp,
           "yudin_raw": math.inf, "yudin_bound": ceiling, "delta": ceiling - lp}
    request = {"kind": "bound", "argv": [], "expect": {"field": field, "m": m, "p": [p]}}
    return request, doc


def test_infinite_yudin_raw_is_checked_in_the_log_domain():
    request, doc = _corner_output()
    out = json.dumps(doc)  # yudin_raw prints as Infinity
    assert "Infinity" in out
    assert oracles.check(request, {"out": out, "code": 0, "error": None}) is None
    flagged = dict(doc, yudin_bound=None, delta=None, log_raw=math.log(doc["yudin_bound"]))
    assert oracles.check(request, {"out": json.dumps(flagged), "code": 0, "error": None}) is None
    for bad in (dict(doc, yudin_bound=doc["yudin_bound"] * 2),
                dict(doc, yudin_bound=None, delta=None),  # nothing finite left to check
                dict(doc, yudin_raw=None, yudin_bound="many")):
        verdict = oracles.check(request, {"out": json.dumps(bad), "code": 0, "error": None})
        assert isinstance(verdict, str), (bad, verdict)


def test_unreadable_output_is_wrong_not_a_crash():
    request, _ = _corner_output()
    for out in ("", "not json", "[1, 2]", '{"field": "H"}'):
        verdict = oracles.check(request, {"out": out, "code": 0, "error": None})
        assert isinstance(verdict, str) and verdict.startswith("oracle could not check")


def test_lp_bound_matches_known_values():
    # README: H m=2 p=4 -> 6; circle design p=10 in R^2 is tight with 6 nodes
    assert oracles.lp_bound("H", 2, 2) == 6
    assert oracles.lp_bound("R", 2, 5) == 6
    assert oracles.binom(30, 12) == math.comb(30, 12)


def test_benchmark_json_declares_what_the_runs_report():
    path = os.path.join(os.path.dirname(SRC), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER


def test_latencies_are_scaled_to_the_reference_host_speed():
    # the host runs at half the reference speed for the first 30 runs and at
    # the reference speed after them; request 0 takes 10 ms at reference speed
    ref = run.CAL_REF_S
    results = [{"request": j % 2, "latency_s": (0.02 if j < 30 else 0.01) * (1 + j % 2),
                "cal_s": 2 * ref if j < 30 else ref} for j in range(60)]
    run.at_reference_speed(results)
    assert math.isclose(results[0]["ref_latency_s"], 0.01)
    assert math.isclose(results[59]["ref_latency_s"], 0.02)
    samples = [(res, None) for res in results]
    scaled = run.timing(samples)
    assert math.isclose(scaled["ops_per_s"], 2 / 0.03)
    assert math.isclose(scaled["op_p50_ms"], 10.0) and math.isclose(scaled["op_p90_ms"], 20.0)
    # as measured, request 1 took 40 ms in 15 runs and 20 ms in 15: median 30 ms
    assert math.isclose(run.timing(samples, "latency_s")["op_p90_ms"], 30.0)
    # a failed run makes its request slower than any limit
    samples[1] = (results[1], "exit code 2")
    assert run.timing(samples)["op_p90_ms"] == run.FAILED_LATENCY_MS


def test_self_time_subtracts_direct_children(tmp_path):
    # main [0, 10] > yudin_bound [1, 9] > largest_root [2, 6] and hypergeom_F [6, 7]
    ids = [spans.SPAN_NAMES.index(n) for n in
           ("cli.main", "bounds.yudin_bound", "jacobi.largest_root", "specials.hypergeom_F")]
    path = tmp_path / "spans.npz"
    np.savez(path, name=np.array(ids, dtype=np.int32),
             parent=np.array([-1, 0, 1, 1], dtype=np.int32),
             request=np.zeros(4, dtype=np.int32),
             start=np.array([0.0, 1.0, 2.0, 6.0]), end=np.array([10.0, 9.0, 6.0, 7.0]),
             failed=np.array([0, 1, 0, 0], dtype=np.int8))
    table = spans.span_table(str(path))
    assert table["cli.main"] == (1, 2.0, 0)
    assert table["bounds.yudin_bound"] == (1, 3.0, 1)
    assert table["jacobi.largest_root"] == (1, 4.0, 0)
    assert table["specials.hypergeom_F"] == (1, 1.0, 0)

import argparse
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from projbound import AsymptoticRow, BoundReport, Field, asymptotic_report, circle_design
from projbound import field_params
from projbound import bounds, cli
from projbound.cli import build_parser, main
from projbound.jacobi import NumericalError

from helpers import (
    asymptotic_rows_loop,
    clear_asym_row_memo,
    clear_largest_root_memo,
    deadline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "data" / "golden"
GOLDEN_CASES = json.loads((GOLDEN_DIR / "invocations.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, route, argv):
    """(exit code, stdout, stderr) of route(argv), the code of a SystemExit included."""
    try:
        code = route(list(argv))
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def asym_expected(field: str, m_max: int) -> bytes:
    """asym's output for (field, m_max), built from the per-row scalar loop and _fmt."""
    schema = cli._ASYM_SCHEMA
    lines = [f"# projbound asym v1 field={field} columns={schema}", schema]
    for row in asymptotic_rows_loop(Field.parse(field), range(2, m_max + 1)):
        lines.append(",".join(cli._fmt(getattr(row, c)) for c in schema.split(",")))
    return ("\n".join(lines) + "\n").encode()


def write_circle_file(path, p, perturb=False, weights=True):
    ps = circle_design(p)
    nodes = [[[float(c[0])] for c in node] for node in ps.nodes]
    if perturb:
        theta = math.atan2(nodes[1][1][0], nodes[1][0][0]) + 0.01
        nodes[1] = [[math.cos(theta)], [math.sin(theta)]]
    doc = {"field": "R", "m": 2, "p": p, "nodes": nodes}
    if weights:
        doc["weights"] = [1.0 / ps.n] * ps.n
    path.write_text(json.dumps(doc))
    return path


class TestBoundCommand:
    def test_real_m2_p10(self, capsys):
        code, out, _ = run(capsys, "bound", "--field", "R", "--m", "2", "--p", "10")
        assert code == 0
        assert "lp_bound     6" in out
        assert "yudin_bound  6" in out

    def test_complex_m2_p18_delta(self, capsys):
        code, out, _ = run(capsys, "bound", "--field", "C", "--m", "2", "--p", "18", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["yudin_bound"] - doc["lp_bound"] == 1

    def test_quaternion_m2_p4(self, capsys):
        code, out, _ = run(capsys, "bound", "--field", "H", "--m", "2", "--p", "4", "--format", "json")
        doc = json.loads(out)
        assert (doc["lp_bound"], doc["yudin_bound"]) == (6, 5)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_xi_at_p2_prints_positive_zero(self, capsys, field):
        code, out, _ = run(capsys, "bound", "--field", field, "--m", "2", "--p", "2", "--format", "json")
        assert code == 0
        assert '"xi": 0.0' in out and '"xi": -0.0' not in out

    @pytest.mark.parametrize("command", ["bound", "table"])
    def test_real_past_the_rule_is_one_error_line(self, command):
        # a fresh process builds the overflowing Gauss-Jacobi rule: scipy's overflow
        # warning stays off stderr, and the error is one line
        ps = ["--p", "4"] if command == "bound" else ["--p-min", "2", "--p-max", "4"]
        proc = cli_process(command, "--field", "R", "--m", "2100", *ps,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (2, "")
        assert err.startswith("error: hypergeom_F: ") and err.count("\n") == 1, err

    def test_quaternion_past_the_rule_is_no_silent_zero(self):
        proc = cli_process("bound", "--field", "H", "--m", "520", "--p", "4", "--format", "json",
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, "")
        doc = json.loads(out)
        assert doc["yudin_raw"] == pytest.approx(56.7857938763, rel=1e-10)
        assert doc["yudin_bound"] == 57

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "bound", "--field", "C", "--m", "3", "--p", "12", "--format", "json")
        report = BoundReport.from_dict(json.loads(out))
        from projbound import yudin_bound, Field

        assert report == yudin_bound(Field.C, 3, 12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--field", "H", "--m", "200", "--p", "2000"],
            ["table", "--field", "R", "--m", "300", "--p-min", "3998", "--p-max", "4000"],
        ],
        ids=["bound", "table"],
    )
    def test_bound_past_the_float_range_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: bound past the float range for field=")
        assert err.count("\n") == 1

    def test_degree_numpy_refuses_exit_2(self, capsys):
        # 2^70 is past numpy's largest dimension, so nothing is allocated
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--field", "R", "--m", "2", "--p", str(2**70)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: degree {2**69} is too large for its recurrence table\n")
        assert err.count("\n") == 2  # the usage line, then the error

    def test_bad_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--field", "Q", "--m", "2", "--p", "4"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--field", "R", "--m", "2", "--p", "7"])
        assert exc.value.code == 2


class TestTableCommand:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run(capsys, "table", "--field", "C", "--p-min", "2", "--p-max", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# projbound table v1 field=C m=2")
        assert lines[1] == "p,lp_bound,yudin_raw,yudin_bound,delta"
        rows = {int(l.split(",")[0]): l.split(",") for l in lines[2:]}
        assert rows[18][4] == "1" and rows[16][4] == "0"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "table", "--field", "H", "--p-min", "2", "--p-max", "30")
        _, second, _ = run(capsys, "table", "--field", "H", "--p-min", "2", "--p-max", "30")
        assert first == second

    def test_markdown_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "--field", "R", "--p-min", "2", "--p-max", "6", "--format", "markdown"
        )
        lines = out.strip().splitlines()
        assert lines[0].startswith("| p | lp_bound |")
        assert len(lines) == 2 + 3

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "--field", "R", "--p-min", "2", "--p-max", "8", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["field"] == "R" and len(doc["rows"]) == 4
        assert all(row["delta"] == 0 for row in doc["rows"])

    def test_verbose_alt_column_for_h(self, capsys):
        code, out, _ = run(
            capsys, "table", "--field", "H", "--p-min", "2", "--p-max", "4", "--verbose"
        )
        lines = out.strip().splitlines()
        assert lines[1].endswith(",lp_alt")
        first = lines[2].split(",")
        assert first[0] == "2" and first[5] == "10"  # variant form at p=2

    def test_empty_range_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--field", "R", "--p-min", "10", "--p-max", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("p_min,p_max", [("3", "8"), ("2", "7")])
    def test_odd_p_bound_exit_2(self, capsys, p_min, p_max):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--field", "R", "--p-min", p_min, "--p-max", p_max])
        assert exc.value.code == 2
        assert "p-min and p-max must be even integers >= 2" in capsys.readouterr().err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "table", "--field", "C", "--p-min", "2", "--p-max", "8", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("# projbound table v1")

    def test_unwritable_out_exit_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "table",
            "--field",
            "C",
            "--p-min",
            "2",
            "--p-max",
            "4",
            "--out",
            str(tmp_path / "no" / "such" / "dir" / "t.csv"),
        )
        assert code == 3
        assert "cannot write" in err


class TestVerifyCommand:
    def test_pass_exit_0(self, capsys, tmp_path):
        path = write_circle_file(tmp_path / "c.json", 10)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out.startswith("PASS")
        assert "(tight)" in out

    def test_fail_exit_1(self, capsys, tmp_path):
        path = write_circle_file(tmp_path / "p.json", 10, perturb=True)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out.startswith("FAIL")

    def test_weights_omitted(self, capsys, tmp_path):
        path = write_circle_file(tmp_path / "nw.json", 8, weights=False)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "line" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 2

    @pytest.mark.parametrize("what", ["node", "weight"])
    def test_non_finite_exit_2(self, capsys, tmp_path, what):
        path = write_circle_file(tmp_path / "nan.json", 6)
        doc = json.loads(path.read_text())
        if what == "node":
            doc["nodes"][1][0][0] = math.nan
        else:
            doc["weights"][1] = math.nan
        path.write_text(json.dumps(doc))  # written as the bare token NaN, which json reads
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive_exit_2(self, capsys, tmp_path, tol):
        path = write_circle_file(tmp_path / "c.json", 10)
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(path), f"--tol={tol}"])
        assert exc.value.code == 2
        assert "tol must be finite and positive" in capsys.readouterr().err

    def test_moments_past_the_float_range_exit_2(self, capsys, tmp_path):
        # two orthogonal H nodes in m = 300: P_k(1) leaves the float range before k = 600
        nodes = [[[1.0 if a == i else 0.0, 0.0, 0.0, 0.0] for a in range(300)] for i in (0, 1)]
        path = tmp_path / "h300.json"
        path.write_text(json.dumps({"field": "H", "m": 300, "p": 1200, "nodes": nodes}))
        with deadline(60):
            code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: moment M_") and err.count("\n") == 1
        assert "= nan is negative or not finite" in err

    def test_weights_past_the_float_range_exit_2(self, capsys, tmp_path):
        path = write_circle_file(tmp_path / "w.json", 2)
        doc = json.loads(path.read_text())
        doc["weights"] = [1e308, 1e308]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out, err) == (2, "", "error: weights must sum to 1 within 1e-12, got inf\n")

    def test_huge_m_with_short_nodes_allocates_nothing_exit_2(self, capsys, tmp_path):
        nodes = [[[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [0.0]]]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"field": "R", "m": 10**9, "p": 2, "nodes": nodes}))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "verify", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == "error: nodes[0]: expected 1000000000 coordinates, got [[1.0], [0.0]]\n"
        assert peak < 2**20  # an (n, m, 4) array would be 89 GiB

    def test_float_p_exit_2(self, capsys, tmp_path):
        path = write_circle_file(tmp_path / "c.json", 10)
        doc = json.loads(path.read_text())
        doc["p"] = 10.5
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert "'p' must be a JSON integer, got 10.5" in err

    @pytest.mark.parametrize("p", [7, 0])
    def test_bad_p_is_a_file_error_exit_2(self, capsys, tmp_path, p):
        path = write_circle_file(tmp_path / "c.json", 10)
        doc = json.loads(path.read_text())
        doc["p"] = p
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))  # no usage line, no SystemExit
        assert code == 2 and out == ""
        assert err == f"error: p must be a positive even integer, got {p}\n"

    def test_p_past_its_degree_table_is_a_file_error_exit_2(self, capsys, tmp_path):
        # numpy refuses a table of 5e399 degrees; the usage line of an argv error is not printed
        path = write_circle_file(tmp_path / "c.json", 10)
        doc = json.loads(path.read_text())
        doc["p"] = 10**400
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))  # no SystemExit
        assert (code, out) == (2, "")
        assert err == f"error: 'p' is too large for its degree table, got {'1' + '0' * 199}...\n"

    def test_coincident_pair_reported_once(self, tmp_path):
        path = tmp_path / "dup.json"
        nodes = [[[1.0], [0.0]], [[-1.0], [0.0]], [[0.0], [1.0]]]  # nodes 0 and 1: one line
        path.write_text(json.dumps({"field": "R", "m": 2, "p": 2, "nodes": nodes}))
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "projbound.cli", "verify", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert proc.stdout.count("(0, 1)") == 1
        assert "warning: projectively coincident node pairs: [(0, 1)]\n" in proc.stdout

    def test_failing_set_is_not_tight(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"field": "R", "m": 2, "p": 2,
                                    "nodes": [[[1.0], [0.0]], [[1.0], [0.0]]]}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1 and err == ""
        assert out.splitlines() == [
            "FAIL: field R m 2 p 2 n 2  max|M_k| 0.5 (tol 2e-10)",
            "lp_bound 2  yudin_bound 2",
            "warning: projectively coincident node pairs: [(0, 1)]",
        ]

    def test_more_than_100_coincident_pairs_are_counted(self, capsys, tmp_path):
        path = tmp_path / "lines.json"
        path.write_text(json.dumps({"field": "R", "m": 2, "p": 2, "nodes": [[[1.0], [0.0]]] * 16}))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out.splitlines()[2] == (
            "warning: 120 projectively coincident node pairs, the first 100: "
            + str([(i, j) for i in range(16) for j in range(i + 1, 16)][:100])
        )

    def test_verbose_moments_and_note(self, capsys, tmp_path):
        path = write_circle_file(tmp_path / "c.json", 6)
        code, out, _ = run(capsys, "verify", str(path), "--verbose")
        assert "M_1 =" in out and "M_3 =" in out
        assert "moment test" in out


def corpus_base() -> dict:
    """A valid point-set document: the R, m=2 circle design of index 10, weights given."""
    ps = circle_design(10)
    nodes = [[[float(c[0])] for c in node] for node in ps.nodes]
    return {"field": "R", "m": 2, "p": 10, "nodes": nodes, "weights": [1.0 / ps.n] * ps.n}


def corpus_docs():
    """(id, file text) of bad point-set files, each a change to `corpus_base`."""
    base = corpus_base()

    def changed(**changes):
        return json.loads(json.dumps(base)) | changes  # a deep copy

    docs = [(f"no-{key}", {k: v for k, v in base.items() if k != key})
            for key in ("field", "m", "p", "nodes")]  # without weights a file is valid
    values = {"str": "x", "bool": True, "null": None, "list": [1], "object": {"a": 1},
              "-3": -3, "0": 0, "2.5": 2.5, "1e400": 10**400,
              "1e4000": 10**4000, "1e4000+1": 10**4000 + 1}
    docs += [(f"{key}-{name}", changed(**{key: value}))
             for key in base for name, value in values.items()
             if (key, value) != ("weights", None)]  # null weights are the default weights
    docs += [("doc-list", [base]), ("doc-str", "x"), ("doc-null", None)]
    nodes = changed()["nodes"]
    docs += [
        ("ragged-node", changed(nodes=[nodes[0][:1], *nodes[1:]])),
        ("two-components", changed(nodes=[[[nodes[0][0][0], 0.0], nodes[0][1]], *nodes[1:]])),
        ("weights-short", changed(weights=base["weights"][:-1])),
        ("weights-negative", changed(weights=[-w for w in base["weights"]])),
        ("weights-sum", changed(weights=[0.5 * w for w in base["weights"]])),
        ("non-unit-node", changed(nodes=[[[2.0 * nodes[0][0][0]], nodes[0][1]], *nodes[1:]])),
        ("complex-field-real-coordinates", changed(field="C")),
        # an error repeats at most a few hundred characters of the entry it names
        ("coordinate-1e5-numbers", changed(nodes=[[list(range(10**5)), nodes[0][1]], *nodes[1:]])),
        ("weight-1e6-chars", changed(weights=["x" * 10**6, *base["weights"][1:]])),
        ("weights-1e6-chars", changed(weights="x" * 10**6)),
        ("field-1e6-chars", changed(field="x" * 10**6)),
        ("m-1e6-chars", changed(m="x" * 10**6)),
    ]
    for name, value in [("1e4000", 10**4000), ("1e4000+1", 10**4000 + 1)]:
        docs += [(f"weight-{name}", changed(weights=[value, *base["weights"][1:]])),
                 (f"coordinate-{name}", changed(nodes=[[[value], nodes[0][1]], *nodes[1:]]))]
    texts = [(label, json.dumps(doc)) for label, doc in docs]
    # an integer of 5001 digits, past int's 4300-digit limit; json.dumps cannot write it
    digits = "1" + "0" * 5000
    for label, doc in [("p", changed(p="DIGITS")), ("m", changed(m="DIGITS")),
                       ("weight", changed(weights=["DIGITS", *base["weights"][1:]])),
                       ("coordinate", changed(nodes=[[["DIGITS"], nodes[0][1]], *nodes[1:]]))]:
        texts.append((f"{label}-5001-digits", json.dumps(doc).replace('"DIGITS"', digits)))
    # nesting past the decoder's recursion limit; json.dumps cannot write it
    for depth in (1000, 10**5):
        deep = "[" * depth + "1.0" + "]" * depth
        texts += [(f"nodes-nested-{depth}", json.dumps(base)[:-1] + f', "nodes": {deep}}}'),
                  (f"weights-nested-{depth}", json.dumps(base)[:-1] + f', "weights": {deep}}}')]
    return texts


CORPUS = corpus_docs()


class TestBadPointSetFiles:
    """A generated corpus of bad files: each is exit 2, stdout empty and one `error:` line."""

    def test_the_base_file_passes(self, capsys, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(corpus_base()))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "") and out.startswith("PASS")

    @pytest.mark.parametrize("text", [text for _, text in CORPUS], ids=[name for name, _ in CORPUS])
    def test_one_error_line(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = outcome(capsys, main, ["verify", str(path)])  # a traceback would raise
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err[:500]  # no usage line
        # an echoed entry is cut to 200 characters and "..."
        assert len(err.replace(str(path), "")) <= 300, err[:500]

    def test_a_long_entry_is_cut_to_an_ellipsis(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(corpus_base() | {"weights": ["x" * 10**6]}))
        code, out, err = outcome(capsys, main, ["verify", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: weights[0]: expected a JSON number, got '{'x' * 199}...\n"

    @pytest.mark.parametrize("text", [text for name, text in CORPUS if "5001-digits" in name],
                             ids=[name for name in dict(CORPUS) if "5001-digits" in name])
    def test_an_integer_past_the_digit_limit_is_invalid_json(self, capsys, tmp_path, text):
        path = tmp_path / "digits.json"
        path.write_text(text)
        code, out, err = outcome(capsys, main, ["verify", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: invalid JSON: Exceeds the limit (4300 digits)"), err

    def test_bytes_not_utf8_are_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        text = json.dumps(corpus_base() | {"field": "\xd8"}, ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))  # the byte 0xd8 alone is not UTF-8
        code, out, err = outcome(capsys, main, ["verify", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: invalid JSON: 'utf-8' codec can't decode"), err
        assert err.count("\n") == 1

    def test_nesting_past_the_decoder_is_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"field": "R", "m": 2, "p": 10, "nodes": ' + "[" * 1000 + "]" * 1000 + "}")
        code, out, err = outcome(capsys, main, ["verify", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: invalid JSON: nested too deeply to decode\n"


class TestHugeArguments:
    """Arguments past what a list, an index or a float can hold: exit 2 and no traceback."""

    @pytest.mark.parametrize("m_max", [10**20, 2**62])  # no host can hold these lists
    def test_asym_m_max_past_memory_names_the_flag(self, capsys, m_max):
        code, out, err = outcome(capsys, main, ["asym", "--field", "H", "--m-max", str(m_max)])
        assert (code, out) == (2, "")
        usage, error = err.splitlines()  # argparse's usage line, then the error
        assert usage.startswith("usage: projbound ")
        assert error == f"projbound: error: --m-max must fit in memory as a table, got {m_max}"

    @pytest.mark.parametrize("p_max", [2**62, 2**70])
    def test_table_p_max_past_memory_names_the_flag(self, capsys, p_max):
        argv = ["table", "--field", "C", "--m", "2", "--p-min", "2", "--p-max", str(p_max)]
        with deadline(60):  # a loop over every even p up to p_max would not return
            code, out, err = outcome(capsys, main, argv)
        assert (code, out) == (2, "")
        usage, error = err.splitlines()
        assert usage.startswith("usage: projbound ")
        assert error == f"projbound: error: --p-max must fit in memory as a table, got {p_max}"

    @pytest.mark.parametrize("command", ["bound", "table", "testfn"])
    def test_m_past_the_float_range_is_one_error_line(self, capsys, command):
        # alpha = (delta (m-1) - 2) / 2 is past the float range
        m = 10**400
        argv = [command, "--field", "H", "--m", str(m)]
        argv += {"bound": ["--p", "4"], "table": ["--p-min", "2", "--p-max", "4"],
                 "testfn": ["--l", "2"]}[command]
        code, out, err = outcome(capsys, main, argv)
        assert (code, out) == (2, "")
        assert err == f"error: alpha past the float range for field=H, m={str(m)[:200]}...\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--field", "C", "--m", str(10**17), "--p", "4"],
            ["bound", "--field", "H", "--m", str(10**16), "--p", "4"],
            ["testfn", "--field", "C", "--m", str(10**20), "--l", "2"],
        ],
        ids=["bound-C", "bound-H", "testfn-C"],
    )
    def test_newton_step_past_the_float_range_is_one_error_line(self, capsys, argv):
        # P_k' underflows to 0 at these alpha: the Newton step was a ZeroDivisionError
        raised = field_params(Field.parse(argv[2]), int(argv[4])).raised()
        code, out, err = outcome(capsys, main, argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: Newton step not finite at alpha={raised.alpha}, beta={raised.beta}, k=2\n"
        )

    @pytest.mark.parametrize("exponent", [160, 300])
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_coefficients_past_the_float_range_are_one_error_line(self, capsys, field, exponent):
        # alpha fits a float, but the recurrence's products of three such sums do not
        m = 10**exponent
        raised = field_params(Field.parse(field), m).raised()
        want = (f"Jacobi coefficients past the float range at alpha={raised.alpha}, "
                f"beta={raised.beta}, k=2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = outcome(capsys, main, ["bound", "--field", field, "--m", str(m),
                                                    "--p", "4"])
            assert (code, out, err) == (2, "", f"error: {want}\n")
            with pytest.raises(NumericalError) as exc:
                bounds.yudin_bound(Field.parse(field), m, 4)
        assert str(exc.value) == want


#: a valid request of each command, by option string or positional name; the bad argv change it
ARGV_BASE = {
    "bound": {"--field": "C", "--m": "3", "--p": "4"},
    "table": {"--field": "C", "--m": "3", "--p-min": "2", "--p-max": "6"},
    "verify": {"file": str(REPO_ROOT / "demos" / "data" / "circle_r_p10.json")},
    "asym": {"--field": "C", "--m-max": "5"},
    "testfn": {"--field": "C", "--m": "3", "--l": "2"},
}

#: int options whose value must be even, and the generated changes that are valid requests
EVEN_OPTIONS = {"--p", "--p-min", "--p-max"}
VALID_CHANGES = {("testfn", "--l", "1")}


def as_argv(command: str, request: dict) -> list:
    """argv of `command` with each option and its value, or a positional's value, in order."""
    return [command, *(t for key, value in request.items()
                       for t in ((key, value) if key.startswith("-") else (value,)))]


def argv_corpus():
    """(id, argv) of bad requests, generated from the option tables `cli._parser()` builds.

    Each required option or positional dropped; each int option given x, 1.5, -3, 0, 1, 2**70,
    10**300, 10**400, 10**4000, 10**4000+1 and 5000 ones, and 3 where it must be even; each
    float option nan, inf, -1, 0, 1e400 and 5000 x's; each option with choices a value outside
    them, and 5000 x's; and an extra token of 5000 x's after the whole request.
    """
    corpus = []
    for command, (options, _, required, _) in cli._parser()[1].items():
        base = ARGV_BASE[command]
        corpus.append((f"{command}-extra-5000-chars", [*as_argv(command, base), "x" * 5000]))
        for action in required:
            key = (action.option_strings or [action.dest])[0]
            dropped = {k: v for k, v in base.items() if k != key}
            corpus.append((f"{command}-without-{key.lstrip('-')}", as_argv(command, dropped)))
        for option, action in options.items():
            if action.type is int:
                values = {v[:6]: v for v in ["x", "1.5", "-3", "0", "1", str(2**70), str(10**400)]}
                values |= {"1e300": str(10**300), "1e4000": str(10**4000),
                           "1e4000+1": str(10**4000 + 1), "5000-chars": "1" * 5000}
                values |= {"3": "3"} if option in EVEN_OPTIONS else {}
            elif action.type is float:
                values = {v: v for v in ["nan", "inf", "-1", "0", "1e400"]}
                values |= {"5000-chars": "x" * 5000}
            else:
                values = {} if action.choices is None else {"Q": "Q", "5000-chars": "x" * 5000}
            corpus += [(f"{command}{option}={name}", as_argv(command, base | {option: value}))
                       for name, value in values.items()
                       if (command, option, value) not in VALID_CHANGES]
    return corpus


ARGV_CORPUS = argv_corpus()


def usage_block(capsys, argv) -> str:
    """The usage lines argparse prints for argv: the head of its -h output."""
    code, text, _ = outcome(capsys, main, [*argv, "-h"])
    assert code == 0
    return text.split("\n\n", 1)[0] + "\n"


class TestBadArgv:
    """A generated corpus of bad argv: each is exit 2, stdout empty, and argparse's usage and
    one `error:` line, or a single `error:` line where the library raises NumericalError."""

    def test_the_base_requests_and_valid_changes_pass(self, capsys):
        requests = [as_argv(command, base) for command, base in ARGV_BASE.items()]
        requests += [as_argv(c, ARGV_BASE[c] | {o: v}) for c, o, v in VALID_CHANGES]
        for argv in requests:
            code, out, _ = outcome(capsys, main, argv)
            assert code == 0 and out, argv
        assert {argv[0] for _, argv in ARGV_CORPUS} == set(cli._parser()[1])

    @pytest.mark.parametrize("argv", [a for _, a in ARGV_CORPUS], ids=[i for i, _ in ARGV_CORPUS])
    def test_usage_and_one_error_line(self, capsys, argv):
        usages = {"projbound": usage_block(capsys, []),
                  f"projbound {argv[0]}": usage_block(capsys, argv[:1])}
        with deadline(60):  # a hang fails here
            code, out, err = outcome(capsys, main, argv)  # a traceback would raise
        assert (code, out) == (2, "")
        *usage, error = err.splitlines(keepends=True)
        assert len(error) <= 300, error[:500]  # an echoed value is cut to 200 characters
        if usage:  # argparse's: the usage of the parser that failed, then prog: error: ...
            prog, _, message = error.partition(": error: ")
            assert "".join(usage) == usages[prog] and message.count("\n") == 1, err
        else:  # the library's NumericalError
            assert error.startswith("error: ") and error.endswith("\n"), err


    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--p", "1" * 5000, "argument --p: invalid int value: '" + "1" * 199 + "..."),
            ("--p", "1x", "argument --p: invalid int value: '1x'"),
            ("--format", "x" * 5000, "argument --format: invalid choice: '" + "x" * 199 + "..."),
            ("--format", "x",
             "argument --format: invalid choice: 'x' (choose from 'text', 'json')"),
        ],
        ids=["int-5000", "int-short", "choice-5000", "choice-short"],
    )
    def test_a_long_value_is_cut_and_a_short_one_kept(self, capsys, option, value, message):
        # a cut value's message ends at it: the usage line above lists the choices
        argv = as_argv("bound", ARGV_BASE["bound"] | {option: value})
        code, out, err = outcome(capsys, main, argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"projbound bound: error: {message}"


    @pytest.mark.parametrize(
        "extra, message",
        [(["x" * 5000], "x" * 200 + "..."), (["extra"], "extra"),
         (["extra", "x" * 5000], "extra " + "x" * 200 + "...")],
        ids=["extra-5000", "extra-short", "short-and-5000"],
    )
    def test_a_long_extra_token_is_cut_and_a_short_one_kept(self, capsys, extra, message):
        argv = [*as_argv("bound", ARGV_BASE["bound"]), *extra]
        code, out, err = outcome(capsys, main, argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"projbound: error: unrecognized arguments: {message}"


class TestAsymCommand:
    def test_real_m2_row_has_unit_kappa(self, capsys):
        code, out, _ = run(capsys, "asym", "--field", "R", "--m-max", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("m,nu,")
        row = lines[2].split(",")
        assert row[0] == "2"
        assert float(row[3]) == pytest.approx(1.0, abs=1e-10)

    def test_complex_large_m_completes_in_log_domain(self, capsys):
        code, out, _ = run(capsys, "asym", "--field", "C", "--m-max", "200")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2 + 199
        last = lines[-1].split(",")
        # kappa underflows to 0 but its log stays finite and decreasing
        assert float(last[4]) < -100.0
        assert all(math.isfinite(float(v)) for v in last[4:])

    def test_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["asym", "--field", "R", "--m-max", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("m_max", [2, 3, 300])
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_bytes_match_the_per_row_loop(self, capsys, field, m_max):
        # H at m-max 300 reaches nu = 598
        code, out, _ = run(capsys, "asym", "--field", field, "--m-max", str(m_max))
        assert code == 0
        assert out.encode() == asym_expected(field, m_max)

    def test_builds_no_row_objects(self, capsys, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("asym built an AsymptoticRow")

        monkeypatch.setattr(AsymptoticRow, "__init__", refuse)
        with pytest.raises(AssertionError):
            asymptotic_report(Field.H, [2])
        code, out, _ = run(capsys, "asym", "--field", "H", "--m-max", "300")
        assert code == 0
        assert len(out.splitlines()) == 2 + 299


class TestAsymRowMemo:
    """asym's bytes are the same whether the row memo is empty, partly or fully warm."""

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_cold_and_warm_bytes_match_the_per_row_loop(self, capsys, field):
        clear_asym_row_memo()
        for m_max in (300, 2, 150, 301, 3, 300):
            code, out, _ = run(capsys, "asym", "--field", field, "--m-max", str(m_max))
            assert code == 0
            assert out.encode() == asym_expected(field, m_max)

    def test_out_file_cold_and_warm(self, capsys, tmp_path):
        clear_asym_row_memo()
        for name in ("cold.csv", "warm.csv"):
            argv = ("asym", "--field", "C", "--m-max", "120", "--out", str(tmp_path / name))
            assert run(capsys, *argv)[:2] == (0, "")
            assert (tmp_path / name).read_bytes() == asym_expected("C", 120)

    def test_concurrent_requests(self, tmp_path):
        clear_asym_row_memo()
        m_maxes = (300, 40, 300, 40)
        paths = [tmp_path / f"asym_{i}.csv" for i in range(len(m_maxes))]
        codes = [None] * len(m_maxes)

        def request(i):
            argv = ["asym", "--field", "H", "--m-max", str(m_maxes[i]), "--out", str(paths[i])]
            codes[i] = main(argv)

        threads = [threading.Thread(target=request, args=(i,)) for i in range(len(m_maxes))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often inside each request
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert codes == [0] * len(m_maxes)
        assert {(Field.H, m) for m in range(2, 301)} <= bounds._ASYM_ROWS.keys()
        for path, m_max in zip(paths, m_maxes):
            assert path.read_bytes() == asym_expected("H", m_max)


class TestCsvWriter:
    """_write_csv prints each cell as _fmt does, whatever the mix of cell types in a column."""

    ROWS = [
        (1, True, 2**70, np.int64(10**13), np.float64(0.1), math.inf, 2.5),
        (-3, False, -(2**70), np.int64(-7), -math.inf, math.nan, 4),  # float -> int
        (0.0, -0.0, 5e-324, 0.1 + 0.2, np.float64(-0.0), 1e300, 7.0),  # int -> float
        (1, True, 2**70, np.int64(10**13), np.float64(0.1), math.inf, 2.5),  # first again
        (2**53 + 1, 1.0, 123456789012345678, np.float64(1e-310), 3, -1, 1e16),
    ]

    def test_lines_match_fmt(self, capsys):
        assert cli._write_csv("test v1", "a,b,c,d,e,f,g", zip(*self.ROWS), None) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["# projbound test v1 columns=a,b,c,d,e,f,g", "a,b,c,d,e,f,g"]
        assert lines[2:] == [",".join(cli._fmt(v) for v in row) for row in self.ROWS]

    def test_columns_of_one_kind(self, capsys):
        ints = [0, -1, True, 2**70, -(2**70)]
        floats = [-0.0, math.nan, -math.inf, np.float64(1e-310), np.int64(10**13)]
        assert cli._write_csv("test v1", "a,b", (ints, floats), None) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:] == [f"{cli._fmt(a)},{cli._fmt(b)}" for a, b in zip(ints, floats)]

    def test_row_of_one_cell(self, capsys):
        cli._write_csv("test v1", "a", [(7, 7.0, -0.0)], None)
        assert capsys.readouterr().out.splitlines()[2:] == ["7", "7", "-0"]


class TestTestfnCommand:
    def test_complex_m2_l1_has_negative_c2(self, capsys):
        code, out, _ = run(capsys, "testfn", "--field", "C", "--m", "2", "--l", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "k,c_h,c_g,c_f"
        row = {int(l.split(",")[0]): l.split(",") for l in lines[2:]}
        assert float(row[2][3]) == 0.0  # c_r[f] vanishes, r = 2
        assert float(row[3][3]) < 0.0  # first strictly negative tail entry
        assert len(lines) == 2 + 201

    def test_kmax_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["testfn", "--field", "C", "--m", "2", "--l", "5", "--kmax", "6"])
        assert exc.value.code == 2
        # the error names the flag, as the series-tail advisory does
        assert capsys.readouterr().err.splitlines()[-1] == (
            "projbound: error: --kmax must be >= l+2, got 6 (l=5)"
        )

    def test_kmax_past_numpy_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["testfn", "--field", "R", "--m", "2", "--l", "1", "--kmax", str(2**70)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"projbound: error: --kmax must fit in memory as a table, got {2**70}"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "field,m,l",
        # ("H", 520, 40) meets the tail rule's error: its weights overflow at alpha = 1037
        [("H", 280, 2), ("H", 550, 2), ("C", 516, 1), ("H", 520, 40)],
    )
    def test_past_the_float_range_is_one_error_line(self, capsys, field, m, l):
        # these printed NaN or overflow-zeroed tables with exit 0, or ended in a traceback
        code, out, err = run(capsys, "testfn", "--field", field, "--m", str(m), "--l", str(l))
        assert (code, out) == (2, "")
        assert err == (
            f"error: test function (field={field}, m={m}, l={l}): "
            "coefficients past the float range\n"
        )

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "coeffs.csv"
        code, out, _ = run(
            capsys, "testfn", "--field", "H", "--m", "2", "--l", "2", "--kmax", "20",
            "--out", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("# projbound testfn v1 field=H m=2 l=2")

    @pytest.mark.parametrize("action", ["default", "ignore", "error"])
    def test_short_kmax_is_one_stderr_line_naming_the_flag(self, capsys, action):
        # the caller's warning filter changes neither the line nor stdout
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            code, out, err = run(capsys, "testfn", "--field", "H", "--m", "2", "--l", "4")
            golden = run(capsys, "testfn", "--field", "C", "--m", "2", "--l", "1")
        assert code == 0
        assert out.startswith("# projbound testfn v1 field=H m=2 l=4 ") and out.count("\n") == 203
        assert err == (
            "warning: test function (field=H, m=2, l=4): series tail estimate 2.149e-09 "
            "exceeds 1e-12 * f(1) = 5.862e-14; increase --kmax\n"
        )
        assert golden[0] == 0 and golden[2] == ""
        assert golden[1].encode("utf-8") == (GOLDEN_DIR / "testfn_c_m2_l1.out").read_bytes()


class TestParserReuse:
    """main builds its parser once; later calls print exactly what a first call does."""

    CALLS = [
        ["bound", "--field", "C", "--m", "3", "--p", "12"],
        ["bound", "--field", "R", "--m", "2", "--p", "7"],  # error from the library: exit 2
        ["bound", "--field", "Q", "--m", "2", "--p", "4"],  # error from argparse: exit 2
        ["table", "--help"],
        ["testfn", "--field", "H", "--m", "2", "--l", "1", "--kmax", "4"],
        ["bound", "--field", "C", "--m", "3", "--p", "12", "extra"],  # exit 2
        ["bound", "--field", "C", "--m", "3", "--p", "12"],
    ]

    def test_calls_in_a_row_match_first_calls(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
        alone = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            alone.append(outcome(capsys, main, argv))
        cli._parser.cache_clear()
        in_a_row = [outcome(capsys, main, argv) for argv in self.CALLS]
        assert in_a_row == alone
        assert [code for code, _, _ in alone] == [0, 2, 2, 0, 0, 2, 0]
        assert build_parser() is not build_parser()


def argparse_route(argv):
    """A request through the whole top-level parser, as main runs any argv it cannot read plain."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        parser.error(str(exc))
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_process(*argv, **kwargs):
    """`python -m projbound.cli argv`, importing this checkout's package, stdout block-buffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env |= {"PYTHONPATH": str(REPO_ROOT / "src"), "COLUMNS": "80"}
    return subprocess.Popen([sys.executable, "-m", "projbound.cli", *argv], env=env, **kwargs)


class TestDispatch:
    """main prints what the top-level parser's route prints, for help, usage errors,
    unknown commands and the commands' own errors: the option table reads the plain argv
    among them, and main gives the others to the top-level parser."""

    BOUND = ["--field", "C", "--m", "3", "--p", "12"]
    ARGVS = [
        [], ["nope"], ["bo", *BOUND], ["-h"], ["--help"], ["-x"],
        ["bound"], ["bound", "x"], ["bound", "-h"],
        ["bound", *BOUND, "extra"], ["bound", *BOUND, "--", "x"], ["--", "bound", *BOUND],
        ["bound", "--field=C", "--m", "3", "--p", "12"],
        ["bound", "--fi", "C", "--m", "3", "--p", "12"],
        ["bound", "--field", "C", "--m", "-3", "--p", "12"],
        ["bound", *BOUND, "--format", "json", "--format", "text"],
        ["bound", *BOUND, "--bogus"],
        ["table", "--field", "R", "--p-min", "10", "--p-max", "4"],
        ["verify"],
        ["asym", "--field", "C", "--m-max", "1"],
        ["testfn", "--field", "C", "--m", "2", "--l", "1", "--kmax", "2"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) or "empty" for a in ARGVS])
    def test_matches_the_argparse_route(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
        assert outcome(capsys, main, argv) == outcome(capsys, argparse_route, argv)

    def test_process_argv(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in (["bound", *self.BOUND], ["nope"]):
            proc = cli_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            out, err = proc.communicate(timeout=60)
            assert (proc.returncode, out, err) == outcome(capsys, argparse_route, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", *BOUND],  # held in stdout's buffer until main flushes it
            ["table", "--field", "H", "--p-min", "2", "--p-max", "1200"],
            ["asym", "--field", "H", "--m-max", "300"],
        ],
        ids=["bound", "table", "asym"],
    )
    def test_closed_stdout_exits_1_quietly(self, argv):
        proc = cli_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before the first write
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    @pytest.mark.parametrize("argv", [["-h"], ["table", "-h"]], ids=["-h", "table -h"])
    def test_help_into_closed_stdout_exits_0_quietly(self, argv):
        # argparse's help waits in stdout's buffer when argparse exits: main flushes it
        proc = cli_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")


#: a valid value for each declared option that has neither choices nor a flag's
#: const; OUT stands for a file in the test's working directory
OUT = "<out>"
VALUES = {
    "m": "2", "p": "12", "p_min": "2", "p_max": "4", "m_max": "4", "l": "1", "kmax": "20",
    "tol": "1e-9", "out": OUT, "file": str(REPO_ROOT / "demos" / "data" / "circle_r_p10.json"),
}


def declared_argvs():
    """(label, argv) of each command, generated from the options its table declares.

    Canonical and shuffled order, then each option dropped, given a bad type,
    a bad choice, a negative value, no value, twice, as --opt=value and
    abbreviated, then an extra token, "--" and -h.
    """
    rng = np.random.default_rng(0)
    cases = []
    for name, (options, positionals, _, _) in cli._build_parsers()[1].items():
        actions = positionals + list(dict.fromkeys(options.values()))  # each once, in order
        values = [a.choices[-1] if a.choices else VALUES.get(a.dest) for a in actions]
        units = [a.option_strings[:1] + ([] if a.nargs == 0 else [value])
                 for a, value in zip(actions, values)]

        def argv(*parts):
            return [name, *(token for unit in parts for token in unit)]

        cases += [("canonical", argv(*units)),
                  ("shuffled", argv(*(units[i] for i in rng.permutation(len(units)))))]
        for i, (action, value) in enumerate(zip(actions, values)):
            others = units[:i] + units[i + 1:]
            cases.append((f"drop {action.dest}", argv(*others)))
            if not action.option_strings:
                continue
            option = action.option_strings[0]
            cases += [(f"twice {option}", argv(*units, units[i])),
                      (f"abbreviated {option}", argv(*others, [option[:-1], *units[i][1:]]))]
            if action.nargs == 0:
                continue
            cases += [(f"{option} x", argv(*others, [option, "x"])),
                      (f"{option} -3", argv(*others, [option, "-3"])),
                      (f"{option} missing", argv(*others, [option])),
                      (f"{option}=value", argv(*others, [f"{option}={value}"]))]
        cases += [("extra", argv(*units, ["extra"])), ("-- last", argv(*units, ["--"])),
                  ("-- first", argv(["--"], *units)), ("-h last", argv(*units, ["-h"])),
                  ("-h", argv(["-h"]))]
    return cases


DECLARED_ARGVS = declared_argvs()


class TestPlainRequests:
    """main reads a plain request from its command's table and prints what argparse printed."""

    @pytest.mark.parametrize(
        "label, argv", DECLARED_ARGVS, ids=[f"{a[0]} {label}" for label, a in DECLARED_ARGVS]
    )
    def test_matches_the_argparse_route(self, capsys, monkeypatch, tmp_path, label, argv):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
        monkeypatch.chdir(tmp_path)  # a bad --out value is a file name too
        argv = [token.replace(OUT, "out") for token in argv]
        assert outcome(capsys, main, argv) == outcome(capsys, argparse_route, argv)
        plain = cli._read_plain(cli._parser()[1][argv[0]], argv[1:])
        if label in ("canonical", "shuffled"):
            assert plain is not None
        if plain is not None:
            assert vars(plain) == vars(build_parser().parse_args(argv))

    def test_non_str_token_raises_as_argparse_does(self):
        argv = ["bound", "--field", "C", "--m", 3, "--p", "12"]
        with pytest.raises(TypeError) as read:
            main(argv)
        with pytest.raises(TypeError) as parsed:
            argparse_route(argv)
        assert str(read.value) == str(parsed.value)

    def test_benchmark_requests_take_the_table(self, capsys, monkeypatch, tmp_path):
        # every argv shape the benchmark's workloads emit is read without argparse
        monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
        import workloads
        shapes = {}
        for workload in workloads.WORKLOADS:
            for request in workloads.make_block(workload, 1, str(tmp_path)):
                argv = request["argv"]
                shapes.setdefault(tuple(t for t in argv if t.startswith("-")), argv)

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a benchmark request")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert len(shapes) == 5
        for argv in shapes.values():
            assert main(argv) in (0, 1), argv  # verify exits 1 on a known-FAIL set
        capsys.readouterr()


class TestLargestRootMemo:
    """Requests that need the same xi solve it once per process."""

    @pytest.fixture
    def dstebz_calls(self, monkeypatch):
        import scipy.linalg.lapack

        calls, solve = [], scipy.linalg.lapack.dstebz

        def counting(d, *args):
            calls.append(d.size)
            return solve(d, *args)

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", counting)
        return calls

    def test_bound_then_testfn_solve_one_root(self, capsys, dstebz_calls):
        clear_largest_root_memo()
        assert run(capsys, "bound", "--field", "C", "--m", "3", "--p", "40")[0] == 0
        assert run(capsys, "testfn", "--field", "C", "--m", "3", "--l", "20")[0] == 0
        assert dstebz_calls == [20]

    def test_repeated_table_solves_no_root(self, capsys, dstebz_calls):
        argv = ("table", "--field", "H", "--m", "2", "--p-min", "2", "--p-max", "40")
        clear_largest_root_memo()
        first = run(capsys, *argv)
        assert dstebz_calls == list(range(2, 21))  # p = 4..40; p = 2 needs no eigenvalue
        assert run(capsys, *argv) == first
        assert dstebz_calls == list(range(2, 21))


class TestGoldenOutput:
    """The README's CLI invocations print exactly the recorded bytes and exit codes."""

    @pytest.mark.filterwarnings("error")  # a stray warning fails the recording too
    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
    def test_bytes_match_recording(self, capsys, monkeypatch, case):
        monkeypatch.chdir(REPO_ROOT)  # verify paths in the README are repo-relative
        code, out, err = run(capsys, *case["argv"])
        assert code == case["exit"]
        assert out.encode("utf-8") == (GOLDEN_DIR / f"{case['name']}.out").read_bytes()
        assert err == ""


class TestImport:
    def test_cli_import_builds_no_parser(self):
        # the parsers and their option tables are built by the first main call,
        # so they add nothing to import time
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        code = "import projbound.cli as cli; print(cli._parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        # scipy.linalg is imported where it is used, so it adds nothing to the
        # start-up of a command that never needs it
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        code = "import sys, projbound.cli; print('scipy.linalg' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

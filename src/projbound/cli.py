"""Command-line front end: bounds, tables, asymptotics, verification.

Subcommands:
    bound   one (field, m, p): both lower bounds plus the root data
    table   rows over a range of even p, as csv / markdown / json
    verify  moment-test a point-set JSON file against the bounds
    asym    large-m comparison of the asymptotic constants
    testfn  dump the test-function coefficient tables as CSV

All numeric output uses 12 significant digits; integers print exactly.  CSV
output begins with a versioned schema comment so table diffs stay stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bounds import (
    asymptotic_report,
    lp_bound_h_alt,
    yudin_bound,
)
from .cubature import load_point_set, verify
from .fields import Field
from .testfn import build_test_function

_TABLE_SCHEMA = "p,lp_bound,yudin_raw,yudin_bound,delta"
_ASYM_SCHEMA = (
    "m,nu,bessel_zero,kappa,log_kappa,log_kappa_approx,log_ratio,"
    "lp_liminf_log,testfn_liminf_log,gap_factor_log"
)
_TESTFN_SCHEMA = "k,c_h,c_g,c_f"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_bound(args) -> int:
    report = yudin_bound(Field.parse(args.field), args.m, args.p)
    delta = report.yudin_bound - report.lp_bound
    if args.format == "json":
        doc = report.to_dict()
        doc["delta"] = delta
        print(json.dumps(doc))
    else:
        print(f"field {report.field.name}  m {report.m}  p {report.p}")
        print(f"lp_bound     {report.lp_bound}")
        print(f"yudin_raw    {_fmt(report.yudin_raw)}")
        print(f"yudin_bound  {report.yudin_bound}")
        print(f"delta        {delta}")
        print(f"xi           {_fmt(report.xi)}")
        print(f"epsilon      {_fmt(report.epsilon)}")
    return 0


def _table_row(field: Field, m: int, p: int) -> dict:
    rep = yudin_bound(field, m, p)
    return {
        "p": p,
        "lp_bound": rep.lp_bound,
        "yudin_raw": rep.yudin_raw,
        "yudin_bound": rep.yudin_bound,
        "delta": rep.yudin_bound - rep.lp_bound,
    }


def cmd_table(args, parser) -> int:
    if args.p_min > args.p_max:
        parser.error(f"empty range: p-min {args.p_min} > p-max {args.p_max}")
    if args.p_min % 2 or args.p_max % 2 or args.p_min < 2:
        parser.error("p-min and p-max must be even integers >= 2")
    field = Field.parse(args.field)
    rows = [_table_row(field, args.m, p) for p in range(args.p_min, args.p_max + 1, 2)]
    verbose_alt = args.verbose and field is Field.H and args.m == 2
    if verbose_alt:
        for row in rows:
            row["lp_alt"] = lp_bound_h_alt(row["p"])

    schema = _TABLE_SCHEMA + (",lp_alt" if verbose_alt else "")
    columns = schema.split(",")
    if args.format == "csv":
        lines = [f"# projbound table v1 field={field.name} m={args.m} columns={schema}"]
        lines.append(schema)
        for row in rows:
            lines.append(
                ",".join(_fmt(row[c]) if c == "yudin_raw" else str(row[c]) for c in columns)
            )
        text = "\n".join(lines) + "\n"
    elif args.format == "markdown":
        lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
        for row in rows:
            lines.append(
                "| "
                + " | ".join(_fmt(row[c]) if c == "yudin_raw" else str(row[c]) for c in columns)
                + " |"
            )
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"field": field.name, "m": args.m, "rows": rows}) + "\n"
    return _write_output(text, args.out)


def cmd_verify(args, parser) -> int:
    try:
        ps, p = load_point_set(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = verify(ps, p, args.tol)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: field {report.field.name} m {report.m} p {report.p} n {report.n}  "
        f"max|M_k| {_fmt(report.max_abs_moment)} (tol {_fmt(report.tolerance)})"
    )
    print(
        f"lp_bound {report.lp_bound}{' (tight)' if report.tight_lp else ''}  "
        f"yudin_bound {report.yudin_bound}{' (tight)' if report.tight_yudin else ''}"
    )
    if report.duplicates:
        print(f"warning: projectively coincident node pairs: {list(report.duplicates)}")
    if args.verbose:
        for k, m_k in enumerate(report.moments, start=1):
            print(f"M_{k} = {_fmt(m_k)}")
        print(report.note)
    return 0 if report.passed else 1


def cmd_asym(args, parser) -> int:
    field = Field.parse(args.field)
    if args.m_max < 2:
        parser.error("m-max must be >= 2")
    rows = asymptotic_report(field, range(2, args.m_max + 1))
    lines = [f"# projbound asym v1 field={field.name} columns={_ASYM_SCHEMA}"]
    lines.append(_ASYM_SCHEMA)
    for r in rows:
        lines.append(
            ",".join(
                [str(r.m)]
                + [
                    _fmt(v)
                    for v in (
                        r.nu,
                        r.bessel_zero,
                        r.kappa,
                        r.log_kappa,
                        r.log_kappa_approx,
                        r.log_ratio,
                        r.lp_liminf_log,
                        r.testfn_liminf_log,
                        r.gap_factor_log,
                    )
                ]
            )
        )
    return _write_output("\n".join(lines) + "\n", args.out)


def cmd_testfn(args, parser) -> int:
    if args.kmax < args.l + 2:
        parser.error(f"kmax must be >= l+2 = {args.l + 2}")
    tf = build_test_function(Field.parse(args.field), args.m, args.l, args.kmax)
    lines = [
        f"# projbound testfn v1 field={tf.field.name} m={tf.m} l={tf.l} "
        f"xi={_fmt(tf.xi)} columns={_TESTFN_SCHEMA}"
    ]
    lines.append(_TESTFN_SCHEMA)
    for k in range(tf.k_max + 1):
        lines.append(
            f"{k},{_fmt(tf.coeff_h[k])},{_fmt(tf.coeff_g[k])},{_fmt(tf.coeff_f[k])}"
        )
    return _write_output("\n".join(lines) + "\n", args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projbound",
        description=(
            "Lower bounds for projective cubature formulas / isometric embeddings, "
            "and a moment-test verifier for candidate designs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bound", help="both lower bounds for one (field, m, p)")
    pb.add_argument("--field", required=True, choices=["R", "C", "H"])
    pb.add_argument("--m", type=int, required=True, help="number of coordinates, >= 2")
    pb.add_argument("--p", type=int, required=True, help="even cubature index, >= 2")
    pb.add_argument("--format", choices=["text", "json"], default="text")

    pt = sub.add_parser("table", help="bound table over a range of even p")
    pt.add_argument("--field", required=True, choices=["R", "C", "H"])
    pt.add_argument("--m", type=int, default=2)
    pt.add_argument("--p-min", type=int, required=True)
    pt.add_argument("--p-max", type=int, required=True)
    pt.add_argument("--out", default=None, help="output path (default: stdout)")
    pt.add_argument("--format", choices=["csv", "markdown", "json"], default="csv")
    pt.add_argument(
        "--verbose",
        action="store_true",
        help="for field H, m=2: include the variant LP column lp_alt",
    )

    pv = sub.add_parser("verify", help="moment-test a point-set JSON file")
    pv.add_argument("file", help="point-set JSON file")
    pv.add_argument(
        "--tol",
        type=float,
        default=None,
        help="absolute tolerance on |M_k| (default: 1e-10 scaled by node count)",
    )
    pv.add_argument("--verbose", action="store_true", help="print every moment and notes")

    pa = sub.add_parser(
        "asym",
        help=f"asymptotic-constant comparison per m; CSV columns: {_ASYM_SCHEMA}",
    )
    pa.add_argument("--field", required=True, choices=["R", "C", "H"])
    pa.add_argument("--m-max", type=int, required=True)
    pa.add_argument("--out", default=None)

    pf = sub.add_parser(
        "testfn",
        help=f"dump test-function coefficients; CSV columns: {_TESTFN_SCHEMA}",
    )
    pf.add_argument("--field", required=True, choices=["R", "C", "H"])
    pf.add_argument("--m", type=int, required=True)
    pf.add_argument("--l", type=int, required=True, help="degree parameter (p/2)")
    pf.add_argument("--kmax", type=int, default=200)
    pf.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bound":
            if args.p < 2 or args.p % 2:
                parser.error("p must be a positive even integer")
            if args.m < 2:
                parser.error("m must be >= 2")
            return cmd_bound(args)
        if args.command == "table":
            return cmd_table(args, parser)
        if args.command == "verify":
            return cmd_verify(args, parser)
        if args.command == "asym":
            return cmd_asym(args, parser)
        if args.command == "testfn":
            return cmd_testfn(args, parser)
    except ValueError as exc:
        parser.error(str(exc))
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: bounds, tables, asymptotics, verification.

Subcommands:
    bound   one (field, m, p): both lower bounds plus the root data
    table   rows over a range of even p, as csv / markdown / json
    verify  moment-test a point-set JSON file against the bounds
    asym    large-m comparison of the asymptotic constants
    testfn  dump the test-function coefficient tables as CSV

A plain request (exact option strings with values not starting with "-",
flags and positionals, each once, every value valid) is read from its
command's option table; the top-level parser parses any other argv (help,
abbreviations, --opt=value, "--", repeats, negative, missing or bad values,
extra tokens, a missing or unknown command), with argparse's message and code.
All numeric output uses 12 significant digits; integers print exactly.  CSV
output begins with a versioned schema comment so table diffs stay stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bounds import _asymptotic_columns, lp_bound_h_alt, yudin_bound
from .cubature import _coincident_note, load_point_set, verify
from .fields import Field
from .jacobi import NumericalError, _shown
from .testfn import build_test_function

_TABLE_SCHEMA = "p,lp_bound,yudin_raw,yudin_bound,delta"
_ASYM_SCHEMA = (
    "m,nu,bessel_zero,kappa,log_kappa,log_kappa_approx,log_ratio,"
    "lp_liminf_log,testfn_liminf_log,gap_factor_log"
)
_TESTFN_SCHEMA = "k,c_h,c_g,c_f"


def _fmt(x) -> str:
    """One output cell: an integer exactly, a float to 12 significant digits."""
    return str(x) if isinstance(x, int) else f"{x:.12g}"


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


def _write_csv(comment: str, schema: str, columns, out_path) -> int:
    """The `# projbound <comment> columns=<schema>` line, the schema line, then the rows.

    Each column is a sequence of cells, printed with one % format: "%s" if
    every cell is an int, "%.12g" if none is, and _fmt cell by cell if the
    column mixes the two, so every cell keeps _fmt's rule.
    """
    formats, printed = [], []
    for column in columns:
        kinds = {issubclass(t, int) for t in set(map(type, column))}
        formats.append("%.12g" if kinds == {False} else "%s")
        printed.append(list(map(_fmt, column)) if len(kinds) > 1 else column)
    lines = [f"# projbound {comment} columns={schema}", schema]
    lines += map(",".join(formats).__mod__, zip(*printed))
    return _write_output("\n".join(lines) + "\n", out_path)


def cmd_bound(args) -> int:
    report = yudin_bound(Field.parse(args.field), args.m, args.p)
    if args.format == "json":
        print(json.dumps(report.to_dict() | {"delta": report.delta}))
    else:
        print(f"field {report.field.name}  m {report.m}  p {report.p}")
        for name in ("lp_bound", "yudin_raw", "yudin_bound", "delta", "xi", "epsilon"):
            print(f"{name:<13}{_fmt(getattr(report, name))}")
    return 0


def cmd_table(args) -> int:
    if args.p_min > args.p_max:
        raise ValueError(f"empty range: p-min {_shown(args.p_min)} > p-max {_shown(args.p_max)}")
    if args.p_min % 2 or args.p_max % 2 or args.p_min < 2:
        raise ValueError("p-min and p-max must be even integers >= 2")
    try:
        p_list = list(range(args.p_min, args.p_max + 1, 2))
    except (OverflowError, MemoryError):  # more p values than an index or memory holds
        got = _shown(args.p_max)
        raise ValueError(f"--p-max must fit in memory as a table, got {got}") from None
    field = Field.parse(args.field)
    columns = _TABLE_SCHEMA.split(",")
    rows = []
    for p in p_list:
        report = yudin_bound(field, args.m, p)
        rows.append({c: getattr(report, c) for c in columns})
    if args.verbose and field is Field.H and args.m == 2:
        columns.append("lp_alt")
        for row in rows:
            row["lp_alt"] = lp_bound_h_alt(row["p"])

    if args.format == "csv":
        return _write_csv(
            f"table v1 field={field.name} m={args.m}",
            ",".join(columns),
            zip(*(row.values() for row in rows)),
            args.out,
        )
    if args.format == "markdown":
        lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
        lines += ["| " + " | ".join(_fmt(v) for v in row.values()) + " |" for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"field": field.name, "m": args.m, "rows": rows}) + "\n"
    return _write_output(text, args.out)


def cmd_verify(args) -> int:
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
        print(f"warning: {_coincident_note(report.duplicates, report.duplicate_count)}")
    if args.verbose:
        for k, m_k in enumerate(report.moments, start=1):
            print(f"M_{k} = {_fmt(m_k)}")
        print(report.note)
    return 0 if report.passed else 1


def cmd_asym(args) -> int:
    field = Field.parse(args.field)
    if args.m_max < 2:
        raise ValueError("m-max must be >= 2")
    try:
        m_list = list(range(2, args.m_max + 1))
    except (OverflowError, MemoryError):  # more m values than an index or memory holds
        got = _shown(args.m_max)
        raise ValueError(f"--m-max must fit in memory as a table, got {got}") from None
    m, nu, zero, _residual, *rest = _asymptotic_columns(field, m_list)
    columns = (m, nu, zero, *rest)  # every field but the residual
    return _write_csv(f"asym v1 field={field.name}", _ASYM_SCHEMA, columns, args.out)


def cmd_testfn(args) -> int:
    try:
        tf = build_test_function(Field.parse(args.field), args.m, args.l, args.kmax)
    except ValueError as exc:  # the k_max checks name the library's argument: say --kmax
        raise ValueError(str(exc).replace("k_max must", "--kmax must")) from None
    limit = 1e-12 * tf.value_at_one
    if tf.series_tail_term > limit:  # the report carries the tail; its advisory is worded here
        where = f"test function (field={tf.field.name}, m={tf.m}, l={tf.l})"
        tail = f"series tail estimate {tf.series_tail_term:.3e} exceeds 1e-12 * f(1) = {limit:.3e}"
        print(f"warning: {where}: {tail}; increase --kmax", file=sys.stderr)
    return _write_csv(
        f"testfn v1 field={tf.field.name} m={tf.m} l={tf.l} xi={_fmt(tf.xi)}",
        _TESTFN_SCHEMA,
        (range(tf.k_max + 1), tf.coeff_h.tolist(), tf.coeff_g.tolist(), tf.coeff_f.tolist()),
        args.out,
    )


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a bad value past 200 characters is echoed as _shown cuts it."""

    def _get_values(self, action, arg_strings):
        try:
            return super()._get_values(action, arg_strings)
        except argparse.ArgumentError as exc:
            for token in arg_strings:
                if _shown(token) != repr(token):  # the message ends there: usage lists any choices
                    message = exc.message.replace(repr(token), _shown(token))
                    exc.message = message.partition(" (choose from ")[0]
            raise


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and, by command name, each command's option table.

    A table holds, from the actions add_argument returned: option string ->
    action, the positionals in order, the required actions, the defaults
    (with the command's name and function, as the top-level parser sets them).
    """
    parser = _Parser(
        prog="projbound",
        description=(
            "Lower bounds for projective cubature formulas / isometric embeddings, "
            "and a moment-test verifier for candidate designs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = {}

    def command(name, run, **kwargs):
        """Add a command parser; return its add_argument, which also keeps each action."""
        command_parser = sub.add_parser(name, **kwargs)
        command_parser.set_defaults(run=run)
        actions = []
        tables[name] = run, actions
        return lambda *flags, **kw: actions.append(command_parser.add_argument(*flags, **kw))

    arg = command("bound", cmd_bound, help="both lower bounds for one (field, m, p)")
    arg("--field", required=True, choices=["R", "C", "H"])
    arg("--m", type=int, required=True, help="number of coordinates, >= 2")
    arg("--p", type=int, required=True, help="even cubature index, >= 2")
    arg("--format", choices=["text", "json"], default="text")

    arg = command("table", cmd_table, help="bound table over a range of even p")
    arg("--field", required=True, choices=["R", "C", "H"])
    arg("--m", type=int, default=2)
    arg("--p-min", type=int, required=True)
    arg("--p-max", type=int, required=True)
    arg("--out", default=None, help="output path (default: stdout)")
    arg("--format", choices=["csv", "markdown", "json"], default="csv")
    arg(
        "--verbose",
        action="store_true",
        help="for field H, m=2: include the variant LP column lp_alt",
    )

    arg = command("verify", cmd_verify, help="moment-test a point-set JSON file")
    arg("file", help="point-set JSON file")
    arg(
        "--tol",
        type=float,
        default=None,
        help="absolute tolerance on |M_k| (default: 1e-10 scaled by node count)",
    )
    arg("--verbose", action="store_true", help="print every moment and notes")

    arg = command(
        "asym",
        cmd_asym,
        help=f"asymptotic-constant comparison per m; CSV columns: {_ASYM_SCHEMA}",
    )
    arg("--field", required=True, choices=["R", "C", "H"])
    arg("--m-max", type=int, required=True)
    arg("--out", default=None)

    arg = command(
        "testfn",
        cmd_testfn,
        help=f"dump test-function coefficients; CSV columns: {_TESTFN_SCHEMA}",
    )
    arg("--field", required=True, choices=["R", "C", "H"])
    arg("--m", type=int, required=True)
    arg("--l", type=int, required=True, help="degree parameter (p/2)")
    arg("--kmax", type=int, default=200)
    arg("--out", default=None)

    for name, (run, actions) in tables.items():
        tables[name] = (
            {option: a for a in actions for option in a.option_strings},
            [a for a in actions if not a.option_strings],
            [a for a in actions if a.required],
            {a.dest: a.default for a in actions} | {"command": name, "run": run},
        )
    return parser, tables


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


_parser = functools.cache(_build_parsers)  # main's, built once: parsing leaves them unchanged


def _read_plain(table, argv):
    """The Namespace argparse makes of a plain argv, or None for any other argv.

    Plain: each exact option string with one value not starting with "-", each
    store_true flag and each positional at most once, every value passing its
    action's type and choices, every required action present.
    """
    options, positionals, required, defaults = table
    values, tokens, slots = {}, iter(argv), iter(positionals)
    for token in tokens:
        action = options.get(token) if isinstance(token, str) else None
        if action is None:  # the next positional's value, or a token left to argparse
            action, value = next(slots, None), token
        elif action.nargs != 0:
            value = next(tokens, None)
        if action is None or action.dest in values:
            return None
        if action.nargs == 0:  # a store_true flag
            values[action.dest] = action.const
            continue
        if not isinstance(value, str) or value.startswith("-"):
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if any(a.dest not in values for a in required):
        return None
    return argparse.Namespace(**(defaults | values))


def main(argv=None) -> int:
    """Run one request; argv defaults to sys.argv[1:].

    A plain request (see `_read_plain`) is read from its command's table, any
    other argv by the top-level parser, which prints the help or the error.
    """
    parser, tables = _parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        plain = argv and argv[0] in tables and _read_plain(tables[argv[0]], argv[1:])
        args = plain or parser.parse_args(argv)  # any argv the table does not read
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except SystemExit:  # argparse's help may wait in stdout's buffer: flush it before exiting
        try:
            sys.stdout.flush()
        except BrokenPipeError:  # argparse ignores a closed stdout: keep its exit code
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise
    except BrokenPipeError:  # the reader is gone: say nothing more, as `head` expects
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        parser.error(str(exc))
    except NumericalError as exc:  # e.g. verify's moments past the float range
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""In-process timings of two source trees of projbound, written as one JSON record.

    python benchmarks/bench_layers.py --parent OLD/src --change src --out BENCH_32.json

The two trees are timed in rounds that alternate between them (parent then
change, then change then parent, and so on), so a drift of the host's speed
during the run lands on both trees alike instead of reading as a change.
Each tree is timed in a fresh interpreter per round, so neither sees the
other's modules or caches.  Recorded per tree, for every entry, the median
over the rounds of each round's value (itself the median of its
repetitions) and the quartiles q1 and q3 of those round values, so the
spread of a tree's own rounds shows next to the difference between trees:

* ``largest_root`` at k in {100, 1000} for (alpha, beta) in {(2, 2), (100, 1)},
  and at k in {2, 32} for (2, 2), per call over ``max(1, 2000 // k)`` calls:
  at small k the cost is call overhead, not the recurrence;
* ``hypergeom_F`` and exact-integer ``lp_bound``, per call over 200 calls, at
  arguments like those a ``bound`` request over H passes;
* ``gram_matrix`` for a random R, m=4, n=2000 point set;
* ``moment_test`` for random equal-weight sets, Gram kernel included: H, m=2,
  n=2000, p=8, R, m=3, n=4000, p=4 and R, m=2, n=2000, p=2 (the shape of
  verify-sweep's largest request), many blocks of pairs with few moments;
  H, m=3, n=6000, p=8, where 15 features a pair make the kernel most of the time;
  and R, m=2, n=110, p=218 and C, m=2, n=40, p=16, one block with many
  moments, the shape of verify-sweep's circle and Gauss designs, per call
  over 20 and 200 calls;
* one-order ``bessel_first_zero`` at nu in {0.5, 10, 147, 598}, per call over
  200 calls: a single zero, as ``kappa`` and ``root_asymptotic_ratio`` ask;
* ``table --field H --p-min 2 --p-max 1200`` and ``asym --field H --m-max 300``
  through ``cli.main``, and ``asym`` again with its rows (or zeros) already
  solved;
* one-m ``kappa(H, 150)``, per call over 200 calls, its row (or zero) solved
  for each call: one Bessel zero and one row, as ``kappa``, ``lambda_asym``
  and ``root_asymptotic_ratio`` ask;
* bound-sweep's slowest kinds of request, ``bound --field C --m 3 --p 1868
  --format json`` and ``table --field H --m 3 --p-min 1728 --p-max 1732
  --format json``, through ``cli.main`` with their roots already solved, per
  call over 20 calls, and two small-p requests, ``bound --field C --m 3 --p 40
  --format json`` and the two-row ``table --field C --m 3 --p-min 40 --p-max
  42 --format json``, per call over 200 calls, where argument parsing is much
  of the time; and ``bound --field R --m 2 --p 418 --format json``, per call
  over 200 calls, the real field's path through the integral-ratio cross-check;
* ``testfn --field H --m 2 --l 4`` through ``cli.main``, per call over 20
  calls: one test function and its 201-row CSV, the one kind of request
  in the bound-sweep workload that prints CSV;
* ``verify --verbose`` through ``cli.main`` on random equal-weight point-set
  files at C, m=4, n=14, p=2 and R, m=3, n=71, p=2, per call over 200 calls:
  verify-sweep's median kind of request, where reading the file, building
  the point set and setting up the Gram pass are much of the time;
* the rows alone, without the CLI's CSV writer: ``asymptotic_report`` over H,
  m = 2..300, with its rows (or zeros) already solved, per call over 20
  calls, and ``oscillation_report(200)``;
* ``import projbound.cli`` in a new interpreter;
* one-shot ``python -m projbound.cli`` runs of ``bound --field C --m 3 --p 40``,
  ``table --field H --p-min 2 --p-max 1200`` and ``asym --field H --m-max 300``,
  where import is much of the time, and of ``verify`` on a random H, m=3, p=8
  point-set file with n in {2000, 4000, 10000}: wall time of the whole
  process (seconds) and its maximum resident set size (MiB, from
  ``os.wait4``).

The record also counts, per entry, in how many rounds the change's value was
below the parent's (``change_lower_in_rounds``, rounds paired in order): for
every entry lower is faster, or smaller for ``_max_rss_mb``.  One tree's own
rounds spread by up to 2x on a shared host, so a median near 1x means
little; a change faster in most rounds does.

Each in-process entry ``<entry>_s`` has a twin ``<entry>_cpu_s``: the
process CPU time (``time.process_time()``, every thread of the process) of
the same calls.  Time that other processes take from the run counts in the
wall time but not in the CPU time; a host that runs the whole machine slower
slows both alike.

The package keeps each solved ``asym`` row and each solved largest Jacobi
root in a per-process memo (``bounds._ASYM_ROWS`` and the ``lru_cache`` of
``jacobi._solve_largest_root``); older trees kept each Bessel zero instead
(``specials._ZERO_CACHE``).  Every ``bessel_first_zero``, ``kappa`` and ``asym``
entry but the ones named as warm empties whichever of the row and zero memos the
tree has before each timed call, and every ``largest_root`` entry and the
cold ``table`` entry empties the root memo (the (2, 2) root cases fill keys
the H, m=2 table reads), so each times the solver, not a lookup; a tree
without a memo is timed as it is.  The ``asym`` and ``asymptotic_report``
entries named as warm read their rows (or zeros) from the memo.  The
``bound`` and ``table`` entries named as warm, and the ``testfn`` and
``oscillation_report`` entries after their first call, read their roots
from the memo.

The record also holds the machine: CPU count and model, Python, numpy and
scipy versions.  Not part of the test suite; takes about five minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT_CASES = [(2.0, 2.0, 2), (2.0, 2.0, 32), (2.0, 2.0, 100), (2.0, 2.0, 1000),
              (100.0, 1.0, 100), (100.0, 1.0, 1000)]
ROOT_CALLS = 2000
#: (beta, alpha, eps) of F(-beta, alpha+1; alpha+2; eps)
HYPERGEOM_CASES = [(1.0, 5.0, 0.02), (1.0, 597.0, 0.3)]
LP_CASES = [("C", 4, 500), ("H", 200, 1000)]
BOUND_ARGV = ["bound", "--field", "C", "--m", "3", "--p", "40"]
TABLE_ARGV = ["table", "--field", "H", "--p-min", "2", "--p-max", "1200"]
ASYM_ARGV = ["asym", "--field", "H", "--m-max", "300"]
#: bound-sweep's slowest requests, and small-p ones where argument parsing is
#: much of the time, timed warm: (argv, calls per repetition)
WARM_REQUESTS = [
    (["bound", "--field", "C", "--m", "3", "--p", "1868", "--format", "json"], 20),
    (["table", "--field", "H", "--m", "3", "--p-min", "1728", "--p-max", "1732",
      "--format", "json"], 20),
    (["bound", "--field", "C", "--m", "3", "--p", "40", "--format", "json"], 200),
    (["table", "--field", "C", "--m", "3", "--p-min", "40", "--p-max", "42",
      "--format", "json"], 200),
    (["bound", "--field", "R", "--m", "2", "--p", "418", "--format", "json"], 200),
]
TESTFN_ARGV = ["testfn", "--field", "H", "--m", "2", "--l", "4"]
TESTFN_NUMBER = 20
#: verify-sweep's median kinds of request, timed warm: (field, m, n, p)
WARM_VERIFY_CASES = [("C", 4, 14, 2), ("R", 3, 71, 2)]
WARM_VERIFY_NUMBER = 200
ASYM_ROWS_NUMBER = 20
KAPPA_M = 150
KAPPA_NUMBER = 200
OSCILLATION_P_MAX = 200
BESSEL_ORDERS = [0.5, 10.0, 147.0, 598.0]
BESSEL_NUMBER = 200
SCALAR_NUMBER = 200
#: (field, m, n, p, calls per repetition)
MOMENT_CASES = [("H", 2, 2000, 8, 1), ("R", 3, 4000, 4, 1), ("R", 2, 2000, 2, 1),
                ("H", 3, 6000, 8, 1),
                ("R", 2, 110, 218, 20), ("C", 2, 40, 16, 200)]
VERIFY_FIELD, VERIFY_M, VERIFY_P = "H", 3, 8
VERIFY_SIZES = (2000, 4000, 10_000)
REPS = 5
MOMENT_REPS = 3
ROUNDS = 10


def _time(out: dict, entry: str, fn, reps: int, number: int = 1) -> None:
    """out[entry_s] and out[entry_cpu_s]: median wall and process CPU seconds of fn, per call."""
    wall, cpu = [], []
    for _ in range(reps):
        start, start_cpu = time.perf_counter(), time.process_time()
        fn()
        cpu.append(time.process_time() - start_cpu)
        wall.append(time.perf_counter() - start)
    out[f"{entry}_s"] = statistics.median(wall) / number
    out[f"{entry}_cpu_s"] = statistics.median(cpu) / number


def random_nodes(delta: int, m: int, n: int, seed: int = 0):
    """n random unit vectors of K^m, quaternion-embedded as an (n, m, 4) array."""
    import numpy as np

    rng = np.random.default_rng(seed)
    nodes = np.zeros((n, m, 4))
    nodes[..., :delta] = rng.standard_normal((n, m, delta))
    nodes /= np.sqrt((nodes**2).sum(axis=(1, 2)))[:, None, None]
    return nodes


def measure() -> dict:
    """Timings of the projbound importable in this interpreter."""
    from projbound import bounds, cli, cubature, jacobi, specials

    clear_roots = getattr(getattr(jacobi, "_solve_largest_root", None), "cache_clear", lambda: None)
    out = {}
    for alpha, beta, k in ROOT_CASES:
        params = jacobi.JacobiParams(alpha, beta)
        calls = max(1, ROOT_CALLS // k)

        def roots():
            for _ in range(calls):
                clear_roots()
                jacobi.largest_root(params, k)

        roots()  # lazy imports
        _time(out, f"largest_root(alpha={alpha:g},beta={beta:g},k={k})", roots, REPS, calls)

    for beta, alpha, eps in HYPERGEOM_CASES:

        def hypergeoms():
            for _ in range(SCALAR_NUMBER):
                specials.hypergeom_F(beta, alpha, eps)

        hypergeoms()  # fills the Gauss-Jacobi rule cache, as any earlier call would
        entry = f"hypergeom_F(beta={beta:g},alpha={alpha:g},eps={eps:g})"
        _time(out, entry, hypergeoms, REPS, SCALAR_NUMBER)

    for name, m, q in LP_CASES:
        field = cubature.Field.parse(name)

        def lps():
            for _ in range(SCALAR_NUMBER):
                bounds.lp_bound(field, m, q)

        _time(out, f"lp_bound({name},m={m},q={q})", lps, REPS, SCALAR_NUMBER)

    ps = cubature.PointSet(cubature.Field.R, 4, random_nodes(1, 4, 2000))
    _time(out, "gram_matrix(R,m=4,n=2000)", lambda: cubature.gram_matrix(ps), REPS)
    del ps

    for name, m, n, p, calls in MOMENT_CASES:
        field = cubature.Field.parse(name)
        ps = cubature.PointSet(field, m, random_nodes(field.delta, m, n))

        def moments():
            for _ in range(calls):
                cubature.moment_test(ps, p)

        _time(out, f"moment_test({name},m={m},n={n},p={p})", moments, MOMENT_REPS, calls)
        del ps

    asym_memos = [getattr(bounds, "_ASYM_ROWS", {}), getattr(specials, "_ZERO_CACHE", {})]

    def clear_asym_memos():
        for memo in asym_memos:
            memo.clear()

    for nu in BESSEL_ORDERS:

        def zeros():
            for _ in range(BESSEL_NUMBER):
                clear_asym_memos()
                specials.bessel_first_zero(nu)

        _time(out, f"bessel_first_zero(nu={nu:g})", zeros, REPS, BESSEL_NUMBER)

    def run_cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)

    def run_asym_cold():
        clear_asym_memos()
        run_cli(ASYM_ARGV)

    def run_table_cold():
        clear_roots()
        run_cli(TABLE_ARGV)

    _time(out, "cli " + " ".join(TABLE_ARGV), run_table_cold, 1)
    run_asym_cold()  # warm-up, not timed
    _time(out, "cli " + " ".join(ASYM_ARGV), run_asym_cold, REPS)
    _time(out, "cli " + " ".join(ASYM_ARGV) + " warm", lambda: run_cli(ASYM_ARGV), REPS)

    def kappas():
        for _ in range(KAPPA_NUMBER):
            clear_asym_memos()
            bounds.kappa(bounds.Field.H, KAPPA_M)

    kappas()  # warm-up, not timed
    _time(out, f"kappa(H,m={KAPPA_M})", kappas, REPS, KAPPA_NUMBER)

    def testfns():
        for _ in range(TESTFN_NUMBER):
            run_cli(TESTFN_ARGV)

    testfns()  # fills the quadrature caches, as any earlier request would
    _time(out, "cli " + " ".join(TESTFN_ARGV), testfns, REPS, TESTFN_NUMBER)

    for argv, number in WARM_REQUESTS:

        def warm_requests():
            for _ in range(number):
                run_cli(argv)

        warm_requests()  # solves the roots, so the timed calls read them
        _time(out, "cli " + " ".join(argv) + " warm", warm_requests, REPS, number)

    with tempfile.TemporaryDirectory() as tmp:
        for field, m, n, p in WARM_VERIFY_CASES:
            argv = ["verify", write_verify_file(tmp, field, m, n, p), "--verbose"]

            def verifies():
                for _ in range(WARM_VERIFY_NUMBER):
                    run_cli(argv)

            verifies()  # solves the bounds' roots, so the timed calls read them
            entry = f"cli verify --verbose ({field},m={m},n={n},p={p}) warm"
            _time(out, entry, verifies, REPS, WARM_VERIFY_NUMBER)

    def asym_rows():
        for _ in range(ASYM_ROWS_NUMBER):
            bounds.asymptotic_report(bounds.Field.H, range(2, 301))

    asym_rows()  # solves the rows, so the timed calls read them
    _time(out, "asymptotic_report(H,m=2..300) warm", asym_rows, REPS, ASYM_ROWS_NUMBER)
    _time(
        out,
        f"oscillation_report({OSCILLATION_P_MAX})",
        lambda: bounds.oscillation_report(OSCILLATION_P_MAX),
        REPS,
    )
    return out


def _import_time(src: str) -> float:
    code = (
        "import time; t = time.perf_counter(); import projbound.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    return float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout)


def _one_shot(src: str, argv: list) -> tuple[float, float]:
    """Wall seconds and maximum RSS (MiB) of one ``python -m projbound.cli`` process."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "projbound.cli", *argv],
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 1):  # verify exits 1 on a failed design
            err.seek(0)
            raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {err.read().decode()}")
    return elapsed, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def write_verify_file(directory: str, field: str, m: int, n: int, p: int) -> str:
    """A point-set file of n random equal-weight nodes of K^m, to be verified at index p."""
    delta = {"R": 1, "C": 2, "H": 4}[field]
    nodes = random_nodes(delta, m, n, seed=1)[..., :delta]
    path = os.path.join(directory, f"verify_{field}_m{m}_n{n}_p{p}.json")
    with open(path, "w") as f:
        json.dump({"field": field, "m": m, "p": p, "nodes": nodes.tolist()}, f)
    return path


def run_round(src: str, verify_files: dict) -> dict:
    """One round of every timing for one tree: a fresh child, one import, the one-shot CLI runs."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                          capture_output=True, text=True)
    timings = json.loads(proc.stdout)
    timings["import projbound.cli_s"] = _import_time(src)
    for argv in (BOUND_ARGV, TABLE_ARGV, ASYM_ARGV):
        case = "cli " + " ".join(argv) + " one-shot"
        timings[f"{case}_s"], timings[f"{case}_max_rss_mb"] = _one_shot(src, argv)
    for n, path in verify_files.items():
        case = f"cli verify one-shot({VERIFY_FIELD},m={VERIFY_M},n={n},p={VERIFY_P})"
        timings[f"{case}_s"], timings[f"{case}_max_rss_mb"] = _one_shot(src, ["verify", path])
    return timings


def run_trees(trees: dict, verify_files: dict) -> dict:
    """Per-tree median and quartiles over ROUNDS rounds, and per entry the rounds in which
    the change read lower than the parent; the tree timed first alternates."""
    rounds = {name: [] for name in trees}
    order = list(trees)
    for _ in range(ROUNDS):
        for name in order:
            rounds[name].append(run_round(trees[name], verify_files))
        order.reverse()
    summary = {}
    for name, runs in rounds.items():
        summary[name] = {}
        for key in runs[0]:
            q1, median, q3 = statistics.quantiles([r[key] for r in runs], n=4)
            summary[name][key] = {"median": median, "q1": q1, "q3": q3}
    summary["change_lower_in_rounds"] = {
        key: sum(c[key] < p[key] for p, c in zip(rounds["parent"], rounds["change"]))
        for key in rounds["parent"][0]
    }
    return summary


def machine() -> dict:
    import numpy
    import scipy

    model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--parent", help="src directory of the parent tree")
    parser.add_argument("--change", help="src directory of the changed tree")
    parser.add_argument("--out", help="JSON file to write")
    args = parser.parse_args()
    if args.child:
        print(json.dumps(measure()))
        return 0
    if not (args.parent and args.change and args.out):
        parser.error("--parent, --change and --out are required")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "machine": machine(),
            "rounds": f"{ROUNDS}, alternating which tree is timed first",
            "repetitions per round": {
                "largest_root": f"{REPS} x max(1, {ROOT_CALLS} // k) calls",
                "hypergeom_F": f"{REPS} x {SCALAR_NUMBER} calls",
                "lp_bound": f"{REPS} x {SCALAR_NUMBER} calls",
                "gram_matrix": REPS,
                "moment_test": f"{MOMENT_REPS} x 1 call (n >= 2000), 20 or 200 calls",
                "bessel_first_zero": f"{REPS} x {BESSEL_NUMBER} calls",
                "table": 1, "asym": REPS, "asym warm": REPS,
                "kappa": f"{REPS} x {KAPPA_NUMBER} calls",
                "testfn": f"{REPS} x {TESTFN_NUMBER} calls",
                "verify warm": f"{REPS} x {WARM_VERIFY_NUMBER} calls",
                **{f"{argv[0]} warm ({' '.join(argv[1:7])})": f"{REPS} x {number} calls"
                   for argv, number in WARM_REQUESTS},
                "asymptotic_report warm": f"{REPS} x {ASYM_ROWS_NUMBER} calls",
                "oscillation_report": REPS, "import": 1,
                "bound one-shot": 1, "table one-shot": 1, "asym one-shot": 1,
                "verify one-shot": 1,
            },
            **run_trees(trees, {n: write_verify_file(tmp, VERIFY_FIELD, VERIFY_M, n, VERIFY_P)
                                for n in VERIFY_SIZES}),
        }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

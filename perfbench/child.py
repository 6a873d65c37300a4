"""Fresh child process: time ``import projbound.cli``, then run requests.

Usage (from the checkout root, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py --import-only
    python3 perfbench/child.py --requests BLOCK.json --results OUT \
        --seconds S [--trace SPANS.npz [--alloc-probe I]]

The request loop is closed with one client: each ``projbound.cli.main(argv)``
call starts after the previous one returned, with stdout and stderr captured.
The block of requests runs in passes, each in the block's order, until
``--seconds`` have passed and at least MIN_PASSES whole passes were made; the
loop stops between two requests, so the last pass may be partial.  With
``--trace``, even passes are untraced and odd passes traced, so the tracing
overhead is measured on the same requests at nearly the same time.
Each request's result is appended to ``OUT.jsonl`` as it completes, so the
child's memory does not grow with the run; ``OUT.json`` gets the summary.

Before each request, and a few times after the import with
``--import-only``, the child times ``calibrate()``: a fixed piece of the
benchmark's own work that tells the parent how fast the shared host ran at
that moment (see run.py).
"""

import contextlib
import io
import sys
import time

#: stop starting requests after this long, whatever the pass count says
HARD_LIMIT_S = 110.0
#: every request runs at least this often: the parent takes each request's
#: median run, and with --trace that is two untraced runs and one traced
MIN_PASSES = 3
#: calibrations after the import in --import-only mode
IMPORT_CALIBRATIONS = 25


def calibrate() -> float:
    """Seconds taken by a fixed piece of work like the program's own.

    A scalar numpy recurrence in a Python loop (as in the Jacobi and Bessel
    scans), a few numpy array passes and plain Python arithmetic, under a
    millisecond in all.  None of it calls projbound, so the program's speed
    does not change it; only the host's does.
    """
    import numpy as np

    start = time.perf_counter()
    x = np.asarray(0.3)
    a = b = np.asarray(0.7)
    for n in range(200):
        a, b = ((1.0 + 0.01 * n) * x * a - 0.5 * b) / 1.01, a
    v = np.linspace(-1.0, 1.0, 8192)
    for _ in range(4):
        v = np.sqrt(v * v + 1.0) - 0.5
    total = 0
    for i in range(2000):
        total += i * i % 7
    return time.perf_counter() - start


def run_one(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a request that raises is a failed request, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return {"latency_s": latency, "code": code, "error": error, "out": out.getvalue()}


def main() -> int:
    start = time.perf_counter()
    import projbound.cli as cli

    setup_s = time.perf_counter() - start

    import argparse
    import json
    import os
    import resource

    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--requests")
    parser.add_argument("--results")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", default=None, help="save spans to this .npz path")
    parser.add_argument("--alloc-probe", type=int, default=None,
                        help="with --trace: rerun this request untimed to measure "
                             "verify's peak traced allocation")
    args = parser.parse_args()

    if args.import_only:
        cal = sorted(calibrate() for _ in range(IMPORT_CALIBRATIONS))
        print(json.dumps({"setup_s": setup_s, "cal_s": cal[len(cal) // 2],
                          "module": cli.__file__}))
        return 0

    with open(args.requests, encoding="utf-8") as fh:
        block = json.load(fh)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    runs = 0  # requests run so far; run `runs` is block[runs % len(block)]
    with open(args.results + ".jsonl", "w", encoding="utf-8") as out:
        loop_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - loop_start
            if elapsed >= HARD_LIMIT_S or (elapsed >= args.seconds
                                           and runs >= MIN_PASSES * len(block)):
                break
            passes, i = divmod(runs, len(block))
            traced = tracer is not None and passes % 2 == 1
            if tracer is not None and i == 0:
                tracer.enable() if traced else tracer.disable()
            if traced:
                tracer.request_id = i
            cal_s = calibrate()
            result = run_one(cli, block[i]["argv"])
            result["cal_s"] = cal_s
            result.update(request=i, traced=traced)
            out.write(json.dumps(result) + "\n")
            runs += 1
        loop_s = time.perf_counter() - loop_start
    if tracer is not None:
        tracer.disable()

    import numpy
    import scipy

    doc = {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "runs": runs,
        "module": cli.__file__,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "PROJBOUND_THREADS")},
    }
    if tracer is not None:
        if args.alloc_probe is not None:
            argv = block[args.alloc_probe]["argv"]
            tracer.probe_verify_alloc(lambda: run_one(cli, argv))
        doc["trace"] = tracer.save(args.trace)
    with open(args.results + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

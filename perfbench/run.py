"""projbound benchmark: three seeded workloads through the CLI, checked by oracles.

    python3 perfbench/run.py --workload bound-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a projbound checkout; the package is imported from
``src/`` of that checkout.  Workloads: bound-sweep, verify-sweep, asym-sweep
(see workloads.py for what each one exercises and why).

Load model: a closed loop with one client.  A fresh child process imports
``projbound.cli`` and then issues each request as a ``projbound.cli.main``
call only after the previous one returned, capturing its stdout.  The parent
generates a block of about 100 requests from the seed before the child
starts and checks every output afterwards, outside the timed region.  The
child caps BLAS/OpenMP threads at nproc and runs with PROJBOUND_THREADS unset.

The child runs the block in passes until ``--seconds`` have passed and every
request ran at least three times.  Times are reported at a reference host
speed: on the shared host this was written on, other tenants changed the
program's speed by up to 2x for tens of seconds at a time (see README.md).
Before each request the child times ``child.calibrate()``, a fixed piece of
the benchmark's own work, and each latency is scaled by CAL_REF_S over the
median calibration time of the requests around it.  Each request's latency
is then the median of its runs; with three or more runs that leaves out a
first run that fills the program's caches, as a long-running caller's would
be filled.  The latency percentiles are over the block's requests, and
throughput is requests per second of their summed latencies, so every run
measures the same mix.  The report also prints the times as measured.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes with per-layer spans (see spans.py) and reports
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from child import HARD_LIMIT_S  # noqa: E402

#: import-only children per run for setup_s (after one unmeasured warm-up)
SETUP_SAMPLES = 5
#: calibrate() time that defines the reference host speed, about its median
#: on the machine this benchmark was written on
CAL_REF_S = 6e-4
#: requests on each side of a request whose calibrations give its host speed
HOST_WINDOW = 10
CHILD_TIMEOUT_S = 170.0
#: latency reported when a percentile falls on a failed request: no request
#: can take longer than the child's request loop
FAILED_LATENCY_MS = 1000.0 * HARD_LIMIT_S

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ops": "share",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("PROJBOUND_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    threads = str(len(os.sched_getaffinity(0)))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    return env


def run_child(root: str, env: dict, *args: str) -> str:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def import_times(root: str, env: dict) -> list:
    """Import times of fresh children, each at the reference host speed."""
    times = []
    expected = os.path.join(root, "src", "projbound")
    for i in range(SETUP_SAMPLES + 1):
        doc = json.loads(run_child(root, env, "--import-only").splitlines()[-1])
        if os.path.dirname(os.path.abspath(doc["module"])) != expected:
            raise BenchmarkError(f"child imported projbound from {doc['module']}, not {expected}")
        if i:
            times.append(doc["setup_s"] * CAL_REF_S / doc["cal_s"])
    return times


def request_loop(root, env, work, seconds, trace_path=None, alloc_probe=None):
    """Run the child's request loop; its summary with "results" read back in."""
    results_path = os.path.join(work, "results")
    args = ["--requests", os.path.join(work, "block.json"), "--results", results_path,
            "--seconds", repr(seconds)]
    if trace_path is not None:
        args += ["--trace", trace_path]
    if alloc_probe is not None:
        args += ["--alloc-probe", str(alloc_probe)]
    run_child(root, env, *args)
    with open(results_path + ".json", encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(results_path + ".jsonl", encoding="utf-8") as fh:
        doc["results"] = [json.loads(line) for line in fh]
    at_reference_speed(doc["results"])
    return doc


def at_reference_speed(results: list) -> None:
    """Add "ref_latency_s" to each result: its latency at the reference host speed.

    The host's speed at a request is the median calibrate() time over it and
    HOST_WINDOW requests on either side, in the order they ran.
    """
    cal = [res["cal_s"] for res in results]
    for j, res in enumerate(results):
        around = statistics.median(cal[max(0, j - HOST_WINDOW):j + HOST_WINDOW + 1])
        res["ref_latency_s"] = res["latency_s"] * CAL_REF_S / around


def check_all(block: list, results: list) -> list:
    """The oracle's verdict (None or why it failed) on every execution.

    Identical outputs are checked once.
    """
    seen = {}
    verdicts = []
    for res in results:
        key = (res["request"], res["code"], res["error"], res["out"])
        if key not in seen:
            seen[key] = oracles.check(block[res["request"]], res)
        verdicts.append(seen[key])
    return verdicts


def request_latencies(samples: list, key: str = "ref_latency_s") -> dict:
    """{request: (median latency s, any run failed)} over the (result, verdict) samples."""
    runs = {}
    for res, verdict in samples:
        runs.setdefault(res["request"], []).append((res[key], verdict is not None))
    return {i: (statistics.median(lat for lat, _ in r), any(bad for _, bad in r))
            for i, r in runs.items()}


def percentile_ms(requests: list, q: float) -> float:
    """Nearest-rank percentile; a failed request counts as slower than any limit."""
    values = sorted(math.inf if failed else latency for latency, failed in requests)
    value = values[math.ceil(q * len(values)) - 1]
    return FAILED_LATENCY_MS if math.isinf(value) else 1000.0 * value


def timing(samples: list, key: str = "ref_latency_s") -> dict:
    """ops_per_s, op_p50_ms and op_p90_ms from the `key` latencies of the samples."""
    requests = list(request_latencies(samples, key).values())
    return {
        "ops_per_s": sum(not failed for _, failed in requests)
        / sum(latency for latency, _ in requests),
        "op_p50_ms": percentile_ms(requests, 0.50),
        "op_p90_ms": percentile_ms(requests, 0.90),
    }


def end_to_end(samples: list, setup: list, peak_rss_kib: int) -> dict:
    """Metrics from the (result, verdict) samples of the request loop."""
    ok_runs = sum(verdict is None for _, verdict in samples)
    values = {
        **timing(samples),
        "ok_ops": ok_runs / len(samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def last_level_cache() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for index in os.listdir(base):
            if index.startswith("index"):
                with open(os.path.join(base, index, "level"), encoding="utf-8") as fh:
                    level = int(fh.read())
                with open(os.path.join(base, index, "size"), encoding="utf-8") as fh:
                    levels.append((level, fh.read().strip()))
        if not levels:
            return "unknown"
        size = max(levels)[1]
        return f"{int(size[:-1]) / 1024:g} MiB" if size.endswith("K") else size
    except (OSError, ValueError):
        return "unknown"


def machine_record(doc: dict) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    v = doc["versions"]
    threads = ",".join(f"{k}={val}" for k, val in doc["thread_env"].items())
    return (f"machine   nproc={len(os.sched_getaffinity(0))} cpu=\"{cpu}\" "
            f"last-level-cache={last_level_cache()} (shared)\n"
            f"          python={v['python']} numpy={v['numpy']} scipy={v['scipy']} "
            f"child-env: {threads}")


def failure_summary(verdicts: list) -> str:
    reasons = {}
    for verdict in verdicts:
        if verdict is not None:
            key = verdict.split(":")[0]
            reasons[key] = reasons.get(key, 0) + 1
    return ", ".join(f"{k} x{v}" for k, v in sorted(reasons.items())) or "none"


def report_lines(workload: str, block: list, samples: list, metrics: dict,
                 setup_samples: int) -> list:
    n = len(samples)
    verdicts = [v for _, v in samples]
    failed = n - verdicts.count(None)
    runs = {}
    for res, _ in samples:
        runs[res["request"]] = runs.get(res["request"], 0) + 1
    lo, hi = min(runs.values()), max(runs.values())
    req = f"{len(runs)} requests, median of {lo if lo == hi else f'{lo}-{hi}'} runs each"
    counts = {"ops_per_s": req, "op_p50_ms": req,
              "op_p90_ms": f"{req} ({len(runs) - math.ceil(0.9 * len(runs))} beyond p90)",
              "ok_ops": f"{n} runs",
              "setup_s": f"median of {setup_samples} fresh imports",
              "peak_rss_mb": f"1 child; the {last_level_cache()} last-level cache is shared; "
                             "one verify Gram array (n*n*m*4 doubles) fits in it up to "
                             "n~1300 at m=2"}
    lines = [f"load      closed loop, 1 client, fresh child process; block of {len(block)} "
             f"{workloads.BLOCK_SUMMARY[workload]}, run in passes",
             f"{'metric':<14}{'value':>14}  {'unit':<6} samples"]
    for name, m in metrics.items():
        lines.append(f"{name:<14}{m['value']:>14.6g}  {m['unit']:<6} {counts[name]}")
    lines.append(f"{'failed_ops':<14}{failed / n:>14.6g}  {'share':<6} {failed} of {n} "
                 f"runs: {failure_summary(verdicts)}")
    cal_ms = 1000 * statistics.median(res["cal_s"] for res, _ in samples)
    measured = ", ".join(f"{name} {value:.6g}" for name, value in
                         timing(samples, "latency_s").items())
    lines.append(f"host speed: calibrate() took {cal_ms:.4g} ms (median), against "
                 f"{1000 * CAL_REF_S:.4g} ms at the reference speed the times above are "
                 f"scaled to; as measured: {measured}")
    return lines


def layer_lines(table: dict, traced_s: float, metrics: dict) -> list:
    lines = [f"{'per-layer metric':<38}{'value':>14}  {'unit':<10} self-time share of requests"]
    for name, m in metrics.items():
        share = ""
        if name.endswith(".self_s") and traced_s > 0:
            share = f"{table[name.rsplit('.', 1)[0]][1] / traced_s:7.1%}"
        lines.append(f"{name:<38}{m['value']:>14.6g}  {m['unit']:<10} {share}")
    lines.append("wait time: none; the package is single-threaded and has no queues")
    return lines


def run_plain(args, root, env, work, block) -> dict:
    setup = import_times(root, env)
    doc = request_loop(root, env, work, args.seconds)
    verdicts = check_all(block, doc["results"])
    samples = list(zip(doc["results"], verdicts))
    metrics = end_to_end(samples, setup, doc["peak_rss_kib"])
    print(machine_record(doc))
    print("\n".join(report_lines(args.workload, block, samples, metrics, len(setup))))
    return {"metrics": metrics, "verdicts": verdicts, "samples": samples}


def run_traced(args, root, env, work, block) -> dict:
    trace_path = os.path.join(work, "spans.npz")
    # verify's peak allocation is probed on the block's largest point set
    sizes = [req["expect"].get("n", 0) for req in block]
    probe = sizes.index(max(sizes)) if max(sizes) else None
    doc = request_loop(root, env, work, args.seconds, trace_path=trace_path, alloc_probe=probe)
    verdicts = check_all(block, doc["results"])
    samples = list(zip(doc["results"], verdicts))
    plain = [(r, v) for r, v in samples if not r["traced"]]
    traced = [(r, v) for r, v in samples if r["traced"]]
    # overhead: each request's median traced run against its median untraced run
    plain_lat, traced_lat = request_latencies(plain), request_latencies(traced)
    plain_s = sum(plain_lat[i][0] for i in traced_lat)
    traced_s = sum(latency for latency, _ in traced_lat.values())
    overhead = traced_s / plain_s - 1.0
    setup = doc["setup_s"] * CAL_REF_S / statistics.median(r["cal_s"] for r, _ in samples)
    table = spans.span_table(trace_path)
    metrics = spans.per_layer_metrics(table, doc["trace"], len(traced), overhead)
    print(machine_record(doc))
    print("untraced passes:")
    print("\n".join(report_lines(args.workload, block, plain,
                                 end_to_end(plain, [setup], doc["peak_rss_kib"]), 1)))
    print(f"tracing overhead: {1000 * traced_s:.4g} ms traced vs {1000 * plain_s:.4g} ms "
          f"untraced ({overhead:+.1%}), summed median runs of the same {len(traced_lat)} "
          f"requests in alternating passes; {len(traced)} traced runs give the per-layer "
          f"metrics")
    traced_total = sum(r["latency_s"] for r, _ in traced)  # the spans are not rescaled
    print("\n".join(layer_lines(table, traced_total, metrics)))
    # the per-layer metrics are per traced run
    return {"metrics": metrics, "verdicts": verdicts, "samples": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "projbound", "cli.py")):
        print(f"error: {root} is not a projbound checkout (no src/projbound/cli.py)",
              file=sys.stderr)
        return 2

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "inputs"))
    try:
        block = workloads.make_block(args.workload, args.seed, os.path.join(work, "inputs"))
        with open(os.path.join(work, "block.json"), "w", encoding="utf-8") as fh:
            json.dump(block, fh)
        env = child_env(root)
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        run = run_traced if args.trace else run_plain
        outcome = run(args, root, env, work, block)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every run must be right; the counts are over the samples the metrics
    # come from
    wrong = [v for v in outcome["verdicts"] if v is not None]
    for reason in sorted(set(wrong))[:5]:
        print(f"wrong output: {reason}")
    samples = outcome["samples"]
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(samples),
        "failed": sum(v is not None for _, v in samples),
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

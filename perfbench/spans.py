"""Per-layer tracing, done entirely from the benchmark's side.

The child process wraps projbound's public functions at every module
attribute that refers to them (so ``from .jacobi import largest_root`` in
``bounds`` is wrapped too).  Layer functions become *spans*: name, start,
end, parent span and request id, kept in compact in-memory arrays and saved
once at the end.  Hot inner functions (``jacobi_eval``, ``bessel_j``) are
only *counted*, attributed to the innermost open span, so their time stays
in the span that calls them.

The parent turns the saved spans into per-layer metrics.  Self time is a
span's duration minus the time covered by its direct child spans; the
package is single-threaded and has no queues, so no layer waits.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from array import array

import numpy as np

#: (module, function) pairs recorded as spans
SPANS = (
    ("cli", "main"),
    ("bounds", "yudin_bound"),
    ("bounds", "lp_bound"),
    ("bounds", "asymptotic_report"),
    ("bounds", "kappa"),
    ("jacobi", "largest_root"),
    ("jacobi", "jacobi_eval_all"),
    ("jacobi", "tail_rule"),
    ("specials", "hypergeom_F"),
    ("specials", "bessel_first_zero"),
    ("testfn", "build_test_function"),
    ("cubature", "load_point_set"),
    ("cubature", "gram_matrix"),
    ("cubature", "moment_test"),
    ("cubature", "verify"),
)
#: PointSet construction (validation and duplicate scan) is a span too
POINTSET = "cubature.PointSet"
#: (module, function) pairs only counted
COUNTERS = (("jacobi", "jacobi_eval"), ("specials", "bessel_j"))

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in SPANS) + (POINTSET,)
COUNTER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in COUNTERS)


class Tracer:
    """In-memory span and counter store for one child process."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack = []
        self.request_id = -1
        #: counter name -> {enclosing span name or "": calls}
        self.counts = {name: {} for name in COUNTER_NAMES}
        self.gram_pairs = 0
        self.verify_peak_bytes = 0
        #: (owner, attribute, original, wrapper)
        self.patches = []

    def span(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.request.append(self.request_id)
            self.failed.append(0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                self.stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts[name]

        def wrapper(*args, **kwargs):
            key = SPAN_NAMES[self.name[self.stack[-1]]] if self.stack else ""
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def gram(self, fn):
        """gram_matrix also counts its n^2 node pairs."""

        def wrapper(ps, *args, **kwargs):
            self.gram_pairs += ps.n * ps.n
            return fn(ps, *args, **kwargs)

        return wrapper

    def probe_verify_alloc(self, call) -> None:
        """Run call() once with tracemalloc on inside every cubature.verify call.

        tracemalloc hooks every Python allocation and slows fsum over an
        n^2 array several-fold, so this runs outside the timed passes.
        """
        from projbound import cubature

        original = cubature.verify

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                self.verify_peak_bytes = max(self.verify_peak_bytes,
                                             tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        owners = [m for k, m in sys.modules.items()
                  if k.startswith("projbound") and getattr(m, "verify", None) is original]
        for mod in owners:
            mod.verify = wrapper
        try:
            call()
        finally:
            for mod in owners:
                mod.verify = original

    def install(self) -> None:
        """Prepare wrappers for every traced function at each module attribute bound to it.

        Nothing is traced until enable(); disable() puts the originals back.
        """
        import projbound.cli  # noqa: F401  (loads every module the CLI uses)
        from projbound import cubature

        modules = [m for k, m in sys.modules.items() if k.startswith("projbound")]
        for mod_name, fn_name in SPANS + COUNTERS:
            home = sys.modules[f"projbound.{mod_name}"]
            original = getattr(home, fn_name)
            name = f"{mod_name}.{fn_name}"
            if (mod_name, fn_name) in COUNTERS:
                wrapped = self.counter(name, original)
            else:
                inner = self.gram(original) if fn_name == "gram_matrix" else original
                wrapped = self.span(name, inner)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self.patches.append((mod, attr, original, wrapped))
        init = cubature.PointSet.__init__
        self.patches.append((cubature.PointSet, "__init__", init, self.span(POINTSET, init)))

    def enable(self) -> None:
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def save(self, path: str) -> dict:
        """Write the spans to `path` (.npz); return the counters as a dict."""
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )
        return {
            "counts": self.counts,
            "gram_pairs": self.gram_pairs,
            "verify_peak_bytes": self.verify_peak_bytes,
        }


# ---------------------------------------------------------------------------
# parent side


def span_table(path: str) -> dict:
    """{span name: (calls, self seconds, failed calls)} from a saved trace."""
    with np.load(path) as z:
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
        failed = z["failed"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    table = {}
    for i, span_name in enumerate(SPAN_NAMES):
        sel = name == i
        table[span_name] = (int(sel.sum()), float(self_s[sel].sum()), int(failed[sel].sum()))
    return table


#: per-layer metrics reported by the traced run: name -> unit
PER_LAYER = {
    "jacobi.largest_root.calls": "count/op",
    "jacobi.largest_root.self_s": "s/op",
    "jacobi.jacobi_eval.calls": "count/op",
    "jacobi.largest_root.evals_per_call": "count/call",
    "jacobi.jacobi_eval_all.self_s": "s/op",
    "jacobi.tail_rule.self_s": "s/op",
    "testfn.build_test_function.self_s": "s/op",
    "specials.hypergeom_F.calls": "count/op",
    "specials.hypergeom_F.self_s": "s/op",
    "bounds.yudin_bound.calls": "count/op",
    "bounds.yudin_bound.self_s": "s/op",
    "bounds.yudin_bound.failed": "count/op",
    "bounds.lp_bound.self_s": "s/op",
    "specials.bessel_first_zero.calls": "count/op",
    "specials.bessel_first_zero.self_s": "s/op",
    "specials.bessel_first_zero.failed": "count/op",
    "specials.bessel_j.calls": "count/op",
    "bounds.asymptotic_report.self_s": "s/op",
    "bounds.kappa.calls": "count/op",
    "cubature.load_point_set.self_s": "s/op",
    "cubature.PointSet.self_s": "s/op",
    "cubature.gram_matrix.calls": "count/op",
    "cubature.gram_matrix.self_s": "s/op",
    "cubature.gram_matrix.pairs": "count/op",
    "cubature.moment_test.self_s": "s/op",
    "cubature.verify.peak_alloc_mb": "MiB",
    "cli.main.self_s": "s/op",
    "trace.overhead": "share",
}


def per_layer_metrics(table: dict, extra: dict, ops: int, overhead: float) -> dict:
    """Per-request per-layer metrics from a span table and the child's counters."""
    values = {}
    for span_name, (calls, self_s, failed) in table.items():
        values[f"{span_name}.calls"] = calls / ops
        values[f"{span_name}.self_s"] = self_s / ops
        values[f"{span_name}.failed"] = failed / ops
    counts = extra["counts"]
    for counter in COUNTER_NAMES:
        values[f"{counter}.calls"] = sum(counts[counter].values()) / ops
    roots = table["jacobi.largest_root"][0]
    in_roots = counts["jacobi.jacobi_eval"].get("jacobi.largest_root", 0)
    values["jacobi.largest_root.evals_per_call"] = in_roots / roots if roots else 0.0
    values["cubature.gram_matrix.pairs"] = extra["gram_pairs"] / ops
    values["cubature.verify.peak_alloc_mb"] = extra["verify_peak_bytes"] / 2**20
    values["trace.overhead"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

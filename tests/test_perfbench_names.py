"""The benchmark's per-layer trace patches projbound functions by name.

perfbench/spans.py lists them; a rename in the package would break
`perfbench/run.py --trace 1` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
#: every name the trace wraps: SPANS, the PointSet constructor, COUNTERS
TRACED = SPANS.SPAN_NAMES + SPANS.COUNTER_NAMES


@pytest.mark.parametrize("name", TRACED)
def test_traced_function_exists(name):
    mod_name, fn_name = name.split(".")
    module = importlib.import_module(f"projbound.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"projbound.{name} is gone"

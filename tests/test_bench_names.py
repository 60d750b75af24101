"""The benchmark's tracer wraps bugloc functions by name; each must exist.

bench/tracer.py lists the (module, function) pairs it wraps in SPANS and
counts in COUNTED, and reports a missing one only in a traced benchmark run.
This test reads those lists, so deleting or renaming a listed function fails
here too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import bugloc.cli  # noqa: F401 - loads every module a CLI run loads

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACED = _tracer()


@pytest.mark.parametrize(
    "module, function",
    sorted({*_TRACED.SPANS, *_TRACED.COUNTED}),
    ids=lambda part: part,
)
def test_traced_function_exists(module, function):
    # the tracer looks the function up among the modules already loaded
    assert hasattr(sys.modules.get(f"bugloc.{module}"), function)

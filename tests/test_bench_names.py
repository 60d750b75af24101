"""The benchmark's tracer wraps bugloc functions by name; each must exist.

bench/tracer.py lists the (module, function) pairs it wraps in SPANS and
counts in COUNTED, and reports a missing one only in a traced benchmark run.
This test reads those lists, so deleting or renaming a listed function fails
here too. Its hooks read the program's API as well (the solved model's
convergence and clamped nodes, the network's neighbors and counts), so
they run here on a tiny solved network.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bugloc.cli  # noqa: F401 - loads every module a CLI run loads
from bugloc.network import TypedNode
from bugloc.regularizer import solve
from netgen import network_of
from tables import make_table

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


def test_the_solve_and_network_hooks_count_a_solved_network():
    t1, t2 = TypedNode("T", "t1"), TypedNode("T", "oov")
    b1, b2 = TypedNode("B", "b1"), TypedNode("B", "b2")
    s1, m1 = TypedNode("S", "s1.java"), TypedNode("M", "lines:0")
    # t1 is clamped and b2 has no neighbor, so four of the six nodes move
    net = network_of([(t1, b1, 1.0), (t2, b1, 2.0), (b1, s1, 1.0), (s1, m1, 0.5)], nodes=[b2])
    table = make_table(1, {"t1": np.array([1.0])})
    counts = Counter()
    _TRACED._network(counts, (), net)
    model = solve(net, table)
    _TRACED._solve(counts, (net, table), model)
    sweeps = model.convergence.iterations
    assert sweeps > 1
    assert counts == {
        "network.nodes": 6,
        "network.edges": 4,
        "regularizer.sweeps": sweeps,
        "regularizer.node_updates": sweeps * 4,
    }

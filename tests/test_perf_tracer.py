"""The perf benchmark's layer tracer still installs on the run path.

``benchmarks/perf/layers.py`` wraps simulator methods at run time: every
handler's ``on_round``, ``Network.step`` and the getter of
``ProtocolParams.cd``, which it reads as ``vars(ProtocolParams)["cd"].fget``
and so needs ``cd`` to stay a plain property.  A refactor that breaks one
of those hooks breaks every traced benchmark pass, which the tier-1 suite
would otherwise not notice.  The module is loaded from its file and only
used, never edited.
"""

import importlib.util
import os

from repro.exec import WorkUnit, execute_unit
from repro.graphs import grid_graph

LAYERS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "perf", "layers.py",
)


def _layers():
    spec = importlib.util.spec_from_file_location("perf_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outcome(record):
    return (record.result, record.cc_bits, record.rounds,
            record.flooding_rounds, record.correct, record.failed)


def test_traced_algorithm1_unit_matches_untraced():
    layers = _layers()
    unit = WorkUnit(
        "algorithm1", grid_graph(4, 4), 3, f=2, b=60,
        schedule={"kind": "random", "f": 2, "first_round": 1,
                  "last_round": 60 * 6, "respect_c": 2},
    )
    untraced = execute_unit(unit)
    with layers.LayerTracer() as tracer:
        traced = execute_unit(unit)
    counts = tracer.snapshot()["counts"]
    assert _outcome(traced) == _outcome(untraced)
    assert not traced.failed and traced.correct
    assert counts[layers.CD_KEY] > 0
    assert counts["sim.network.handler_calls"] > 0

"""A finished run leaves no cyclic garbage.

The network owns its handlers, injectors and monitors.  A back-reference
that owns the network (as an injector's ``network`` attribute would)
turns every finished run into a reference cycle: the network, every
handler and every flood set then survive until a full GC pass, and peak
memory grows with the number of runs between passes.  Reference counting
alone must free a run.
"""

from __future__ import annotations

import gc

import pytest

from repro.exec import WorkUnit, execute_unit
from repro.graphs import grid_graph


def _repro_garbage():
    """Objects of ``repro`` types found unreachable by a full collection."""
    gc.collect()
    return [
        obj for obj in gc.garbage
        if type(obj).__module__.startswith("repro")
    ]


@pytest.fixture
def saveall():
    """Collection off and DEBUG_SAVEALL on, restored afterwards."""
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _crash_schedule_unit(topology):
    return WorkUnit(
        "algorithm1", topology, 3, f=3, b=45,
        schedule={
            "kind": "random", "f": 3, "first_round": 1,
            "last_round": 45 * topology.diameter, "respect_c": 2,
        },
    )


def _chaos_stack_unit(topology, capture_dir):
    from repro.integrity.frames import IntegrityConfig
    from repro.resilience.failover import RecoveryPolicy

    return WorkUnit(
        "unknown_f", topology, 1,
        inject="drop=0.01",
        recovery=RecoveryPolicy.default(retransmit_budget=5),
        integrity=IntegrityConfig(mode="mac", key_seed=1),
        monitors={"mode": "record", "recovery": True},
        capture_dir=capture_dir,
        allow_root_crash=True,
    )


def _witness_unit(topology):
    # The witness coordinator outlives each network it audits.
    return WorkUnit(
        "algorithm1", topology, 0, f=1, b=64,
        byz="5:equivocate,7:inflate=4@r3",
    )


def test_finished_runs_leave_no_cyclic_garbage(saveall, tmp_path):
    topology = grid_graph(4, 4)
    topology.diameter
    for unit in (
        _crash_schedule_unit(topology),
        _chaos_stack_unit(topology, str(tmp_path)),
        _witness_unit(topology),
    ):
        assert execute_unit(unit).correct
    leaked = _repro_garbage()
    kinds = sorted({type(obj).__qualname__ for obj in leaked})
    assert not leaked, f"{len(leaked)} cyclic repro objects: {kinds[:10]}"

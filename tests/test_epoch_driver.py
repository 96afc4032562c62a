"""The epoch driver's contract, for each family's plan.

One driver (:func:`repro.resilience.driver.drive_epochs`) runs the
failover, churn and Byzantine runtimes.  Whatever the family:

* the combined stats' rounds are exactly the epochs' rounds plus the
  side-runs' rounds (elections, the announce, rejoin handshakes);
* the run never spends more epochs than its budget;
* a discarded epoch books nothing — no ledger entry, and no eviction
  other than its own convictions;
* side-run bits are overhead: protocol bits come from epochs alone;
* the certified row equals its pinned values below.
"""

import random

import pytest

from repro.adversary.schedule import FailureSchedule
from repro.exec import WorkUnit
from repro.exec.scheduler import derive_run
from repro.graphs import grid_graph
from repro.resilience import (
    ByzantineConfig,
    ChurnPolicy,
    RecoveryPolicy,
    TransportConfig,
    driver,
)
from repro.resilience.byzantine import run_with_byzantine
from repro.resilience.epochs import run_with_churn
from repro.resilience.failover import run_with_recovery
from repro.sim.faults import ByzantineSchedule, ChurnSchedule


def _root_crash():
    topo = grid_graph(4, 4)
    return 3, run_with_recovery(
        "unknown_f",
        topo,
        {u: u + 1 for u in topo.nodes()},
        FailureSchedule({0: 30}),
        rng=random.Random(0),
        policy=RecoveryPolicy.default(),
    )


def _amnesiac_rejoin():
    topo = grid_graph(3, 3)
    return 4, run_with_churn(
        "unknown_f",
        topo,
        {u: u + 1 for u in topo.nodes()},
        ChurnSchedule.from_spec(
            "5:crash@r3,5:revive@r9:amnesiac", root=topo.root
        ),
        rng=random.Random(7),
        policy=ChurnPolicy(transport=TransportConfig(retransmits=3)),
    )


def _churn_discard():
    """Drops starve a churned subtree: epoch 1 matches no contributor
    subset and is discarded."""
    topo = grid_graph(3, 3)
    unit = WorkUnit(
        protocol="unknown_f",
        topology=topo,
        seed=1,
        inject="drop=0.02",
        churn={
            "kind": "random",
            "rate": 0.05,
            "horizon": 168,
            "amnesiac": 0.0,
            "flap_rate": 0.0,
        },
    )
    inputs, schedule, kw = derive_run(unit)
    return 4, run_with_churn(
        "unknown_f",
        topo,
        inputs,
        kw["churn"],
        schedule,
        rng=kw["rng"],
        injectors=kw["injectors"],
    )


def _equivocator():
    topo = grid_graph(4, 4)
    return 3, run_with_byzantine(
        "algorithm1",
        topo,
        {u: u + 1 for u in topo.nodes()},
        ByzantineSchedule.from_spec("5:equivocate=3"),
        f=1,
        b=64,
        rng=random.Random(0),
        config=ByzantineConfig(evict_policy="evict"),
    )


SCENARIOS = {
    "recovery": (_root_crash, "recovery", [False, False], {
        "status": "partial", "certified": True, "value": 135,
        "coverage": 15, "missing": 1, "lower_bound": 135,
        "upper_bound": 136, "reason": "recovered", "epochs": 2,
        "elected_root": 1, "overhead_bits": 4175, "live_gaps": 0,
        "integrity_verified": True,
    }),
    "churn": (_amnesiac_rejoin, "churn", [False, False], {
        "status": "exact", "certified": True, "value": 45, "coverage": 9,
        "missing": 0, "lower_bound": 45, "upper_bound": 45,
        "reason": "clean", "epochs": 2, "elected_root": None,
        "overhead_bits": 5590, "live_gaps": 0, "integrity_verified": True,
        "rejoined_coverage": 1,
    }),
    "churn-discard": (_churn_discard, "churn", [True, False], {
        "status": "exact", "certified": True, "value": 44, "coverage": 9,
        "missing": 0, "lower_bound": 44, "upper_bound": 44,
        "reason": "clean", "epochs": 2, "elected_root": None,
        "overhead_bits": 6166, "live_gaps": 0, "integrity_verified": True,
        "rejoined_coverage": 1,
    }),
    "byz": (_equivocator, "byz", [True, False], {
        "status": "partial", "certified": True, "value": 130,
        "coverage": 15, "missing": 1, "lower_bound": 130,
        "upper_bound": 136,
        "reason": "byzantine-audited: exact (zero residual budget)",
        "epochs": 2, "elected_root": None, "overhead_bits": 8024,
        "live_gaps": 0, "integrity_verified": True, "byz_budget": 1,
        "convicted": 1, "influence_bound": 0, "v_max": 16,
    }),
}


@pytest.fixture(params=sorted(SCENARIOS))
def traced(request, monkeypatch):
    """Run one scenario with the driver's epochs and side-runs spied on."""
    epochs, side_runs = [], []
    run_epoch, side_run = driver.run_epoch, driver.EpochOutcome.side_run

    def spy_epoch(*args, **kwargs):
        epochs.append(run_epoch(*args, **kwargs))
        return epochs[-1]

    def spy_side_run(self, *args, **kwargs):
        side_runs.append(side_run(self, *args, **kwargs))
        return side_runs[-1]

    monkeypatch.setattr(driver, "run_epoch", spy_epoch)
    monkeypatch.setattr(driver.EpochOutcome, "side_run", spy_side_run)
    build, family, discards, row = SCENARIOS[request.param]
    max_epochs, out = build()
    assert [e.discarded for e in out.epochs] == discards
    return family, row, max_epochs, out, epochs, side_runs


def test_rounds_are_epochs_plus_side_runs(traced):
    family, _, _, out, epochs, side_runs = traced
    # Every scenario but the Byzantine one runs side-runs: an election,
    # or the announce (plus a rejoin handshake after an amnesiac rejoin).
    assert bool(side_runs) == (family != "byz")
    assert [e.rounds for e in out.epochs] == [o.rounds for o in epochs]
    assert out.stats.rounds_executed == out.rounds == sum(
        e.rounds for e in out.epochs
    ) + sum(n.round for n in side_runs)


def test_epoch_budget_is_respected(traced):
    _, _, max_epochs, out, _, _ = traced
    assert 1 <= len(out.epochs) <= max_epochs
    assert out.partial.epochs == len(out.epochs)


def test_discarded_epoch_books_nothing(traced):
    family, _, _, out, _, _ = traced
    discarded = [e for e in out.epochs if e.discarded]
    assert not any(e.booked for e in discarded)
    if family == "churn":
        kept = {u for e in out.epochs if not e.discarded for u in e.booked}
        assert {n for n, _i, _v in out.ledger.as_entries()} == kept
    if family == "byz":
        assert set(out.evicted) == {u for e in discarded for u in e.convicted}


def test_side_run_bits_are_overhead(traced):
    family, _, _, out, epochs, _ = traced
    protocol_bits = {}
    for report, epoch in zip(out.epochs, epochs):
        if report.discarded and family == "byz":
            continue  # a discarded Byzantine epoch is defence overhead
        for node, bits in epoch.stats.bits_sent.items():
            protocol_bits[node] = protocol_bits.get(node, 0) + bits
    assert out.stats.bits_sent == protocol_bits


def test_row_matches_the_pinned_values(traced):
    _, row, _, out, _, _ = traced
    assert out.partial.as_dict() == row

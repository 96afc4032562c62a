"""The epoch driver's contract, for each family's plan.

One driver (:func:`repro.resilience.driver.drive_epochs`) runs the
failover, churn and Byzantine runtimes.  Whatever the family:

* the combined stats' rounds are exactly the epochs' rounds plus the
  side-runs' rounds (elections, the announce, rejoin handshakes);
* the run never spends more epochs than its budget;
* a discarded epoch books nothing — no ledger entry, and no eviction
  other than its own convictions;
* side-run bits are overhead: protocol bits come from epochs alone;
* the certificate, and the run row's grade columns, equal their pinned
  values below.

Each scenario runs through :func:`repro.analysis.runner.run_protocol`,
which builds the family's plan and hands it to the driver.
"""

import random

import pytest

from repro.adversary.schedule import FailureSchedule
from repro.analysis.runner import run_protocol
from repro.exec import WorkUnit
from repro.exec.scheduler import derive_run
from repro.families.byz import ByzantineSchedule
from repro.families.churn import ChurnSchedule
from repro.graphs import grid_graph
from repro.resilience import (
    ByzantineConfig,
    ChurnPolicy,
    RecoveryPolicy,
    TransportConfig,
    driver,
)
from repro.resilience.byzantine import ByzantinePlan
from repro.resilience.epochs import ChurnPlan
from repro.resilience.failover import FailoverPlan


def _root_crash():
    topo = grid_graph(4, 4)
    return 3, run_protocol(
        "unknown_f",
        topo,
        {u: u + 1 for u in topo.nodes()},
        FailureSchedule({0: 30}),
        rng=random.Random(0),
        recovery=RecoveryPolicy.default(),
    )


def _amnesiac_rejoin():
    topo = grid_graph(3, 3)
    return 4, run_protocol(
        "unknown_f",
        topo,
        {u: u + 1 for u in topo.nodes()},
        rng=random.Random(7),
        churn=ChurnSchedule.from_spec(
            "5:crash@r3,5:revive@r9:amnesiac", root=topo.root
        ),
        churn_policy=ChurnPolicy(transport=TransportConfig(retransmits=3)),
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
    return 4, run_protocol("unknown_f", topo, inputs, schedule, **kw)


def _equivocator():
    topo = grid_graph(4, 4)
    return 3, run_protocol(
        "algorithm1",
        topo,
        {u: u + 1 for u in topo.nodes()},
        f=1,
        b=64,
        rng=random.Random(0),
        byz=ByzantineSchedule.from_spec("5:equivocate=3"),
        byz_config=ByzantineConfig(evict_policy="evict"),
    )


SCENARIOS = {
    "recovery": (_root_crash, "recovery", [False, False], {
        "status": "partial", "certified": True, "value": 135,
        "coverage": 15, "missing": 1, "lower_bound": 135,
        "upper_bound": 136, "reason": "recovered", "epochs": 2,
        "elected_root": 1, "overhead_bits": 4175, "live_gaps": 0,
        "integrity_verified": True,
    }, {"correct": True, "cc_bits": 165, "rounds": 4132, "elections": 1}),
    "churn": (_amnesiac_rejoin, "churn", [False, False], {
        "status": "exact", "certified": True, "value": 45, "coverage": 9,
        "missing": 0, "lower_bound": 45, "upper_bound": 45,
        "reason": "clean", "epochs": 2, "elected_root": None,
        "overhead_bits": 5590, "live_gaps": 0, "integrity_verified": True,
        "rejoined_coverage": 1,
    }, {"correct": True, "cc_bits": 272, "rounds": 1903,
        "double_counted": 0, "lost_contributions": 0}),
    "churn-discard": (_churn_discard, "churn", [True, False], {
        "status": "exact", "certified": True, "value": 44, "coverage": 9,
        "missing": 0, "lower_bound": 44, "upper_bound": 44,
        "reason": "clean", "epochs": 2, "elected_root": None,
        "overhead_bits": 6166, "live_gaps": 0, "integrity_verified": True,
        "rejoined_coverage": 1,
    }, {"correct": True, "cc_bits": 287, "rounds": 5178,
        "double_counted": 0, "lost_contributions": 0}),
    "byz": (_equivocator, "byz", [True, False], {
        "status": "partial", "certified": True, "value": 130,
        "coverage": 15, "missing": 1, "lower_bound": 130,
        "upper_bound": 136,
        "reason": "byzantine-audited: exact (zero residual budget)",
        "epochs": 2, "elected_root": None, "overhead_bits": 8024,
        "live_gaps": 0, "integrity_verified": True, "byz_budget": 1,
        "convicted": 1, "influence_bound": 0, "v_max": 16,
    }, {"correct": True, "cc_bits": 226, "rounds": 302,
        "false_convictions": 0, "undetected_equivocations": 0,
        "influence_exceeded": 0}),
}


@pytest.fixture(params=sorted(SCENARIOS))
def traced(request, monkeypatch):
    """Run one scenario with the driver, its epochs and side-runs spied
    on: the plan and outcome, the epochs' outcomes, the side networks."""
    epochs, side_runs, driven = [], [], []
    drive, run_epoch = driver.drive_epochs, driver.run_epoch
    side_run = driver.EpochOutcome.side_run

    def spy_drive(plan, *args, **kwargs):
        driven.append((plan, drive(plan, *args, **kwargs)))
        return driven[-1][1]

    def spy_epoch(*args, **kwargs):
        epochs.append(run_epoch(*args, **kwargs))
        return epochs[-1]

    def spy_side_run(self, *args, **kwargs):
        side_runs.append(side_run(self, *args, **kwargs))
        return side_runs[-1]

    monkeypatch.setattr(driver, "drive_epochs", spy_drive)
    monkeypatch.setattr(driver, "run_epoch", spy_epoch)
    monkeypatch.setattr(driver.EpochOutcome, "side_run", spy_side_run)
    build, family, discards, _, _ = SCENARIOS[request.param]
    max_epochs, record = build()
    [(plan, out)] = driven
    assert plan.family == family and plan.max_epochs == max_epochs
    assert [e.discarded for e in out.epochs] == discards
    return request.param, record, plan, out, epochs, side_runs


def test_rounds_are_epochs_plus_side_runs(traced):
    _, _, plan, out, epochs, side_runs = traced
    # Every scenario but the Byzantine one runs side-runs: an election,
    # or the announce (plus a rejoin handshake after an amnesiac rejoin).
    assert bool(side_runs) == (plan.family != "byz")
    assert [e.rounds for e in out.epochs] == [o.rounds for o in epochs]
    assert out.stats.rounds_executed == out.rounds == sum(
        e.rounds for e in out.epochs
    ) + sum(n.round for n in side_runs)


def test_epoch_budget_is_respected(traced):
    _, _, plan, out, _, _ = traced
    assert 1 <= len(out.epochs) <= plan.max_epochs
    assert out.partial.epochs == len(out.epochs)


def test_discarded_epoch_books_nothing(traced):
    _, _, plan, out, _, _ = traced
    discarded = [e for e in out.epochs if e.discarded]
    assert not any(e.booked for e in discarded)
    if plan.family == "churn":
        kept = {u for e in out.epochs if not e.discarded for u in e.booked}
        assert {n for n, _i, _v in plan.ledger.as_entries()} == kept
    if plan.family == "byz":
        assert plan.evicted == {u for e in discarded for u in e.convicted}


def test_side_run_bits_are_overhead(traced):
    _, _, plan, out, epochs, _ = traced
    protocol_bits = {}
    for report, epoch in zip(out.epochs, epochs):
        if report.discarded and plan.discards_as_overhead:
            continue  # a discarded Byzantine epoch is defence overhead
        for node, bits in epoch.stats.bits_sent.items():
            protocol_bits[node] = protocol_bits.get(node, 0) + bits
    assert out.stats.bits_sent == protocol_bits


def test_row_matches_the_pinned_values(traced):
    name, record, _, out, _, _ = traced
    certificate, columns = SCENARIOS[name][3:]
    assert out.partial.as_dict() == certificate
    row = record.as_dict()
    assert {key: row[key] for key in columns} == columns


def _plans():
    """One plan of each family, as built for a 4x4 grid."""
    topo = grid_graph(4, 4)
    inputs = {u: u + 1 for u in topo.nodes()}
    return topo, inputs, [
        FailoverPlan(topo, inputs),
        ChurnPlan(topo, inputs, ChurnSchedule()),
        ByzantinePlan(topo, inputs, ByzantineSchedule.from_spec("5:omit")),
    ]


#: What ``drive_epochs`` and the runner read from a plan.
PLAN_MEMBERS = (
    "family", "whole_run_rules", "discards_as_overhead", "max_epochs",
    "transport", "caaf", "monitors", "world", "judge", "certify", "grade",
)


def test_every_plan_has_every_member():
    _, _, plans = _plans()
    for plan in plans:
        missing = [m for m in PLAN_MEMBERS if not hasattr(plan, m)]
        assert not missing, f"{type(plan).__name__} lacks {missing}"
        for method in ("world", "judge", "certify", "grade"):
            assert callable(getattr(plan, method))
    assert sorted(plan.family for plan in plans) == ["byz", "churn", "recovery"]


def test_rejections_come_before_any_network(monkeypatch):
    """Plans refuse bad inputs when built and the driver refuses a
    protocol it cannot restart when entered: no network is ever built."""
    from repro.core.caaf import COUNT
    from repro.sim.network import Network

    topo, inputs, plans = _plans()

    def no_network(*args, **kwargs):
        raise AssertionError("a network was built before the rejection")

    monkeypatch.setattr(Network, "__init__", no_network)
    for plan in plans:
        with pytest.raises(ValueError, match="supports protocols"):
            driver.drive_epochs(plan, "folklore")
    with pytest.raises(ValueError, match="COUNT"):
        ChurnPlan(topo, inputs, ChurnSchedule(), caaf=COUNT)
    root_crash = ChurnSchedule.from_spec("0:crash@r3", root=None)
    with pytest.raises(ValueError, match="root"):
        ChurnPlan(topo, inputs, root_crash)

"""E24 — churn-tolerant epochs: exactly-once aggregation under rejoins.

The paper's model is crash-stop: a failed node is gone forever, and the
protocols' correctness story leans on that (a contribution is counted at
most once because nobody comes back to offer it twice).  This bench
measures what the churn epoch manager (:mod:`repro.resilience.epochs`)
buys when nodes *do* come back:

* **Exactness vs churn rate.**  Random crash/revive schedules at rates
  0–0.2, durable and mixed (25% amnesiac) arms.  Durable churn within
  the budget stays exact; amnesiac churn degrades only to *certified*
  partials (coverage exact, value exact over it) — and the
  :class:`DoubleCountOracle` confirms zero double-counted and zero
  silently lost contributions at every rate.
* **Exactly-once accounting.**  Every booked contribution carries a
  ``(node_id, incarnation)`` nonce; the oracle audits the ledger against
  the ground-truth input multiset.
* **Repair traffic isolation.**  A durable blip's retransmits, NACKs,
  incarnation stamps, announces and handshakes all book as
  ``overhead_bits``: the protocol CC column is unchanged from the clean
  transport baseline, bit for bit.
"""

import random

import pytest

from repro.analysis import format_table
from repro.analysis.runner import make_inputs
from repro.exec.scheduler import WorkUnit, execute_unit
from repro.families.churn import REJOIN_DURABLE, ChurnSchedule
from repro.graphs import grid_graph
from repro.resilience import ChurnPolicy, TransportConfig
from repro.resilience.driver import drive_epochs
from repro.resilience.epochs import ChurnPlan

from _util import emit, once

SEEDS = 5
RATES = (0.0, 0.05, 0.1, 0.2)
HORIZON = 160


def _campaign(topo, rate, amnesiac):
    rows = {
        "exact": 0,
        "partial": 0,
        "uncertified": 0,
        "double": 0,
        "lost": 0,
        "epochs": 0,
        "cc": 0,
        "overhead": 0,
    }
    for seed in range(SEEDS):
        record = execute_unit(
            WorkUnit(
                protocol="unknown_f",
                topology=topo,
                seed=seed,
                schedule={"kind": "none"},
                monitors={"mode": "record", "recovery": False},
                churn={
                    "kind": "random",
                    "rate": rate,
                    "horizon": HORIZON,
                    "amnesiac": amnesiac,
                    "flap_rate": 0.0,
                },
                churn_policy=ChurnPolicy(
                    transport=TransportConfig(retransmits=5)
                ),
            )
        )
        extra = record.extra
        if record.correct and not extra.get("missing"):
            rows["exact"] += 1
        elif extra.get("certified"):
            rows["partial"] += 1
        else:
            rows["uncertified"] += 1
        rows["double"] += extra.get("double_counted", 0)
        rows["lost"] += extra.get("lost_contributions", 0)
        rows["epochs"] += extra.get("epochs", 1)
        rows["cc"] += record.cc_bits
        rows["overhead"] += extra.get("overhead_bits", 0)
    return rows


def run_churn_study():
    topo = grid_graph(4, 4)
    table = []
    for rate in RATES:
        for label, amnesiac in (("durable", 0.0), ("mixed", 0.25)):
            if rate == 0.0 and label == "mixed":
                continue
            rows = _campaign(topo, rate, amnesiac)
            table.append(
                {
                    "churn": rate,
                    "rejoins": label,
                    "seeds": SEEDS,
                    "exact": rows["exact"],
                    "certified partial": rows["partial"],
                    "uncertified": rows["uncertified"],
                    "double-count": rows["double"],
                    "lost": rows["lost"],
                    "mean epochs": round(rows["epochs"] / SEEDS, 2),
                    "CC": rows["cc"] // SEEDS,
                    "overhead": rows["overhead"] // SEEDS,
                }
            )
    return topo, table


def run_cc_isolation_study():
    """Durable blips vs the clean transport baseline, same seeds."""
    topo = grid_graph(4, 4)
    policy = ChurnPolicy(transport=TransportConfig(retransmits=5))
    non_root = sorted(set(topo.nodes()) - {topo.root})
    rows = []
    for seed in range(SEEDS):
        rng = random.Random(seed)
        inputs = make_inputs(topo, rng)
        clean = drive_epochs(
            ChurnPlan(topo, inputs, ChurnSchedule(), policy=policy),
            "unknown_f",
            rng=random.Random(seed),
        )
        node = non_root[seed % len(non_root)]
        blip = drive_epochs(
            ChurnPlan(
                topo,
                inputs,
                ChurnSchedule(
                    cycles={node: [(3 + seed, 7 + seed, REJOIN_DURABLE)]},
                    root=topo.root,
                ),
                policy=policy,
            ),
            "unknown_f",
            rng=random.Random(seed),
        )
        rows.append(
            {
                "seed": seed,
                "blipped node": node,
                "clean CC": clean.stats.max_bits,
                "blip CC": blip.stats.max_bits,
                "clean overhead": clean.stats.max_overhead_bits,
                "blip overhead": blip.stats.max_overhead_bits,
                "exact": blip.result == sum(inputs.values()),
            }
        )
    return rows


@pytest.mark.benchmark(group="churn")
def test_churn_epochs_exactly_once(benchmark):
    topo, table = once(benchmark, run_churn_study)
    emit(
        "e24_churn_epochs",
        format_table(
            table,
            title=(
                f"E24: exactness vs churn rate on {topo.name} "
                f"(unknown_f, epoch manager, {SEEDS} seeds)"
            ),
        ),
    )
    by_key = {(r["churn"], r["rejoins"]): r for r in table}
    # The acceptance bar: durable churn at rate 0.05 is fully exact with
    # zero exactly-once violations.
    assert by_key[(0.05, "durable")]["exact"] == SEEDS
    for row in table:
        assert row["double-count"] == 0
        assert row["lost"] == 0
        # Degradation is honest: no silent-wrong rows hide in the table
        # because uncertified rows are counted, never blended.
        assert (
            row["exact"] + row["certified partial"] + row["uncertified"]
            == SEEDS
        )


@pytest.mark.benchmark(group="churn")
def test_repair_traffic_never_touches_protocol_cc(benchmark):
    rows = once(benchmark, run_cc_isolation_study)
    emit(
        "e24_churn_cc_isolation",
        format_table(
            rows,
            title=(
                "E24: protocol CC under a durable blip vs clean baseline "
                "(all repair traffic booked as overhead)"
            ),
        ),
    )
    for row in rows:
        assert row["blip CC"] == row["clean CC"]
        assert row["blip overhead"] >= row["clean overhead"]
        assert row["exact"]

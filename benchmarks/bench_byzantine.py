"""E27 — Byzantine-tolerant aggregation: equivocation vs the witnesses.

The paper's fault model is crash-stop: a failed node falls silent and
its subtree is *visibly* missing.  A Byzantine node is worse — it stays
in the protocol and lies, and an undetected lie corrupts the aggregate
silently.  This bench measures what the witness defense
(:class:`repro.families.byz.ByzantineSchedule` equivocation faults,
:mod:`repro.resilience.byzantine` k-witness cross-validation,
accusation/conviction, influence-bounded certification) buys:

* **Detection vs attack mode.**  Fixed compromises exercising every
  behaviour (equivocate / inflate / deflate / replay / omit, plus a
  mixed three-node arm) and random compromise schedules at rates
  0.1-0.2.  Every delivered result must be exact or carry a satisfied
  influence bound (``record.correct``), and the
  :class:`~repro.families.byz.ByzantineOracle` must see **zero**
  FALSE-CONVICTION, zero UNDETECTED-EQUIVOCATION, and zero
  INFLUENCE-EXCEEDED verdicts in every arm.
* **The defense is free when clean.**  A zero-compromise schedule
  (``rate: 0``) must leave protocol CC, rounds, and the result
  bit-for-bit identical to a run with no Byzantine layer at all, seed
  for seed — witness echo traffic only ever books as ``overhead_bits``
  and never inflates the paper's CC accounting.

The trajectory point lands in ``BENCH_e27_byzantine.json`` at the repo
root (per-arm exactness, conviction/eviction counts, oracle verdicts,
echo overhead, and the clean-run CC-identity flag).
"""

import json
import os

import pytest

from repro.analysis import format_table
from repro.exec.scheduler import WorkUnit, execute_unit
from repro.graphs import grid_graph
from repro.resilience import ByzantineConfig

from _util import emit, once

SEEDS = 5
F = 1
B = 64
GRID = (4, 4)
#: Behaviour horizon for random schedules — comfortably past the run.
HORIZON = 400
TRAJECTORY_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_e27_byzantine.json"
)

#: (label, byz spec) — fixed single-mode compromises, a mixed arm, and
#: random schedules.  Node choices avoid the root (node 0).
ARMS = (
    ("equivocate", "5:equivocate"),
    ("inflate", "9:inflate=3"),
    ("deflate", "9:deflate=2"),
    ("replay", "6:replay"),
    ("omit", "10:omit"),
    ("mixed x3", "5:equivocate,9:inflate=3,10:omit"),
    ("random 0.1", {"kind": "random", "rate": 0.1, "horizon": HORIZON}),
    ("random 0.2", {"kind": "random", "rate": 0.2, "horizon": HORIZON}),
)


def _unit(topo, seed, byz, byz_config=None):
    return WorkUnit(
        protocol="algorithm1",
        topology=topo,
        seed=seed,
        f=F,
        b=B,
        schedule={"kind": "none"},
        monitors={"mode": "record", "recovery": False},
        byz=byz,
        byz_config=byz_config,
    )


def _campaign(topo, byz):
    rows = {
        "ok": 0,
        "exact": 0,
        "convicted": 0,
        "evicted": 0,
        "false_convictions": 0,
        "undetected": 0,
        "exceeded": 0,
        "epochs": 0,
        "cc": 0,
        "overhead": 0,
    }
    config = ByzantineConfig(witnesses=2, evict_policy="evict")
    for seed in range(SEEDS):
        record = execute_unit(_unit(topo, seed, byz, config))
        extra = record.extra
        if record.correct:
            rows["ok"] += 1
        if record.correct and not extra.get("influence_bound"):
            rows["exact"] += 1
        rows["convicted"] += int(extra.get("convicted") or 0)
        evicted = extra.get("evicted") or 0
        rows["evicted"] += (
            evicted if isinstance(evicted, int) else len(evicted)
        )
        rows["false_convictions"] += extra.get("false_convictions", 0)
        rows["undetected"] += extra.get("undetected_equivocations", 0)
        rows["exceeded"] += extra.get("influence_exceeded", 0)
        rows["epochs"] += int(extra.get("epochs") or 1)
        rows["cc"] += record.cc_bits
        rows["overhead"] += extra.get("overhead_bits", 0)
    return rows


def run_byz_study():
    topo = grid_graph(*GRID)
    table = []
    for label, byz in ARMS:
        rows = _campaign(topo, byz)
        table.append(
            {
                "attack": label,
                "seeds": SEEDS,
                "ok": rows["ok"],
                "exact": rows["exact"],
                "convicted": rows["convicted"],
                "evicted": rows["evicted"],
                "false-conviction": rows["false_convictions"],
                "undetected-equivocation": rows["undetected"],
                "influence-exceeded": rows["exceeded"],
                "epochs": rows["epochs"],
                "CC": rows["cc"] // SEEDS,
                "overhead": rows["overhead"] // SEEDS,
            }
        )
    return topo, table


def run_clean_cc_study():
    """Zero compromises: the byz pipeline must be bit-free overhead."""
    topo = grid_graph(*GRID)
    clean = {"kind": "random", "rate": 0.0, "horizon": HORIZON}
    rows = []
    for seed in range(SEEDS):
        base = execute_unit(_unit(topo, seed, None))
        armed = execute_unit(
            _unit(topo, seed, clean, ByzantineConfig(witnesses=2))
        )
        rows.append(
            {
                "seed": seed,
                "base CC": base.cc_bits,
                "armed CC": armed.cc_bits,
                "base rounds": base.rounds,
                "armed rounds": armed.rounds,
                "identical": (
                    base.cc_bits == armed.cc_bits
                    and base.rounds == armed.rounds
                    and base.result == armed.result
                ),
            }
        )
    return rows


def _write_trajectory(table, cc_rows):
    point = {
        "experiment": "E27",
        "protocol": "algorithm1",
        "topology": f"grid({GRID[0]}x{GRID[1]})",
        "f": F,
        "b": B,
        "seeds": SEEDS,
        "witnesses": 2,
        "rows": table,
        "clean_run_cc_identical": all(r["identical"] for r in cc_rows),
    }
    with open(os.path.abspath(TRAJECTORY_PATH), "w") as fh:
        json.dump(point, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.mark.benchmark(group="byzantine")
def test_byzantine_attacks_detected_or_bounded(benchmark):
    topo, table = once(benchmark, run_byz_study)
    emit(
        "e27_byzantine",
        format_table(
            table,
            title=(
                f"E27: Byzantine attacks vs witness defense on {topo.name} "
                f"(algorithm1, f={F}, b={B}, k=2 witnesses, {SEEDS} seeds)"
            ),
        ),
    )
    cc_rows = run_clean_cc_study()
    emit(
        "e27_byz_cc_isolation",
        format_table(
            cc_rows,
            title=(
                "E27: protocol CC with the byz pipeline armed but zero "
                "compromises vs no byz layer (echo traffic books as "
                "overhead, never CC)"
            ),
        ),
    )
    _write_trajectory(table, cc_rows)

    # The acceptance bar: every delivered result is exact or carries a
    # satisfied influence bound, and the oracle never sees an honest
    # node convicted, an equivocator escape while the result went
    # wrong, or a value outside its certified envelope.
    for row in table:
        assert row["ok"] == SEEDS, row
        assert row["false-conviction"] == 0, row
        assert row["undetected-equivocation"] == 0, row
        assert row["influence-exceeded"] == 0, row

    # Outright lies that cannot hide inside the influence envelope —
    # contradictory variants, selective omission — must end in actual
    # convictions, not just a widened bound.
    by_attack = {row["attack"]: row for row in table}
    assert by_attack["equivocate"]["convicted"] == SEEDS
    assert by_attack["omit"]["convicted"] == SEEDS

    # Zero-compromise runs are bit-identical to the unarmed baseline.
    for row in cc_rows:
        assert row["identical"], row

"""The perf benchmark's four workloads and the checks on their outputs.

Every input comes from the workload seed ``S``: serial run ``i`` is the
work unit with seed ``S + i``; engine-sweep batch ``k`` holds the units
with seeds ``S + k*PER_B .. S + (k+1)*PER_B - 1`` for every ``b`` in
``ENGINE_BS``.  Topologies are fixed, so a run's outcome depends only on
its id (seed, and b for the engine) and the committed golden outcomes
apply to any workload seed that reaches it.

``repro`` is imported inside the functions: importing it is part of the
set-up time the benchmark measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: b values of the engine-sweep batch (the shape of a ``sweep-b`` run).
ENGINE_BS = (42, 63, 90, 120)
#: Seeds per b value in one engine-sweep batch (40 units, ~1 s cold):
#: short enough that the host clock's probes bracket each batch closely.
PER_B = 10
#: Worker processes of the engine-sweep pool (the reference host has 2 CPUs).
ENGINE_JOBS = 2
#: Warm (all-hit) passes after each cold engine-sweep batch.
WARM_PASSES = 3
#: Serial runs / engine seeds per b in the traced pass.
TRACE_RUNS = 4
TRACE_PER_B = 10
#: The geo-dense graph: one fixed sample (d=13, 1232 edges).  The
#: generator's default radius flips the diameter between ~12 and ~21 from
#: sample to sample, and even at radius 0.15 it ranges over 11-13, which
#: moved rounds per run, and so runs_per_s, by 13% from seed to seed.
GEO_RADIUS = 0.15
GEO_GRAPH_SEED = 0
#: chaos-stack's drop rate.  A run ends uncertified when a frame is lost
#: on its first send and on all 5 retransmissions (a lost NACK loses an
#: attempt too).  At 0.05 that happened in 2 of seeds 0-199 (45 and 118),
#: and a benchmark run that meets such a seed fails; at 0.01 the odds per
#: frame fall by about 5^6 and none of seeds 0-199 fails.
CHAOS_DROP = 0.01


@dataclass
class Context:
    """What set-up produces: the topology and the scratch directory."""

    topology: Any
    seed: int
    scratch: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "serial" or "engine"
    #: Chaos-stack runs must also end certified.
    certified: bool = False

    # -- set-up --------------------------------------------------------- #

    def setup(self, seed: int, scratch: str) -> Context:
        """Import, build the topology and its diameter, build the first
        unit: everything before the first run can start."""
        from repro.exec import WorkUnit, execute_unit  # noqa: F401
        from repro.graphs import grid_graph, random_geometric

        if self.name == "grid-idle":
            topology = grid_graph(20, 20)
        elif self.name == "geo-dense":
            topology = random_geometric(
                200, radius=GEO_RADIUS, rng=random.Random(GEO_GRAPH_SEED)
            )
        elif self.name == "chaos-stack":
            from repro.integrity.frames import IntegrityConfig  # noqa: F401
            from repro.resilience.failover import RecoveryPolicy  # noqa: F401

            topology = grid_graph(5, 5)
        elif self.name == "engine-sweep":
            from repro.exec import ExecutionEngine, ResultCache  # noqa: F401

            topology = grid_graph(6, 6)
        else:  # pragma: no cover - names come from WORKLOADS
            raise ValueError(self.name)
        topology.diameter
        ctx = Context(topology=topology, seed=seed, scratch=scratch)
        self.units(ctx, 0, 1)
        return ctx

    # -- units ---------------------------------------------------------- #

    def unit(self, ctx: Context, run_seed: int, b: Optional[int] = None):
        from repro.exec import WorkUnit

        topo = ctx.topology
        d = topo.diameter
        if self.name == "grid-idle":
            return WorkUnit(
                "algorithm1", topo, run_seed, f=8, b=90,
                schedule=_random_crashes(8, 90 * d, respect_c=2),
            )
        if self.name == "geo-dense":
            return WorkUnit(
                "algorithm1", topo, run_seed, f=30, b=63,
                schedule=_random_crashes(30, 63 * d, respect_c=None),
            )
        if self.name == "chaos-stack":
            from repro.integrity.frames import IntegrityConfig
            from repro.resilience.failover import RecoveryPolicy

            return WorkUnit(
                "unknown_f", topo, run_seed,
                inject=f"drop={CHAOS_DROP}",
                recovery=RecoveryPolicy.default(retransmit_budget=5),
                integrity=IntegrityConfig(mode="mac", key_seed=run_seed),
                monitors={"mode": "record", "recovery": True},
                capture_dir=ctx.scratch,
                allow_root_crash=True,
            )
        return WorkUnit(
            "algorithm1", topo, run_seed, f=8, b=b,
            schedule=_random_crashes(8, b * d, respect_c=2),
            coords={"b": b},
        )

    def units(self, ctx: Context, first: int, count: int) -> List[Any]:
        """Serial: runs ``first .. first+count-1``.  Engine: batch
        ``first`` with ``count`` seeds per b value."""
        if self.kind == "serial":
            return [self.unit(ctx, ctx.seed + i) for i in range(first, first + count)]
        base = ctx.seed + first * count
        return [
            self.unit(ctx, base + j, b) for b in ENGINE_BS for j in range(count)
        ]

    def run_id(self, unit) -> str:
        if self.kind == "engine":
            return f"b{unit.b}-s{unit.seed}"
        return f"s{unit.seed}"

    # -- checks --------------------------------------------------------- #

    def problem(self, record, expected: Optional[list]) -> Optional[str]:
        """Why ``record`` fails its checks, or None when it passes."""
        if record.failed:
            return f"error {record.error_kind}: {record.error}"
        if not record.correct:
            return "result fails the Section 2 oracle"
        if self.certified and record.extra.get("certified") is not True:
            return f"ended uncertified (status {record.extra.get('status')})"
        if expected is not None and outcome(record) != expected:
            return f"outcome {outcome(record)} != golden {expected}"
        return None


def _random_crashes(f: int, horizon: int, respect_c) -> Dict[str, Any]:
    return {
        "kind": "random",
        "f": f,
        "first_round": 1,
        "last_round": horizon,
        "respect_c": respect_c,
    }


def outcome(record) -> list:
    """The simulated statistics a simulator-only change must not move."""
    return [
        record.result,
        record.cc_bits,
        record.rounds,
        record.flooding_rounds,
        record.extra.get("status"),
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "grid-idle",
            "Algorithm 1 on a 20x20 grid: most nodes have no mail in most "
            "rounds, so per-node dispatch and the stop scan dominate",
            "serial",
        ),
        Workload(
            "geo-dense",
            "Algorithm 1 on a dense 200-node geometric graph: short "
            "diameter, many deliveries, so AGG/VERI handlers and delivery "
            "dominate",
            "serial",
        ),
        Workload(
            "chaos-stack",
            "unknown_f on a 5x5 grid under drop=0.01 with transport, MAC "
            "integrity, monitors and the recorder: the overlays dominate",
            "serial",
            certified=True,
        ),
        Workload(
            "engine-sweep",
            "batches of small Algorithm 1 units through a 2-worker pool "
            "and a result cache, cold then warm: per-unit fixed costs "
            "dominate",
            "engine",
        ),
    )
}

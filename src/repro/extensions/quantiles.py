"""SELECTION, MEDIAN, and AVERAGE on top of fault-tolerant COUNT/SUM.

Section 2 of the paper: "MEDIAN and SELECTION can be solved using COUNT by
doing a binary search over the output domain" (citing Patt-Shamir).  This
module implements exactly that, with Algorithm 1 (or the brute-force
protocol) as the fault-tolerant COUNT/SUM substrate:

* each probe asks every node for the indicator ``input <= m`` and runs a
  zero-error COUNT;
* binary search over the value domain finds the smallest ``m`` whose
  rank-count reaches ``k``;
* AVERAGE composes one SUM probe and one COUNT probe.

Failure semantics: each probe individually satisfies the paper's
correctness definition for its execution window (probes run back-to-back
on a shared timeline, so a node that crashes in probe 3 is gone for probe
4 onward).  When no failures occur, the result is the exact k-th smallest
input.  Under failures, the returned value is exact for *some* node
population bracketed between the final survivors and the initial
membership — the natural lift of the paper's interval semantics to
multi-round queries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..adversary.schedule import FailureSchedule
from ..baselines.bruteforce import run_bruteforce
from ..core.algorithm1 import run_algorithm1
from ..core.caaf import CAAF, COUNT, SUM
from ..graphs.topology import Topology


@dataclass
class ProbeRecord:
    """One COUNT/SUM probe in a composite query."""

    description: str
    result: int
    rounds: int
    cc_bits_per_node: Dict[int, int] = field(default_factory=dict)


@dataclass
class QueryOutcome:
    """Result of a composite (multi-probe) distributed query."""

    value: Optional[float]
    probes: List[ProbeRecord]

    @property
    def probe_count(self) -> int:
        return len(self.probes)

    @property
    def total_rounds(self) -> int:
        """Rounds across all probes (probes run back-to-back)."""
        return sum(p.rounds for p in self.probes)

    @property
    def cc_bits(self) -> int:
        """Bottleneck-node bits summed across all probes."""
        totals: Dict[int, int] = {}
        for probe in self.probes:
            for node, bits in probe.cc_bits_per_node.items():
                totals[node] = totals.get(node, 0) + bits
        return max(totals.values(), default=0)


class _ProbeRunner:
    """Runs successive aggregate probes on a shared failure timeline."""

    def __init__(
        self,
        topology: Topology,
        f: int,
        b: Optional[int],
        schedule: Optional[FailureSchedule],
        c: int,
        rng: Optional[random.Random],
        protocol: str,
    ) -> None:
        if protocol not in ("algorithm1", "bruteforce"):
            raise ValueError(f"unsupported substrate protocol {protocol!r}")
        if protocol == "algorithm1" and b is None:
            raise ValueError("algorithm1 substrate needs a time budget b")
        self.topology = topology
        self.f = f
        self.b = b
        self.schedule = schedule or FailureSchedule()
        self.schedule.validate(topology)
        self.c = c
        self.rng = rng or random.Random()
        self.protocol = protocol
        self.elapsed_rounds = 0
        self.probes: List[ProbeRecord] = []

    def shifted_schedule(self) -> FailureSchedule:
        """The failure timeline's remainder on the next probe's clock."""
        shifted = FailureSchedule()
        for node, rnd in self.schedule.crash_rounds.items():
            shifted.add(node, max(1, rnd - self.elapsed_rounds))
        return shifted

    def run(self, description: str, caaf: CAAF, inputs: Dict[int, int]) -> int:
        """Run one aggregate probe; returns its (correct) result."""
        schedule = self.shifted_schedule()
        if self.protocol == "algorithm1":
            out = run_algorithm1(
                self.topology,
                inputs,
                f=self.f,
                b=self.b,
                schedule=schedule,
                c=self.c,
                caaf=caaf,
                rng=self.rng,
            )
            rounds, stats = out.rounds, out.stats
        else:
            out = run_bruteforce(
                self.topology, inputs, schedule=schedule, c=self.c, caaf=caaf
            )
            rounds, stats = out.rounds, out.stats
        self.elapsed_rounds += rounds
        record = ProbeRecord(
            description=description,
            result=out.result,
            rounds=rounds,
            cc_bits_per_node=dict(stats.bits_sent),
        )
        self.probes.append(record)
        return out.result


def distributed_select(
    topology: Topology,
    inputs: Dict[int, int],
    k: int,
    f: int,
    b: Optional[int] = None,
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    rng: Optional[random.Random] = None,
    protocol: str = "algorithm1",
) -> QueryOutcome:
    """Find the k-th smallest input (1-based) via COUNT binary search.

    Uses ``ceil(log2(domain))`` COUNT probes; each probe is a full
    fault-tolerant aggregation, so the total cost is the probe count times
    the substrate's CC/TC — matching the Patt-Shamir reduction the paper
    cites.
    """
    if k < 1:
        raise ValueError("k must be >= 1 (1-based rank)")
    runner = _ProbeRunner(topology, f, b, schedule, c, rng, protocol)
    lo, hi = 0, max(inputs.values())
    while lo < hi:
        mid = (lo + hi) // 2
        indicator = {u: 1 if inputs[u] <= mid else 0 for u in inputs}
        rank = runner.run(f"count(<= {mid})", COUNT_INDICATOR, indicator)
        if rank >= k:
            hi = mid
        else:
            lo = mid + 1
    return QueryOutcome(value=lo, probes=runner.probes)


def distributed_median(
    topology: Topology,
    inputs: Dict[int, int],
    f: int,
    b: Optional[int] = None,
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    rng: Optional[random.Random] = None,
    protocol: str = "algorithm1",
) -> QueryOutcome:
    """The median input: one COUNT probe for n, then a rank selection."""
    runner = _ProbeRunner(topology, f, b, schedule, c, rng, protocol)
    ones = {u: 1 for u in inputs}
    population = runner.run("count(all)", COUNT_INDICATOR, ones)
    k = max(1, (population + 1) // 2)
    selection = distributed_select(
        topology,
        inputs,
        k,
        f,
        b=b,
        schedule=runner.shifted_schedule(),
        c=c,
        rng=rng,
        protocol=protocol,
    )
    return QueryOutcome(value=selection.value, probes=runner.probes + selection.probes)


def distributed_average(
    topology: Topology,
    inputs: Dict[int, int],
    f: int,
    b: Optional[int] = None,
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    rng: Optional[random.Random] = None,
    protocol: str = "algorithm1",
) -> QueryOutcome:
    """The mean input: one SUM probe over values, one COUNT probe.

    AVERAGE is not itself a CAAF (Section 2), but it is the ratio of two,
    which is exactly how the paper suggests handling it.
    """
    runner = _ProbeRunner(topology, f, b, schedule, c, rng, protocol)
    total = runner.run("sum(values)", SUM, dict(inputs))
    count = runner.run("count(all)", COUNT_INDICATOR, {u: 1 for u in inputs})
    value = total / count if count else None
    return QueryOutcome(value=value, probes=runner.probes)


#: COUNT over indicator inputs: nodes holding 0 must not be counted, so the
#: operator sums the indicators instead of counting participants.
COUNT_INDICATOR = CAAF(
    "COUNT_INDICATOR",
    lambda a, b: a + b,
    0,
    monotone=True,
    domain_bits=COUNT.domain_bits,
)


def probe_budget(topology: Topology, max_input: int) -> int:
    """Worst-case number of COUNT probes a selection needs."""
    return max(1, math.ceil(math.log2(max(2, max_input + 1))))

"""Top-k queries via repeated selection (a further Patt-Shamir-style use).

``distributed_topk`` returns the ``k`` largest inputs by running the
COUNT-binary-search selection of :mod:`repro.extensions.quantiles` for the
top ranks.  A small optimization halves the probe count in practice: the
binary search for rank ``r`` starts from the previous rank's value (top
values cluster), and exact ties are expanded without extra probes using a
final threshold count.

Cost: ``O(k log(domain))`` fault-tolerant COUNT executions in the worst
case — each zero-error, so the returned multiset is exact when no
failures occur and rank-consistent (bracketed between the survivor
population and the full population) under crashes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from .quantiles import QueryOutcome, _ProbeRunner, COUNT_INDICATOR


@dataclass
class TopKOutcome:
    """Result of a top-k query."""

    values: List[int]
    probes: int
    total_rounds: int
    cc_bits: int


def distributed_topk(
    topology: Topology,
    inputs: Dict[int, int],
    k: int,
    f: int,
    b: Optional[int] = None,
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    rng: Optional[random.Random] = None,
    protocol: str = "algorithm1",
) -> TopKOutcome:
    """The ``k`` largest inputs, descending, via threshold COUNT probes.

    Strategy: the root works from COUNT queries only (it never sees raw
    inputs).  The rank-``r`` value is the smallest threshold ``m`` with
    ``count(> m) < r``; each rank is binary-searched, and thresholds
    already probed are memoized, so runs over clustered top values reuse
    most probes.  Worst case ``O(k log domain)`` COUNT executions.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    population = len(inputs)
    if k > population:
        raise ValueError(f"k={k} exceeds the population {population}")
    runner = _ProbeRunner(topology, f, b, schedule, c, rng, protocol)
    memo: Dict[int, int] = {}

    def count_above(threshold: int) -> int:
        if threshold not in memo:
            indicator = {u: 1 if inputs[u] > threshold else 0 for u in inputs}
            memo[threshold] = runner.run(
                f"count(> {threshold})", COUNT_INDICATOR, indicator
            )
        return memo[threshold]

    domain_hi = max(inputs.values())
    values: List[int] = []
    for rank in range(1, k + 1):
        lo, hi = -1, domain_hi
        # Smallest m with count_above(m) < rank: that m is the rank value.
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if count_above(mid) >= rank:
                lo = mid
            else:
                hi = mid
        # hi is the smallest m with count_above(m) < rank, i.e. the rank-th
        # largest value: at least `rank` inputs are >= hi, fewer exceed it.
        values.append(hi)
        domain_hi = hi  # ranks are non-increasing: narrow later searches

    query = QueryOutcome(value=None, probes=runner.probes)
    return TopKOutcome(
        values=values,
        probes=query.probe_count,
        total_rounds=query.total_rounds,
        cc_bits=query.cc_bits,
    )

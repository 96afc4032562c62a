"""Distributed histograms from per-bucket COUNT probes.

Another query the paper's COUNT machinery buys for free: the root learns
the distribution of readings by running one fault-tolerant COUNT per
bucket.  Each probe is zero-error, so every bucket count individually
satisfies the correctness bracket, and the histogram total telescopes to
a COUNT of the population.

Cost: ``k`` COUNT executions for ``k`` buckets — compared against the
obvious alternative (brute-force shipping all values: ``O(N logN)`` per
node), the histogram wins once ``k << N / polylog``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from .quantiles import COUNT_INDICATOR, QueryOutcome, _ProbeRunner


@dataclass(frozen=True)
class Bucket:
    """A half-open value bucket ``[lo, hi)`` (the last bucket is closed)."""

    lo: int
    hi: int

    def contains(self, value: int, last: bool = False) -> bool:
        """Whether ``value`` falls in the bucket."""
        if last:
            return self.lo <= value <= self.hi
        return self.lo <= value < self.hi

    def label(self) -> str:
        return f"[{self.lo}, {self.hi})"


@dataclass
class HistogramOutcome:
    """The measured histogram."""

    buckets: List[Bucket]
    counts: List[int]
    probes: int
    total_rounds: int
    cc_bits: int

    @property
    def total(self) -> int:
        return sum(self.counts)

    def as_rows(self) -> List[Dict[str, object]]:
        """Table rows for rendering."""
        return [
            {"bucket": b.label(), "count": c}
            for b, c in zip(self.buckets, self.counts)
        ]


def equi_width_buckets(max_value: int, k: int) -> List[Bucket]:
    """``k`` equal-width buckets covering ``[0, max_value]``."""
    if k < 1:
        raise ValueError("need at least one bucket")
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    width = max(1, (max_value + 1 + k - 1) // k)
    buckets = []
    lo = 0
    for _ in range(k):
        hi = lo + width
        buckets.append(Bucket(lo, hi))
        lo = hi
        if lo > max_value:
            break
    # Close the final bucket at max_value for the inclusive edge.
    last = buckets[-1]
    buckets[-1] = Bucket(last.lo, max(last.hi, max_value))
    return buckets


def distributed_histogram(
    topology: Topology,
    inputs: Dict[int, int],
    buckets: Sequence[Bucket],
    f: int,
    b: Optional[int] = None,
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    rng: Optional[random.Random] = None,
    protocol: str = "algorithm1",
) -> HistogramOutcome:
    """One fault-tolerant COUNT per bucket; returns the bucket counts."""
    if not buckets:
        raise ValueError("need at least one bucket")
    runner = _ProbeRunner(topology, f, b, schedule, c, rng, protocol)
    counts: List[int] = []
    for index, bucket in enumerate(buckets):
        last = index == len(buckets) - 1
        indicator = {
            u: 1 if bucket.contains(inputs[u], last=last) else 0
            for u in inputs
        }
        counts.append(
            runner.run(f"count{bucket.label()}", COUNT_INDICATOR, indicator)
        )
    query = QueryOutcome(value=None, probes=runner.probes)
    return HistogramOutcome(
        buckets=list(buckets),
        counts=counts,
        probes=query.probe_count,
        total_rounds=query.total_rounds,
        cc_bits=query.cc_bits,
    )


def exact_histogram(
    inputs: Dict[int, int], buckets: Sequence[Bucket]
) -> List[int]:
    """Ground truth for tests: centralized bucket counts."""
    counts = []
    for index, bucket in enumerate(buckets):
        last = index == len(buckets) - 1
        counts.append(
            sum(1 for v in inputs.values() if bucket.contains(v, last=last))
        )
    return counts

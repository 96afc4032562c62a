"""Summary statistics for seed-averaged measurements.

The paper's CC definition averages over coin flips; our sweeps estimate
that expectation from finitely many seeded runs.  This module provides the
uncertainty quantification the benches report: means with standard errors
and normal-approximation confidence intervals.
"""

from __future__ import annotations

import math
import statistics as _stats
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Mean with uncertainty for one measured quantity."""

    n: int
    mean: float
    std: float
    stderr: float
    ci_low: float
    ci_high: float

    def overlaps(self, other: "Summary") -> bool:
        """Whether the two confidence intervals overlap."""
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high

    def __str__(self) -> str:
        return f"{self.mean:.1f} ± {self.stderr:.1f} (95% CI [{self.ci_low:.1f}, {self.ci_high:.1f}])"


#: Two-sided 95% normal quantile.
Z_95 = 1.96


def summarize(samples: Sequence[float]) -> Summary:
    """Mean, standard deviation, and a 95% normal-approximation CI."""
    values = list(samples)
    if not values:
        raise ValueError("no samples")
    n = len(values)
    mean = _stats.fmean(values)
    std = _stats.stdev(values) if n > 1 else 0.0
    stderr = std / math.sqrt(n) if n > 1 else 0.0
    return Summary(
        n=n,
        mean=mean,
        std=std,
        stderr=stderr,
        ci_low=mean - Z_95 * stderr,
        ci_high=mean + Z_95 * stderr,
    )

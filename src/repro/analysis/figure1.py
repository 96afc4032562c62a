"""Regeneration of Figure 1: the CC-vs-TC landscape of all known bounds.

Figure 1 in the paper is an illustration of five objects as functions of the
TC budget ``b``:

* the brute-force upper bound (``N logN`` at ``b = O(1)``);
* the folklore upper bound (``f logN`` at ``b = O(f)``);
* the paper's new upper bound ``O(f/b log^2 N + log^2 N)`` (a genuine
  tunable curve over ``b``);
* the paper's new lower bound ``Omega(f/(b logb) + logN/logb)``;
* the previous lower bound ``Omega(f/(b^2 logb))``.

:func:`figure1_data` samples the analytic curves; :func:`figure1_measured`
adds *measured* CC of the three executable protocols on a concrete
topology, which is what our reproduction can check against the curves'
shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..graphs.topology import Topology
from ..lowerbound import bounds
from .sweep import SweepPoint, random_schedule_spec, run_point


@dataclass
class Figure1Data:
    """Sampled analytic curves over a ``b`` grid."""

    n: int
    f: int
    bs: List[int]
    curves: Dict[str, List[float]]


def figure1_data(n: int, f: int, bs: Sequence[int]) -> Figure1Data:
    """Sample every Figure 1 curve on the grid ``bs``."""
    curves = {
        name: [fn(n, f, b) for b in bs] for name, fn in bounds.CURVES.items()
    }
    curves["gap_ratio"] = [
        bounds.gap_ratio(n, f, b) for b in bs
    ]
    curves["polylog_ceiling"] = [
        bounds.polylog_gap_ceiling(n, b) for b in bs
    ]
    return Figure1Data(n=n, f=f, bs=list(bs), curves=curves)


@dataclass
class Figure1Measured:
    """Measured protocol costs to overlay on the analytic curves."""

    topology_name: str
    n: int
    f: int
    #: Algorithm 1's measured mean CC per ``b``.
    tradeoff: List[SweepPoint]
    #: Brute force's measured CC (TC is fixed at 2c flooding rounds).
    bruteforce: SweepPoint
    #: Folklore's measured CC (TC is up to ~2c(f+1) flooding rounds).
    folklore: SweepPoint


def figure1_measured(
    topology: Topology,
    f: int,
    bs: Sequence[int],
    seeds: Sequence[int],
    c: int = 2,
) -> Figure1Measured:
    """Measure the three executable protocols for the Figure 1 overlay."""
    seeds = list(seeds)
    tradeoff = []
    for b in bs:
        tradeoff.append(
            run_point(
                "algorithm1",
                topology,
                seeds,
                schedule_spec=random_schedule_spec(
                    f, horizon=b * topology.diameter
                ),
                f=f,
                b=b,
                c=c,
                coords={"b": b},
            )
        )
    horizon = 2 * c * topology.diameter
    bf = run_point(
        "bruteforce",
        topology,
        seeds,
        schedule_spec=random_schedule_spec(f, horizon=horizon),
        c=c,
        coords={"b": "O(1)"},
    )
    fl_horizon = (f + 1) * (2 * c * topology.diameter + 2)
    fl = run_point(
        "folklore",
        topology,
        seeds,
        schedule_spec=random_schedule_spec(f, horizon=fl_horizon),
        f=f,
        c=c,
        coords={"b": "O(f)"},
    )
    return Figure1Measured(
        topology_name=topology.name,
        n=topology.n_nodes,
        f=f,
        tradeoff=tradeoff,
        bruteforce=bf,
        folklore=fl,
    )

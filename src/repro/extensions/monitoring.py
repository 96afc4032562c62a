"""Periodic aggregation: the sensor-network monitoring loop.

The paper's motivating deployments don't aggregate once — a base station
re-reads the field forever.  This module runs Algorithm 1 (or brute force)
in back-to-back *epochs* over one shared failure timeline: crashes persist
across epochs, inputs may change every epoch (fresh sensor readings), and
every epoch's result individually satisfies the paper's correctness
definition for its window.

The interesting systems question it answers: how does the per-epoch cost
evolve as the network loses nodes?  (It shrinks — fewer live nodes, fewer
floods — while staying correct throughout.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..adversary.schedule import FailureSchedule
from ..core.caaf import CAAF, SUM
from ..core.correctness import is_correct_result, surviving_nodes
from ..graphs.topology import Topology
from .quantiles import _ProbeRunner

#: Supplies epoch inputs: ``inputs_fn(epoch_index) -> {node: value}``.
InputsFn = Callable[[int], Dict[int, int]]


@dataclass
class EpochResult:
    """One monitoring epoch's outcome."""

    epoch: int
    result: Optional[int]
    correct: bool
    cc_bits: int
    rounds: int
    start_round: int
    survivors: int


@dataclass
class MonitoringOutcome:
    """The whole monitoring run."""

    epochs: List[EpochResult] = field(default_factory=list)

    @property
    def all_correct(self) -> bool:
        return all(e.correct for e in self.epochs)

    @property
    def results(self) -> List[Optional[int]]:
        return [e.result for e in self.epochs]

    @property
    def total_rounds(self) -> int:
        return sum(e.rounds for e in self.epochs)


def run_monitoring(
    topology: Topology,
    inputs_fn: InputsFn,
    epochs: int,
    f: int,
    b: Optional[int] = None,
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    caaf: CAAF = SUM,
    protocol: str = "algorithm1",
    rng: Optional[random.Random] = None,
) -> MonitoringOutcome:
    """Run ``epochs`` back-to-back aggregations on one failure timeline.

    ``schedule`` crash rounds are absolute over the whole run; each epoch
    sees the suffix of the schedule shifted to its local clock.  ``f`` is
    the per-run edge-failure budget (validated against the full schedule).
    """
    if epochs < 1:
        raise ValueError("need at least one epoch")
    runner = _ProbeRunner(topology, f, b, schedule, c, rng, protocol)
    runner.schedule.validate(topology, f=f)

    outcome = MonitoringOutcome()
    for epoch in range(epochs):
        inputs = dict(inputs_fn(epoch))
        start_round = runner.elapsed_rounds + 1
        shifted = runner.shifted_schedule()
        result = runner.run(f"epoch {epoch}", caaf, inputs)
        probe = runner.probes[-1]
        outcome.epochs.append(
            EpochResult(
                epoch=epoch,
                result=result,
                correct=is_correct_result(
                    result, caaf, topology, inputs, shifted, probe.rounds
                ),
                cc_bits=max(probe.cc_bits_per_node.values(), default=0),
                rounds=probe.rounds,
                start_round=start_round,
                survivors=len(surviving_nodes(topology, shifted, probe.rounds)),
            )
        )
    return outcome


def drifting_inputs(
    base: Dict[int, int], rng: random.Random, jitter: int = 3
) -> InputsFn:
    """Fresh readings per epoch: base values plus bounded random drift."""

    def fn(epoch: int) -> Dict[int, int]:
        local = random.Random(rng.randrange(1 << 30) + epoch)
        return {
            u: max(0, v + local.randint(-jitter, jitter))
            for u, v in base.items()
        }

    return fn

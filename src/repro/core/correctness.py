"""The paper's result-correctness oracle.

Section 2: let ``s2`` be the inputs of all nodes and ``s1`` the inputs of the
nodes that have not failed by the end of the execution, where a node
disconnected from the root (through live nodes) also counts as failed.  A
SUM result is *correct* iff it lies in ``[sum(s1), sum(s2)]``; for a general
CAAF, iff it lies between the min and max of the aggregate over any ``s``
with ``s1 ⊆ s ⊆ s2``.

For CAAFs monotone in the inclusion order the endpoints are simply the
aggregates of ``s1`` and ``s2``; for non-monotone operators we provide an
exhaustive checker usable when ``|s2 - s1|`` is small.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Optional, Set, Tuple

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from .caaf import CAAF


def surviving_nodes(
    topology: Topology, schedule: FailureSchedule, end_round: int
) -> Set[int]:
    """Nodes alive at ``end_round`` *and* connected to the root through
    live nodes — the membership of ``s1``."""
    failed = schedule.failed_by(end_round)
    return topology.alive_component(failed)


def correctness_interval(
    caaf: CAAF,
    inputs: Dict[int, int],
    survivors: Iterable[int],
) -> Tuple[int, int]:
    """The ``[lo, hi]`` correctness interval for a monotone-style CAAF.

    ``lo``/``hi`` are the aggregates of ``s1`` (survivors) and ``s2`` (all
    nodes), ordered so the interval is valid for both non-decreasing (SUM,
    MAX) and non-increasing (MIN, AND) operators.
    """
    agg_s1 = caaf.aggregate_inputs(inputs[u] for u in survivors)
    agg_s2 = caaf.aggregate_inputs(inputs.values())
    return (min(agg_s1, agg_s2), max(agg_s1, agg_s2))


def achievable_results_exhaustive(
    caaf: CAAF,
    inputs: Dict[int, int],
    survivors: Iterable[int],
    max_optional: int = 20,
) -> Set[int]:
    """All aggregates over sets ``s`` with ``s1 ⊆ s ⊆ s2`` (exact, small cases).

    This implements the paper's footnote-6 alternative correctness
    definition exactly; it enumerates ``2^k`` subsets where ``k`` is the
    number of non-surviving nodes, so it is only usable for small ``k``.
    """
    survivor_set = set(survivors)
    optional = [u for u in inputs if u not in survivor_set]
    if len(optional) > max_optional:
        raise ValueError(
            f"{len(optional)} optional nodes: exhaustive enumeration "
            f"capped at {max_optional}"
        )
    base = [inputs[u] for u in survivor_set]
    results = set()
    for k in range(len(optional) + 1):
        for extra in combinations(optional, k):
            values = base + [inputs[u] for u in extra]
            results.add(caaf.aggregate_inputs(values))
    return results


def is_correct_result(
    result: Optional[int],
    caaf: CAAF,
    topology: Topology,
    inputs: Dict[int, int],
    schedule: FailureSchedule,
    end_round: int,
    exhaustive: bool = False,
) -> bool:
    """Whether ``result`` is correct per the paper's definition.

    ``None`` results (protocol produced no output) are never correct.  With
    ``exhaustive=True`` the strict footnote-6 definition is checked (result
    must equal some achievable aggregate); otherwise the interval definition
    is used, which is exact for monotone CAAFs.
    """
    if result is None:
        return False
    survivors = surviving_nodes(topology, schedule, end_round)
    if exhaustive or not caaf.monotone:
        try:
            return result in achievable_results_exhaustive(
                caaf, inputs, survivors
            )
        except ValueError:
            pass  # too many optional nodes: fall back to the interval
    lo, hi = correctness_interval(caaf, inputs, survivors)
    return lo <= result <= hi


def exact_aggregate(caaf: CAAF, inputs: Dict[int, int]) -> int:
    """The failure-free ground truth: the aggregate of all inputs."""
    return caaf.aggregate_inputs(inputs.values())

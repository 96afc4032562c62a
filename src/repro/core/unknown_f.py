"""Unknown-``f`` extension via the standard doubling trick (early termination).

The paper (Section 1, with details in its full version) notes that the
known-``f`` assumption can be removed with a doubling trick at the cost of a
``logN`` factor in CC, yielding an *early termination* property: the
protocol's overhead automatically scales with the number of failures that
actually occur.

Our reconstruction (documented as such in DESIGN.md): guesses
``t = 1, 2, 4, ..`` each get one interval of ``19c`` flooding rounds running
an AGG + VERI pair with that ``t``.  Accepting a pair requires AGG not to
abort and VERI to say true, which by Theorems 5 and 7 guarantees a correct
result regardless of how wrong the guess was.  Once the guess reaches the
actual number of edge failures, the pair is guaranteed to be accepted
(Theorems 4 and 7), so the protocol stops after ``O(log F)`` intervals with
per-node cost dominated by the last guess — ``O(F logN)`` bits for ``F``
actual edge failures.  After ``ceil(log2 N) + 1`` unsuccessful guesses the
brute-force protocol finishes the job unconditionally.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from .algorithm1 import IntervalOutcome, run_intervals
from .caaf import CAAF, SUM
from .params import ProtocolParams


@dataclass(frozen=True)
class DoublingPlan:
    """Deterministic schedule: guess ``2**k`` in interval ``k`` (0-based).

    The guess schedule is known to everyone, so no coins are needed: the
    root arms every interval and every interval's pair actually runs.
    """

    params: ProtocolParams

    name = "unknown_f"
    span_attrs = ("max_guesses",)

    @cached_property
    def max_guesses(self) -> int:
        """``ceil(log2 N) + 1`` guesses reach ``t >= N`` and hence any ``f``."""
        return max(1, math.ceil(math.log2(self.params.n_nodes))) + 1

    @cached_property
    def n_intervals(self) -> int:
        """One interval per guess."""
        return self.max_guesses

    @cached_property
    def interval_rounds(self) -> int:
        return 19 * self.params.cd

    def guess_for(self, interval: int) -> int:
        """Tolerance guess for 0-based interval ``interval``."""
        return 1 << interval

    def tolerance(self, interval: int) -> int:
        """Tolerance of 1-based interval ``interval``."""
        return self.guess_for(interval - 1)

    def select_intervals(self, rng: random.Random) -> List[int]:
        """Every interval (the coins are not used)."""
        return list(range(1, self.max_guesses + 1))

    @cached_property
    def bruteforce_start(self) -> int:
        return self.max_guesses * self.interval_rounds + 1

    @cached_property
    def total_rounds(self) -> int:
        return self.max_guesses * self.interval_rounds + 2 * self.params.cd


def run_unknown_f(
    topology: Topology,
    inputs: Dict[int, int],
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    caaf: CAAF = SUM,
    injectors=(),
    transport=None,
    integrity=None,
    allow_root_crash: bool = False,
) -> IntervalOutcome:
    """Run the unknown-``f`` doubling protocol once.

    ``injectors`` are forwarded to the
    :class:`repro.sim.network.Network`.  ``transport`` runs the protocol
    over the reliable local-broadcast shim (one logical round per
    transport window); ``integrity`` wraps every broadcast in an
    authenticated frame, outermost, so corrupted deliveries are detected
    and dropped; ``allow_root_crash`` opts out of the Section-2 root
    protection (used by the failover layer).
    """
    return run_intervals(
        DoublingPlan, topology, inputs, schedule, f=None, c=c, caaf=caaf,
        rng=None, allow_root_crash=allow_root_crash,
        injectors=injectors, transport=transport, integrity=integrity,
    )

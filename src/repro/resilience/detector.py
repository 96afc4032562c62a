"""φ-accrual failure suspicion and adaptive retransmission timing.

Binary timeouts cannot tell a *slow* node from a *dead* one — the exact
confusion gray failures exploit.  This module provides the two graded
estimators the reliable transport uses instead of fixed schedules:

* :class:`PhiAccrualDetector` — Hayashibara et al.'s φ-accrual failure
  detector.  Every observer keeps, per peer, a sliding window of frame
  inter-arrival gaps (measured in *logical* rounds: the transport emits
  exactly one frame per logical round, so a healthy peer's gap is 1).
  The suspicion level for a silent peer is

  .. math:: \\varphi = -\\log_{10} P(\\text{gap} > \\text{elapsed})

  under a normal fit of the observed gaps (standard deviation floored at
  ``min_std`` so a perfectly regular history does not produce infinite
  confidence).  φ *accrues* continuously as silence lengthens, so
  callers get a graded signal — ``trust`` / ``suspect`` / ``confirm`` —
  instead of a binary verdict.  Only a **confirmable** suspicion
  (φ ≥ ``confirm_threshold``, roughly "one in 10^8 that the peer is
  merely slow") may drive eviction or failover; a limping node hovers in
  ``suspect`` and is left alive.

* :class:`AdaptiveRto` — per-link retransmission timeout: EWMA of the
  observed RTT plus four mean deviations (the classic TCP estimator,
  RFC 6298 coefficients), with Karn-style sample exclusion handled by
  the caller (only first-attempt frames are sampled).  The
  RTO never falls below the minimum RTT ever observed on the link, so a
  burst of fast samples cannot make the timer fire before a physically
  possible reply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Graded suspicion levels, in increasing order of confidence.
LEVEL_TRUST = "trust"
LEVEL_SUSPECT = "suspect"
LEVEL_CONFIRM = "confirm"
LEVELS = (LEVEL_TRUST, LEVEL_SUSPECT, LEVEL_CONFIRM)


@dataclass(frozen=True)
class PhiConfig:
    """Tuning knobs for the φ-accrual detector.

    Attributes:
        window_size: Inter-arrival samples kept per (observer, peer).
        min_std: Floor on the fitted standard deviation, in logical
            rounds; prevents a perfectly regular history from yielding
            infinite φ after one late frame.
        suspect_threshold: φ at which a peer becomes ``suspect``
            (φ = 1: a gap this long happens one time in 10).
        confirm_threshold: φ at which a suspicion is *confirmable* and
            may drive eviction/failover (φ = 8: one time in 10^8).
        min_samples: Gaps required before the observed history replaces
            the prior (mean 1 logical round — the healthy cadence).
            Must be at least 2: the variance of a single inter-arrival
            sample is identically zero, so a one-sample "fit" would rest
            entirely on the ``min_std`` floor while claiming to be
            observed history.
    """

    window_size: int = 16
    min_std: float = 1.0
    suspect_threshold: float = 1.0
    confirm_threshold: float = 8.0
    min_samples: int = 3

    def __post_init__(self) -> None:
        if self.window_size < 2:
            raise ValueError(
                f"window_size must be >= 2, got {self.window_size}"
            )
        if self.min_std <= 0:
            raise ValueError(f"min_std must be > 0, got {self.min_std}")
        if not 0 < self.suspect_threshold < self.confirm_threshold:
            raise ValueError(
                "thresholds must satisfy 0 < suspect < confirm, got "
                f"{self.suspect_threshold} / {self.confirm_threshold}"
            )
        if self.min_samples < 2:
            raise ValueError(
                "min_samples must be >= 2 (one sample has zero variance "
                f"— no history to fit), got {self.min_samples}"
            )


@dataclass(frozen=True)
class SuspicionEvent:
    """One suspicion-level transition, for the straggler oracle."""

    round: int
    logical_round: int
    observer: int
    peer: int
    phi: float
    level: str


class PhiAccrualDetector:
    """Shared φ-accrual state for one transport's worth of observers."""

    def __init__(self, config: Optional[PhiConfig] = None) -> None:
        self.config = config or PhiConfig()
        #: Per (observer, peer): recent inter-arrival gaps (logical rounds).
        self._gaps: Dict[Tuple[int, int], List[int]] = {}
        #: Per (observer, peer): logical round of the last arrival.
        self._last: Dict[Tuple[int, int], int] = {}
        #: Per (observer, peer): last level announced (transition dedup).
        self._level: Dict[Tuple[int, int], str] = {}
        #: Level *rises* in order of occurrence (falls reset silently).
        self.events: List[SuspicionEvent] = []
        self.suspects = 0
        self.confirms = 0

    def observe(self, observer: int, peer: int, logical_round: int) -> None:
        """Record a frame arrival from ``peer`` for ``logical_round``."""
        key = (observer, peer)
        last = self._last.get(key)
        if last is not None and logical_round > last:
            gaps = self._gaps.setdefault(key, [])
            gaps.append(logical_round - last)
            if len(gaps) > self.config.window_size:
                del gaps[: len(gaps) - self.config.window_size]
        if last is None or logical_round > last:
            self._last[key] = logical_round
        if self._level.get(key, LEVEL_TRUST) != LEVEL_TRUST:
            self._level[key] = LEVEL_TRUST

    def phi(self, observer: int, peer: int, logical_round: int) -> float:
        """φ for ``peer`` as seen by ``observer`` at ``logical_round``."""
        key = (observer, peer)
        last = self._last.get(key)
        if last is None:
            # Never heard from: treat the run start as the last arrival.
            last = 0
        elapsed = logical_round - last
        if elapsed <= 0:
            return 0.0
        gaps = self._gaps.get(key, ())
        # Defense in depth against the cold-start hazard: even if the
        # config's min_samples guard is bypassed, never fit fewer than
        # two gaps — a single sample's variance is identically zero and
        # the whole suspicion would rest on the floor alone.
        if len(gaps) >= max(2, self.config.min_samples):
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            var = max(self.config.min_std ** 2, var)
            std = math.sqrt(var)
        else:
            # Prior: a healthy transport delivers one frame per logical
            # round.
            mean, std = 1.0, self.config.min_std
        p_later = 0.5 * math.erfc((elapsed - mean) / (std * math.sqrt(2)))
        if p_later <= 0.0:
            return float("inf")
        return -math.log10(p_later)

    def level(
        self,
        observer: int,
        peer: int,
        logical_round: int,
        rnd: Optional[int] = None,
    ) -> str:
        """Graded suspicion; logs each level *rise* as an event."""
        phi = self.phi(observer, peer, logical_round)
        if phi >= self.config.confirm_threshold:
            level = LEVEL_CONFIRM
        elif phi >= self.config.suspect_threshold:
            level = LEVEL_SUSPECT
        else:
            level = LEVEL_TRUST
        key = (observer, peer)
        previous = self._level.get(key, LEVEL_TRUST)
        if LEVELS.index(level) > LEVELS.index(previous):
            self._level[key] = level
            if level == LEVEL_SUSPECT:
                self.suspects += 1
            else:
                self.confirms += 1
                if previous == LEVEL_TRUST:
                    # Jumped straight past suspect: count both rises.
                    self.suspects += 1
            self.events.append(
                SuspicionEvent(
                    round=rnd if rnd is not None else logical_round,
                    logical_round=logical_round,
                    observer=observer,
                    peer=peer,
                    phi=phi,
                    level=level,
                )
            )
        elif LEVELS.index(level) < LEVELS.index(previous):
            self._level[key] = level
        return level

    def suspected_peers(self, min_level: str = LEVEL_SUSPECT) -> set:
        """Peers that ever reached ``min_level`` by any observer."""
        floor = LEVELS.index(min_level)
        return {
            e.peer
            for e in self.events
            if LEVELS.index(e.level) >= floor
        }

    def counters(self) -> Dict[str, int]:
        """Plain-dict counter snapshot for reports and run rows."""
        return {"suspects": self.suspects, "confirms": self.confirms}


class AdaptiveRto:
    """Per-link retransmission timeout from EWMA RTT + mean deviation.

    Units are physical rounds.  ``sample`` must only be fed Karn-clean
    RTTs (first-attempt frames on links with no outstanding
    retransmission); the caller enforces that exclusion.
    """

    #: RFC 6298 smoothing coefficients.
    ALPHA = 1 / 8
    BETA = 1 / 4
    #: RTO before any sample: one round (the model's clean latency).
    INITIAL_RTO = 1

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.min_rtt: Optional[int] = None
        self.samples = 0

    def sample(self, rtt: int) -> None:
        """Fold one Karn-clean RTT measurement into the estimator."""
        if rtt < 0:
            raise ValueError(f"rtt must be >= 0, got {rtt}")
        rtt = max(1, rtt)
        self.samples += 1
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt
        if self.srtt is None:
            self.srtt = float(rtt)
            self.rttvar = rtt / 2
        else:
            err = abs(self.srtt - rtt)
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * err
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        return None

    @property
    def rto(self) -> int:
        """Current timeout, floored at the minimum observed RTT."""
        if self.srtt is None:
            return self.INITIAL_RTO
        raw = math.ceil(self.srtt + 4 * self.rttvar)
        return max(self.min_rtt, raw, 1)

    def as_dict(self) -> Dict[str, float]:
        """Estimator snapshot for per-link audit trails."""
        return {
            "rto": self.rto,
            "srtt": round(self.srtt, 3) if self.srtt is not None else None,
            "rttvar": (
                round(self.rttvar, 3) if self.rttvar is not None else None
            ),
            "min_rtt": self.min_rtt,
            "samples": self.samples,
        }

"""Analytic per-phase cost model for AGG and VERI.

Predicts, from ``(N, d, c, t)`` and a failure count, how many bits a node
sends in each phase of AGG/VERI — the white-box counterpart of the
black-box budgets ``(11t+14)(logN+5)`` and ``(5t+7)(3logN+10)``.  The
model is used two ways:

* tests compare it against tracer-measured per-phase traffic (it must
  upper-bound the failure-free case and stay within the paper's budgets);
* experimenters get a quick "what will this cost" estimate without
  running the simulator.

The model counts, per node (worst case over nodes):

AGG:
  construction   1 beacon (logN + 2t·logN + level) + 1 ack
  aggregation    1 upstream message + up to ``failures`` critical-failure
                 forwards
  flooding       up to ``floods`` forwarded/initiated partial sums, where
                 ``floods <= failures + 1``
  selection      up to ``2 * floods`` determination forwards

VERI:
  parent phase   the detect bit + up to ``claims`` failed-parent forwards
  child phase    1 upstream wave part + up to ``failures`` failed-child
                 forwards
  LFC phase      up to ``2 * claims`` determination forwards
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.params import ProtocolParams
from ..sim.message import TAG_BITS


@dataclass(frozen=True)
class PhaseCosts:
    """Predicted worst-case bits per node, per phase."""

    per_phase: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.per_phase.values())


def _overhead(p: ProtocolParams) -> int:
    return TAG_BITS + p.id_bits


def predict_agg_costs(p: ProtocolParams, failures: int) -> PhaseCosts:
    """Worst-case per-node bits for each AGG phase given ``failures``
    edge failures during the execution."""
    if failures < 0:
        raise ValueError("failures must be non-negative")
    floods = failures + 1
    construction = (
        _overhead(p) + p.level_bits + 2 * p.t * p.id_bits  # beacon
        + _overhead(p) + p.id_bits  # ack
    )
    aggregation = (
        _overhead(p) + p.psum_bits + p.level_bits  # upstream message
        + failures * (_overhead(p) + p.id_bits)  # critical-failure forwards
    )
    flooding = floods * (_overhead(p) + p.id_bits + p.psum_bits)
    selection = 2 * floods * (_overhead(p) + p.id_bits + 1)
    return PhaseCosts(
        per_phase={
            "construction": construction,
            "aggregation": aggregation,
            "flooding": flooding,
            "selection": selection,
        }
    )


def predict_veri_costs(p: ProtocolParams, failures: int) -> PhaseCosts:
    """Worst-case per-node bits for each VERI phase."""
    if failures < 0:
        raise ValueError("failures must be non-negative")
    claims = failures + 1
    parent_phase = (
        _overhead(p) + 1  # detect bit
        + claims * (_overhead(p) + 2 * p.id_bits + p.level_bits)
    )
    child_phase = (
        _overhead(p) + p.id_bits  # upstream wave part
        + failures * (_overhead(p) + p.id_bits)
    )
    lfc_phase = 2 * claims * (_overhead(p) + p.id_bits)
    return PhaseCosts(
        per_phase={
            "parent_detection": parent_phase,
            "child_detection": child_phase,
            "lfc_detection": lfc_phase,
        }
    )

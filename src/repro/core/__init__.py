"""The paper's contribution: AGG, VERI, Algorithm 1, CAAFs, correctness."""

from .agg import AggNode, AggOutcome, TreeState, run_agg
from .algorithm1 import (
    IntervalNode,
    IntervalOutcome,
    TradeoffPlan,
    run_algorithm1,
)
from .caaf import (
    ALL_CAAFS,
    AND,
    CAAF,
    COUNT,
    GCD,
    MAX,
    MIN,
    OR,
    SUM,
    XOR,
    bounded_lcm,
    bounded_min,
    by_name,
)
from .fragments import (
    FragmentModel,
    build_fragment_model,
    oracle_representative_set_is_valid,
    psum_members,
)
from .correctness import (
    achievable_results_exhaustive,
    correctness_interval,
    exact_aggregate,
    is_correct_result,
    surviving_nodes,
)
from .params import ProtocolParams, params_for
from .unknown_f import DoublingPlan, run_unknown_f
from .veri import PairOutcome, VeriNode, run_agg_veri_pair

__all__ = [
    "ALL_CAAFS",
    "AND",
    "AggNode",
    "AggOutcome",
    "CAAF",
    "COUNT",
    "DoublingPlan",
    "FragmentModel",
    "GCD",
    "IntervalNode",
    "IntervalOutcome",
    "MAX",
    "bounded_lcm",
    "build_fragment_model",
    "oracle_representative_set_is_valid",
    "psum_members",
    "MIN",
    "OR",
    "PairOutcome",
    "ProtocolParams",
    "SUM",
    "TradeoffPlan",
    "TreeState",
    "VeriNode",
    "XOR",
    "achievable_results_exhaustive",
    "bounded_min",
    "by_name",
    "correctness_interval",
    "exact_aggregate",
    "is_correct_result",
    "params_for",
    "run_agg",
    "run_agg_veri_pair",
    "run_algorithm1",
    "run_unknown_f",
    "surviving_nodes",
]

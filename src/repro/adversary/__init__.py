"""Oblivious crash-failure adversaries with edge-failure budgets.

Names are imported on first access (see :mod:`repro._lazy`): a protocol
run needs :mod:`.schedule` but not the adaptive adversaries, the
worst-case search or the bundle shrinker.
"""

from .._lazy import export_table, facade

_EXPORTS = export_table({
    "adaptive": "ADAPTIVE_FAMILIES AdaptiveAdversary RootIsolationAdversary "
                "TopTalkerAdversary TriggerAdversary make_adaptive",
    "adversaries": "articulation_points blocker_failures chain_failures "
                   "concentrated_failures no_failures predicted_tree "
                   "random_failures spread_failures targeted_failures "
                   "tree_path_to_root",
    "budget": "EdgeBudget affordable_nodes",
    "schedule": "FailureSchedule",
    "search": "SearchResult make_algorithm1_evaluator mutate_schedule "
              "random_schedule search_worst_adversary",
    "shrink": "ShrinkResult components_of failure_signature rerecord_bundle "
              "restrict_bundle shrink_bundle",
})

#: The re-exported names; submodules stay out, as they always have.
__all__ = sorted(name for name, module in _EXPORTS.items() if name != module)

__getattr__, __dir__ = facade(__name__, _EXPORTS, globals())

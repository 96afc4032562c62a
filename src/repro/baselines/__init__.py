"""The paper's pre-existing SUM protocols, used as baselines.

Names are imported on first access (see :mod:`repro._lazy`): a run
loads the baseline it executes (Algorithm 1 loads :mod:`.bruteforce`
only when it reaches its fallback), never the others.
"""

from .._lazy import export_table, facade

_EXPORTS = export_table({
    "bruteforce": "BaselineOutcome BruteForceNode run_bruteforce",
    "folklore": "TreeEpochNode run_folklore run_plain_tag",
    "gossip": "GossipOutcome PushSumNode run_gossip",
})

#: The re-exported names; submodules stay out, as they always have.
__all__ = sorted(name for name, module in _EXPORTS.items() if name != module)

__getattr__, __dir__ = facade(__name__, _EXPORTS, globals())

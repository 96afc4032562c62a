"""repro — reproduction of "Near-Optimal Communication-Time Tradeoff in
Fault-Tolerant Computation of Aggregate Functions" (Zhao, Yu, Chen, PODC'14).

Public API highlights:

* :func:`repro.core.run_algorithm1` — the paper's near-optimal SUM/CAAF
  protocol under a TC budget of ``b`` flooding rounds.
* :func:`repro.core.run_agg` / :func:`repro.core.run_agg_veri_pair` — the
  AGG and VERI building blocks.
* :func:`repro.baselines.run_bruteforce` / :func:`repro.baselines.run_folklore`
  — the two pre-existing fault-tolerant SUM protocols.
* :mod:`repro.lowerbound` — the Section 7 machinery (UNIONSIZECP,
  EQUALITYCP, Sperner capacity, closed-form bound curves).
* :mod:`repro.graphs`, :mod:`repro.adversary`, :mod:`repro.sim` — the
  substrate: topologies, oblivious failure adversaries, and the synchronous
  local-broadcast simulator.

Names are imported on first access (PEP 562), so a protocol run that
imports :mod:`repro.exec` loads neither :mod:`repro.lowerbound` nor
numpy, which only the lower-bound machinery and curve fitting use.
"""

from ._lazy import export_table, facade

__version__ = "1.0.0"

_EXPORTS = export_table({
    "adversary": "FailureSchedule",
    "analysis": "",
    "baselines": "run_bruteforce run_folklore run_plain_tag",
    "core": "CAAF COUNT MAX SUM is_correct_result run_agg run_agg_veri_pair "
            "run_algorithm1 run_unknown_f",
    "extensions": "distributed_average distributed_median distributed_select",
    "graphs": "Topology",
    "lowerbound": "",
    "sim": "",
})

__all__ = sorted(_EXPORTS) + ["__version__"]

__getattr__, __dir__ = facade(__name__, _EXPORTS, globals())

"""Execution engine for independent protocol runs.

Every seeded run in the repository — ``run_point``/``sweep_*`` grids,
chaos campaigns, the CLI's ``run``, and the benchmark suite — is a
*(topology, params, seed)* work unit, and :func:`execute_unit` is how it
runs.  This package executes those units in-process or fans them out
over a process pool, with results identical for any worker count:

* :mod:`repro.exec.scheduler` — the declarative :class:`WorkUnit` spec,
  the one run derivation (:func:`repro.exec.scheduler.derive_run`), its
  executor (:func:`execute_unit`), and the deterministic
  longest-expected-first submission plan;
* :mod:`repro.exec.cache` — a content-addressed result store keyed by a
  canonical hash of topology + protocol params + seed + code-relevant
  config, so re-running a sweep skips already-computed points (and an
  interrupted sweep resumes by rerunning with the same cache);
* :mod:`repro.exec.progress` — structured JSONL telemetry (unit
  started/finished/cached/failed, worker utilization, ETA) plus the live
  CLI progress renderer that consumes it;
* :mod:`repro.exec.pool` — worker lifecycle (crashed-worker replacement,
  hung-worker reaping, graceful Ctrl-C draining) and the
  :class:`ExecutionEngine` front door.

Determinism contract: a unit's result depends only on the unit itself
(fresh ``random.Random(seed)`` per unit, no shared state), results are
assembled in unit-list order, and cache entries are keyed by unit
content — so any worker count and any completion order produce
byte-identical sweep output and caches holding the same records.
"""

from .cache import ResultCache, unit_cache_hash, unit_cache_token
from .pool import (
    ExecutionEngine,
    ProcessBackend,
    SerialBackend,
    pooled_map,
)
from .progress import ProgressEmitter, ProgressTracker, live_renderer
from .scheduler import WorkUnit, execute_unit, plan_order

__all__ = [
    "ExecutionEngine",
    "ProcessBackend",
    "ProgressEmitter",
    "ProgressTracker",
    "ResultCache",
    "SerialBackend",
    "WorkUnit",
    "execute_unit",
    "live_renderer",
    "plan_order",
    "pooled_map",
    "unit_cache_hash",
    "unit_cache_token",
]

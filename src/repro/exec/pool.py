"""Worker lifecycle and the :class:`ExecutionEngine` front door.

The engine turns a list of :class:`repro.exec.scheduler.WorkUnit` into a
list of :class:`repro.analysis.runner.RunRecord`, one per unit, in unit
order, with these guarantees:

* **Determinism.**  Results are keyed by unit index and every unit is
  self-seeded, so worker count, submission order, and completion order
  cannot change the output.  Cache entries are keyed by unit content, so
  the cache a sweep leaves behind holds the same records at any ``jobs``
  value.
* **Resumability.**  With a :class:`repro.exec.cache.ResultCache`, each
  unit is stored the moment it finishes and stored units are served
  instead of run, so rerunning an interrupted sweep against the same
  cache executes only the units it had not finished.
* **Bounded memory.**  At most ``window`` (default ``2 x jobs``) units
  are in flight; the rest wait unsubmitted.
* **Worker lifecycle.**  A crashed worker (pool breakage) is replaced and
  its in-flight units are resubmitted, up to ``max_respawns`` times;
  after that the still-unfinished in-flight units become structured
  error rows (``error_kind="WorkerCrashed"``) instead of killing the
  run.  A *hung* worker — one whose unit has a ``timeout_s`` but blew
  far past it, stuck inside one round where the worker-side deadline
  (checked between rounds) cannot stop it — is terminated and its unit
  becomes a ``RunTimeout`` error row.
* **Graceful Ctrl-C.**  On ``KeyboardInterrupt`` the engine stops
  submitting, drains every already-completed result into the cache, then
  re-raises — an interrupted sweep resumes the same way at any ``jobs``
  value.

Two backends implement the submit/collect protocol: ``SerialBackend``
(in-process, the ``--jobs 1`` path — no subprocesses, no pickling) and
``ProcessBackend`` (the real pool).  Any object with the same five
methods can stand in; the test suite's shuffling backend proves that
completion order is immaterial.
"""

from __future__ import annotations

import collections
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.runner import RunRecord, RunTimeout, error_record
from ..obs import metrics as _obs_metrics
from ..obs import spans as _spans
from .progress import ProgressEmitter, export_final_latency
from .scheduler import WorkUnit, execute_unit, plan_order

try:  # BrokenProcessPool moved around across Python versions
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover
    from concurrent.futures import BrokenExecutor as BrokenProcessPool


#: A unit with ``timeout_s`` is hung after this many times its limit
#: (and at least 30 s more) of pool-side wall clock.
HARD_TIMEOUT_FACTOR = 5.0


class WorkerCrashed(RuntimeError):
    """A worker process died (or kept dying) while running a unit."""


#: (index, record-or-None, infrastructure-error-or-None)
Completion = Tuple[int, Optional[RunRecord], Optional[BaseException]]


class SerialBackend:
    """Execute units in-process, in submission order, one at a time."""

    def __init__(self) -> None:
        self._queue: collections.deque = collections.deque()

    def submit(self, index: int, unit: WorkUnit, hard_timeout_s=None) -> None:
        self._queue.append((index, unit))

    def inflight(self) -> int:
        return len(self._queue)

    def next_completed(self) -> Completion:
        index, unit = self._queue.popleft()
        return index, execute_unit(unit), None

    def drain(self) -> List[Tuple[int, RunRecord]]:
        return []

    def shutdown(self, cancel: bool = False) -> None:
        self._queue.clear()


class ProcessBackend:
    """A ``ProcessPoolExecutor`` with crash replacement and hang reaping."""

    def __init__(
        self,
        jobs: int,
        max_respawns: int = 3,
        emitter: Optional[ProgressEmitter] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.max_respawns = max_respawns
        self.emitter = emitter
        self.respawns = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[Any, int] = {}
        self._units: Dict[int, WorkUnit] = {}
        self._deadlines: Dict[int, Optional[float]] = {}
        self._failed: collections.deque = collections.deque()

    # ------------------------------------------------------------------ #

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def submit(
        self, index: int, unit: WorkUnit, hard_timeout_s: Optional[float] = None
    ) -> None:
        self._units[index] = unit
        self._deadlines[index] = (
            time.monotonic() + hard_timeout_s if hard_timeout_s else None
        )
        future = self._pool().submit(execute_unit, unit)
        self._futures[future] = index

    def inflight(self) -> int:
        return len(self._futures) + len(self._failed)

    # ------------------------------------------------------------------ #

    def _emit(self, event: str, **fields) -> None:
        if self.emitter is not None:
            self.emitter.emit(event, **fields)

    def _replace_pool(self, reason: str) -> None:
        """Tear down the broken/hung pool and resubmit survivors."""
        self.respawns += 1
        self._emit("worker_replaced", reason=reason, respawns=self.respawns)
        executor, self._executor = self._executor, None
        if executor is not None:
            # Kill lingering workers outright: a hung worker would make
            # shutdown(wait=True) hang forever, and a broken pool's
            # processes are already dead.
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except (OSError, AttributeError):
                    pass
            executor.shutdown(wait=False, cancel_futures=True)
        survivors = sorted(self._futures.values())
        self._futures.clear()
        if self.respawns > self.max_respawns:
            # Give up on replacement: fail the survivors as rows.
            for index in survivors:
                self._failed.append(
                    (index, WorkerCrashed(f"worker pool kept dying ({reason})"))
                )
            return
        for index in survivors:
            deadline = self._deadlines.get(index)
            future = self._pool().submit(execute_unit, self._units[index])
            self._futures[future] = index
            if deadline is not None:
                # Keep the original deadline: a resubmitted unit does not
                # get a fresh allowance.
                self._deadlines[index] = deadline

    def _reap_overdue(self) -> None:
        now = time.monotonic()
        overdue = [
            index
            for index in self._futures.values()
            if self._deadlines.get(index) is not None
            and now > self._deadlines[index]
        ]
        if not overdue:
            return
        for index in overdue:
            self._failed.append(
                (
                    index,
                    RunTimeout(
                        "worker exceeded its hard wall-clock deadline "
                        "(unit timeout did not fire; worker terminated)"
                    ),
                )
            )
            self._units.pop(index, None)
            self._deadlines.pop(index, None)
        # Drop the overdue entries, then rebuild the pool for the rest.
        self._futures = {
            future: index
            for future, index in self._futures.items()
            if index not in overdue
        }
        self._replace_pool("hung worker reaped")

    def next_completed(self) -> Completion:
        while True:
            if self._failed:
                index, exc = self._failed.popleft()
                return index, None, exc
            if not self._futures:
                raise RuntimeError("next_completed with nothing in flight")
            done, _ = wait(
                list(self._futures), timeout=0.2, return_when=FIRST_COMPLETED
            )
            if not done:
                self._reap_overdue()
                continue
            future = done.pop()
            index = self._futures.pop(future)
            try:
                record = future.result()
            except BrokenProcessPool as exc:
                self._futures[future] = index  # crashed mid-run: resubmit too
                self._replace_pool(str(exc) or "broken process pool")
                continue
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                self._cleanup(index)
                return index, None, exc
            self._cleanup(index)
            return index, record, None

    def _cleanup(self, index: int) -> None:
        self._units.pop(index, None)
        self._deadlines.pop(index, None)

    def drain(self) -> List[Tuple[int, RunRecord]]:
        """Collect every already-finished future without blocking."""
        drained: List[Tuple[int, RunRecord]] = []
        for future, index in list(self._futures.items()):
            if future.done() and not future.cancelled():
                try:
                    drained.append((index, future.result(timeout=0)))
                except BaseException:
                    continue
                finally:
                    del self._futures[future]
                    self._cleanup(index)
        return drained

    def shutdown(self, cancel: bool = False) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=not cancel, cancel_futures=cancel)
        self._futures.clear()
        self._units.clear()
        self._deadlines.clear()


# --------------------------------------------------------------------- #
# The engine.
# --------------------------------------------------------------------- #


class ExecutionEngine:
    """Fan work units out over a backend; collect records in unit order.

    Parameters:
        jobs: worker processes (1 = in-process serial, no pool).
        cache: optional :class:`repro.exec.cache.ResultCache`.
        force: recompute cached units (fresh results still overwrite the
            cache entry).
        emitter: optional :class:`repro.exec.progress.ProgressEmitter`.
        backend: explicit backend instance (tests); defaults to
            ``SerialBackend`` for ``jobs=1`` else ``ProcessBackend``.
        window: max in-flight units (default ``max(2*jobs, jobs+2)``).

    A unit with ``timeout_s`` set is declared hung at
    ``max(HARD_TIMEOUT_FACTOR * timeout_s, timeout_s + 30)`` seconds of
    pool-side wall clock.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        force: bool = False,
        emitter: Optional[ProgressEmitter] = None,
        backend=None,
        window: Optional[int] = None,
        max_respawns: int = 3,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.force = force
        self.emitter = emitter or ProgressEmitter()
        self._backend = backend
        self.window = window or max(2 * jobs, jobs + 2)
        self.max_respawns = max_respawns

    def _make_backend(self):
        if self._backend is not None:
            return self._backend
        if self.jobs == 1:
            return SerialBackend()
        return ProcessBackend(
            self.jobs, max_respawns=self.max_respawns, emitter=self.emitter
        )

    def _hard_timeout(self, unit: WorkUnit) -> Optional[float]:
        if unit.timeout_s is None:
            return None
        return max(HARD_TIMEOUT_FACTOR * unit.timeout_s, unit.timeout_s + 30)

    def run(self, units: Sequence[WorkUnit]) -> List[RunRecord]:
        """Execute every unit; returns one record per unit, in unit order."""
        units = list(units)
        results: List[Optional[RunRecord]] = [None] * len(units)
        cache_hits: List[int] = []
        pending: List[int] = []
        for index, unit in enumerate(units):
            if self.cache is not None and not self.force:
                hit = self.cache.get(unit)
                if hit is not None:
                    results[index] = hit
                    cache_hits.append(index)
                    continue
            pending.append(index)

        emit = self.emitter.emit
        emit(
            "engine_started",
            units=len(units),
            jobs=self.jobs,
            to_run=len(pending),
            cached=len(cache_hits),
        )
        for index in cache_hits:
            emit("unit_cached", index=index, unit=units[index].label())
            if _spans.enabled:
                _spans.active().event(
                    "unit_cached",
                    cat="exec",
                    pid=_spans.SpanTracer.EXEC_PID,
                    tid=index,
                    unit=units[index].label(),
                )

        order = plan_order(units, pending)
        backend = self._make_backend()
        started = time.monotonic()
        unit_started_at: Dict[int, float] = {}
        wall_samples: List[float] = []
        executed = failed = 0
        try:
            cursor = 0
            while cursor < len(order) or backend.inflight():
                while cursor < len(order) and backend.inflight() < self.window:
                    index = order[cursor]
                    cursor += 1
                    unit_started_at[index] = time.monotonic()
                    emit(
                        "unit_started",
                        index=index,
                        unit=units[index].label(),
                        cost_hint=units[index].cost_hint,
                    )
                    if _spans.enabled:
                        # One track per unit (tid=index) keeps the B/E
                        # stream balanced under windowed submission; the
                        # clock is the logical-round high-water mark, so
                        # serial runs stay byte-deterministic.
                        _spans.active().begin(
                            f"unit:{units[index].label()}",
                            cat="exec",
                            pid=_spans.SpanTracer.EXEC_PID,
                            tid=index,
                            cost_hint=units[index].cost_hint,
                        )
                    backend.submit(
                        index, units[index], self._hard_timeout(units[index])
                    )
                if not backend.inflight():
                    break
                index, record, infra_exc = backend.next_completed()
                if record is None:
                    record = error_record(
                        units[index].protocol,
                        units[index].topology,
                        infra_exc
                        if infra_exc is not None
                        else WorkerCrashed("worker returned no record"),
                        f=units[index].f,
                        seed=units[index].seed,
                    )
                wall = round(
                    time.monotonic() - unit_started_at.get(index, started), 6
                )
                wall_samples.append(wall)
                results[index] = record
                executed += 1
                if self.cache is not None:
                    self.cache.put(units[index], record)
                if record.failed:
                    failed += 1
                    emit(
                        "unit_failed",
                        index=index,
                        unit=units[index].label(),
                        wall_s=wall,
                        error_kind=record.error_kind,
                    )
                    if _spans.enabled:
                        _spans.active().end(
                            pid=_spans.SpanTracer.EXEC_PID,
                            tid=index,
                            failed=True,
                            error_kind=record.error_kind,
                        )
                else:
                    emit(
                        "unit_finished",
                        index=index,
                        unit=units[index].label(),
                        wall_s=wall,
                        cc_bits=record.cc_bits,
                        correct=record.correct,
                    )
                    if _spans.enabled:
                        _spans.active().end(
                            pid=_spans.SpanTracer.EXEC_PID,
                            tid=index,
                            cc_bits=record.cc_bits,
                            correct=record.correct,
                        )
        except KeyboardInterrupt:
            flushed = 0
            for index, record in backend.drain():
                results[index] = record
                if self.cache is not None:
                    self.cache.put(units[index], record)
                flushed += 1
            backend.shutdown(cancel=True)
            emit(
                "engine_interrupted",
                completed=sum(1 for r in results if r is not None),
                flushed=flushed,
            )
            raise
        backend.shutdown()
        emit(
            "engine_finished",
            wall_s=round(time.monotonic() - started, 6),
            executed=executed,
            cached=len(cache_hits),
            failed=failed,
        )
        if _obs_metrics.enabled:
            # Wall latency is the one non-deterministic metric domain;
            # it only appears for engine runs, never in serial traces.
            export_final_latency(wall_samples, jobs=self.jobs)
        assert all(record is not None for record in results)
        return results  # type: ignore[return-value]


# --------------------------------------------------------------------- #
# Generic deterministic fan-out for non-protocol work (adversary search,
# orchestration benchmarks): results come back in item order regardless
# of worker count, so `pooled_map(fn, xs, jobs=k) == [fn(x) for x in xs]`
# for any k.
# --------------------------------------------------------------------- #


def pooled_map(fn, items: Sequence[Any], jobs: int = 1) -> List[Any]:
    """Order-preserving parallel map over picklable items.

    ``jobs <= 1`` runs inline (no processes, no pickling requirement).
    ``fn`` must be a module-level callable for ``jobs > 1``.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as executor:
        return list(executor.map(fn, items, chunksize=1))

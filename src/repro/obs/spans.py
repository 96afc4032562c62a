"""Zero-dependency span tracing with deterministic identities.

A :class:`SpanTracer` records *spans* (named intervals with
parent/child nesting) and *instant events* against two clock domains:

* the **logical-round clock** — the simulator round (or transport
  logical round) at which a span begins/ends.  This is the primary
  clock: it is deterministic, so replaying a run with the same seed
  reproduces the exact same trace bytes.
* the **monotonic wall clock** — ``time.monotonic_ns()`` captured at
  begin/end.  Wall durations are advisory (profiling only) and are
  excluded from deterministic exports by default.

Span identities are derived from the run seed (a SHA-256 trace id
prefix plus a sequential counter), never from wall time or ``id()``,
so two runs with the same seed emit byte-identical span ids.

Hot-path contract
-----------------
Instrumented modules guard every call site with the **module-level**
:data:`enabled` flag (and :data:`messages` for message-level events)::

    from ..obs import spans as _spans
    ...
    if _spans.enabled:
        _spans.active().begin("agg.tree_construction", ...)

When tracing is off the cost is a single module-attribute load and a
falsy branch — no allocation, no function call.  Activation is
process-local: worker processes of the parallel engine never see the
parent's tracer (engine-level unit spans are recorded in the parent).
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "DETAIL_LEVELS",
    "SpanTracer",
    "activate",
    "active",
    "deactivate",
    "enabled",
    "messages",
]

#: Recognised ``--trace-detail`` levels, coarsest first.
DETAIL_LEVELS = ("off", "phases", "messages")

# Module-level guards: instrumentation sites test these bare booleans so
# that disabled tracing costs one attribute load on the hot path.
enabled: bool = False
messages: bool = False
_tracer: Optional["SpanTracer"] = None


def active() -> Optional["SpanTracer"]:
    """The currently activated tracer, or ``None``."""
    return _tracer


def activate(tracer: "SpanTracer") -> None:
    """Install ``tracer`` as the process-wide active tracer.

    The :data:`enabled` / :data:`messages` guards follow the tracer's
    detail level: ``off`` installs the tracer without arming any
    instrumentation (metrics may still be recorded at run end).
    """
    global _tracer, enabled, messages
    _tracer = tracer
    enabled = tracer.detail in ("phases", "messages")
    messages = tracer.detail == "messages"


def deactivate() -> None:
    """Disarm all instrumentation and drop the active tracer."""
    global _tracer, enabled, messages
    _tracer = None
    enabled = False
    messages = False


class SpanTracer:
    """Record nested spans and instant events with deterministic ids.

    Spans live on per-``(pid, tid)`` stacks — begins and ends must
    match per track, which is what makes the Chrome ``B``/``E`` stream
    balanced by construction.  ``pid`` tracks a process-like grouping
    (one per executed work unit; 0 for the top-level run), ``tid`` a
    thread-like one (the node id for simulator spans).
    """

    EXEC_PID = 1  #: reserved pid for engine-level unit lifecycle spans

    def __init__(self, seed: Any = 0, detail: str = "phases") -> None:
        if detail not in DETAIL_LEVELS:
            raise ValueError(
                f"trace detail must be one of {DETAIL_LEVELS}, got {detail!r}"
            )
        self.seed = seed
        self.detail = detail
        self.trace_id = hashlib.sha256(
            f"repro-trace:{seed!r}".encode()
        ).hexdigest()[:12]
        self.spans: List[Dict[str, Any]] = []  # closed spans, close order
        self.events: List[Dict[str, Any]] = []  # instant events, emit order
        self.processes: Dict[int, str] = {0: "run"}
        self.max_round: float = 0.0
        self._next_sid = 0
        self._next_pid = 2  # 0 = run, 1 = exec engine
        self._pid = 0  # default pid for spans that don't pass one
        self._pid_stack: List[int] = []
        self._stacks: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
        self._oplog: List[Dict[str, Any]] = []  # chronological B/E/i ops

    # -- identity ------------------------------------------------------ #

    def _sid(self) -> str:
        sid = f"{self.trace_id}:{self._next_sid}"
        self._next_sid += 1
        return sid

    # -- clocks -------------------------------------------------------- #

    def _clock(self, round: Optional[float]) -> float:
        if round is None:
            return self.max_round
        rnd = float(round)
        if rnd > self.max_round:
            self.max_round = rnd
        return rnd

    # -- process grouping --------------------------------------------- #

    def push_process(self, name: str) -> int:
        """Open a process-like grouping (one per executed work unit).

        Returns the assigned pid; spans begun without an explicit
        ``pid`` land in the innermost open process.
        """
        pid = self._next_pid
        self._next_pid += 1
        self.processes[pid] = name
        self._pid_stack.append(self._pid)
        self._pid = pid
        return pid

    def pop_process(self) -> None:
        if self._pid_stack:
            self._pid = self._pid_stack.pop()

    # -- spans --------------------------------------------------------- #

    def begin(
        self,
        name: str,
        cat: str = "sim",
        tid: int = 0,
        round: Optional[float] = None,
        pid: Optional[int] = None,
        **attrs: Any,
    ) -> str:
        """Open a span on track ``(pid, tid)`` at the given round."""
        p = self._pid if pid is None else pid
        t0 = self._clock(round)
        stack = self._stacks.setdefault((p, tid), [])
        span = {
            "sid": self._sid(),
            "parent": stack[-1]["sid"] if stack else None,
            "name": name,
            "cat": cat,
            "pid": p,
            "tid": tid,
            "t0": t0,
            "t1": None,
            "attrs": dict(attrs),
            "wall0_ns": time.monotonic_ns(),
            "wall_ns": None,
        }
        stack.append(span)
        self._oplog.append(
            {
                "ph": "B",
                "name": name,
                "cat": cat,
                "pid": p,
                "tid": tid,
                "ts": t0,
                "args": dict(attrs),
            }
        )
        return span["sid"]

    def end(
        self,
        tid: int = 0,
        round: Optional[float] = None,
        pid: Optional[int] = None,
        **attrs: Any,
    ) -> Optional[Dict[str, Any]]:
        """Close the innermost open span on track ``(pid, tid)``."""
        p = self._pid if pid is None else pid
        stack = self._stacks.get((p, tid))
        if not stack:
            return None  # unmatched end: tolerate, never raise in-sim
        span = stack.pop()
        t1 = self._clock(round)
        span["t1"] = max(t1, span["t0"])
        span["wall_ns"] = time.monotonic_ns() - span.pop("wall0_ns")
        if attrs:
            span["attrs"].update(attrs)
        self.spans.append(span)
        self._oplog.append(
            {
                "ph": "E",
                "pid": p,
                "tid": tid,
                "ts": span["t1"],
                "args": dict(attrs) if attrs else {},
            }
        )
        return span

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "sim",
        tid: int = 0,
        round: Optional[float] = None,
        pid: Optional[int] = None,
        **attrs: Any,
    ) -> Iterator[str]:
        """Context-manager form: the span closes at the highest logical
        round observed inside the block (``max_round``), after any span
        the block left open on its track (a root that crashed mid-phase
        never closes its phase span)."""
        p = self._pid if pid is None else pid
        sid = self.begin(name, cat, tid=tid, round=round, pid=p, **attrs)
        try:
            yield sid
        finally:
            stack = self._stacks.get((p, tid), [])
            while any(span["sid"] == sid for span in stack):
                self.end(tid=tid, round=self.max_round, pid=p)

    def event(
        self,
        name: str,
        cat: str = "sim",
        tid: int = 0,
        round: Optional[float] = None,
        pid: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        """Record an instant event (a point, not an interval)."""
        p = self._pid if pid is None else pid
        ts = self._clock(round)
        record = {
            "name": name,
            "cat": cat,
            "pid": p,
            "tid": tid,
            "ts": ts,
            "attrs": dict(attrs),
        }
        self.events.append(record)
        self._oplog.append(
            {
                "ph": "i",
                "name": name,
                "cat": cat,
                "pid": p,
                "tid": tid,
                "ts": ts,
                "s": "t",
                "args": dict(attrs),
            }
        )

    # -- lifecycle ----------------------------------------------------- #

    def close_all(self) -> int:
        """Close every still-open span at ``max_round`` (deepest first).

        Keeps exports balanced even if a run aborted mid-phase.
        Returns the number of spans force-closed.
        """
        closed = 0
        for (p, tid), stack in sorted(self._stacks.items()):
            while stack:
                self.end(tid=tid, round=self.max_round, pid=p)
                closed += 1
        return closed

    @property
    def oplog(self) -> List[Dict[str, Any]]:
        """Chronological begin/end/instant operations (Chrome order)."""
        return self._oplog

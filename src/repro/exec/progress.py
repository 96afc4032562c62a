"""Execution telemetry: structured JSONL events and a live CLI renderer.

The engine narrates its run through a :class:`ProgressEmitter`: one
flat JSON object per event, written to an optional JSONL file and fanned
out to in-process listeners.  Event vocabulary::

    engine_started    {units, jobs, to_run, cached}
    unit_started      {index, unit, cost_hint}
    unit_finished     {index, unit, wall_s, cc_bits, correct}
    unit_failed       {index, unit, wall_s, error_kind}
    unit_cached       {index, unit}
    engine_interrupted{completed, flushed}
    worker_replaced   {reason, respawns}
    engine_finished   {wall_s, executed, cached, failed}

Timestamps (``ts``) are wall-clock and obviously non-deterministic;
they live only in the telemetry stream, never in results, so the
engine's determinism contract is untouched.

:class:`ProgressTracker` is a listener that folds the stream into
renderable state (done counts, failures, units in flight, p50/p95
unit wall latency, ETA from the mean unit wall time), and
:func:`live_renderer` turns that state into the single carriage-return
status line the CLI shows on a TTY.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

Listener = Callable[[Dict[str, Any]], None]


class ProgressEmitter:
    """Fan structured events out to a JSONL file and listeners."""

    def __init__(
        self,
        jsonl_path: Optional[str] = None,
        listeners: Optional[List[Listener]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.jsonl_path = jsonl_path
        self.listeners: List[Listener] = list(listeners or ())
        self.clock = clock
        self._fh = None

    def emit(self, event: str, **fields: Any) -> None:
        payload = {"ts": round(self.clock(), 3), "event": event}
        payload.update(fields)
        if self.jsonl_path is not None:
            if self._fh is None:
                directory = os.path.dirname(os.path.abspath(self.jsonl_path))
                os.makedirs(directory, exist_ok=True)
                self._fh = open(self.jsonl_path, "a", encoding="utf-8")
            self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
            self._fh.flush()
        for listener in self.listeners:
            listener(payload)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ProgressEmitter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ProgressTracker:
    """Fold the event stream into a renderable progress snapshot."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.total = 0
        self.jobs = 1
        self.executed = 0
        self.cached = 0
        self.failed = 0
        self.in_flight = 0
        self.wall_samples: List[float] = []
        self.started_at: Optional[float] = None

    # -- listener interface ------------------------------------------- #

    def __call__(self, event: Dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == "engine_started":
            self.total = event.get("units", 0)
            self.jobs = event.get("jobs", 1)
            self.cached = event.get("cached", 0)
            self.started_at = self.clock()
        elif kind == "unit_started":
            self.in_flight += 1
        elif kind in ("unit_finished", "unit_failed"):
            self.in_flight = max(0, self.in_flight - 1)
            self.executed += 1
            if kind == "unit_failed":
                self.failed += 1
            wall = event.get("wall_s")
            if wall is not None:
                self.wall_samples.append(float(wall))
        elif kind == "unit_cached":
            self.cached += 1

    # -- snapshot ------------------------------------------------------ #

    @property
    def done(self) -> int:
        return self.executed + self.cached

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.done)

    def eta_s(self) -> Optional[float]:
        """Naive ETA: mean executed-unit wall time x remaining / workers."""
        if not self.wall_samples or not self.remaining:
            return None
        mean = sum(self.wall_samples) / len(self.wall_samples)
        return mean * self.remaining / max(1, self.jobs)

    def wall_percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile (0..100) of executed-unit wall times,
        by linear interpolation; ``None`` before the first sample."""
        if not self.wall_samples:
            return None
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        ordered = sorted(self.wall_samples)
        rank = (len(ordered) - 1) * q / 100.0
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)

    @staticmethod
    def _fmt_s(seconds: float) -> str:
        if seconds < 1:
            return f"{seconds * 1000:.0f}ms"
        return f"{seconds:.1f}s"

    def latency_summary(self) -> Optional[Dict[str, float]]:
        """Final p50/p95/mean of executed-unit wall times, or ``None``
        when zero units completed (never divides by an empty sample
        set — the zero-completed-units guard for renderers and metric
        export alike)."""
        if not self.wall_samples:
            return None
        return {
            "p50": self.wall_percentile(50.0),
            "p95": self.wall_percentile(95.0),
            "mean": sum(self.wall_samples) / len(self.wall_samples),
        }

    def render(self, width: int = 24) -> str:
        done, total = self.done, max(1, self.total)
        # Clamp: events arriving without an engine_started header leave
        # total at 0, which used to overflow the bar (and a bar wider
        # than `width` is always a bug, never a feature).
        filled = min(width, int(width * done / total))
        bar = "#" * filled + "-" * (width - filled)
        parts = [
            f"[{bar}] {done}/{self.total}",
            f"{self.cached} cached",
        ]
        if self.failed:
            parts.append(f"{self.failed} failed")
        parts.append(f"{self.in_flight}/{max(1, self.jobs)} busy")
        summary = self.latency_summary()
        if summary is not None:
            parts.append(
                f"p50 {self._fmt_s(summary['p50'])} / "
                f"p95 {self._fmt_s(summary['p95'])}"
            )
        eta = self.eta_s()
        if eta is not None:
            parts.append(f"ETA {int(eta // 60):02d}:{int(eta % 60):02d}")
        return " | ".join(parts)


def export_final_latency(wall_samples, jobs: int = 1) -> None:
    """Fold final executed-unit wall latencies into the active
    observability registry (p50/p95 gauges + a fixed-bucket histogram).

    A no-op when no registry is active or zero units completed — wall
    metrics are advisory and never appear for empty runs.
    """
    from ..obs import metrics as _metrics

    if _metrics.enabled:
        _metrics.record_unit_latency(
            _metrics.active(), wall_samples, jobs=jobs
        )


def live_renderer(
    stream=None, tracker: Optional[ProgressTracker] = None
) -> Listener:
    """A listener that repaints one status line per event.

    Writes carriage-return-terminated lines (newline on
    ``engine_finished`` / ``engine_interrupted`` so the final state
    survives on screen).  Pair with a :class:`ProgressTracker` fed by the
    same emitter; one is created (and fed here) if not supplied.
    """
    out = stream if stream is not None else sys.stderr
    state = tracker or ProgressTracker()
    own_tracker = tracker is None

    def listen(event: Dict[str, Any]) -> None:
        if own_tracker:
            state(event)
        terminal = event.get("event") in ("engine_finished", "engine_interrupted")
        end = "\n" if terminal else "\r"
        try:
            out.write(state.render() + end)
            out.flush()
        except (OSError, ValueError):
            pass

    return listen

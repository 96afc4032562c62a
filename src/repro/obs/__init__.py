"""Unified observability: span tracing, metrics, and exporters.

One subsystem replaces the repo's three ad-hoc introspection channels
(`sim/trace.py` raw events, `sim/stats.py` counters mined per call
site, `exec/progress.py` JSONL):

* :mod:`repro.obs.spans` — deterministic span tracer (logical-round +
  monotonic clocks, seed-derived ids, module-flag hot-path guard).
* :mod:`repro.obs.metrics` — typed counter/gauge/histogram registry
  with fixed bucket bounds, plus the compatibility facade over
  ``SimStats`` / transport link ledgers.
* :mod:`repro.obs.export` — JSONL, Chrome ``trace_event`` (Perfetto),
  and Prometheus textfile sinks; terminal renderers; trace analysis.

:class:`ObsCapture` ties the three together for one capture session::

    with ObsCapture(seed=7, detail="phases") as cap:
        run_protocol(...)
    cap.write(trace_out="t.json", metrics_out="m.prom")

Observability is bookkeeping, never simulated traffic: nothing here
touches ``SimStats`` bit accounting, so protocol CC/TC numbers are
bit-for-bit identical with tracing on or off.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .._lazy import export_table, facade
from . import metrics, spans
from .metrics import MetricsRegistry, merge_counter_tree
from .spans import DETAIL_LEVELS, SpanTracer

__all__ = [
    "DETAIL_LEVELS",
    "MetricsRegistry",
    "ObsCapture",
    "SpanTracer",
    "export",
    "merge_counter_tree",
    "metrics",
    "spans",
    "suspended",
]

# The exporters are imported by :meth:`ObsCapture.write`, not by every
# run that imports :mod:`.spans` or :mod:`.metrics`.
__getattr__, __dir__ = facade(__name__, export_table({"export": ""}), globals())


@contextmanager
def suspended() -> Iterator[None]:
    """Disarm the active tracer and registry for the body, then re-arm
    them: work done inside records no span and no metric."""
    tracer, registry = spans.active(), metrics.active()
    spans.deactivate()
    metrics.deactivate()
    try:
        yield
    finally:
        if tracer is not None:
            spans.activate(tracer)
        if registry is not None:
            metrics.activate(registry)


class ObsCapture:
    """One observability capture session: tracer + registry + sinks."""

    def __init__(self, seed=0, detail: str = "phases") -> None:
        self.tracer = SpanTracer(seed=seed, detail=detail)
        self.registry = MetricsRegistry()
        self._active = False

    # -- activation ---------------------------------------------------- #

    def activate(self) -> "ObsCapture":
        spans.activate(self.tracer)
        metrics.activate(self.registry)
        self._active = True
        return self

    def deactivate(self) -> None:
        if self._active:
            spans.deactivate()
            metrics.deactivate()
            self._active = False

    def __enter__(self) -> "ObsCapture":
        return self.activate()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.deactivate()

    # -- output -------------------------------------------------------- #

    def write(
        self,
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
    ) -> None:
        """Flush the capture to files.

        ``trace_out`` ending in ``.jsonl`` selects the JSONL sink
        (spans + metric samples, byte-deterministic); any other
        extension gets the Chrome ``trace_event`` document.
        ``metrics_out`` is always Prometheus textfile exposition.
        """
        from . import export

        self.tracer.close_all()
        if trace_out:
            if trace_out.endswith(".jsonl"):
                export.write_jsonl(trace_out, self.tracer, self.registry)
            else:
                export.write_chrome_trace(trace_out, self.tracer)
        if metrics_out:
            export.write_prometheus(metrics_out, self.registry)

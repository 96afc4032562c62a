"""Per-layer attribution for the perf benchmark, applied from the outside.

:class:`LayerTracer` wraps public methods of the simulator's layers at run
time (monkeypatching; nothing under ``src/`` knows it exists) and books
every wrapped call to a *key* (``<layer>.<qualname>``) of a *layer* (the
defining module without the ``repro.`` prefix, e.g. ``core.agg``):

* ``calls[key]`` and ``incl[key]`` — call count and inclusive seconds;
* ``self_s[key]`` — span time minus the time of wrapped calls nested in
  it, so the self times of all keys partition the traced wall time;
* ``counts`` — work counters observed at a boundary: top-level handler
  calls, idle calls (empty inbox, nothing sent), deliveries (inbox
  sizes), and ``ProtocolParams.cd`` reads (counted, not timed);
* ``events`` — spans for the Chrome trace, capped per key so a traced
  run stays loadable in Perfetto (counts and times cover every call).

Handler, injector and monitor classes are found by walking the class
hierarchy after importing every ``repro`` module, so a class added later
is traced without editing this file.  ``execute_unit`` is wrapped so that
a forked pool worker (which inherits the installed tracer) writes each
unit's delta to ``delta_dir``; :meth:`LayerTracer.absorb_deltas` merges
them in the parent.  Records and the result cache never see them.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

PERF = time.perf_counter

INJECTOR_HOOKS = (
    "begin_round",
    "on_broadcast",
    "on_transmit",
    "arrange_inbox",
    "end_round",
)
MONITOR_HOOKS = ("after_round", "finalize")

STEP_KEY = "sim.network.Network.step"
UNIT_KEY = "exec.scheduler.execute_unit"
STOP_LAYER = "sim.network.stop_scan"
CD_KEY = "core.params.ProtocolParams.cd"
_FIELDS = ("calls", "incl", "self_s", "counts")
#: Chrome-trace spans kept per key (per process): enough to see the
#: first rounds of every layer, small enough for Perfetto (~3 MB a pass).
MAX_EVENTS_PER_KEY = 2000


def layer_of(module: str) -> str:
    return module[len("repro."):] if module.startswith("repro.") else module


def _subclasses(base) -> List[type]:
    seen, todo = set(), [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.add(cls)
            todo.extend(cls.__subclasses__())
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


def _import_all_repro_modules() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _copy_identity(wrapper, fn) -> None:
    # Pickle resolves functions by module + qualname, so a pool can still
    # ship the wrapped ``execute_unit`` to its workers.
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr, None))
    wrapper.__wrapped__ = fn


class LayerTracer:
    """Attribute wall time and work to layers; see the module docstring.

    ``full=False`` installs only the ``execute_unit`` timer, which the
    untraced reference pass uses for unit wall and dispatch overhead.
    ``delta_dir`` is where forked pool workers leave per-unit deltas.
    """

    def __init__(self, full: bool = True, delta_dir: Optional[str] = None):
        self.full = full
        self.delta_dir = delta_dir
        self.pid = os.getpid()
        self.t0 = PERF()
        self.key_layer: Dict[str, str] = {}
        self._undo: List[Tuple[Any, str, Any]] = []
        self._stack: List[list] = []
        self.reset()

    # ------------------------------------------------------------------ #
    # State.
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.events: List[tuple] = []
        self._budget: Dict[str, int] = defaultdict(lambda: MAX_EVENTS_PER_KEY)
        self._cd = [0]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        counts = dict(self.counts)
        counts[CD_KEY] = counts.get(CD_KEY, 0) + self._cd[0]
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self_s": dict(self.self_s),
            "counts": counts,
        }

    @staticmethod
    def diff(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
        return {
            field: {
                k: v - before[field].get(k, 0)
                for k, v in after[field].items()
                if v != before[field].get(k, 0)
            }
            for field in _FIELDS
        }

    def absorb_deltas(self) -> int:
        """Merge (and delete) the per-unit deltas workers left in
        ``delta_dir``; returns how many there were."""
        names = sorted(
            n for n in os.listdir(self.delta_dir) if n.endswith(".json")
        )
        for name in names:
            path = os.path.join(self.delta_dir, name)
            with open(path, encoding="utf-8") as fh:
                delta = json.load(fh)
            os.unlink(path)
            for field in _FIELDS:
                target = getattr(self, field)
                for key, value in delta[field].items():
                    if key == CD_KEY and field == "counts":
                        self._cd[0] += value
                    else:
                        target[key] += value
            self.events.extend(tuple(e) for e in delta["events"])
        return len(names)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per-layer totals: wrapped calls and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for key, value in self.self_s.items():
            layer = self.key_layer.get(key, key)
            cell = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            cell["self_s"] += value
            cell["calls"] += self.calls.get(key, 0)
        return out

    # ------------------------------------------------------------------ #
    # Spans.
    # ------------------------------------------------------------------ #

    def span(self, layer: str, name: str) -> "_Span":
        """A span opened by the benchmark itself (setup, one run)."""
        key = f"{layer}.{name}"
        self.key_layer[key] = layer
        return _Span(self, key, layer)

    def _close(self, frame: list, key: str, layer: str, start: float) -> None:
        dur = PERF() - start
        self._stack.pop()
        self.self_s[key] += dur - frame[0]
        self.incl[key] += dur
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][0] += dur
        if self._budget[key] > 0:
            self._budget[key] -= 1
            self.events.append((os.getpid(), layer, key, start - self.t0, dur))

    # ------------------------------------------------------------------ #
    # Wrappers.
    # ------------------------------------------------------------------ #

    def _timed(self, fn, key: str, layer: str):
        stack, close = self._stack, self._close
        self.key_layer[key] = layer

        def wrapper(*args, **kwargs):
            frame = [0.0, key]
            stack.append(frame)
            start = PERF()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, key, layer, start)

        _copy_identity(wrapper, fn)
        return wrapper

    def _handler(self, fn, key: str, layer: str):
        stack, close, counts = self._stack, self._close, self.counts
        idle_key = f"{layer}.idle_calls"
        self.key_layer[key] = layer

        def on_round(handler, rnd, inbox, *args, **kwargs):
            top = bool(stack) and stack[-1][1] == STEP_KEY
            frame = [0.0, key]
            stack.append(frame)
            start = PERF()
            try:
                out = fn(handler, rnd, inbox, *args, **kwargs)
            finally:
                close(frame, key, layer, start)
            idle = not inbox and not out
            if idle:
                counts[idle_key] += 1
            if top:
                counts["sim.network.handler_calls"] += 1
                counts["sim.network.deliveries"] += len(inbox)
                if idle:
                    counts["sim.network.idle_calls"] += 1
            return out

        _copy_identity(on_round, fn)
        return on_round

    # ------------------------------------------------------------------ #
    # Installing / removing.
    # ------------------------------------------------------------------ #

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _rebind(self, fn, wrapper) -> None:
        """Point every ``repro`` module name bound to ``fn`` at ``wrapper``
        (modules that imported it by name hold their own reference)."""
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)

    def _wrap_function(self, fn) -> None:
        layer = layer_of(fn.__module__)
        self._rebind(fn, self._timed(fn, f"{layer}.{fn.__qualname__}", layer))

    def _wrap_method(self, cls, name: str, layer: str) -> None:
        fn = vars(cls)[name]
        key = f"{layer}.{cls.__qualname__}.{name}"
        wrap = self._handler if name == "on_round" else self._timed
        self._set(cls, name, wrap(fn, key, layer))

    def _wrap_hierarchy(self, base, hooks, layer=None) -> None:
        for cls in _subclasses(base):
            for hook in hooks:
                if hook in vars(cls):
                    self._wrap_method(cls, hook, layer or layer_of(cls.__module__))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        _import_all_repro_modules()
        if self.full:
            self._install_layers()
        self._install_unit_wrapper()

    def _install_layers(self) -> None:
        from repro.analysis import runner
        from repro.core.params import ProtocolParams
        from repro.exec.cache import ResultCache
        from repro.exec.pool import ExecutionEngine
        from repro.graphs import properties
        from repro.sim.faults import FaultInjector
        from repro.sim.monitors import Monitor
        from repro.sim.network import Network
        from repro.sim.node import NodeHandler

        self._wrap_function(properties.diameter)
        self._wrap_function(properties.bfs_levels)
        self._wrap_function(runner.safe_run_protocol)
        self._wrap_method(Network, "step", "sim.network")
        self._wrap_method(Network, "run", "sim.network")
        self._wrap_method(ResultCache, "get", "exec.cache")
        self._wrap_method(ResultCache, "put", "exec.cache")
        self._wrap_method(ExecutionEngine, "run", "exec.pool")
        self._wrap_hierarchy(NodeHandler, ("on_round",))
        self._wrap_hierarchy(NodeHandler, ("wants_to_stop",), layer=STOP_LAYER)
        self._wrap_hierarchy(FaultInjector, INJECTOR_HOOKS)
        self._wrap_hierarchy(Monitor, MONITOR_HOOKS)

        cd = vars(ProtocolParams)["cd"].fget
        cell = self._cd

        def counted_cd(params):
            cell[0] += 1
            return cd(params)

        self._set(ProtocolParams, "cd", property(counted_cd, doc=cd.__doc__))

    def _install_unit_wrapper(self) -> None:
        from repro.exec import scheduler

        execute_unit = scheduler.execute_unit
        timed = self._timed(execute_unit, UNIT_KEY, "exec.scheduler")
        tracer = self

        def unit_wrapper(unit):
            if os.getpid() == tracer.pid:
                return timed(unit)
            # Forked pool worker: leave this unit's delta for the parent.
            before, first_event = tracer.snapshot(), len(tracer.events)
            record = timed(unit)
            delta = LayerTracer.diff(tracer.snapshot(), before)
            delta["events"] = tracer.events[first_event:]
            path = os.path.join(
                tracer.delta_dir, f"{os.getpid()}-{tracer.calls[UNIT_KEY]}"
            )
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                json.dump(delta, fh)
            os.replace(path + ".tmp", path + ".json")
            return record

        _copy_identity(unit_wrapper, execute_unit)
        self._rebind(execute_unit, unit_wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Chrome trace_event export.
    # ------------------------------------------------------------------ #

    def chrome_trace(self, label: str) -> Dict[str, Any]:
        """``X`` spans with one track (tid) per layer and one process
        (pid) per OS process, so pool workers stay apart."""
        layers = sorted({e[1] for e in self.events})
        tid = {layer: i + 1 for i, layer in enumerate(layers)}
        events: List[Dict[str, Any]] = []
        for pid in sorted({e[0] for e in self.events}):
            name = label if pid == self.pid else f"{label} worker {pid}"
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": name}})
            for layer in layers:
                events.append({"ph": "M", "name": "thread_name", "pid": pid,
                               "tid": tid[layer], "args": {"name": layer}})
        for pid, layer, key, start, dur in sorted(
            self.events, key=lambda e: (e[0], e[3], -e[4])
        ):
            events.append({
                "ph": "X",
                "name": key[len(layer) + 1:],
                "cat": layer,
                "pid": pid,
                "tid": tid[layer],
                "ts": round(max(0.0, start) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "label": label,
                "clock": "host microseconds since the tracer started",
                "max_events_per_key": MAX_EVENTS_PER_KEY,
            },
        }


class _Span:
    def __init__(self, tracer: LayerTracer, key: str, layer: str) -> None:
        self.tracer, self.key, self.layer = tracer, key, layer

    def __enter__(self) -> "_Span":
        self.frame = [0.0, self.key]
        self.tracer._stack.append(self.frame)
        self.start = PERF()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.frame, self.key, self.layer, self.start)

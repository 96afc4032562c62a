"""Export sinks and analysis helpers for traces and metrics.

Three sinks, all deterministic for a fixed seed:

* **JSONL** — one self-describing JSON object per line (meta, spans,
  instant events, metric samples), sorted keys.  The byte-identity
  contract lives here: same seed, same bytes.  Wall-clock durations
  are excluded unless ``include_wall=True``.
* **Chrome ``trace_event``** — a ``{"traceEvents": [...]}`` JSON
  document of balanced ``B``/``E`` pairs plus ``i`` instants and
  process-name metadata, loadable in Perfetto / ``chrome://tracing``.
  Timestamps map one logical round to 1 ms of trace time.
* **Prometheus textfile** — standard exposition format for the
  node-exporter textfile collector.

Plus the pure functions behind the ``repro-agg obs`` verb: summarize, diff, top-k,
trace validation, and a Prometheus format linter.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry, _fmt_value
from .spans import SpanTracer

__all__ = [
    "chrome_trace",
    "diff_summaries",
    "jsonl_lines",
    "lint_prometheus",
    "load_trace",
    "prometheus_text",
    "summarize_trace",
    "top_spans",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]

#: trace-time microseconds per logical round in Chrome exports.
US_PER_ROUND = 1000.0


def _ensure_dir(path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)


# --------------------------------------------------------------------- #
# JSONL
# --------------------------------------------------------------------- #


def jsonl_lines(
    tracer: Optional[SpanTracer] = None,
    registry: Optional[MetricsRegistry] = None,
    include_wall: bool = False,
) -> List[str]:
    """Serialize spans + metrics to deterministic JSONL lines."""
    lines: List[str] = []
    if tracer is not None:
        meta = {
            "type": "meta",
            "trace_id": tracer.trace_id,
            "seed": repr(tracer.seed),
            "detail": tracer.detail,
            "max_round": tracer.max_round,
            "processes": {str(k): v for k, v in tracer.processes.items()},
        }
        lines.append(json.dumps(meta, sort_keys=True))
        for span in tracer.spans:
            row = {
                "type": "span",
                "sid": span["sid"],
                "parent": span["parent"],
                "name": span["name"],
                "cat": span["cat"],
                "pid": span["pid"],
                "tid": span["tid"],
                "t0": span["t0"],
                "t1": span["t1"],
                "attrs": span["attrs"],
            }
            if include_wall:
                row["wall_ns"] = span["wall_ns"]
            lines.append(json.dumps(row, sort_keys=True))
        for event in tracer.events:
            lines.append(
                json.dumps(dict(event, type="event"), sort_keys=True)
            )
    if registry is not None:
        for name, labels, value in registry.as_samples():
            lines.append(
                json.dumps(
                    {
                        "type": "metric",
                        "name": name,
                        "labels": dict(labels),
                        "value": value,
                    },
                    sort_keys=True,
                )
            )
    return lines


def write_jsonl(
    path: str,
    tracer: Optional[SpanTracer] = None,
    registry: Optional[MetricsRegistry] = None,
    include_wall: bool = False,
) -> None:
    _ensure_dir(path)
    with open(path, "w", encoding="utf-8") as fh:
        for line in jsonl_lines(tracer, registry, include_wall=include_wall):
            fh.write(line + "\n")


# --------------------------------------------------------------------- #
# Chrome trace_event
# --------------------------------------------------------------------- #


def chrome_trace(tracer: SpanTracer) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document from the tracer's oplog."""
    events: List[Dict[str, Any]] = []
    for pid in sorted(tracer.processes):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": tracer.processes[pid]},
            }
        )
    for op in tracer.oplog:
        entry: Dict[str, Any] = {
            "ph": op["ph"],
            "pid": op["pid"],
            "tid": op["tid"],
            "ts": op["ts"] * US_PER_ROUND,
        }
        if op["ph"] != "E":
            entry["name"] = op["name"]
            entry["cat"] = op["cat"]
        if op["ph"] == "i":
            entry["s"] = op["s"]
        if op.get("args"):
            entry["args"] = op["args"]
        events.append(entry)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": tracer.trace_id,
            "seed": repr(tracer.seed),
            "detail": tracer.detail,
            "clock": f"1 logical round = {US_PER_ROUND:.0f}us",
        },
    }


def write_chrome_trace(path: str, tracer: SpanTracer) -> None:
    _ensure_dir(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer), fh, sort_keys=True, indent=1)
        fh.write("\n")


# --------------------------------------------------------------------- #
# Prometheus textfile exposition
# --------------------------------------------------------------------- #


def _prom_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in labels
    )
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus textfile exposition format."""
    out: List[str] = []
    for family in registry.families():
        out.append(f"# HELP {family.name} {family.help or family.name}")
        out.append(f"# TYPE {family.name} {family.kind}")
        for name, labels, value in family.samples():
            out.append(f"{name}{_prom_labels(labels)} {_fmt_value(value)}")
    return "\n".join(out) + "\n" if out else ""


def write_prometheus(path: str, registry: MetricsRegistry) -> None:
    _ensure_dir(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(registry))


# --------------------------------------------------------------------- #
# trace-file analysis (the `obs` verb)
# --------------------------------------------------------------------- #


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Load trace events from a Chrome JSON or JSONL trace file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # A Chrome trace is one JSON document; JSONL fails the whole-file
    # parse at line 2 (every line starts with "{", so sniffing the
    # first byte cannot distinguish them).
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "type" not in doc:
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError(f"{path}: no traceEvents array")
        return events
    # JSONL: resynthesize B/E pairs from span rows for shared analysis.
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("type") == "span":
            base = {"pid": row["pid"], "tid": row["tid"]}
            events.append(
                dict(
                    base,
                    ph="B",
                    name=row["name"],
                    cat=row["cat"],
                    ts=row["t0"] * US_PER_ROUND,
                )
            )
            events.append(dict(base, ph="E", ts=row["t1"] * US_PER_ROUND))
        elif row.get("type") == "event":
            events.append(
                {
                    "ph": "i",
                    "name": row["name"],
                    "cat": row["cat"],
                    "pid": row["pid"],
                    "tid": row["tid"],
                    "ts": row["ts"] * US_PER_ROUND,
                    "s": "t",
                }
            )
    return events


def _paired_spans(
    events: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Pair B/E events per (pid, tid) into flat span dicts with ``dur``."""
    stacks: Dict[Tuple[Any, Any], List[Dict[str, Any]]] = {}
    spans: List[Dict[str, Any]] = []
    for ev in events:
        ph = ev.get("ph")
        key = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append(ev)
        elif ph == "E":
            stack = stacks.get(key)
            if stack:
                b = stack.pop()
                spans.append(
                    {
                        "name": b.get("name", "?"),
                        "cat": b.get("cat", "?"),
                        "pid": key[0],
                        "tid": key[1],
                        "ts": b.get("ts", 0.0),
                        "dur": max(0.0, ev.get("ts", 0.0) - b.get("ts", 0.0)),
                    }
                )
    return spans


def summarize_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a trace: per-span-name counts and round-time totals."""
    spans = _paired_spans(events)
    by_name: Dict[str, Dict[str, float]] = {}
    for span in spans:
        cell = by_name.setdefault(
            span["name"], {"count": 0, "total_us": 0.0, "max_us": 0.0}
        )
        cell["count"] += 1
        cell["total_us"] += span["dur"]
        cell["max_us"] = max(cell["max_us"], span["dur"])
    instants: Dict[str, int] = {}
    for ev in events:
        if ev.get("ph") == "i":
            name = ev.get("name", "?")
            instants[name] = instants.get(name, 0) + 1
    return {
        "spans": len(spans),
        "instants": sum(instants.values()),
        "by_name": dict(sorted(by_name.items())),
        "instants_by_name": dict(sorted(instants.items())),
    }


def diff_summaries(
    a: Dict[str, Any], b: Dict[str, Any]
) -> List[Tuple[str, float, float]]:
    """Per-span-name total-time pairs (a vs b), sorted by |delta| desc."""
    names = sorted(set(a["by_name"]) | set(b["by_name"]))
    rows = []
    for name in names:
        ta = a["by_name"].get(name, {}).get("total_us", 0.0)
        tb = b["by_name"].get(name, {}).get("total_us", 0.0)
        rows.append((name, ta, tb))
    rows.sort(key=lambda r: (-abs(r[2] - r[1]), r[0]))
    return rows


def top_spans(
    events: List[Dict[str, Any]], k: int = 10
) -> List[Dict[str, Any]]:
    """The k slowest individual spans by logical duration."""
    spans = _paired_spans(events)
    spans.sort(key=lambda s: (-s["dur"], s["name"], s["ts"]))
    return spans[: max(0, k)]


def validate_chrome_trace(doc: Any) -> List[str]:
    """Validate a Chrome trace document; return a list of problems.

    Checks well-formedness (a ``traceEvents`` array of objects with
    legal phases, numeric non-negative timestamps) and that every
    ``(pid, tid)`` track's ``B``/``E`` stream is balanced.
    """
    errors: List[str] = []
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        return ["top level must be an object with a traceEvents array"]
    depth: Dict[Tuple[Any, Any], int] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("B", "E", "i", "M", "X", "C"):
            errors.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"event {i}: bad ts {ts!r}")
        if ph in ("B", "i", "M", "X") and not ev.get("name"):
            errors.append(f"event {i}: {ph} event without a name")
        key = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            depth[key] = depth.get(key, 0) + 1
        elif ph == "E":
            depth[key] = depth.get(key, 0) - 1
            if depth[key] < 0:
                errors.append(
                    f"event {i}: E without matching B on track {key}"
                )
                depth[key] = 0
    for key, d in sorted(depth.items(), key=str):
        if d > 0:
            errors.append(f"track {key}: {d} unclosed B event(s)")
    return errors


_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" [-+]?(\d+(\.\d+)?([eE][-+]?\d+)?|Inf|NaN)$"
)
_PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*")


def lint_prometheus(text: str) -> List[str]:
    """Lint Prometheus textfile exposition; return a list of problems."""
    errors: List[str] = []
    typed: Dict[str, str] = {}
    helped: set = set()
    seen_samples: set = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _PROM_NAME.match(parts[2]):
                errors.append(f"line {lineno}: malformed HELP")
            else:
                helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter",
                "gauge",
                "histogram",
                "summary",
                "untyped",
            ):
                errors.append(f"line {lineno}: malformed TYPE")
            else:
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        if not _PROM_SAMPLE.match(line):
            errors.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = _PROM_NAME.match(line).group(0)
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            errors.append(f"line {lineno}: sample {name!r} has no TYPE")
        key = line.rsplit(" ", 1)[0]
        if key in seen_samples:
            errors.append(f"line {lineno}: duplicate sample {key!r}")
        seen_samples.add(key)
    # Histogram integrity: every histogram family must expose a +Inf
    # bucket whose cumulative value equals the family _count.
    lines = [
        l for l in text.splitlines() if l.strip() and not l.startswith("#")
    ]
    for family, kind in typed.items():
        if kind != "histogram":
            continue
        inf_values = [
            l.rsplit(" ", 1)[1]
            for l in lines
            if l.startswith(family + "_bucket") and 'le="+Inf"' in l
        ]
        count_values = [
            l.rsplit(" ", 1)[1]
            for l in lines
            if _PROM_NAME.match(l).group(0) == family + "_count"
        ]
        if not inf_values:
            errors.append(f"histogram {family!r}: no +Inf bucket")
        elif sorted(inf_values) != sorted(count_values):
            errors.append(
                f"histogram {family!r}: +Inf buckets do not match _count"
            )
    return errors

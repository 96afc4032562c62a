"""A typed, deterministic metrics registry: counters, gauges, histograms.

Families are created on first use and addressed by name; samples are
addressed by a sorted label tuple, so iteration order (and therefore
every export) is deterministic regardless of recording order.
Histograms use **fixed bucket bounds** supplied at creation — never
derived from the data — so two runs with the same seed produce
byte-identical exposition.

The registry *supersedes* the scattered ad-hoc accounting that grew
around :class:`repro.sim.stats.SimStats` (protocol bit counters) and
the transport's per-link retransmit ledger: :func:`record_run` and
:func:`record_link_stats` are the compatibility facade that folds
those legacy structures into metric families at run end, and
:func:`merge_counter_tree` is the single merge routine behind
``SimStats.absorb``'s link accounting (which used to hand-roll it).

Like :mod:`repro.obs.spans`, activation is guarded by a module-level
:data:`enabled` flag so the disabled path costs one attribute load.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "activate",
    "active",
    "deactivate",
    "enabled",
    "merge_counter_tree",
    "record_link_stats",
    "record_run",
    "record_unit_latency",
]

enabled: bool = False
_registry: Optional["MetricsRegistry"] = None

#: Fixed bounds for round-count histograms (simulator rounds).
ROUND_BUCKETS = (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0)
#: Fixed bounds for CC histograms (bits at the max-loaded node).
BITS_BUCKETS = (64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0)
#: Fixed bounds for unit wall-latency histograms (seconds).
WALL_BUCKETS = (0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0)


def active() -> Optional["MetricsRegistry"]:
    """The currently activated registry, or ``None``."""
    return _registry


def activate(registry: "MetricsRegistry") -> None:
    global _registry, enabled
    _registry = registry
    enabled = True


def deactivate() -> None:
    global _registry, enabled
    _registry = None
    enabled = False


LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """Shared family plumbing: name, help text, labelled samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def _check(self, other_kind: str) -> None:
        if self.kind != other_kind:
            raise TypeError(
                f"metric {self.name!r} is a {self.kind}, not a {other_kind}"
            )


class Counter(_Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0) + amount

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        return [
            (self.name, key, value)
            for key, value in sorted(self.values.items())
        ]


class Gauge(_Metric):
    """A point-in-time value per label set (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self.values[_label_key(labels)] = value

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        return [
            (self.name, key, value)
            for key, value in sorted(self.values.items())
        ]


class Histogram(_Metric):
    """Cumulative-bucket histogram with fixed, explicit bounds.

    Bounds are part of the family's identity: re-declaring the family
    with different bounds is an error, which is what keeps bucket
    layout deterministic across a run.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = ROUND_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} needs strictly increasing bounds"
            )
        self.bounds = bounds
        # per label set: [bucket counts..., +Inf count], sum, count
        self.values: Dict[LabelKey, Dict[str, Any]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        cell = self.values.get(key)
        if cell is None:
            cell = self.values[key] = {
                "buckets": [0] * (len(self.bounds) + 1),
                "sum": 0.0,
                "count": 0,
            }
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                cell["buckets"][i] += 1
                break
        else:
            cell["buckets"][-1] += 1
        cell["sum"] += value
        cell["count"] += 1

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        """Flatten to Prometheus-style cumulative samples."""
        out: List[Tuple[str, LabelKey, float]] = []
        for key, cell in sorted(self.values.items()):
            running = 0
            for bound, n in zip(self.bounds, cell["buckets"]):
                running += n
                out.append(
                    (
                        f"{self.name}_bucket",
                        key + (("le", _fmt_value(bound)),),
                        float(running),
                    )
                )
            running += cell["buckets"][-1]
            out.append(
                (f"{self.name}_bucket", key + (("le", "+Inf"),), float(running))
            )
            out.append((f"{self.name}_sum", key, cell["sum"]))
            out.append((f"{self.name}_count", key, float(cell["count"])))
        return out


def _fmt_value(v: float) -> str:
    """Deterministic number formatting: integers without the ``.0``."""
    return str(int(v)) if float(v).is_integer() else repr(float(v))


class MetricsRegistry:
    """Get-or-create registry of metric families, iterated sorted."""

    def __init__(self) -> None:
        self._families: Dict[str, _Metric] = {}

    def _family(self, cls, name: str, help: str, **kwargs) -> _Metric:
        metric = self._families.get(name)
        if metric is None:
            metric = self._families[name] = cls(name, help, **kwargs)
        else:
            metric._check(cls.kind)
            if kwargs.get("buckets") is not None and tuple(
                float(b) for b in kwargs["buckets"]
            ) != metric.bounds:
                raise ValueError(
                    f"histogram {name!r} re-declared with different bounds"
                )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = ROUND_BUCKETS,
    ) -> Histogram:
        return self._family(Histogram, name, help, buckets=buckets)

    def families(self) -> List[_Metric]:
        return [self._families[k] for k in sorted(self._families)]

    def as_samples(self) -> List[Tuple[str, LabelKey, float]]:
        """Every sample of every family, deterministically ordered."""
        out: List[Tuple[str, LabelKey, float]] = []
        for family in self.families():
            out.extend(family.samples())
        return out

    def __len__(self) -> int:
        return len(self._families)


# --------------------------------------------------------------------- #
# compatibility facade over SimStats / transport link ledgers
# --------------------------------------------------------------------- #


def merge_counter_tree(
    mine: Dict[str, Any], other: Dict[str, Any]
) -> Dict[str, Any]:
    """Merge a two-level counter tree (``section -> leaf -> n``) in place.

    Numeric leaves add; anything non-numeric (or a non-dict section,
    e.g. a scalar budget or a nested config blob) is overwritten by the
    newer value.  This is the single merge rule behind
    ``SimStats.absorb``'s link accounting and the registry's own
    link-stat ingestion.
    """
    for section, leaves in other.items():
        if isinstance(leaves, dict):
            dst = mine.setdefault(section, {})
            for leaf, n in leaves.items():
                prev = dst.get(leaf, 0)
                if isinstance(n, (int, float)) and isinstance(
                    prev, (int, float)
                ):
                    dst[leaf] = prev + n
                else:
                    dst[leaf] = n
        else:
            mine[section] = leaves
    return mine


def record_link_stats(
    registry: MetricsRegistry, link_stats: Dict[str, Any]
) -> None:
    """Fold a transport per-link ledger into metric families.

    ``attempts`` / ``cap_hits`` become per-link counters; the scalar
    retransmit ``budget`` becomes a gauge.  Unknown sections are
    ignored (the raw ledger stays available in run records).
    """
    attempts = registry.counter(
        "repro_transport_link_retransmit_attempts_total",
        "Retransmit attempts charged to each directed link",
    )
    for link, n in (link_stats.get("attempts") or {}).items():
        if isinstance(n, (int, float)):
            attempts.inc(n, link=link)
    cap_hits = registry.counter(
        "repro_transport_link_cap_hits_total",
        "Retransmit requests refused because the link budget was spent",
    )
    for link, n in (link_stats.get("cap_hits") or {}).items():
        if isinstance(n, (int, float)):
            cap_hits.inc(n, link=link)
    budget = link_stats.get("budget")
    if isinstance(budget, (int, float)):
        registry.gauge(
            "repro_transport_retransmit_budget",
            "Per-link retransmit budget configured on the transport",
        ).set(budget)


#: run-record ``extra`` keys exported one-to-one as counters.
_EXTRA_COUNTERS = (
    ("retransmissions", "repro_transport_retransmissions_total"),
    ("nacks", "repro_transport_nacks_total"),
    ("live_gaps", "repro_transport_live_gaps_total"),
    ("suspects", "repro_detector_suspects_total"),
    ("confirms", "repro_detector_confirms_total"),
    ("elections", "repro_failover_elections_total"),
    ("integrity_rejected", "repro_integrity_rejected_total"),
    ("double_counted", "repro_churn_double_counted_total"),
    ("lost_contributions", "repro_churn_lost_contributions_total"),
    ("gray_stalled", "repro_gray_stalled_copies_total"),
)


def record_run(
    registry: MetricsRegistry,
    *,
    protocol: str,
    cc_bits: Optional[float],
    rounds: Optional[float],
    flooding_rounds: Optional[float] = None,
    correct: Optional[bool] = None,
    overhead_bits: Optional[float] = None,
    extra: Optional[Dict[str, Any]] = None,
    link_stats: Optional[Dict[str, Any]] = None,
) -> None:
    """Fold one finished protocol run into the registry.

    This is the facade that replaces per-call-site ``SimStats`` mining:
    runner code calls it once per record and every downstream consumer
    reads the registry.
    """
    labels = {"protocol": protocol}
    runs = registry.counter("repro_runs_total", "Protocol runs recorded")
    runs.inc(**labels)
    if correct is not None:
        registry.counter(
            "repro_runs_correct_total", "Runs whose output was exact"
        ).inc(1 if correct else 0, **labels)
    if cc_bits is not None:
        registry.gauge(
            "repro_run_cc_bits", "Protocol CC of the last run (bits)"
        ).set(cc_bits, **labels)
        registry.histogram(
            "repro_run_cc_bits_hist",
            "Distribution of protocol CC across runs (bits)",
            buckets=BITS_BUCKETS,
        ).observe(cc_bits, **labels)
    if rounds is not None:
        registry.gauge(
            "repro_run_rounds", "Simulator rounds of the last run"
        ).set(rounds, **labels)
        registry.histogram(
            "repro_run_rounds_hist",
            "Distribution of simulator rounds across runs",
            buckets=ROUND_BUCKETS,
        ).observe(rounds, **labels)
    if flooding_rounds is not None:
        registry.gauge(
            "repro_run_flooding_rounds",
            "TC of the last run, in flooding rounds",
        ).set(flooding_rounds, **labels)
    if overhead_bits is not None:
        registry.counter(
            "repro_recovery_overhead_bits_total",
            "Recovery/bookkeeping bits excluded from protocol CC",
        ).inc(overhead_bits, **labels)
    for key, metric_name in _EXTRA_COUNTERS:
        value = (extra or {}).get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            registry.counter(metric_name, f"Run-record `{key}` tally").inc(
                value, **labels
            )
    if link_stats:
        record_link_stats(registry, link_stats)


def record_unit_latency(
    registry: MetricsRegistry, samples: Iterable[float], jobs: int = 1
) -> None:
    """Fold executed-unit wall latencies into the registry.

    Wall clocks are the one non-deterministic metric domain; these
    families appear only for engine (multi-unit) runs and are excluded
    from byte-identity guarantees.  Safe to call with zero samples.
    """
    hist = registry.histogram(
        "repro_exec_unit_wall_seconds",
        "Executed work-unit wall latency (seconds)",
        buckets=WALL_BUCKETS,
    )
    ordered = sorted(samples)
    for s in ordered:
        hist.observe(s)
    registry.gauge("repro_exec_jobs", "Worker pool size").set(jobs)
    if not ordered:
        return  # zero completed units: no percentiles to report
    for q, name in ((50.0, "p50"), (95.0, "p95")):
        rank = (len(ordered) - 1) * q / 100.0
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
        registry.gauge(
            f"repro_exec_unit_wall_{name}_seconds",
            f"{name} executed-unit wall latency (seconds)",
        ).set(value)

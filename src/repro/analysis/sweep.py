"""Parameter sweeps with seed averaging and crash-safe execution.

The paper defines CC over *average-case coin flips* but worst-case inputs
and adversary.  Experimentally we approximate by averaging the bottleneck
bits over seeds (coins and adversary samples) and also reporting the max.

Every sweep builds one :class:`repro.exec.WorkUnit` per *(coordinate,
seed)* — schedules and injectors as declarative specs, drawn from the
unit's own seeded rng by :func:`repro.exec.scheduler.derive_run` — and
runs the whole batch through an :class:`repro.exec.ExecutionEngine`
(``engine``, by default an in-process one).  Units are self-seeded, so
the aggregated points are identical for any worker count.

Each run goes through :func:`repro.analysis.runner.safe_run_protocol`
exactly once: a run that raises or hangs becomes an error *row* (graded
incorrect) instead of killing the sweep, optionally bounded by a per-run
wall-clock timeout.  An engine with a
:class:`repro.exec.ResultCache` makes progress durable: each completed
run is stored as it finishes, and rerunning the sweep against the same
cache re-executes only the missing runs, yielding the identical record
set as an uninterrupted sweep.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.caaf import CAAF, SUM
from ..graphs.topology import Topology
from .families import hooks, pin_horizon
from .runner import RunRecord


@dataclass
class SweepPoint:
    """Aggregated statistics at one sweep coordinate."""

    coords: Dict[str, Any]
    runs: int
    cc_mean: float
    cc_max: int
    rounds_mean: float
    flooding_rounds_mean: float
    correct_rate: float
    records: List[RunRecord] = field(default_factory=list)
    errors: int = 0
    #: Recovery-semantics columns (populated only when some record ran
    #: under transport/recovery): partial-status rows and certified rows.
    partial_rows: int = 0
    certified_rows: int = 0
    overhead_mean: float = 0.0
    #: The schedule families' columns (each family module's
    #: ``sweep_columns``), e.g. churn's exactly-once audit totals.
    family_columns: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        row = dict(self.coords)
        row.update(
            runs=self.runs,
            cc_mean=round(self.cc_mean, 1),
            cc_max=self.cc_max,
            rounds_mean=round(self.rounds_mean, 1),
            flooding_rounds_mean=round(self.flooding_rounds_mean, 2),
            correct_rate=self.correct_rate,
        )
        if self.errors:
            row["errors"] = self.errors
        if self.partial_rows or self.certified_rows:
            row["partial_rows"] = self.partial_rows
            row["certified_rows"] = self.certified_rows
        if self.overhead_mean:
            row["overhead_mean"] = round(self.overhead_mean, 1)
        row.update(self.family_columns)
        return row


def aggregate(
    coords: Dict[str, Any],
    records: Sequence[RunRecord],
    faults: Optional[Dict[str, Any]] = None,
) -> SweepPoint:
    """Collapse per-seed records into one :class:`SweepPoint`.

    Error rows count toward ``runs`` and drag down ``correct_rate`` (a run
    that crashed did not produce a correct result) but are excluded from
    the cost statistics, which describe completed executions only.  The
    families ``faults`` switch on add their ``sweep_columns``.
    """
    if not records:
        raise ValueError("no records to aggregate")
    clean = [r for r in records if not r.failed]
    cost = clean or records
    overheads = [
        r.extra["overhead_bits"] for r in clean if "overhead_bits" in r.extra
    ]
    family_columns: Dict[str, Any] = {}
    for columns in hooks(faults or {}, "sweep_columns"):
        family_columns.update(columns(clean))
    return SweepPoint(
        coords=dict(coords),
        runs=len(records),
        cc_mean=statistics.fmean(r.cc_bits for r in cost),
        cc_max=max(r.cc_bits for r in cost),
        rounds_mean=statistics.fmean(r.rounds for r in cost),
        flooding_rounds_mean=statistics.fmean(
            r.flooding_rounds for r in cost
        ),
        correct_rate=sum(1 for r in records if r.correct) / len(records),
        records=list(records),
        errors=len(records) - len(clean),
        partial_rows=sum(
            1 for r in clean if r.extra.get("status") == "partial"
        ),
        certified_rows=sum(1 for r in clean if r.extra.get("certified")),
        overhead_mean=statistics.fmean(overheads) if overheads else 0.0,
        family_columns=family_columns,
    )


def random_schedule_spec(
    f: int, horizon: int, respect_c: Optional[int] = None
) -> Dict[str, Any]:
    """A fresh random budgeted crash schedule per seed, as a unit spec.

    :func:`repro.exec.scheduler.build_schedule` draws it from the unit's
    seeded rng: ``f`` edge failures in rounds ``1..horizon`` (none when
    ``f <= 0``).
    """
    return {
        "kind": "random",
        "f": f,
        "first_round": 1,
        "last_round": horizon,
        "respect_c": respect_c,
    }


def point_units(
    protocol: str,
    topology: Topology,
    seeds: Iterable[int],
    schedule_spec: Optional[Dict[str, Any]] = None,
    f: Optional[int] = None,
    b: Optional[int] = None,
    t: Optional[int] = None,
    c: int = 2,
    caaf: CAAF = SUM,
    coords: Optional[Dict[str, Any]] = None,
    timeout_s: Optional[float] = None,
    inject: Optional[str] = None,
    corrupt: Optional[str] = None,
    capture_dir: Optional[str] = None,
    **faults,
) -> List:
    """Build the per-seed work units of one sweep coordinate.

    ``faults`` are fault-family arguments
    (:data:`repro.analysis.families.RUN_KEYS`), passed to every unit.
    """
    from ..exec.scheduler import WorkUnit

    return [
        WorkUnit(
            protocol=protocol,
            topology=topology,
            seed=seed,
            f=f,
            b=b,
            t=t,
            c=c,
            caaf=caaf.name,
            schedule=dict(schedule_spec) if schedule_spec else {"kind": "none"},
            inject=inject,
            corrupt=corrupt,
            timeout_s=timeout_s,
            capture_dir=capture_dir,
            **faults,
            coords=dict(coords or {}),
        )
        for seed in seeds
    ]


def _sweep_grid(
    protocol: str,
    topology: Topology,
    points: Sequence[Tuple[Dict[str, Any], Dict[str, Any]]],
    seeds: Iterable[int],
    engine=None,
    **common,
) -> List[SweepPoint]:
    """The body of every sweep: run all *(coordinate, seed)* units as one
    engine batch, then aggregate per coordinate.

    ``points`` pairs each coordinate with its own :func:`point_units`
    arguments; ``common`` go to every coordinate.  Units are built
    coordinate-major, seed-minor, which fixes the record order.
    """
    from ..exec.pool import ExecutionEngine

    seeds = list(seeds)
    units = [
        unit
        for coords, kwargs in points
        for unit in point_units(
            protocol, topology, seeds, coords=coords, **kwargs, **common
        )
    ]
    records = (engine or ExecutionEngine()).run(units)
    per_point = len(seeds)
    return [
        aggregate(
            {"protocol": protocol, "topology": topology.name, **coords},
            records[i * per_point : (i + 1) * per_point],
            faults=kwargs,
        )
        for i, (coords, kwargs) in enumerate(points)
    ]


def run_point(
    protocol: str,
    topology: Topology,
    seeds: Iterable[int],
    coords: Optional[Dict[str, Any]] = None,
    engine=None,
    **kwargs,
) -> SweepPoint:
    """Run one sweep coordinate across seeds and aggregate.

    ``kwargs`` are :func:`point_units` arguments: protocol parameters
    (``f``, ``b``, ``t``, ``c``, ``caaf``), the crash ``schedule_spec``
    (e.g. :func:`random_schedule_spec`), ``inject`` / ``corrupt`` spec
    strings, the crash-safety knob ``timeout_s``, ``capture_dir`` and
    fault-family arguments
    (:data:`repro.analysis.families.RUN_KEYS`; schedule specs among them
    are drawn per seed).

    Runs in strict-model validation would reject the random adversaries a
    sweep samples (they may exceed the ``c``-stretch assumption), so
    sweeps run with ``strict=False`` and grade correctness post-hoc.

    ``capture_dir`` auto-captures a repro bundle for every failing row
    (see :func:`repro.analysis.runner.safe_run_protocol`); the bundle
    path is stored in the row's ``extra["bundle"]`` and survives the
    cache round-trip.  ``engine`` picks the executor (default: an
    in-process :class:`repro.exec.ExecutionEngine`); one with a result
    cache makes the point resumable.
    """
    return _sweep_grid(
        protocol,
        topology,
        [(dict(coords or {}), kwargs)],
        seeds,
        engine=engine,
    )[0]


def _algorithm1_point(
    topology: Topology, b: int, f: int, **faults
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One Algorithm 1 sweep coordinate: random crashes and random fault
    specs spread over the run's full ``b * d`` horizon."""
    horizon = b * topology.diameter
    return (
        {"b": b, "f": f, "n": topology.n_nodes},
        dict(
            f=f,
            b=b,
            schedule_spec=random_schedule_spec(f, horizon=horizon),
            **pin_horizon(faults, horizon),
        ),
    )


def sweep_b(
    topology: Topology,
    f: int,
    bs: Sequence[int],
    seeds: Iterable[int],
    c: int = 2,
    timeout_s: Optional[float] = None,
    capture_dir: Optional[str] = None,
    corrupt: Optional[str] = None,
    engine=None,
    **faults,
) -> List[SweepPoint]:
    """Measured CC of Algorithm 1 across a TC-budget grid (Figure 1's x-axis).

    The adversary re-samples random failures inside each run's full time
    horizon so longer budgets face proportionally spread failures.
    ``faults`` (fault-family arguments such as ``transport`` /
    ``recovery``, see :func:`repro.analysis.runner.run_protocol`) apply to
    every point; the points then carry partial/certified counts and mean
    retransmit overhead.  Random fault specs without a horizon are pinned
    to each coordinate's run length.

    The whole ``bs x seeds`` grid runs as one batch of work units through
    ``engine`` (pool-wide longest-first scheduling with a multi-worker
    engine).
    """
    return _sweep_grid(
        "algorithm1",
        topology,
        [_algorithm1_point(topology, b, f, **faults) for b in bs],
        seeds,
        engine=engine,
        c=c,
        timeout_s=timeout_s,
        capture_dir=capture_dir,
        corrupt=corrupt,
    )


def sweep_f(
    topology: Topology,
    fs: Sequence[int],
    b: int,
    seeds: Iterable[int],
    c: int = 2,
    timeout_s: Optional[float] = None,
    capture_dir: Optional[str] = None,
    engine=None,
) -> List[SweepPoint]:
    """Measured CC of Algorithm 1 across a failure-budget grid.

    Accepts an ``engine`` exactly like :func:`sweep_b`.
    """
    return _sweep_grid(
        "algorithm1",
        topology,
        [_algorithm1_point(topology, b, f) for f in fs],
        seeds,
        engine=engine,
        c=c,
        timeout_s=timeout_s,
        capture_dir=capture_dir,
    )


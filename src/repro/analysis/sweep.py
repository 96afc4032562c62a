"""Parameter sweeps with seed averaging and crash-safe execution.

The paper defines CC over *average-case coin flips* but worst-case inputs
and adversary.  Experimentally we approximate by averaging the bottleneck
bits over seeds (coins and adversary samples) and also reporting the max.

Sweeps run through :func:`repro.analysis.runner.safe_run_protocol`: a run
that raises or hangs becomes an error *row* (graded incorrect) instead of
killing the sweep, optionally bounded by a per-run wall-clock timeout and
retried with fresh coins.  Passing a :class:`repro.analysis.checkpoint.
SweepCheckpoint` makes progress durable: each completed run is appended to
a JSONL file and a resumed sweep re-executes only the missing runs,
yielding the identical record set as an uninterrupted sweep.

Passing an ``engine`` (:class:`repro.exec.ExecutionEngine`) fans the
whole grid's *(coordinate, seed)* work units out over a process pool
with content-addressed result caching; every unit is self-seeded, so the
aggregated points — and the checkpoint file — are bit-identical to the
serial path for any worker count.  The engine path requires declarative
specs (it cannot ship ``schedule_factory``/``injector_factory`` closures
to worker processes); the named sweeps below build those specs
themselves.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..adversary.adversaries import no_failures, random_failures
from ..adversary.schedule import FailureSchedule
from ..core.caaf import CAAF, SUM
from ..graphs.topology import Topology
from .checkpoint import SweepCheckpoint, make_key
from .families import draw_schedules, pin_horizon
from .runner import RunRecord, make_inputs, safe_run_protocol


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
    #: Churn-semantics columns (populated only when some record ran under
    #: the churn epoch manager): exact rows and exactly-once audit totals.
    exact_rows: int = 0
    double_counts: int = 0
    lost_contributions: int = 0
    churn_rows: int = 0
    #: Byzantine-semantics columns (populated only when some record ran
    #: under the witness runtime): rows with a taint ledger, total
    #: convictions, and oracle violations (must stay zero).
    byz_rows: int = 0
    convictions: int = 0
    byz_violations: int = 0

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
        if self.churn_rows:
            row["exact_rows"] = self.exact_rows
            row["double_counts"] = self.double_counts
            row["lost_contributions"] = self.lost_contributions
        if self.byz_rows:
            row["byz_rows"] = self.byz_rows
            row["convictions"] = self.convictions
            row["byz_violations"] = self.byz_violations
        return row


def aggregate(coords: Dict[str, Any], records: Sequence[RunRecord]) -> SweepPoint:
    """Collapse per-seed records into one :class:`SweepPoint`.

    Error rows count toward ``runs`` and drag down ``correct_rate`` (a run
    that crashed did not produce a correct result) but are excluded from
    the cost statistics, which describe completed executions only.
    """
    if not records:
        raise ValueError("no records to aggregate")
    clean = [r for r in records if not r.failed]
    cost = clean or records
    overheads = [
        r.extra["overhead_bits"] for r in clean if "overhead_bits" in r.extra
    ]
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
        exact_rows=sum(1 for r in clean if r.extra.get("status") == "exact"),
        double_counts=sum(
            int(r.extra.get("double_counted") or 0) for r in clean
        ),
        lost_contributions=sum(
            int(r.extra.get("lost_contributions") or 0) for r in clean
        ),
        churn_rows=sum(1 for r in clean if "double_counted" in r.extra),
        byz_rows=sum(1 for r in clean if "false_convictions" in r.extra),
        convictions=sum(int(r.extra.get("convicted") or 0) for r in clean),
        byz_violations=sum(
            int(r.extra.get("false_convictions") or 0)
            + int(r.extra.get("undetected_equivocations") or 0)
            + int(r.extra.get("influence_exceeded") or 0)
            for r in clean
        ),
    )


ScheduleFactory = Callable[[Topology, random.Random], FailureSchedule]


def random_schedule_factory(
    f: int, horizon: int, respect_c: Optional[int] = None
) -> ScheduleFactory:
    """A factory producing fresh random budgeted schedules per seed."""

    def factory(topology: Topology, rng: random.Random) -> FailureSchedule:
        if f <= 0:
            return no_failures()
        return random_failures(
            topology, f, rng, first_round=1, last_round=horizon, respect_c=respect_c
        )

    return factory


def random_schedule_spec(
    f: int, horizon: int, respect_c: Optional[int] = None
) -> Dict[str, Any]:
    """The declarative twin of :func:`random_schedule_factory`.

    Work units carry this spec across process boundaries;
    :func:`repro.exec.scheduler.build_schedule` materializes it with the
    identical rng consumption, so factory and spec produce the same
    schedule from the same seed.
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
    retries: int = 0,
    backoff_s: float = 0.0,
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
            retries=retries,
            backoff_s=backoff_s,
            capture_dir=capture_dir,
            **faults,
            coords=dict(coords or {}),
        )
        for seed in seeds
    ]


def run_point(
    protocol: str,
    topology: Topology,
    seeds: Iterable[int],
    schedule_factory: Optional[ScheduleFactory] = None,
    f: Optional[int] = None,
    b: Optional[int] = None,
    t: Optional[int] = None,
    c: int = 2,
    caaf: CAAF = SUM,
    coords: Optional[Dict[str, Any]] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.0,
    injector_factory: Optional[Callable[[int], Sequence]] = None,
    capture_dir: Optional[str] = None,
    engine=None,
    schedule_spec: Optional[Dict[str, Any]] = None,
    inject: Optional[str] = None,
    corrupt: Optional[str] = None,
    **faults,
) -> SweepPoint:
    """Run one sweep coordinate across seeds and aggregate.

    Runs in strict-model validation would reject the random adversaries a
    sweep samples (they may exceed the ``c``-stretch assumption), so
    sweeps run with ``strict=False`` and grade correctness post-hoc.

    ``checkpoint`` makes the point resumable: completed seeds are served
    from the JSONL file, and every fresh run is appended to it.
    ``injector_factory(seed)`` attaches per-seed fault-injection
    middleware (e.g. ``lambda s: [MessageFaults(drop=0.05, seed=s)]``).
    ``capture_dir`` auto-captures a repro bundle for every failing row
    (see :func:`repro.analysis.runner.safe_run_protocol`); the bundle
    path is stored in the row's ``extra["bundle"]`` and survives the
    checkpoint round-trip.

    ``faults`` are fault-family arguments
    (:data:`repro.analysis.families.RUN_KEYS`); schedule specs among them
    are drawn per seed.

    ``engine`` switches to the parallel execution engine; the schedule
    and injectors must then be declarative (``schedule_spec`` /
    ``inject``) rather than factory closures.
    """
    base = {"protocol": protocol, "topology": topology.name}
    base.update(coords or {})
    if engine is not None:
        if schedule_factory is not None or injector_factory is not None:
            raise ValueError(
                "the engine path needs declarative schedule_spec/inject, "
                "not factory callables (closures cannot cross processes)"
            )
        units = point_units(
            protocol,
            topology,
            seeds,
            schedule_spec=schedule_spec,
            f=f,
            b=b,
            t=t,
            c=c,
            caaf=caaf,
            coords=coords,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            inject=inject,
            corrupt=corrupt,
            capture_dir=capture_dir,
            **faults,
        )
        return aggregate(base, engine.run(units, checkpoint=checkpoint))
    records = []
    for seed in seeds:
        key = make_key(protocol, topology.name, seed, coords)
        if checkpoint is not None:
            cached = checkpoint.get(key)
            if cached is not None:
                records.append(cached)
                continue
        rng = random.Random(seed)
        inputs = make_inputs(topology, rng)
        schedule = (
            schedule_factory(topology, rng)
            if schedule_factory
            else FailureSchedule()
        )
        # Fault schedules are drawn between the schedule and the injectors
        # — the same rng slot repro.exec.scheduler.execute_unit uses, so
        # serial and pool runs see identical schedules.
        seed_faults = draw_schedules(faults, topology, rng)
        injectors = list(injector_factory(seed)) if injector_factory else []
        if corrupt:
            from ..sim.faults import MessageCorruption

            injectors.append(MessageCorruption.from_spec(corrupt, seed=seed))
        record = safe_run_protocol(
            protocol,
            topology,
            inputs,
            schedule=schedule,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            seed=seed,
            rng=rng,
            f=f,
            b=b,
            t=t,
            c=c,
            caaf=caaf,
            strict=False,
            injectors=injectors,
            capture_dir=capture_dir,
            **seed_faults,
        )
        record.seed = seed
        if checkpoint is not None:
            checkpoint.put(key, record)
        records.append(record)
    return aggregate(base, records)


def sweep_b(
    topology: Topology,
    f: int,
    bs: Sequence[int],
    seeds: Iterable[int],
    horizon_factor: int = 1,
    c: int = 2,
    checkpoint: Optional[SweepCheckpoint] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.0,
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

    With an ``engine``, the whole ``bs x seeds`` grid fans out as one
    batch of work units (pool-wide longest-first scheduling), and the
    aggregated points — and any checkpoint file — are bit-identical to
    the serial path.
    """
    seeds = list(seeds)
    if engine is not None:
        return _sweep_grid(
            topology,
            [(b, f) for b in bs],
            seeds,
            c=c,
            checkpoint=checkpoint,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            capture_dir=capture_dir,
            corrupt=corrupt,
            engine=engine,
            **faults,
        )
    points = []
    for b in bs:
        horizon = b * topology.diameter
        factory = random_schedule_factory(f, horizon=horizon)
        points.append(
            run_point(
                "algorithm1",
                topology,
                seeds,
                schedule_factory=factory,
                f=f,
                b=b,
                c=c,
                coords={"b": b, "f": f, "n": topology.n_nodes},
                checkpoint=checkpoint,
                timeout_s=timeout_s,
                retries=retries,
                backoff_s=backoff_s,
                capture_dir=capture_dir,
                corrupt=corrupt,
                **pin_horizon(faults, horizon),
            )
        )
    return points


def sweep_churn(
    topology: Topology,
    b: int,
    f: int,
    rates: Sequence[float],
    seeds: Iterable[int],
    amnesiac: float = 0.25,
    flap_rate: float = 0.0,
    c: int = 2,
    checkpoint: Optional[SweepCheckpoint] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.0,
    capture_dir: Optional[str] = None,
    churn_policy=None,
    engine=None,
) -> List[SweepPoint]:
    """Exactness and overhead of the churn epoch manager across churn rates.

    Every point runs ``algorithm1`` under the churn runtime
    (:mod:`repro.resilience.epochs`) with a per-seed random churn
    timeline — each non-root node crashes and revives with probability
    ``rate``, an ``amnesiac`` fraction of rejoins losing state, and each
    edge flapping with probability ``flap_rate``.  Points carry the
    exactly-once audit totals (``double_counts`` / ``lost_contributions``
    — both must stay zero) and the exact-row count used by the E24
    acceptance gate (durable churn at rate <= 0.05 stays >= 95% exact).

    Accepts an ``engine`` exactly like :func:`sweep_b`; the churn spec
    travels declaratively and is sampled in the worker from the same rng
    slot the serial path uses.
    """
    seeds = list(seeds)
    horizon = b * topology.diameter
    points = []
    for rate in rates:
        churn_spec = {
            "kind": "random",
            "rate": rate,
            "horizon": horizon,
            "amnesiac": amnesiac,
            "flap_rate": flap_rate,
        }
        coords = {
            "b": b,
            "f": f,
            "n": topology.n_nodes,
            "churn": rate,
            "amnesiac": amnesiac,
        }
        points.append(
            run_point(
                "algorithm1",
                topology,
                seeds,
                schedule_factory=(
                    random_schedule_factory(f, horizon=horizon)
                    if engine is None
                    else None
                ),
                f=f,
                b=b,
                c=c,
                coords=coords,
                checkpoint=checkpoint,
                timeout_s=timeout_s,
                retries=retries,
                backoff_s=backoff_s,
                capture_dir=capture_dir,
                churn=churn_spec,
                churn_policy=churn_policy,
                engine=engine,
                schedule_spec=(
                    random_schedule_spec(f, horizon=horizon)
                    if engine is not None
                    else None
                ),
            )
        )
    return points


def _sweep_grid(
    topology: Topology,
    bf_pairs: Sequence,
    seeds: Sequence[int],
    *,
    c: int,
    checkpoint: Optional[SweepCheckpoint],
    timeout_s: Optional[float],
    retries: int,
    backoff_s: float = 0.0,
    capture_dir: Optional[str] = None,
    corrupt: Optional[str] = None,
    engine=None,
    **faults,
) -> List[SweepPoint]:
    """Engine path shared by :func:`sweep_b` and :func:`sweep_f`.

    Builds one work unit per *(coordinate, seed)* — unit order matches
    the serial iteration order exactly, which keeps checkpoint files
    byte-identical — runs them all through the engine, then aggregates
    per coordinate.
    """
    units = []
    for b, f in bf_pairs:
        coords = {"b": b, "f": f, "n": topology.n_nodes}
        units.extend(
            point_units(
                "algorithm1",
                topology,
                seeds,
                schedule_spec=random_schedule_spec(
                    f, horizon=b * topology.diameter
                ),
                f=f,
                b=b,
                c=c,
                coords=coords,
                timeout_s=timeout_s,
                retries=retries,
                backoff_s=backoff_s,
                capture_dir=capture_dir,
                corrupt=corrupt,
                **pin_horizon(faults, b * topology.diameter),
            )
        )
    records = engine.run(units, checkpoint=checkpoint)
    points = []
    per_point = len(seeds)
    for i, (b, f) in enumerate(bf_pairs):
        base = {
            "protocol": "algorithm1",
            "topology": topology.name,
            "b": b,
            "f": f,
            "n": topology.n_nodes,
        }
        points.append(
            aggregate(base, records[i * per_point : (i + 1) * per_point])
        )
    return points


def sweep_f(
    topology: Topology,
    fs: Sequence[int],
    b: int,
    seeds: Iterable[int],
    c: int = 2,
    checkpoint: Optional[SweepCheckpoint] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    capture_dir: Optional[str] = None,
    engine=None,
) -> List[SweepPoint]:
    """Measured CC of Algorithm 1 across a failure-budget grid.

    Accepts an ``engine`` exactly like :func:`sweep_b`.
    """
    seeds = list(seeds)
    if engine is not None:
        return _sweep_grid(
            topology,
            [(b, f) for f in fs],
            seeds,
            c=c,
            checkpoint=checkpoint,
            timeout_s=timeout_s,
            retries=retries,
            capture_dir=capture_dir,
            engine=engine,
        )
    points = []
    for f in fs:
        factory = random_schedule_factory(f, horizon=b * topology.diameter)
        points.append(
            run_point(
                "algorithm1",
                topology,
                seeds,
                schedule_factory=factory,
                f=f,
                b=b,
                c=c,
                coords={"b": b, "f": f, "n": topology.n_nodes},
                checkpoint=checkpoint,
                timeout_s=timeout_s,
                retries=retries,
                capture_dir=capture_dir,
            )
        )
    return points

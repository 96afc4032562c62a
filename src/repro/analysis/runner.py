"""Uniform experiment runner over all protocols in the library.

One call = one protocol execution on one (topology, inputs, schedule) tuple,
returning a flat :class:`RunRecord` with the paper's two costs (CC in bits
at the bottleneck node, TC in rounds/flooding rounds) plus correctness per
the Section 2 oracle.

Two layers:

* :func:`run_protocol` — one execution, raising on any problem.  With
  ``strict=True`` (the default) the configuration is pre-validated against
  every Section 2 model assumption and fails fast with
  :class:`repro.sim.validation.Violation` diagnostics instead of a
  confusing wrong sum.  Fault injectors / runtime monitors plug in via
  ``injectors`` / ``monitors`` / ``strict_monitors``.
* :func:`safe_run_protocol` — the crash-safe wrapper sweeps use: one
  execution under an optional wall-clock timeout (checked between
  rounds, :func:`wall_clock_limit`), with structured error
  capture — a failed run becomes an error *row* (``error`` /
  ``error_kind`` set) instead of a crashed sweep.  With ``capture_dir``
  set, every failing run (error row, incorrect grade, or recorded monitor
  violation) is additionally captured as a deterministic repro bundle
  (:mod:`repro.sim.recorder`) for later :mod:`repro.sim.replay` /
  :mod:`repro.adversary.shrink` forensics; the bundle path lands in
  ``record.extra["bundle"]``.
"""

from __future__ import annotations

import inspect
import random
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from ..adversary.schedule import FailureSchedule
from ..obs import metrics as _obs_metrics
from ..core.caaf import CAAF, SUM
from ..core.correctness import is_correct_result
from ..core.unknown_f import run_unknown_f
from ..core.algorithm1 import run_algorithm1
from ..core.veri import run_agg_veri_pair
from ..graphs.topology import Topology
from ..sim.monitors import InvariantViolation, violations_of
from ..sim.network import DEADLINE, RunTimeout
from . import families


@dataclass
class RunRecord:
    """Flat result row for tables and benches.

    ``error`` / ``error_kind`` are set (and ``result`` is None) when the
    run was captured by :func:`safe_run_protocol` instead of completing;
    ``seed`` is the sweep seed that produced the row (when run through a
    sweep).  ``as_dict`` omits these bookkeeping columns while they are
    unset, so healthy tables look exactly as before.
    """

    protocol: str
    topology: str
    n_nodes: int
    diameter: int
    f_budget: Optional[int]
    f_actual: int
    result: Optional[int]
    correct: bool
    cc_bits: int
    rounds: int
    flooding_rounds: int
    extra: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    error_kind: Optional[str] = None
    seed: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        row = asdict(self)
        row.update(row.pop("extra"))
        if row.get("error") is None:
            row.pop("error", None)
            row.pop("error_kind", None)
        if row.get("seed") is None:
            row.pop("seed", None)
        return row

    @property
    def failed(self) -> bool:
        """Whether this row records a captured failure, not a result."""
        return self.error is not None


def is_failure(record: RunRecord) -> bool:
    """Whether a row is worth capturing as a repro bundle: it errored,
    graded incorrect, or carries recorded monitor violations — exactly
    the rows the sweep/chaos harnesses flag."""
    return bool(
        record.failed or not record.correct or record.extra.get("violations")
    )


def make_inputs(
    topology: Topology, rng: random.Random, max_input: Optional[int] = None
) -> Dict[int, int]:
    """Random node inputs in ``[0, max_input]`` (default ``N``, polynomial
    domain per the model)."""
    hi = topology.n_nodes if max_input is None else max_input
    return {u: rng.randint(0, hi) for u in topology.nodes()}


def _effective_schedule(
    schedule: FailureSchedule, network
) -> FailureSchedule:
    """The crash schedule that actually happened.

    Adaptive adversaries (:mod:`repro.adversary.adaptive`) inject crashes
    online, so the network's final crash map may be a superset of the
    declared oblivious schedule; correctness must be graded against what
    actually crashed.
    """
    if network is None:
        return schedule
    crash = {
        u: max(1, int(r))
        for u, r in network.crash_rounds.items()
        if r != float("inf")
    }
    if crash == schedule.crash_rounds:
        return schedule
    return FailureSchedule(crash)


def run_protocol(
    protocol: str,
    topology: Topology,
    inputs: Dict[int, int],
    schedule: Optional[FailureSchedule] = None,
    f: Optional[int] = None,
    b: Optional[int] = None,
    t: Optional[int] = None,
    c: int = 2,
    caaf: CAAF = SUM,
    rng: Optional[random.Random] = None,
    strict: bool = True,
    injectors=(),
    monitors=None,
    strict_monitors: bool = False,
    **faults,
) -> RunRecord:
    """Run one named protocol and grade its output.

    Protocols: ``algorithm1`` (needs ``f`` and ``b``), ``bruteforce``,
    ``folklore`` (needs ``f``), ``tag``, ``unknown_f``, ``agg_veri``
    (needs ``t``; grades the pair's result only when accepted).

    ``faults`` are the fault-family keywords
    (:data:`repro.analysis.families.RUN_KEYS`; any other keyword raises
    ``TypeError``).  ``transport`` (a
    :class:`repro.resilience.transport.TransportConfig`) runs
    ``algorithm1`` / ``unknown_f`` over the reliable local-broadcast shim;
    ``recovery`` (a :class:`repro.resilience.failover.RecoveryPolicy`)
    runs them under the full self-healing runtime — transport plus root
    failover plus graceful degradation
    (:class:`repro.resilience.failover.FailoverPlan`); the row then
    carries the partial result's status / certification / coverage
    columns and its ``elections``.  ``integrity`` (an
    :class:`repro.integrity.frames.IntegrityConfig`, a mode string, or a
    coordinator) wraps every broadcast in an authenticated frame so
    corrupted deliveries are detected and dropped; it composes with both
    ``transport`` and ``recovery`` (overriding ``recovery.integrity`` when
    both are given).  ``allow_root_crash`` relaxes strict validation for
    root-crashing schedules (implied by ``recovery``).  The schedule
    families — ``churn`` / ``churn_policy``, ``gray``, ``byz`` /
    ``byz_config`` — take a schedule or its spec string plus an optional
    config; each one's module in :mod:`repro.families` says what it runs
    and which columns it adds (a gray or byz schedule with no events takes
    the plain path bit for bit).  Family pairs that do not compose (e.g.
    ``churn`` with ``recovery``) raise ``ValueError`` with the reason from
    :data:`repro.analysis.families.EXCLUSIONS`.

    With ``strict=True`` (default) the configuration is checked against
    every Section 2 model assumption first (see
    :mod:`repro.sim.validation`) and a ValueError with full diagnostics is
    raised on any violation.  Pass ``strict=False`` to deliberately run
    out-of-model configurations (e.g. when sampling adversaries that may
    exceed the ``c``-stretch assumption).

    ``injectors`` attach fault-injection middleware to the execution
    (:mod:`repro.sim.faults`); ``monitors`` attach runtime invariant
    monitors (:mod:`repro.sim.monitors`).  ``strict_monitors=True``
    builds the standard monitor stack in strict mode when no explicit
    ``monitors`` are given, so any invariant break raises
    :class:`repro.sim.monitors.InvariantViolation` mid-run; additionally
    a silently-wrong graded result raises after the run.  Recorded
    monitor violations are surfaced in ``extra["violations"]``.
    """
    _reject_unknown("run_protocol", faults)
    schedule = schedule or FailureSchedule()
    rng = rng or random.Random()
    cfg = families.normalize(faults, topology)
    families.check(protocol, cfg, injectors)
    for attach in families.hooks(cfg, "attach"):
        injectors = attach(cfg, injectors)
    allow_root_crash = bool(cfg["allow_root_crash"]) or (
        cfg["recovery"] is not None
    )
    if strict:
        from ..sim.validation import assert_model

        assert_model(
            topology,
            inputs=inputs,
            schedule=schedule,
            f=f,
            b=b if protocol == "algorithm1" else None,
            c=c,
            allow_root_crash=allow_root_crash,
        )
    from ..sim.faults import ledger_sources

    corruption = ledger_sources(injectors, "delivered_corruptions")
    if monitors is None and strict_monitors:
        monitors = families.family_monitors(
            topology,
            inputs,
            cfg,
            f=f,
            caaf=caaf,
            mode="strict",
            recovery=allow_root_crash,
            corruption=corruption,
            transport_always=True,
        )
    monitors = monitors or ()
    run = dict(
        f=f, b=b, c=c, caaf=caaf, rng=rng, injectors=injectors,
        monitors=monitors, strict_monitors=strict_monitors,
    )
    build_plan = families.epoch_plan(cfg)
    if build_plan is not None or cfg["recovery"] is not None:
        return _run_epochs(
            protocol, topology, inputs, schedule, cfg, build_plan, **run
        )
    return _run_plain(
        protocol, topology, inputs, schedule, cfg, corruption, t=t,
        allow_root_crash=allow_root_crash, **run,
    )


#: The keywords :func:`run_protocol` takes: its named parameters plus
#: the fault-family keys (:data:`repro.analysis.families.RUN_KEYS`).
_RUN_KEYWORDS = frozenset(
    name
    for name, param in inspect.signature(run_protocol).parameters.items()
    if param.kind is not param.VAR_KEYWORD
) | frozenset(families.RUN_KEYS)


def _reject_unknown(caller: str, keywords) -> None:
    """Raise ``TypeError`` for a keyword :func:`run_protocol` does not take."""
    unknown = sorted(set(keywords) - _RUN_KEYWORDS)
    if unknown:
        raise TypeError(
            f"{caller}() got an unexpected keyword argument {unknown[0]!r}"
        )


def _record(
    protocol: str,
    topology: Topology,
    f: Optional[int],
    schedule: FailureSchedule,
    result: Optional[int],
    correct: bool,
    cc_bits: int,
    rounds: int,
    extra: Dict[str, Any],
) -> RunRecord:
    """The row for one finished run."""
    return RunRecord(
        protocol=protocol,
        topology=topology.name,
        n_nodes=topology.n_nodes,
        diameter=topology.diameter,
        f_budget=f,
        f_actual=schedule.edge_failures(topology),
        result=result,
        correct=correct,
        cc_bits=cc_bits,
        rounds=rounds,
        flooding_rounds=-(-rounds // topology.diameter) if rounds else 0,
        extra=extra,
    )


def _run_plain(
    protocol: str,
    topology: Topology,
    inputs: Dict[int, int],
    schedule: FailureSchedule,
    cfg: Dict[str, Any],
    corruption,
    *,
    f: Optional[int],
    b: Optional[int],
    t: Optional[int],
    c: int,
    caaf: CAAF,
    rng: random.Random,
    injectors,
    monitors,
    strict_monitors: bool,
    allow_root_crash: bool,
) -> RunRecord:
    """The Section 2 path of :func:`run_protocol`, optionally over the
    transport and integrity overlays; graded exactly against the oracle."""
    transport, integrity = cfg["transport"], cfg["integrity"]
    if protocol == "agg_veri":
        # The AGG-only oracle would mis-grade a pair whose VERI rejects, so
        # the pair relies on the post-run grading below instead.
        monitors = [m for m in monitors if m.rule != "oracle"]
    base = dict(
        schedule=schedule, c=c, caaf=caaf, injectors=(*injectors, *monitors)
    )
    overlays = dict(
        transport=transport,
        integrity=integrity,
        allow_root_crash=allow_root_crash,
    )
    extra: Dict[str, Any] = {}
    if protocol == "algorithm1":
        if f is None or b is None:
            raise ValueError("algorithm1 needs f and b")
        out = run_algorithm1(
            topology, inputs, f=f, b=b, rng=rng, **base, **overlays,
        )
        extra = {
            "pairs_run": out.pairs_run,
            "used_bruteforce": out.used_bruteforce,
            "winning_interval": out.winning_interval,
            "x_intervals": out.plan.x,
            "t": out.plan.t,
        }
    elif protocol == "bruteforce":
        from ..baselines.bruteforce import run_bruteforce

        out = run_bruteforce(topology, inputs, **base)
    elif protocol == "folklore":
        if f is None:
            raise ValueError("folklore needs f")
        from ..baselines.folklore import run_folklore

        out = run_folklore(topology, inputs, f=f, **base)
    elif protocol == "tag":
        from ..baselines.folklore import run_plain_tag

        out = run_plain_tag(topology, inputs, **base)
    elif protocol == "unknown_f":
        out = run_unknown_f(topology, inputs, **base, **overlays)
        extra = {
            "pairs_run": out.pairs_run,
            "accepted_guess": out.accepted_guess,
            "used_bruteforce": out.used_bruteforce,
        }
    elif protocol == "agg_veri":
        if t is None:
            raise ValueError("agg_veri needs t")
        pair = run_agg_veri_pair(topology, inputs, t=t, **base)
        result = pair.agg_result if pair.accepted else None
        rounds = pair.agg_stats.rounds_executed + pair.veri_stats.rounds_executed
        cc = max(
            (
                pair.agg_stats.bits_of(u) + pair.veri_stats.bits_of(u)
                for u in topology.nodes()
            ),
            default=0,
        )
        extra = {
            "agg_aborted": pair.agg_aborted,
            "veri_output": pair.veri_output,
            "accepted": pair.accepted,
        }
        correct = is_correct_result(
            result, caaf, topology, inputs, schedule, rounds
        )
        record = _record(
            protocol, topology, f, schedule, result, correct, cc, rounds,
            extra,
        )
        return _finish_record(record, monitors, strict_monitors)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    result, stats, rounds, network = out.result, out.stats, out.rounds, out.network
    effective = _effective_schedule(schedule, network)
    if transport is not None:
        counters = transport.counters()
        extra["overhead_bits"] = stats.max_overhead_bits
        extra["retransmissions"] = counters["retransmissions"]
        extra["nacks"] = counters["nacks"]
        # Quarantined links count as live gaps on purpose — starved
        # frames are real data loss and must decertify (same rule as the
        # failover layer's certification).
        extra["live_gaps"] = len(transport.live_gaps(network))
        stats.link_stats = transport.link_counters()
        if transport.detector is not None:
            extra["suspects"] = counters["suspects"]
            extra["confirms"] = counters["confirms"]
    for columns in families.hooks(cfg, "columns"):
        extra.update(columns(cfg))
    if integrity is not None or corruption:
        from ..integrity.frames import corruption_columns, integrity_columns

        if integrity is not None:
            extra.setdefault("overhead_bits", stats.max_overhead_bits)
        extra.update(integrity_columns(integrity))
        extra.update(corruption_columns(corruption, integrity))
    correct = is_correct_result(result, caaf, topology, inputs, effective, rounds)
    record = _record(
        protocol, topology, f, effective, result, correct, stats.max_bits,
        rounds, extra,
    )
    return _finish_record(
        record, monitors, strict_monitors, link_stats=stats.link_stats
    )


def _run_epochs(
    protocol: str,
    topology: Topology,
    inputs: Dict[int, int],
    schedule: FailureSchedule,
    cfg: Dict[str, Any],
    build_plan,
    *,
    f: Optional[int],
    b: Optional[int],
    c: int,
    caaf: CAAF,
    rng: random.Random,
    injectors,
    monitors,
    strict_monitors: bool,
) -> RunRecord:
    """The epoch paths of :func:`run_protocol`: a family's ``plan`` hook
    (:func:`repro.analysis.families.epoch_plan`), or failover when it is
    None.

    The exclusion table leaves at most one active; its plan
    runs under :func:`repro.resilience.driver.drive_epochs` and delivers a
    partial result.  The run is correct when the result is certified and
    its value sits inside its own deterministic bounds (coverage aggregate
    <= value <= all-nodes aggregate), widened by the plan's ``slack``, and
    the plan's oracle finds it ``honest`` (see each plan's ``grade``).
    With no live gaps and no root loss this collapses to exactness against
    the Section 2 oracle, because coverage is then every node.
    """
    from ..resilience.driver import drive_epochs

    common = dict(f=f, caaf=caaf, monitors=monitors)
    mode = "strict" if strict_monitors else "record"
    if build_plan is not None:
        plan = build_plan(topology, inputs, schedule, cfg, mode=mode, **common)
    else:
        from ..resilience.failover import FailoverPlan

        plan = FailoverPlan(
            topology, inputs, schedule, policy=cfg["recovery"],
            integrity=cfg["integrity"], injectors=injectors, **common,
        )
    out = drive_epochs(plan, protocol, b=b, c=c, rng=rng, injectors=injectors)
    slack, honest, grades = plan.grade(out)
    partial = out.partial
    correct = bool(
        honest
        and partial.certified
        and partial.value is not None
        and partial.lower_bound is not None
        and partial.upper_bound is not None
        and partial.lower_bound - slack
        <= partial.value
        <= partial.upper_bound + slack
    )
    extra = {k: v for k, v in partial.as_dict().items() if k != "value"}
    extra.update(partial.extra)
    extra.update(grades)
    record = _record(
        protocol, topology, f, schedule, partial.value, correct,
        out.stats.max_bits, out.rounds, extra,
    )
    return _finish_record(
        record, plan.monitors, strict_monitors, link_stats=out.stats.link_stats
    )


def _finish_record(
    record: RunRecord, monitors, strict_monitors: bool, link_stats=None
) -> RunRecord:
    """Attach recorded monitor violations; enforce zero-error if strict.

    A monitor that grades the whole run (``grade_row``) does so here, once
    the run is over, and adds its columns to the row.
    """
    for monitor in monitors or ():
        grade_row = getattr(monitor, "grade_row", None)
        if grade_row is not None:
            grade_row(record.extra)
    events = violations_of(monitors)
    if events:
        record.extra["violations"] = [str(e) for e in events]
    if strict_monitors and record.result is not None and not record.correct:
        raise InvariantViolation(
            "oracle",
            f"{record.protocol} output {record.result} graded incorrect "
            f"against the Section 2 oracle",
        )
    if _obs_metrics.enabled:
        # Fold the finished run into the active observability registry —
        # the facade that supersedes per-call-site SimStats mining.
        _obs_metrics.record_run(
            _obs_metrics.active(),
            protocol=record.protocol,
            cc_bits=record.cc_bits,
            rounds=record.rounds,
            flooding_rounds=record.flooding_rounds,
            correct=record.correct,
            overhead_bits=record.extra.get("overhead_bits"),
            extra=record.extra,
            link_stats=link_stats,
        )
    return record


# --------------------------------------------------------------------- #
# Crash-safe execution: timeout and structured error capture.
# --------------------------------------------------------------------- #


@contextmanager
def wall_clock_limit(seconds: Optional[float]):
    """Stop this block's runs at their first round boundary after
    ``seconds`` (:data:`repro.sim.network.DEADLINE`); None: no limit."""
    if seconds is None:
        yield
        return
    if seconds <= 0:
        raise ValueError(f"timeout must be positive, got {seconds}")
    token = DEADLINE.set((time.monotonic() + seconds, seconds))
    try:
        yield
    finally:
        DEADLINE.reset(token)


def error_record(
    protocol: str,
    topology: Topology,
    exc: BaseException,
    schedule: Optional[FailureSchedule] = None,
    f: Optional[int] = None,
    seed: Optional[int] = None,
) -> RunRecord:
    """A structured row for a run that raised instead of returning."""
    record = _record(
        protocol, topology, f, schedule or FailureSchedule(), None, False,
        0, 0, {},
    )
    record.error = (str(exc) or exc.__class__.__name__)[:500]
    record.error_kind = exc.__class__.__name__
    record.seed = seed
    return record


def _capture_bundle(
    capture_dir: str,
    recorder,
    protocol: str,
    topology: Topology,
    inputs: Dict[int, int],
    schedule: FailureSchedule,
    kwargs: Dict[str, Any],
    record: RunRecord,
    seed: Optional[int],
    rng_state,
    monitor_mode: Optional[str],
) -> str:
    """Serialize one recorded failing run into ``capture_dir``.

    The filename is deterministic (protocol, topology, seed, content
    hash) so re-running the same sweep overwrites rather than multiplies
    bundles.
    """
    import os
    import re

    from ..sim.recorder import make_execution_record

    bundle = make_execution_record(
        recorder,
        protocol,
        topology,
        inputs,
        schedule,
        params=families.encode_params(kwargs, topology),
        run_record=record,
        seed=seed,
        rng_state=rng_state,
        strict_model=bool(kwargs.get("strict", True)),
        monitor_mode=monitor_mode,
    )
    os.makedirs(capture_dir, exist_ok=True)
    stem = re.sub(
        r"[^A-Za-z0-9_.-]+",
        "-",
        f"{protocol}-{topology.name}-s{seed}-{bundle.content_hash()}",
    )
    return bundle.save(os.path.join(capture_dir, f"{stem}.json"))


def _monitor_mode_of(kwargs: Dict[str, Any]) -> Optional[str]:
    """The monitor configuration a bundle must reproduce on replay."""
    if kwargs.get("strict_monitors"):
        return "strict"
    monitors = kwargs.get("monitors")
    if monitors:
        return getattr(monitors[0], "mode", "record")
    return None


def safe_run_protocol(
    protocol: str,
    topology: Topology,
    inputs: Dict[int, int],
    schedule: Optional[FailureSchedule] = None,
    timeout_s: Optional[float] = None,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    capture_dir: Optional[str] = None,
    **kwargs,
) -> RunRecord:
    """Crash-safe :func:`run_protocol`: errors become rows, not exceptions.

    The run executes exactly once, on ``rng`` or else on
    ``Random((seed + 1) * 1_000_003)``, so the row is a function of the
    arguments.

    * ``timeout_s`` — wall-clock limit, checked before each round
      (:func:`wall_clock_limit`): an overrun stops the run between two
      rounds and becomes a ``RunTimeout`` row, in any thread.
    * A run that raises becomes an :func:`error_record` (``correct=False``,
      ``error`` / ``error_kind`` set).  ``KeyboardInterrupt`` /
      ``SystemExit`` propagate, so an interrupted sweep stops instead of
      recording bogus rows, and so does the ``TypeError`` of a keyword
      :func:`run_protocol` does not take.
    * ``capture_dir`` — forensics: wrap the run in a
      :class:`repro.sim.recorder.RecordingInjector` and, whenever the
      row is a failure (:func:`is_failure`), write a
      deterministic repro bundle there and note its path in
      ``record.extra["bundle"]``.  Work units do not record every run:
      :func:`repro.exec.scheduler.execute_unit` runs a unit without
      ``capture_dir`` and calls this path only to re-execute a unit
      whose row failed, so passing units skip the recorder's per-copy
      bookkeeping and a failing unit runs twice.
    """
    _reject_unknown("safe_run_protocol", kwargs)
    schedule = schedule or FailureSchedule()
    rng = rng or random.Random(((seed or 0) + 1) * 1_000_003)
    recorder = rng_state = None
    run_kwargs = kwargs
    if capture_dir is not None:
        from ..sim.recorder import RecordingInjector

        recorder = RecordingInjector(kwargs.get("injectors") or ())
        rng_state = rng.getstate()
        run_kwargs = dict(kwargs, injectors=(recorder,))
    try:
        with wall_clock_limit(timeout_s):
            record = run_protocol(
                protocol, topology, inputs, schedule=schedule, rng=rng,
                **run_kwargs,
            )
    except Exception as exc:  # structured capture is the point
        record = error_record(
            protocol, topology, exc, schedule=schedule, f=kwargs.get("f"),
        )
    record.seed = seed
    if (
        recorder is not None
        and record.error_kind != "RunTimeout"
        and is_failure(record)
    ):
        record.extra["bundle"] = _capture_bundle(
            capture_dir, recorder, protocol, topology, inputs, schedule,
            kwargs, record, seed, rng_state, _monitor_mode_of(kwargs),
        )
    return record

"""Work units: the declarative, picklable spec of one protocol run.

A :class:`WorkUnit` captures *everything* needed to reproduce one seeded
run bit-for-bit: the topology, the seed, the protocol parameters, and
declarative specs for the derived pieces (failure schedule, fault
injectors, monitors).  :func:`derive_run` is the one place those pieces
are built from the seed's ``random.Random``, in a fixed order —
inputs, then schedule, then the optional root crash, then the fault
schedules — so every caller sees the same run: :func:`execute_unit` (the
engine's entry point, in-process or in a worker process) and the CLI's
in-process ``run``.  Sweeps, chaos campaigns and ``run`` all go through
it; there is no other derivation.

The specs are data, not callables, so units can cross process
boundaries:

* schedule spec — ``{"kind": "none"}``, ``{"kind": "explicit",
  "crash_rounds": {node: round}}``, or ``{"kind": "random", "f": int,
  "first_round": int, "last_round": int, "respect_c": int | None}``
  (built by :func:`repro.analysis.sweep.random_schedule_spec`);
* ``crash_root`` — ``{"lo": int, "hi": int}``, appending a seeded root
  crash (the CLI's ``--allow-root-crash``);
* ``inject`` / ``adaptive`` — the CLI spec strings fed to
  :meth:`repro.sim.faults.MessageFaults.from_spec` /
  :func:`repro.adversary.adaptive.make_adaptive`;
* ``monitors`` — ``{"mode": "record" | "strict", "recovery": bool}`` for
  :func:`repro.sim.monitors.standard_monitors`.

:func:`plan_order` gives the deterministic longest-expected-first
submission order; because results are keyed by unit index, submission
order never affects output, only wall clock.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology


@dataclass(frozen=True)
class WorkUnit:
    """One independent protocol run, fully specified by value.

    ``coords`` is the sweep coordinate the run belongs to (telemetry
    labels read it; it is outside the cache identity); ``strict`` /
    ``strict_monitors`` and the fault-family fields (``transport`` through
    ``allow_root_crash``, see :data:`repro.analysis.families.RUN_KEYS`)
    mirror the corresponding :func:`repro.analysis.runner.run_protocol`
    arguments; ``corrupt`` is the CLI spec string fed to
    :meth:`repro.sim.faults.MessageCorruption.from_spec`.  The schedule
    families' fields (``churn``, ``gray``, ``byz``) may also be spec
    strings or ``{"kind": "random", "rate": float, ...}`` specs, drawn
    from the unit's seeded RNG right after the crash schedule
    (:func:`repro.analysis.families.draw_schedules`).
    """

    protocol: str
    topology: Topology
    seed: int
    f: Optional[int] = None
    b: Optional[int] = None
    t: Optional[int] = None
    c: int = 2
    caaf: str = "SUM"
    max_input: Optional[int] = None
    schedule: Dict[str, Any] = field(default_factory=lambda: {"kind": "none"})
    crash_root: Optional[Dict[str, int]] = None
    inject: Optional[str] = None
    corrupt: Optional[str] = None
    adaptive: Optional[str] = None
    monitors: Optional[Dict[str, Any]] = None
    strict: bool = False
    strict_monitors: bool = False
    transport: Any = None
    recovery: Any = None
    integrity: Any = None
    churn: Any = None
    churn_policy: Any = None
    gray: Any = None
    byz: Any = None
    byz_config: Any = None
    allow_root_crash: bool = False
    timeout_s: Optional[float] = None
    capture_dir: Optional[str] = None
    coords: Dict[str, Any] = field(default_factory=dict)

    @property
    def cost_hint(self) -> float:
        """Expected relative wall clock (for longest-first submission).

        Protocol runs scale with the node count times the round horizon;
        the exact constant is irrelevant because only the *ordering* of
        hints matters.
        """
        horizon = self.b if self.b is not None else None
        if horizon is None:
            horizon = self.schedule.get("last_round") if self.schedule else None
        if horizon is None:
            horizon = self.topology.diameter
        return float(self.topology.n_nodes) * max(1, int(horizon))

    def label(self) -> str:
        """Short human-readable identity for telemetry."""
        bits = [self.protocol, self.topology.name, f"s{self.seed}"]
        for key in ("b", "f"):
            value = self.coords.get(key)
            if value is not None:
                bits.append(f"{key}{value}")
        return "-".join(str(b) for b in bits)


def build_schedule(
    unit: WorkUnit, topology: Topology, rng: random.Random
) -> FailureSchedule:
    """Materialize the unit's schedule spec (and root crash) from ``rng``."""
    spec = unit.schedule or {"kind": "none"}
    kind = spec.get("kind", "none")
    if kind == "none":
        schedule = FailureSchedule()
    elif kind == "explicit":
        schedule = FailureSchedule(
            {int(u): int(r) for u, r in spec["crash_rounds"].items()}
        )
    elif kind == "random":
        from ..adversary.adversaries import no_failures, random_failures

        f = spec["f"]
        if f <= 0:
            schedule = no_failures()
        else:
            schedule = random_failures(
                topology,
                f,
                rng,
                first_round=spec.get("first_round", 1),
                last_round=spec["last_round"],
                respect_c=spec.get("respect_c"),
            )
    else:
        raise ValueError(f"unknown schedule spec kind {kind!r}")
    if unit.crash_root is not None:
        lo = unit.crash_root["lo"]
        hi = unit.crash_root["hi"]
        schedule.add(topology.root, rng.randint(lo, hi))
    return schedule


def build_injectors(unit: WorkUnit, topology: Topology) -> List[Any]:
    """Materialize the unit's injector specs (order: faults, corruption,
    adaptive)."""
    injectors: List[Any] = []
    if unit.inject:
        from ..sim.faults import MessageFaults

        injectors.append(MessageFaults.from_spec(unit.inject, seed=unit.seed))
    if unit.corrupt:
        from ..sim.faults import MessageCorruption

        injectors.append(
            MessageCorruption.from_spec(unit.corrupt, seed=unit.seed)
        )
    if unit.adaptive:
        from ..adversary.adaptive import make_adaptive

        injectors.append(
            make_adaptive(
                unit.adaptive, topology, f=unit.f or 1, seed=unit.seed
            )
        )
    return injectors


def derive_run(
    unit: WorkUnit,
) -> Tuple[Dict[int, int], FailureSchedule, Dict[str, Any]]:
    """The unit's ``(inputs, schedule, run_protocol kwargs)``.

    Everything is derived from one ``rng = Random(seed)``, in this order:
    inputs → schedule (→ optional root crash) → the schedule families in
    table order (:func:`repro.analysis.families.draw_schedules`) →
    injectors → monitors.  The kwargs carry ``rng`` itself, so the
    protocol's coins continue the same stream.
    """
    from ..analysis import families
    from ..analysis.runner import make_inputs
    from ..core.caaf import by_name
    from ..sim.faults import ledger_sources

    topology = unit.topology
    caaf = by_name(unit.caaf)
    rng = random.Random(unit.seed)
    inputs = make_inputs(topology, rng, max_input=unit.max_input)
    schedule = build_schedule(unit, topology, rng)
    faults = families.draw_schedules(
        {key: getattr(unit, key) for key in families.RUN_KEYS}, topology, rng
    )
    injectors = build_injectors(unit, topology)
    faults = families.share(faults)
    monitors = None
    if unit.monitors is not None:
        monitors = families.family_monitors(
            topology,
            inputs,
            faults,
            f=unit.f,
            caaf=caaf,
            mode=unit.monitors.get("mode", "record"),
            recovery=bool(unit.monitors.get("recovery")),
            corruption=ledger_sources(injectors, "delivered_corruptions"),
        )
    return inputs, schedule, dict(
        rng=rng,
        f=unit.f,
        b=unit.b,
        t=unit.t,
        c=unit.c,
        caaf=caaf,
        strict=unit.strict,
        strict_monitors=unit.strict_monitors,
        injectors=tuple(injectors),
        monitors=monitors,
        **faults,
    )


def stamp_injected(record, injectors) -> None:
    """Add the ``injected_faults`` / ``injected_corruptions`` columns of
    a run's message-fault and corruption injectors to its row."""
    from ..sim.faults import MessageCorruption, MessageFaults

    for injector in injectors:
        if isinstance(injector, MessageFaults):
            record.extra["injected_faults"] = injector.counts.total
        elif isinstance(injector, MessageCorruption):
            record.extra["injected_corruptions"] = injector.counts.total


def _run(unit: WorkUnit, capture_dir: Optional[str] = None):
    """Derive the unit afresh and run it through ``safe_run_protocol``."""
    from ..analysis.runner import safe_run_protocol

    inputs, schedule, kwargs = derive_run(unit)
    record = safe_run_protocol(
        unit.protocol,
        unit.topology,
        inputs,
        schedule=schedule,
        timeout_s=unit.timeout_s,
        seed=unit.seed,
        capture_dir=capture_dir,
        **kwargs,
    )
    stamp_injected(record, kwargs["injectors"])
    return record


def _capture_failure(unit: WorkUnit, record) -> None:
    """Give a failing ``record`` of ``unit`` its repro bundle.

    Re-executes the unit once under the recorder (``safe_run_protocol``
    with ``capture_dir``), from a fresh :func:`derive_run`: only the
    unit, as data, can rebuild unconsumed injectors, monitors and the
    run's RNG.  The re-execution emits no ``obs`` spans and folds no
    run into the metrics registry, so a traced unit shows one execution.
    ``record`` stays the row of the first execution; the bundle path is
    attached only when the re-execution reproduces its outcome
    (:func:`repro.sim.recorder.expected_outcome`).  Otherwise
    ``extra["capture_diverged"]`` names the outcome fields that differ
    and the re-execution's bundle, which records another run, is
    deleted.
    """
    from ..obs import suspended
    from ..sim.recorder import expected_outcome

    with suspended():
        rerun = _run(unit, unit.capture_dir)
    want, got = expected_outcome(record), expected_outcome(rerun)
    if want == got:
        record.extra["bundle"] = rerun.extra["bundle"]
        return
    record.extra["capture_diverged"] = ",".join(
        key for key in want if want[key] != got[key]
    )
    if "bundle" in rerun.extra:
        os.remove(rerun.extra["bundle"])


def execute_unit(unit: WorkUnit):
    """Run one work unit; the engine's entry point.

    :func:`derive_run` builds the run and
    :func:`repro.analysis.runner.safe_run_protocol` executes it,
    unrecorded.  Per-unit timeouts go through ``safe_run_protocol``'s own
    ``timeout_s`` path — workers execute in their process's main thread,
    so the ``SIGALRM`` wall-clock limit is exactly as hard there as
    in-process.

    With ``capture_dir`` set, passing units are still not recorded: a
    failing row (:func:`repro.sim.recorder.is_failure`) that is not a
    ``RunTimeout`` gets its bundle from one recorded re-execution
    (:func:`_capture_failure`).  Passing units thus skip the recorder's
    per-copy bookkeeping; the price is that a failing unit runs twice.

    Never raises (other than ``KeyboardInterrupt``/``SystemExit``): any
    unexpected error becomes a structured error record, matching
    ``safe_run_protocol``'s contract.
    """
    from ..analysis.runner import error_record
    from ..obs import spans as _spans

    if _spans.enabled:
        # In-process (serial backend) with tracing armed: group this
        # unit's protocol spans under their own trace process.  Worker
        # processes never see the parent's tracer, so this is a no-op
        # for the process-pool backend.
        _spans.active().push_process(unit.label())
    try:
        record = _run(unit)
        if unit.capture_dir is not None and record.error_kind != "RunTimeout":
            from ..sim.recorder import is_failure

            if is_failure(record):
                _capture_failure(unit, record)
        return record
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # defensive: a unit must yield a row
        return error_record(
            unit.protocol, unit.topology, exc, f=unit.f, seed=unit.seed
        )
    finally:
        if _spans.enabled:
            _spans.active().pop_process()


def plan_order(
    units: Sequence[WorkUnit], indices: Optional[Sequence[int]] = None
) -> List[int]:
    """Deterministic submission order: longest expected first.

    Ties break on the unit index, so the plan is a pure function of the
    unit list.  Output assembly is index-keyed, so this ordering can only
    change wall clock, never results.
    """
    pool = range(len(units)) if indices is None else indices
    return sorted(pool, key=lambda i: (-units[i].cost_hint, i))

"""One epoch driver for the failover, churn and Byzantine runtimes.

The paper's model has no epochs.  Each out-of-model runtime restarts the
paper's protocol until it can certify a result.  :func:`drive_epochs`
owns what they share — the protocol check, the epoch loop, the combined
stats, the global clock, the transports and their live-gap total, the
per-epoch span and the discard event — and the family's *plan*
(:class:`~repro.resilience.failover.FailoverPlan`,
:class:`~repro.resilience.epochs.ChurnPlan`,
:class:`~repro.resilience.byzantine.ByzantinePlan`) is the only
per-family code.  A plan checks its inputs when it is built and then
declares:

* ``family``, its ``whole_run_rules`` (monitor rules kept out of every
  epoch) and whether a discarded epoch's bits are overhead
  (``discards_as_overhead``) or protocol CC;
* ``max_epochs``, the epoch budget, and ``transport``, the
  :class:`~repro.resilience.transport.TransportConfig` each epoch's
  fresh reliable transport is built from (``None`` for none);
* ``caaf`` and ``monitors``: the aggregate and the whole run's monitors,
  its own oracle among them (found in the caller's, or added);
* ``world(epoch, run, transport)``, the next epoch's
  :class:`EpochWorld`; ``judge(report, out, run, last)``, a verdict on
  the finished epoch that also runs any between-epoch side-runs
  (:meth:`EpochOutcome.side_run`); ``certify(run)``, which sets the
  run's final :class:`~repro.resilience.partial.PartialAggregateResult`;
  and ``grade(run)``, the ``(slack, honest, columns)`` the runner grades
  the row with: bounds widened by ``slack``, the family's oracle
  verdict, and its row columns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..obs import spans as _spans
from ..sim.network import Network
from ..sim.node import NodeHandler
from ..sim.stats import SimStats
from .partial import PartialAggregateResult
from .transport import ReliableTransport, overlay_network

#: Protocols the epoch runtimes know how to restart.
RECOVERABLE_PROTOCOLS = ("algorithm1", "unknown_f")

#: Plan verdicts on a finished epoch.  An epoch judged ``NEXT`` or
#: ``DONE`` is kept (its transport gaps count against certification);
#: ``RETRY`` discards it and runs another; ``FAIL`` stops on it.
NEXT, DONE, RETRY, FAIL = "next", "done", "retry", "fail"


def whole_run_oracle(monitors: Sequence, cls, *args, **kwargs):
    """A plan's ``(oracle, monitors)``: the caller's ``cls`` oracle, or a
    fresh ``cls(*args, **kwargs)`` appended to ``monitors``."""
    monitors = tuple(monitors)
    for monitor in monitors:
        if isinstance(monitor, cls):
            return monitor, monitors
    oracle = cls(*args, **kwargs)
    return oracle, monitors + (oracle,)


def shift_crash_map(
    crash_rounds: Dict[int, float], elapsed: int, nodes
) -> Dict[int, int]:
    """Re-base a crash map after ``elapsed`` executed physical rounds.

    Nodes already dead come back as crash round 1 (dead from the first
    round of the next phase); pending crashes keep their remaining fuse.
    Same idiom as the AGG->VERI schedule shift in ``run_agg_veri_pair``.
    """
    keep = set(nodes)
    return {
        u: max(1, int(rnd) - elapsed)
        for u, rnd in crash_rounds.items()
        if u in keep and rnd != float("inf")
    }


@dataclass
class EpochWorld:
    """What one epoch runs, as its plan built it."""

    topology: Topology
    inputs: Dict[int, int]
    schedule: FailureSchedule
    f: Optional[int]
    #: The family's injectors, attached before the caller's.
    injectors: Tuple = ()
    integrity: Any = None
    #: Extra attributes of the epoch's span.
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class EpochReport:
    """One protocol epoch of a resilience run, whatever its family."""

    epoch: int
    root: int
    n_nodes: int
    rounds: int
    result: Optional[int]
    #: True when the plan threw the epoch away and reran it.  Nothing
    #: from a discarded epoch is booked.
    discarded: bool = False
    #: Churn: the contributors booked from this epoch, and the nodes
    #: still pending after it.
    booked: Tuple[int, ...] = ()
    pending: Tuple[int, ...] = ()
    #: Byzantine: the nodes first convicted in this epoch.
    convicted: Tuple[int, ...] = ()


@dataclass
class EpochOutcome:
    """A failover, churn or Byzantine run: the totals the driver keeps
    for every family.  Family state (elections, the ledger, the witness
    pool) stays on the plan."""

    #: The plan's monitors minus its whole-run rules.
    monitors: List
    stats: SimStats = field(default_factory=SimStats)
    epochs: List[EpochReport] = field(default_factory=list)
    transports: List[ReliableTransport] = field(default_factory=list)
    #: The last epoch's network (effective crash map, liveness queries).
    network: Optional[Network] = None
    #: Physical rounds executed so far by epochs and clocked side-runs.
    elapsed: int = 0
    #: Unexcused transport gaps of every kept epoch.
    live_gaps: int = 0
    #: The certificate, set by the plan after the last epoch.
    partial: Optional[PartialAggregateResult] = None

    @property
    def rounds(self) -> int:
        return self.stats.rounds_executed

    @property
    def result(self) -> Optional[int]:
        return self.partial.value

    def side_run(
        self,
        topology: Topology,
        handlers: Dict[int, NodeHandler],
        crash_rounds: Dict[int, int],
        logical_rounds: int,
        *,
        clocked: bool = True,
        **overlays,
    ) -> Network:
        """Run a between-epoch mini-protocol for ``logical_rounds``.

        Builds the network under ``overlays`` (``transport``,
        ``integrity``, ``injectors``) and books all of its bits as
        overhead, never protocol CC.  A clocked side-run advances the
        global clock the next epoch's churn view is shifted by.
        """
        network, window, transport, _ = overlay_network(
            topology, handlers, crash_rounds, **overlays
        )
        horizon = (logical_rounds + 1) * window + (1 if transport else 0)
        stats = network.run(horizon, stop_on_output=False)
        self.stats.absorb(stats, as_overhead=True)
        if clocked:
            self.elapsed += stats.rounds_executed
        return network


def run_epoch(
    protocol: str,
    world: EpochWorld,
    *,
    b: Optional[int],
    c: int,
    caaf,
    rng: Optional[random.Random],
    injectors: Sequence,
    transport: Optional[ReliableTransport],
):
    """One protocol execution on ``world``, with the root allowed to die."""
    from ..core.algorithm1 import run_algorithm1
    from ..core.unknown_f import run_unknown_f

    common = dict(
        schedule=world.schedule,
        c=c,
        caaf=caaf,
        injectors=tuple(world.injectors) + tuple(injectors),
        transport=transport,
        integrity=world.integrity,
        allow_root_crash=True,
    )
    if protocol == "algorithm1":
        return run_algorithm1(
            world.topology,
            world.inputs,
            f=world.f if world.f is not None else 0,
            b=b if b is not None else 21 * c,
            rng=rng,
            **common,
        )
    return run_unknown_f(world.topology, world.inputs, **common)


def drive_epochs(
    plan,
    protocol: str,
    *,
    b: Optional[int] = None,
    c: int = 2,
    rng: Optional[random.Random] = None,
    injectors: Sequence = (),
) -> EpochOutcome:
    """Run ``plan``'s epochs until it is done or ``plan.max_epochs`` ran,
    each over a fresh reliable transport built from ``plan.transport``."""
    # run_epoch would run any other name as unknown_f.
    if protocol not in RECOVERABLE_PROTOCOLS:
        raise ValueError(
            f"{plan.family} supports protocols {RECOVERABLE_PROTOCOLS}, "
            f"got {protocol!r}"
        )
    run = EpochOutcome(
        monitors=[
            m
            for m in plan.monitors
            if getattr(m, "rule", None) not in plan.whole_run_rules
        ]
    )
    config = plan.transport
    for epoch in range(1, plan.max_epochs + 1):
        reliable = ReliableTransport(config) if config else None
        world = plan.world(epoch, run, reliable)
        tid = world.topology.root
        if _spans.enabled:
            _spans.active().begin(
                f"epoch[{epoch}]",
                cat="epoch",
                tid=tid,
                round=run.elapsed,
                family=plan.family,
                epoch=epoch,
                **world.attrs,
            )
        out = run_epoch(
            protocol,
            world,
            b=b,
            c=c,
            caaf=plan.caaf,
            rng=rng,
            # Monitors watch the epochs only, never the side-runs.
            injectors=(*injectors, *run.monitors),
            transport=reliable,
        )
        run.network = out.network
        run.elapsed += out.rounds
        gaps = 0
        if reliable is not None:
            run.transports.append(reliable)
            # Quarantined links count as live gaps on purpose: the
            # receiver stopped listening, so any protocol frame starved
            # by the quarantine is real data loss and must decertify the
            # result.
            gaps = len(reliable.live_gaps(out.network))
        if _spans.enabled:
            _spans.active().end(
                tid=tid,
                round=run.elapsed,
                rounds=out.rounds,
                produced=out.result is not None,
            )
        report = EpochReport(
            epoch, tid, world.topology.n_nodes, out.rounds, out.result
        )
        verdict = plan.judge(report, out, run, epoch == plan.max_epochs)
        report.discarded = verdict == RETRY
        run.epochs.append(report)
        run.stats.absorb(
            out.stats, as_overhead=report.discarded and plan.discards_as_overhead
        )
        if verdict in (NEXT, DONE):
            run.live_gaps += gaps
        if report.discarded and _spans.enabled:
            _spans.active().event(
                "epoch.discarded",
                cat="epoch",
                tid=tid,
                round=run.elapsed,
                family=plan.family,
                epoch=epoch,
            )
        if verdict in (DONE, FAIL):
            break
    plan.certify(run)
    return run

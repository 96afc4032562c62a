"""Crash-recovery churn: revivable crashes and link flaps
(:class:`ChurnSchedule`), run through the exactly-once epochs of
:class:`repro.resilience.epochs.ChurnPlan` and graded by the
:class:`DoubleCountOracle`; the row adds the churn counters (rejoins,
handshakes, lost contributions, double-count audit)."""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Tuple

from ..analysis.families import load_config
from ..core.caaf import SUM
from ..sim.faults import ScheduledCrashes, _drawn, check_fraction
from ..sim.monitors import Monitor
from ..sim.specs import JsonFields, SpecReader, config_jsonable
from . import FaultFlag, without

#: Rejoin mode: the node returns with its persisted local value and
#: transport seq state (a clean reboot from durable storage).
REJOIN_DURABLE = "durable"
#: Rejoin mode: all local state is lost; the node must re-fetch its
#: contribution slot from a neighbour anti-entropy snapshot.
REJOIN_AMNESIAC = "amnesiac"

REJOIN_MODES = (REJOIN_DURABLE, REJOIN_AMNESIAC)


class ChurnSchedule(JsonFields, ScheduledCrashes):
    """Crash-*recovery* churn: revivable crashes plus link flap windows.

    Extends the paper's oblivious crash schedule with two out-of-model
    event classes studied by the Flow-Updating / gossip-aggregation line:

    * **crash/revive cycles** — a node goes down at round ``c`` and comes
      back at round ``v`` in one of two rejoin modes:
      :data:`REJOIN_DURABLE` (local value and transport seq state
      persisted) or :data:`REJOIN_AMNESIAC` (state lost; the node must
      recover its contribution slot via the
      :mod:`repro.resilience.epochs` rejoin handshake).  A cycle with no
      revive round is an ordinary permanent crash.
    * **link flaps** — an edge carries nothing in either direction for a
      closed window of delivery rounds, then comes back.

    The schedule stays oblivious: every event is fixed before execution.
    Cycles are realized through :meth:`repro.sim.network.Network.schedule_downtime`
    and flaps through :meth:`~repro.sim.network.Network.schedule_link_flap`,
    both enforced by the network itself on *both* delivery paths, so a
    flap-only churn schedule keeps the exact-model fast path.  At each
    revive round the injector bumps the node's incarnation and calls the
    handler's ``on_churn_revive(mode, incarnation, rnd)`` hook when one
    exists (the reliable transport uses it to reset or persist seq state).

    Illegal event structures are rejected at construction (reviving a
    never-crashed node, a revive at or before its crash, overlapping
    cycles, unknown rejoin modes); events naming unknown nodes or
    nonexistent edges are rejected at attach time by the network, or
    earlier via :meth:`validate`.
    """

    def __init__(
        self,
        cycles=None,
        flaps=None,
        root: Optional[int] = None,
        allow_root_crash: bool = False,
        incarnation_base=None,
    ) -> None:
        #: Per node: list of ``(crash_round, revive_round | None, mode)``
        #: sorted by crash round.  ``revive_round is None`` is permanent.
        self.cycles: Dict[int, List[Tuple[int, Optional[int], str]]] = {}
        for node, entries in dict(cycles or {}).items():
            normalized = []
            for entry in entries:
                crash_r, revive_r, mode = (tuple(entry) + (REJOIN_DURABLE,))[:3]
                if mode not in REJOIN_MODES:
                    raise ValueError(
                        f"unknown rejoin mode {mode!r} for node {node} "
                        f"(expected one of {REJOIN_MODES})"
                    )
                if crash_r < 1:
                    raise ValueError(
                        f"node {node} cannot crash at round {crash_r} (< 1)"
                    )
                if revive_r is not None and revive_r <= crash_r:
                    raise ValueError(
                        f"node {node} revives at round {revive_r} but "
                        f"crashed at round {crash_r}: a revive must come "
                        "strictly after its crash"
                    )
                normalized.append((crash_r, revive_r, mode))
            normalized.sort()
            for (c1, v1, _m1), (c2, _v2, _m2) in zip(
                normalized, normalized[1:]
            ):
                if v1 is None:
                    raise ValueError(
                        f"node {node} crashes at round {c2} but its crash "
                        f"at round {c1} never revives (reviving a "
                        "never-crashed — or re-crashing a still-dead — "
                        "node is illegal)"
                    )
                if c2 < v1:
                    raise ValueError(
                        f"node {node} crashes at round {c2} while still "
                        f"down from round {c1} (revives at {v1})"
                    )
            if normalized:
                self.cycles[node] = normalized
        #: Link flap windows as ``(u, v, start, end)`` with ``start <= end``
        #: (closed window of suppressed delivery rounds).
        self.flaps: List[Tuple[int, int, int, int]] = []
        for entry in flaps or ():
            u, v, start, end = entry
            if u == v:
                raise ValueError(f"cannot flap self-loop edge {u}-{v}")
            if start < 1 or end < start:
                raise ValueError(
                    f"flap window for edge {u}-{v} must satisfy "
                    f"1 <= start <= end (got {start}-{end})"
                )
            self.flaps.append((u, v, start, end))
        self.flaps.sort()
        #: Incarnations accumulated before this schedule's round 1 (used
        #: by per-epoch shifted views so frame incarnation numbers stay
        #: globally monotonic across epochs); a zero base is no base.
        self.incarnation_base: Dict[int, int] = {
            node: inc for node, inc in dict(incarnation_base or {}).items()
            if inc
        }
        permanent = {
            node: entries[-1][0]
            for node, entries in self.cycles.items()
            if entries and entries[-1][1] is None
        }
        super().__init__(
            permanent, root=root, allow_root_crash=allow_root_crash
        )

    JSON_FIELDS = ("cycles", "flaps", "allow_root_crash", "incarnation_base")

    def _downed(self):
        return self.cycles

    #: The accepted ``from_spec`` grammar, quoted in every rejection.
    SPEC_GRAMMAR = (
        "comma-separated events: '<node>:crash@r<R>', "
        "'<node>:revive@r<R>[:durable|:amnesiac]' and "
        "'flap:<u>-<v>@r<R1>-r<R2>' with rounds >= 1 "
        "(e.g. '5:crash@r3,5:revive@r7:amnesiac,flap:1-2@r2-r5')"
    )

    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "ChurnSchedule":
        """Build from a CLI spec like
        ``5:crash@r3,5:revive@r7:amnesiac,flap:1-2@r2-r5``.

        Unknown event kinds, malformed rounds, revives of never-crashed
        nodes, and empty flap windows all raise ``ValueError`` naming the
        offending token and :data:`SPEC_GRAMMAR`.
        """

        reader = SpecReader("churn", cls.SPEC_GRAMMAR, spec)
        events: List[Tuple[int, str, int, str]] = []
        flaps: List[Tuple[int, int, int, int]] = []
        for item in reader:
            if item.startswith("flap:"):
                edge, at, window = item[len("flap:"):].partition("@")
                if not at:
                    raise reader.reject("needs flap:<u>-<v>@r<R1>-r<R2>")
                flaps.append(reader.edge(edge) + reader.window(window, "flap"))
                continue
            pieces = item.split(":")
            if len(pieces) < 2:
                raise reader.reject(
                    "needs <node>:crash@r<R> or <node>:revive@r<R>"
                )
            node = reader.integer(pieces[0], "node")
            action, at, round_raw = pieces[1].partition("@")
            action = action.strip()
            if not at:
                raise reader.reject("event needs @r<R>")
            rnd = reader.round(round_raw)
            if action == "crash":
                if len(pieces) > 2:
                    raise reader.reject("crash events take no mode suffix")
                events.append((node, "crash", rnd, ""))
            elif action == "revive":
                mode = pieces[2].strip() if len(pieces) > 2 else REJOIN_DURABLE
                if mode not in REJOIN_MODES:
                    raise reader.reject(f"unknown rejoin mode {mode!r}")
                events.append((node, "revive", rnd, mode))
            else:
                raise reader.reject(f"unknown churn event {action!r}")

        cycles: Dict[int, List[Tuple[int, Optional[int], str]]] = {}
        open_crash: Dict[int, int] = {}
        for node, action, rnd, mode in sorted(
            events, key=lambda e: (e[0], e[2])
        ):
            if action == "crash":
                if node in open_crash:
                    raise reader.reject(
                        f"node {node} crashes at round {rnd} while still "
                        f"down from round {open_crash[node]}",
                        token=spec,
                    )
                open_crash[node] = rnd
            else:
                if node not in open_crash:
                    raise reader.reject(
                        f"node {node} revives at round {rnd} but never "
                        "crashed before it",
                        token=spec,
                    )
                crash_r = open_crash.pop(node)
                if rnd <= crash_r:
                    raise reader.reject(
                        f"node {node} revives at round {rnd}, at or "
                        f"before its crash at round {crash_r}",
                        token=spec,
                    )
                cycles.setdefault(node, []).append((crash_r, rnd, mode))
        for node, crash_r in open_crash.items():
            cycles.setdefault(node, []).append((crash_r, None, REJOIN_DURABLE))
        return cls(cycles=cycles, flaps=flaps, **kwargs)

    # -------------------------------------------------------------- #
    # Introspection used by the epoch manager and transport.
    # -------------------------------------------------------------- #

    def revive_events(self) -> List[Tuple[int, int, str]]:
        """All revivals as ``(round, node, mode)``, sorted by round."""
        out = [
            (revive_r, node, mode)
            for node, entries in self.cycles.items()
            for _c, revive_r, mode in entries
            if revive_r is not None
        ]
        out.sort()
        return out

    def incarnation_at(self, node: int, rnd: int) -> int:
        """The node's incarnation in round ``rnd`` (revivals enacted at
        their revive round), including any cross-epoch base."""
        local = sum(
            1
            for _c, revive_r, _m in self.cycles.get(node, ())
            if revive_r is not None and revive_r <= rnd
        )
        return self.incarnation_base.get(node, 0) + local

    def validate(self, topology) -> None:
        """Reject events naming unknown nodes or nonexistent edges."""
        SpecReader.check_topology(
            topology, "churn", self.cycles, self.flaps, "flaps"
        )

    def shifted(self, elapsed: int) -> "ChurnSchedule":
        """A view of this schedule rebased ``elapsed`` rounds later.

        Used by the epoch manager: epoch ``e + 1`` starts its network at
        round 1 after ``elapsed`` global rounds have run.  Cycles fully in
        the past disappear (their revivals feed ``incarnation_base`` so
        frame incarnations stay monotonic); cycles straddling the boundary
        become a downtime starting at round 1; future events shift.
        """
        cycles: Dict[int, List[Tuple[int, Optional[int], str]]] = {}
        base = dict(self.incarnation_base)
        for node, entries in self.cycles.items():
            kept = []
            for crash_r, revive_r, mode in entries:
                new_crash = crash_r - elapsed
                new_revive = None if revive_r is None else revive_r - elapsed
                if new_revive is not None and new_revive <= 1:
                    # Fully in the past: the node is back up; only the
                    # incarnation bump survives.
                    base[node] = base.get(node, 0) + 1
                    continue
                kept.append((max(1, new_crash), new_revive, mode))
            if kept:
                cycles[node] = kept
        flaps = []
        for u, v, start, end in self.flaps:
            new_end = end - elapsed
            if new_end < 1:
                continue
            flaps.append((u, v, max(1, start - elapsed), new_end))
        return ChurnSchedule(
            cycles=cycles,
            flaps=flaps,
            allow_root_crash=self.allow_root_crash,
            incarnation_base=base,
        )

    # -------------------------------------------------------------- #
    # Injector hooks.
    # -------------------------------------------------------------- #

    def attach(self, network) -> None:
        """Seed permanent crashes, downtimes and flap windows."""
        super().attach(network)  # permanent crashes + root protection
        for node, entries in self.cycles.items():
            for crash_r, revive_r, _mode in entries:
                if revive_r is not None:
                    network.schedule_downtime(node, crash_r, revive_r)
        for u, v, start, end in self.flaps:
            network.schedule_link_flap(u, v, start, end)
        for node, inc in self.incarnation_base.items():
            if inc > network.incarnations.get(node, 0):
                network.incarnations[node] = inc

    def begin_round(self, rnd: int) -> None:
        """Enact revivals due this round: bump the incarnation and give
        the handler its ``on_churn_revive`` hook."""
        for node, entries in self.cycles.items():
            for _crash_r, revive_r, mode in entries:
                if revive_r != rnd:
                    continue
                incarnation = self.network.bump_incarnation(node)
                handler = self.network.handlers.get(node)
                hook = getattr(handler, "on_churn_revive", None)
                if hook is not None:
                    hook(mode, incarnation, rnd)


def random_churn(
    topology,
    rate: float,
    rng: random.Random,
    horizon: int,
    amnesiac: float = 0.25,
    flap_rate: float = 0.0,
    root: Optional[int] = None,
) -> ChurnSchedule:
    """Sample a bounded churn schedule at a per-node churn ``rate``.

    Each non-root node independently undergoes one crash/revive cycle
    with probability ``rate``: the crash round is uniform in
    ``[2, horizon]``, the outage lasts 1..``max(1, horizon // 2)`` rounds,
    and the rejoin is amnesiac with probability ``amnesiac``.  Each edge
    independently flaps for a short window with probability ``flap_rate``.
    The draw order is fixed (sorted nodes, then sorted edges) so schedules
    are reproducible per RNG state.
    """
    check_fraction("churn rate", rate)
    check_fraction("amnesiac fraction", amnesiac)
    check_fraction("flap rate", flap_rate)
    horizon = max(2, horizon)
    cycles: Dict[int, List[Tuple[int, Optional[int], str]]] = {}
    for node in _drawn(topology.nodes(), rate, rng, skip=root):
        crash_r = rng.randint(2, horizon)
        down_for = rng.randint(1, max(1, horizon // 2))
        mode = (
            REJOIN_AMNESIAC if rng.random() < amnesiac else REJOIN_DURABLE
        )
        cycles[node] = [(crash_r, crash_r + down_for, mode)]
    flaps: List[Tuple[int, int, int, int]] = []
    if flap_rate:
        edges = (tuple(sorted(e)) for e in topology.edges())
        for u, v in _drawn(edges, flap_rate, rng):
            start = rng.randint(2, horizon)
            flaps.append((u, v, start, start + rng.randint(0, 3)))
    return ChurnSchedule(cycles=cycles, flaps=flaps, root=root)


class DoubleCountOracle(Monitor):
    """Exactly-once contribution accounting under churn.

    The churn epoch manager (:mod:`repro.resilience.epochs`) books every
    leaf contribution under a ``(node_id, incarnation)`` nonce so a
    rejoined node is never double-counted and never dropped while any
    copy of its contribution survives.  This oracle compares the
    *certified claim* against the ground-truth input multiset and reports
    under two rules:

    * ``double-count`` — the certified value exceeds (or, for
      non-monotone aggregates, differs from) the aggregate over the
      claimed coverage, a node was booked under two incarnations, or a
      booked value differs from the node's true input;
    * ``lost-contribution`` — a contribution is missing from the
      certified coverage although a copy survived (the node rejoined
      durable, or a live neighbour still held its anti-entropy snapshot).

    An *uncertified* partial result is graded by neither rule — declining
    to certify is the honest outcome when churn outran the budget.  The
    epoch manager feeds the oracle through :meth:`grade_ledger` and
    :meth:`grade_final`; per-network hooks are no-ops.
    """

    rule = "exactly-once"

    def __init__(
        self, inputs: Dict[int, int], caaf=None, mode: str = "strict"
    ) -> None:
        super().__init__(mode)
        self.inputs = dict(inputs)
        self.caaf = caaf
        #: Count of double-count violations reported.
        self.double_counts = 0
        #: Count of lost-contribution violations reported.
        self.lost_contributions = 0

    def grade_ledger(self, entries, double_booked=()) -> None:
        """Audit booked nonces: one per node, each with its true value."""
        for node, incarnation, value in double_booked:
            self.double_counts += 1
            self.report_as(
                "double-count",
                f"node {node} booked a second contribution under "
                f"incarnation {incarnation} (value {value}): nonce dedup "
                "failed",
            )
        caaf = self.caaf or SUM
        for node, incarnation, value in entries:
            true_input = self.inputs.get(node)
            if true_input is None:
                continue
            expected = caaf.prepare(true_input)
            if value != expected:
                self.double_counts += 1
                self.report_as(
                    "double-count",
                    f"node {node} (incarnation {incarnation}) booked "
                    f"value {value}, but its true contribution is "
                    f"{expected}",
                )

    def grade_final(
        self,
        value: Optional[int],
        coverage,
        certified: bool,
        recoverable=(),
    ) -> None:
        """Grade the final certified claim against the ground truth.

        ``recoverable`` names nodes whose contribution provably had a
        surviving copy at the end of the run; a certified coverage that
        excludes one of them lost a contribution it could have kept.
        """
        if value is None or not certified:
            return
        caaf = self.caaf or SUM
        coverage = set(coverage)
        expected = caaf.aggregate_inputs(
            self.inputs[u] for u in sorted(coverage) if u in self.inputs
        )
        if value != expected:
            if caaf is not None and caaf.monotone and value < expected:
                self.lost_contributions += 1
                self.report_as(
                    "lost-contribution",
                    f"certified value {value} falls short of the "
                    f"aggregate {expected} over its claimed coverage "
                    f"({len(coverage)} nodes)",
                )
            else:
                self.double_counts += 1
                self.report_as(
                    "double-count",
                    f"certified value {value} != aggregate {expected} "
                    f"over its claimed coverage ({len(coverage)} nodes): "
                    "a contribution was double-counted or mis-booked",
                )
        for node in sorted(set(recoverable) - coverage):
            self.lost_contributions += 1
            self.report_as(
                "lost-contribution",
                f"node {node}'s contribution had a surviving copy but "
                "is missing from the certified coverage",
            )


CODECS = {
    "churn": (ChurnSchedule.from_jsonable, config_jsonable),
    "churn_policy": (
        load_config("..resilience.epochs:ChurnPolicy"), config_jsonable
    ),
}


def parse(spec: str, root: Optional[int]) -> ChurnSchedule:
    """The schedule of a ``--churn`` spec string."""
    return ChurnSchedule.from_spec(spec, root=root)


draw = random_churn


def oracles(cfg, inputs, *, caaf, mode: str) -> list:
    """The exactly-once oracle the epoch manager feeds."""
    return [DoubleCountOracle(inputs, caaf=caaf, mode=mode)]


def plan(topology, inputs, schedule, cfg, *, mode: str, **common):
    """The churn epochs' plan; without a policy of its own it inherits
    the transport's config."""
    from ..resilience.epochs import ChurnPlan, ChurnPolicy

    policy = cfg["churn_policy"]
    if policy is None and cfg["transport"] is not None:
        policy = ChurnPolicy(transport=cfg["transport"].config)
    return ChurnPlan(
        topology, inputs, cfg["churn"], schedule,
        policy=policy, mode=mode, **common,
    )


def sweep_columns(records) -> dict:
    """A sweep point's exact rows and exactly-once audit totals, once
    some row ran through the epoch manager."""
    if not any("double_counted" in r.extra for r in records):
        return {}
    return {
        "exact_rows": sum(
            1 for r in records if r.extra.get("status") == "exact"
        ),
        "double_counts": sum(
            int(r.extra.get("double_counted") or 0) for r in records
        ),
        "lost_contributions": sum(
            int(r.extra.get("lost_contributions") or 0) for r in records
        ),
    }


#: ``--amnesiac`` / ``--flap-rate`` only shape the ``--churn rate:<x>`` draw.
_DRAW = (
    without("churn", "shapes the --churn rate:<x> random draw"),
    (
        lambda a: a.churn.startswith("rate:"),
        "shapes the --churn rate:<x> random draw; an explicit --churn "
        "spec ignores it",
    ),
)

FLAGS = (
    FaultFlag("--churn", dict(
        help="crash-recovery churn (algorithm1 / unknown_f, exclusive "
        "with --recover): an explicit ChurnSchedule spec "
        "('5:crash@r3,5:revive@r7:amnesiac,flap:1-2@r2-r5') or "
        "'rate:<float>' for seeded random crash/revive cycles; runs "
        "go through the epoch manager with exactly-once booking",
    ), "churn"),
    FaultFlag("--amnesiac", dict(
        type=float,
        help="with --churn rate:<x>: fraction of rejoins that lose "
        "state and need a snapshot handshake (0 = all durable; "
        "default 0.25)",
    ), needs=_DRAW),
    FaultFlag("--flap-rate", dict(
        type=float,
        default=0.0,
        help="with --churn rate:<x>: per-edge probability of one "
        "link-flap window",
    ), needs=_DRAW),
    FaultFlag("--max-epochs", dict(
        type=int,
        help="with --churn: re-aggregation epoch budget "
        "(default 4; exhaustion degrades to a certified partial)",
    ), needs=(without("churn", "budgets --churn re-aggregation epochs"),)),
)

VERDICTS = (
    # Exactly-once: a contribution booked twice across incarnations, or
    # one with a surviving copy (durable rejoin or live snapshot holder)
    # missing from the certified coverage.
    ("double_counted", "DOUBLE-COUNT"),
    ("lost_contributions", "LOST-CONTRIBUTION"),
)

CHAOS_COLUMNS = (
    ("epochs", lambda x: x.get("epochs", 1)),
    (
        "rejoins",
        lambda x: int(x.get("rejoins_durable") or 0)
        + int(x.get("rejoins_amnesiac") or 0),
    ),
)


def cli_config(args, spec) -> dict:
    """``--churn`` (drawn with ``--amnesiac`` / ``--flap-rate``) and the
    ``--max-epochs`` policy."""
    policy = None
    if args.max_epochs is not None:
        from ..resilience.epochs import ChurnPolicy

        policy = dataclasses.replace(
            ChurnPolicy.default(), max_epochs=args.max_epochs
        )
    return dict(
        churn=spec(
            "churn",
            amnesiac=0.25 if args.amnesiac is None else args.amnesiac,
            flap_rate=args.flap_rate,
        ),
        churn_policy=policy,
    )

"""Gray failures: stalls and link-latency inflation that slow nodes
without killing them (:class:`GrayFailureSchedule`), attached to a plain
run as a fault injector; the :class:`StragglerOracle` grades the
transport's suspicion record against the schedule's ledger."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.faults import (
    FaultInjector,
    _drawn,
    check_fraction,
    flat_injectors,
    ledger_sources,
)
from ..sim.message import Part
from ..sim.monitors import Monitor
from ..sim.specs import JsonFields, SpecReader, config_jsonable
from . import FaultFlag

#: Gray-failure latency profiles.
GRAY_CONSTANT = "constant"
GRAY_RAMP = "ramp"
GRAY_LIMP = "limp"
GRAY_PROFILES = (GRAY_CONSTANT, GRAY_RAMP, GRAY_LIMP)

#: Period, in rounds, of the intermittent ("limpware") profile: the node
#: alternates ``limp_period`` degraded rounds with ``limp_period`` clean
#: ones inside its interval.
LIMP_PERIOD = 2


@dataclass
class GrayCounts:
    """Tally of injected gray-failure delays, for run reports."""

    stalled_copies: int = 0
    inflated_copies: int = 0
    delay_rounds: int = 0


class GrayFailureSchedule(JsonFields, FaultInjector):
    """Gray failures: nodes and links that limp without ever dying.

    The paper's fault model is binary — a node is alive or crashed — but
    real deployments mostly suffer *gray* failures: stragglers, congested
    links, and "limpware" that is slow without being dead.  This injector
    realizes two event classes, both purely *latency* faults (no copy is
    ever lost, reordered or rewritten):

    * **compute stalls** — every delivery *originating* at a stalled node
      while its interval is active is postponed by the profile's delay
      (the node takes extra rounds to produce and push its broadcast);
    * **link inflation** — every delivery crossing a degraded edge (in
      either direction) is postponed likewise.

    Each event carries a ``severity`` — the peak added latency in physical
    rounds — and a deterministic latency ``profile``:

    * ``constant`` — the full ``severity`` for the whole interval;
    * ``ramp`` — degrades linearly from 1 round at interval start up to
      ``severity`` at interval end (a slowly dying disk/NIC);
    * ``limp`` — alternates ``severity`` and 0 in blocks of
      :data:`LIMP_PERIOD` rounds (intermittent "limpware").

    Profiles are pure functions of the broadcast round, so a recorded run
    replays bit-exactly and the schedule doubles as its own **ground-truth
    ledger** (:meth:`degraded_intervals`) for the
    :class:`StragglerOracle` to grade suspicion
    against.  The schedule is oblivious: every event is fixed before the
    protocol flips any coins.
    """

    modifies_delivery = True

    def __init__(self, stalls=None, links=None) -> None:
        super().__init__()

        def check(label, start, end, severity, profile):
            if start < 1 or end < start:
                raise ValueError(
                    f"gray interval for {label} must satisfy "
                    f"1 <= start <= end (got {start}-{end})"
                )
            if severity < 1:
                raise ValueError(
                    f"gray severity for {label} must be >= 1 rounds, "
                    f"got {severity}"
                )
            if profile not in GRAY_PROFILES:
                raise ValueError(
                    f"unknown gray profile {profile!r} for {label} "
                    f"(expected one of {GRAY_PROFILES})"
                )

        #: Per node: list of ``(start, end, severity, profile)`` sorted by
        #: start round; intervals may not overlap.
        self.stalls: Dict[int, List[Tuple[int, int, int, str]]] = {}
        for node, entries in dict(stalls or {}).items():
            normalized = []
            for entry in entries:
                start, end, severity, profile = (
                    tuple(entry) + (1, GRAY_CONSTANT)
                )[:4]
                check(f"node {node}", start, end, severity, profile)
                normalized.append((start, end, int(severity), profile))
            normalized.sort()
            for (s1, e1, _v1, _p1), (s2, _e2, _v2, _p2) in zip(
                normalized, normalized[1:]
            ):
                if s2 <= e1:
                    raise ValueError(
                        f"node {node} has overlapping stall intervals "
                        f"({s1}-{e1} and starting {s2})"
                    )
            if normalized:
                self.stalls[node] = normalized
        #: Link events as ``(u, v, start, end, severity, profile)`` —
        #: undirected: deliveries in both directions are inflated.
        self.links: List[Tuple[int, int, int, int, int, str]] = []
        for entry in links or ():
            u, v, start, end, severity, profile = (
                tuple(entry) + (1, GRAY_CONSTANT)
            )[:6]
            if u == v:
                raise ValueError(f"cannot degrade self-loop edge {u}-{v}")
            check(f"edge {u}-{v}", start, end, severity, profile)
            self.links.append((u, v, start, end, int(severity), profile))
        self.links.sort()
        self.counts = GrayCounts()

    JSON_FIELDS = ("stalls", "links")

    #: The accepted ``from_spec`` grammar, quoted in every rejection.
    SPEC_GRAMMAR = (
        "comma-separated events: '<node>:stall@r<R1>-r<R2>:x<S>"
        "[:constant|:ramp|:limp]' and 'link:<u>-<v>@r<R1>-r<R2>:x<S>"
        "[:profile]' with rounds >= 1 and severity x<S> >= 1 added "
        "rounds of latency (e.g. '5:stall@r3-r9:x2:ramp,"
        "link:1-2@r2-r8:x1')"
    )

    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "GrayFailureSchedule":
        """Build from a CLI spec like
        ``5:stall@r3-r9:x2:ramp,link:1-2@r2-r8:x1``.

        Unknown event kinds, malformed rounds or severities, and unknown
        profiles all raise ``ValueError`` naming the offending token and
        :data:`SPEC_GRAMMAR`.
        """

        reader = SpecReader("gray", cls.SPEC_GRAMMAR, spec)

        def parse_tail(pieces) -> Tuple[int, str]:
            if not pieces:
                raise reader.reject("needs a severity :x<S>")
            sev_raw = pieces[0].strip()
            if not sev_raw.startswith("x"):
                raise reader.reject(f"severity {sev_raw!r} needs the form x<S>")
            severity = reader.at_least_one(sev_raw[1:], "severity")
            profile = pieces[1].strip() if len(pieces) > 1 else GRAY_CONSTANT
            if profile not in GRAY_PROFILES:
                raise reader.reject(f"unknown gray profile {profile!r}")
            if len(pieces) > 2:
                raise reader.reject("too many ':' fields")
            return severity, profile

        stalls: Dict[int, List[Tuple[int, int, int, str]]] = {}
        links: List[Tuple[int, int, int, int, int, str]] = []
        for item in reader:
            if item.startswith("link:"):
                pieces = item[len("link:"):].split(":")
                edge, at, window = pieces[0].partition("@")
                if not at:
                    raise reader.reject("needs link:<u>-<v>@r<R1>-r<R2>:x<S>")
                links.append(
                    reader.edge(edge)
                    + reader.window(window, "gray")
                    + parse_tail(pieces[1:])
                )
                continue
            pieces = item.split(":")
            if len(pieces) < 2:
                raise reader.reject("needs <node>:stall@r<R1>-r<R2>:x<S>")
            node = reader.integer(pieces[0], "node")
            action, at, window = pieces[1].partition("@")
            if action.strip() != "stall":
                raise reader.reject(f"unknown gray event {action.strip()!r}")
            if not at:
                raise reader.reject("event needs @r<R1>-r<R2>")
            stalls.setdefault(node, []).append(
                reader.window(window, "gray") + parse_tail(pieces[2:])
            )
        return cls(stalls=stalls, links=links, **kwargs)

    # -------------------------------------------------------------- #
    # Ledger introspection (the StragglerOracle's ground truth).
    # -------------------------------------------------------------- #

    @property
    def has_events(self) -> bool:
        return bool(self.stalls or self.links)

    def degraded_intervals(self) -> List[Tuple[str, Tuple, int, int, int, str]]:
        """All degraded intervals as
        ``(kind, subject, start, end, severity, profile)`` — kind
        ``"stall"`` with a node subject or ``"link"`` with an edge pair —
        sorted by start round."""
        out: List[Tuple[str, Tuple, int, int, int, str]] = []
        for node, entries in sorted(self.stalls.items()):
            for start, end, severity, profile in entries:
                out.append(("stall", (node,), start, end, severity, profile))
        for u, v, start, end, severity, profile in self.links:
            out.append(("link", (u, v), start, end, severity, profile))
        out.sort(key=lambda e: (e[2], e[0], e[1]))
        return out

    def delays(
        self, sender: int, receiver: int, sent_round: int
    ) -> Tuple[int, int]:
        """Added latency, in rounds, for a copy broadcast in ``sent_round``,
        as ``(stall, inflation)``: the sender's stalls and the link's.

        The two compound (their delays add).  Profiles are evaluated at the
        broadcast round: a pure function of the three arguments.
        """
        stall = 0
        for start, end, severity, profile in self.stalls.get(sender, ()):
            if start <= sent_round <= end:
                stall += _profile_delay(
                    profile, severity, sent_round, start, end
                )
        inflation = 0
        edge = frozenset((sender, receiver))
        for u, v, start, end, severity, profile in self.links:
            if frozenset((u, v)) == edge and start <= sent_round <= end:
                inflation += _profile_delay(
                    profile, severity, sent_round, start, end
                )
        return stall, inflation

    def max_severity(self) -> int:
        """The worst peak latency across all events (0 when empty)."""
        return max((e[4] for e in self.degraded_intervals()), default=0)

    def validate(self, topology) -> None:
        """Reject events naming unknown nodes or nonexistent edges."""
        SpecReader.check_topology(
            topology, "gray", self.stalls, self.links, "degrades"
        )

    # -------------------------------------------------------------- #
    # Injector hooks.
    # -------------------------------------------------------------- #

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Postpone one delivery copy by the active events' added latency."""
        stall, inflation = self.delays(sender, receiver, due - 1)
        if not stall and not inflation:
            return [(due, part)]
        if stall:
            self.counts.stalled_copies += 1
        if inflation:
            self.counts.inflated_copies += 1
        self.counts.delay_rounds += stall + inflation
        return [(due + stall + inflation, part)]

    def __repr__(self) -> str:
        return (
            f"GrayFailureSchedule(stalls={len(self.stalls)} node(s), "
            f"links={len(self.links)} edge(s), "
            f"max_severity={self.max_severity()})"
        )


def _profile_delay(
    profile: str, severity: int, rnd: int, start: int, end: int
) -> int:
    """The profile's added latency at round ``rnd`` of ``[start, end]``."""
    if profile == GRAY_RAMP:
        span = max(1, end - start)
        return 1 + (severity - 1) * (rnd - start) // span
    if profile == GRAY_LIMP:
        return severity if ((rnd - start) // LIMP_PERIOD) % 2 == 0 else 0
    return severity


def random_gray(
    topology,
    rate: float,
    rng: random.Random,
    horizon: int,
    max_severity: int = 2,
    root: Optional[int] = None,
) -> GrayFailureSchedule:
    """Sample a bounded gray-failure schedule at a per-node stall ``rate``.

    Each non-root node independently stalls with probability ``rate``:
    the interval starts uniformly in ``[2, horizon]``, lasts
    1..``max(1, horizon // 2)`` rounds, with severity 1..``max_severity``
    added rounds and a uniformly drawn profile.  Each edge independently
    degrades with probability ``rate / 2``.
    The draw order is fixed (sorted nodes, then sorted edges) so schedules
    are reproducible per RNG state.  The root is never stalled (its
    compute path is the certification authority), though its incident
    links may degrade.
    """
    check_fraction("gray rate", rate)
    if max_severity < 1:
        raise ValueError(f"max_severity must be >= 1, got {max_severity}")
    horizon = max(2, horizon)

    def event() -> Tuple[int, int, int, str]:
        start = rng.randint(2, horizon)
        length = rng.randint(1, max(1, horizon // 2))
        severity = rng.randint(1, max_severity)
        profile = GRAY_PROFILES[rng.randrange(len(GRAY_PROFILES))]
        return start, start + length - 1, severity, profile

    nodes = _drawn(topology.nodes(), rate, rng, skip=root)
    stalls = {node: [event()] for node in nodes}
    links = []
    if rate:
        edges = (tuple(sorted(e)) for e in topology.edges())
        links = [edge + event() for edge in _drawn(edges, rate / 2, rng)]
    return GrayFailureSchedule(stalls=stalls, links=links)


class StragglerOracle(Monitor):
    """Gray-failure detection quality, graded against the fault ledger.

    The :class:`GrayFailureSchedule` knows exactly which
    nodes/links were degraded and when; the transport's φ-accrual
    detector only sees frame inter-arrival times.  This oracle compares
    the two and reports under two rules:

    * ``false-suspect`` — an observer *confirmed* suspicion of a peer
      that was alive at that round.  Gray-degraded nodes are slow, not
      dead; evicting one turns a latency wobble into a lost contribution,
      which is precisely the failure mode graded detection must prevent.
    * ``unbounded-stall`` — a ledger interval severe enough to stretch
      delivery past the transport's window cap (``severity >= the
      detection bound``) and long enough that suspicion *must* have
      accrued (at least three windows), yet no observer ever raised even
      ``suspect`` on the affected node.  Silent unbounded stretch is the
      gray failure the paper's binary fault model cannot see.

    False suspicions are graded at each network's ``end_run`` (liveness
    is only known there); missed degradations are graded once, by the
    runner, after the whole run via :meth:`grade_row` — mid-run the
    detector may simply not have accrued yet.
    """

    rule = "straggler"

    def __init__(
        self,
        gray,
        transport=None,
        mode: str = "strict",
    ) -> None:
        super().__init__(mode)
        self.gray = gray
        self.transport = transport
        self.false_suspects = 0
        self.missed_degradations = 0
        self._false_reported: set = set()
        self._missed_reported: set = set()

    def _detector(self):
        return getattr(self.transport, "detector", None)

    def end_run(self, rnd: int) -> None:
        detector = self._detector()
        if detector is None:
            return
        network = self.network
        for e in detector.events:
            if e.level != "confirm":
                continue
            key = (e.observer, e.peer)
            if key in self._false_reported:
                continue
            if network.is_alive(e.peer, e.round):
                self._false_reported.add(key)
                self.false_suspects += 1
                self.report_as(
                    "false-suspect",
                    f"node {e.observer} confirmed suspicion of node "
                    f"{e.peer} (phi={e.phi:.1f}) although it was alive: "
                    "a straggler was evicted",
                    e.round,
                )

    def grade_row(self, extra) -> None:
        """Grade missed degradations once the whole run is over, and add
        both counts to the run's row columns ``extra``."""
        self.grade_final()
        extra["false_suspects"] = self.false_suspects
        extra["missed_degradations"] = self.missed_degradations

    def grade_final(self) -> None:
        """Grade missed degradations against the complete suspicion
        record."""
        detector = self._detector()
        if detector is None or self.gray is None:
            return
        # The window is what windowing can absorb: severity at or above it
        # stretches delivery, and an undetected interval is then a miss.
        limit = self.transport.config.window
        suspected = {e.peer for e in detector.events}
        for kind, subject, start, end, severity, profile in (
            self.gray.degraded_intervals()
        ):
            if severity < limit or (end - start + 1) < 3 * limit:
                continue
            node = subject[0]
            key = (kind, subject, start, end)
            if node in suspected or key in self._missed_reported:
                continue
            self._missed_reported.add(key)
            self.missed_degradations += 1
            where = (
                f"node {node}"
                if kind == "stall"
                else f"link {subject[0]}-{subject[1]}"
            )
            self.report_as(
                "unbounded-stall",
                f"{profile} {kind} on {where} over rounds {start}-{end} "
                f"stretched delivery by {severity} rounds (detection "
                f"bound {limit}) but no observer ever suspected node "
                f"{node}",
            )


CODECS = {"gray": (GrayFailureSchedule.from_jsonable, config_jsonable)}


def parse(spec: str, root: Optional[int]) -> GrayFailureSchedule:
    """The schedule of a ``--gray`` spec string."""
    return GrayFailureSchedule.from_spec(spec)


draw = random_gray


def share(cfg) -> None:
    """A gray run's transport becomes one coordinator, so the straggler
    oracle watches the detector the run uses."""
    if cfg.get("transport") is not None:
        from ..resilience.transport import as_transport

        cfg["transport"] = as_transport(cfg["transport"])


def oracles(cfg, inputs, *, caaf, mode: str) -> list:
    """The straggler oracle, watching the run's transport (which also
    hands the standard stack its retransmit-budget watchdog)."""
    return [
        StragglerOracle(cfg["gray"], transport=cfg.get("transport"), mode=mode)
    ]


def attach(cfg, injectors):
    """Attach the gray schedule as a fault injector.

    A replay's ReplayInjector re-applies the recorded delivery shifts
    itself; attaching the schedule again would double the delays.
    Otherwise the schedule rides *inside* a recording wrapper when one is
    present, so its due-shifts land in the bundle and replays reproduce
    them byte-for-byte.
    """
    gray = cfg["gray"]
    if not gray.has_events:
        return injectors
    from ..sim.recorder import RecordingInjector
    from ..sim.replay import ReplayInjector

    if ledger_sources(injectors, "degraded_intervals") or any(
        isinstance(i, ReplayInjector) for i in flat_injectors(injectors)
    ):
        return injectors
    recorder = next(
        (i for i in injectors if isinstance(i, RecordingInjector)), None
    )
    if recorder is None:
        return tuple(injectors) + (gray,)
    recorder.inner.append(gray)
    return injectors


def columns(cfg) -> dict:
    """A plain run's injected-delay columns."""
    counts = cfg["gray"].counts
    return {
        "gray_stalled": counts.stalled_copies,
        "gray_inflated": counts.inflated_copies,
        "gray_delay_rounds": counts.delay_rounds,
    } if cfg["gray"].has_events else {}


FLAGS = (
    FaultFlag("--gray", dict(
        help="gray-failure schedule: an explicit spec "
        "('3:stall@r5-r12:x2:ramp,link:1-2@r4-r9:x3') or "
        "'rate:<float>' for seeded random degradations; nodes limp "
        "and links inflate but nothing crashes",
    ), "gray"),
)

VERDICTS = (
    # Gray failures must stretch the run, never shrink its coverage: the
    # detector confirmed (and the transport evicted) a merely slow node,
    # or never suspected a degradation well past its tolerance window.
    ("false_suspects", "FALSE-SUSPECT"),
    ("missed_degradations", "UNBOUNDED-STALL"),
)

CHAOS_COLUMNS = (
    ("stalled", lambda x: x.get("gray_stalled", 0)),
    ("suspects", lambda x: x.get("suspects", 0)),
)


def cli_config(args, spec) -> dict:
    """``--gray``."""
    return dict(gray=spec("gray"))

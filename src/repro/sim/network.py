"""The synchronous local-broadcast network simulator.

This is the paper's model, realized exactly (Section 2):

* Protocols proceed in rounds.  In each round a node first receives all
  messages its neighbours broadcast in the previous round, computes, and may
  broadcast a single (combined) message received by all neighbours next
  round.
* All nodes except the root may crash.  A node crashed at round ``r``
  neither computes nor sends in rounds ``>= r``; its round-``r - 1``
  broadcast is still delivered.  The adversary is oblivious: the crash
  schedule is fixed before execution.
* Per-node bits are accounted in :class:`repro.sim.stats.SimStats`; the max
  over nodes is the paper's communication complexity for the execution.

On top of the exact model the network takes one list of **fault
injectors** (:mod:`repro.sim.faults`): middleware on the delivery path
that can crash nodes online and drop / duplicate / delay / reorder
in-flight messages, for probing behaviour *outside* the paper's oblivious
crash model.  The oblivious crash schedule itself is realized as the
:class:`repro.sim.faults.ScheduledCrashes` injector.  Observers
(:mod:`repro.sim.trace`: the ``Tracer``, obs ``send`` events) and the
runtime invariant monitors (:mod:`repro.sim.monitors`, checked at every
round's end and once at the end of :meth:`Network.run`) are injectors
too; nothing else sees a run's events.  Each observer hook goes only to
the injectors whose class defines it, in list order.

When no injector modifies deliveries the original exact delivery path is
used, so in-model executions are bit- and order-identical to the
middleware-free simulator.  That path delivers each broadcast once, as the
model's local broadcast reads: one :class:`~repro.sim.message.Envelope`
holding all of the broadcast's parts, shared by every live neighbour (each
receiver still gets its own inbox list), with each receiver's liveness
checked once per round.  The fault-injection path delivers one single-part
envelope per copy, since injectors drop, duplicate, delay and reorder
copies one part at a time.  It files each scheduled copy in the bucket of
its due round, so a round hands over only the copies due in it, in the
order they were scheduled, and reads liveness once per receiver and once
per sender per round.  Injectors hold a non-owning reference back to
the network, so a finished run is freed by reference counting alone.
The network also owns its run's flood content index
(:class:`repro.sim.flooding.ContentIndex`), current around each round's
handler calls, so every flood manager first used in its rounds shares
it, envelope masks are built once per broadcast, and the index goes with
the network.

**Event-driven rounds.**  A round runs only the nodes with mail or a due
wake (:meth:`repro.sim.node.NodeHandler.next_wake`, kept in per-round wake
buckets), in adjacency order, so broadcasts, deliveries, injector hooks and
recorder digests are the same as with every node running every round.
Handlers keeping the default wake (``rnd + 1``) run every round they are
alive.  :meth:`Network.schedule_downtime` wakes the node at its revival
round, so a wake that falls in an outage runs at the node's first live
round after it; a permanently crashed node never runs again.  The stop
check of :meth:`Network.run` asks every handler after the first round and
then only the handlers that ran since the last check.

**Idle rounds are jumped.**  After round 1, when nothing is in flight and
no injector subscribes to ``begin_round`` or ``end_round``,
:meth:`Network.run` moves the clock straight to the earliest round that
can do anything: the next wake bucket, the next scheduled delivery, the
root's next crash or downtime start (where the run stops, as before), or
the last round of the run (so ``SimStats.rounds_executed`` ends where it
would have).  A jumped round would run no node and deliver nothing, so
broadcasts, deliveries and statistics are unchanged.  Round observers —
the recorder, replay, tracers, the adaptive adversary, the churn
schedule and the monitors that check every round — keep the every-round
loop, so what they see is unchanged too.

**A run stops between rounds.**  A wall-clock limit
(:func:`repro.analysis.runner.wall_clock_limit`) sets :data:`DEADLINE`;
:meth:`Network.run` checks it before each round and raises
:class:`RunTimeout` once it has passed, so a round is never cut in half
and a run overshoots its limit by at most one round.
"""

from __future__ import annotations

from contextvars import ContextVar
from time import monotonic
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs import spans as _spans
from .flooding import RUN_INDEX, ContentIndex
from .message import Envelope, Part
from .node import NodeHandler
from .stats import SimStats

#: Crash round assigned to nodes that never fail.
NEVER = float("inf")

#: The one sentence every root-crash rejection uses, regardless of which
#: layer catches it (schedule validation, the ScheduledCrashes injector,
#: or an online ``schedule_crash`` call).
ROOT_CRASH_ERROR = "the root node may not fail (Section 2)"


class RunTimeout(Exception):
    """A protocol run exceeded its wall-clock limit."""


#: The current run's wall-clock limit, ``(monotonic deadline, seconds)``,
#: or None; :meth:`Network.run` checks it before each round.
DEADLINE: ContextVar[Optional[Tuple[float, float]]] = ContextVar(
    "DEADLINE", default=None
)


class Network:
    """Synchronous round executor over an undirected topology.

    Args:
        adjacency: Mapping from node id to its neighbours.  Must describe an
            undirected graph (``v in adjacency[u]`` iff ``u in adjacency[v]``,
            no self-loops, every neighbour a known node) — violations raise
            ``ValueError``.
        handlers: One :class:`NodeHandler` per node id.
        crash_rounds: Optional mapping from node id to the first round in
            which the node is dead.  Missing nodes never crash.  Internally
            realized as a :class:`repro.sim.faults.ScheduledCrashes`
            injector prepended to ``injectors``.
        injectors: Optional sequence of
            :class:`repro.sim.faults.FaultInjector` middleware on the
            crash/delivery path, observers and monitors, in hook order.
        root: Optional id of the designated root node.  When given, every
            path that can kill a node — the ``crash_rounds`` schedule, a
            :class:`repro.sim.faults.ScheduledCrashes` injector, and
            online :meth:`schedule_crash` calls — rejects the root with
            ``ValueError(ROOT_CRASH_ERROR)``.
        allow_root_crash: Opt out of the Section-2 root protection (used by
            the :mod:`repro.resilience` failover layer, which survives root
            crashes by electing a replacement).  The in-model strict
            rejection stays the default.
        overhead_fn: Optional ``Part -> int`` classifier; for each broadcast
            part it returns how many of the part's bits are recovery-layer
            overhead.  Overhead is booked separately in
            :attr:`SimStats.overhead_bits` so :attr:`SimStats.max_bits`
            keeps meaning the protocol CC.
    """

    def __init__(
        self,
        adjacency: Mapping[int, Sequence[int]],
        handlers: Mapping[int, NodeHandler],
        crash_rounds: Optional[Mapping[int, int]] = None,
        injectors: Sequence = (),
        root: Optional[int] = None,
        allow_root_crash: bool = False,
        overhead_fn=None,
    ) -> None:
        self.adjacency: Dict[int, tuple] = {
            u: tuple(vs) for u, vs in adjacency.items()
        }
        self._check_adjacency()
        if root is not None and root not in self.adjacency:
            raise ValueError(f"root {root} is not a node of the graph")
        #: Protected root node id (None: no node is protected).
        self.root = root
        #: When True the root may crash (resilience/failover mode); the
        #: Section-2 rejection is skipped everywhere it consults this flag.
        self.allow_root_crash = allow_root_crash
        #: Optional ``Part -> int`` recovery-overhead classifier.
        self.overhead_fn = overhead_fn
        missing = set(self.adjacency) - set(handlers)
        if missing:
            raise ValueError(f"no handler for nodes: {sorted(missing)}")
        self.handlers: Dict[int, NodeHandler] = dict(handlers)
        #: Wake buckets: round -> nodes due to run in it.
        self._wakes: Dict[int, set] = {}
        self._order = {u: i for i, u in enumerate(self.adjacency)}
        # Nodes to ask at the next stop check: every handler at first,
        # then those run since the last check.
        self._unchecked = set(self.handlers)
        self.stats = SimStats()
        self.round = 0
        #: Flood contents of this run, numbered for the handlers' seen
        #: masks (:mod:`repro.sim.flooding`); freed with the network.
        self.contents = ContentIndex()
        # Broadcasts made in the current round, delivered next round
        # (exact-model fast path).
        self._in_flight: List[tuple] = []
        # Scheduled deliveries (fault-injection path; supports delays and
        # duplicates): due round -> ``(sender, receiver, part)`` copies in
        # scheduling order.
        self._due: Dict[int, List[tuple]] = {}

        #: First dead round per node; mutated online by injectors via
        #: :meth:`schedule_crash`.
        self.crash_rounds: Dict[int, float] = {}
        #: Bounded outages per node: half-open ``[start, end)`` round
        #: intervals during which the node neither computes nor sends
        #: (crash-recovery churn; see :class:`repro.families.churn.ChurnSchedule`).
        self.down_intervals: Dict[int, List[tuple]] = {}
        #: Link flap intervals keyed by normalized edge ``(min, max)``:
        #: closed ``[start, end]`` delivery-round windows during which the
        #: link carries nothing in either direction.
        self.link_flaps: Dict[tuple, List[tuple]] = {}
        #: Current incarnation per node (0 = original process; bumped by
        #: the churn injector each time the node revives).
        self.incarnations: Dict[int, int] = {}
        from .faults import FaultInjector, ScheduledCrashes

        self.injectors: List = list(injectors)
        if crash_rounds:
            self.injectors.insert(0, ScheduledCrashes(crash_rounds))
        if _spans.messages:
            from .trace import SendEvents

            self.injectors.insert(0, SendEvents())
        for injector in self.injectors:
            injector.attach(self)
        # Delivery-modifying injectors force the scheduled-delivery path;
        # crash-only injectors keep the exact-model fast path.
        self._delivery_injectors = tuple(
            i for i in self.injectors if getattr(i, "modifies_delivery", False)
        )

        # Each observer hook goes only to the injectors whose class
        # overrides the base no-op.
        def subscribers(hook: str) -> tuple:
            noop = getattr(FaultInjector, hook)
            return tuple(
                i for i in self.injectors if getattr(type(i), hook) is not noop
            )

        self._begin_round = subscribers("begin_round")
        self._on_broadcast = subscribers("on_broadcast")
        self._on_deliver = subscribers("on_deliver")
        self._end_round = subscribers("end_round")
        self._end_run = subscribers("end_run")

    # ------------------------------------------------------------------ #
    # Construction-time validation.
    # ------------------------------------------------------------------ #

    def _check_adjacency(self) -> None:
        nodes = set(self.adjacency)
        for u, neighbours in self.adjacency.items():
            for v in neighbours:
                if v == u:
                    raise ValueError(f"self-loop at node {u}")
                if v not in nodes:
                    raise ValueError(
                        f"node {u} lists unknown neighbour {v}"
                    )
                if u not in self.adjacency[v]:
                    raise ValueError(
                        f"adjacency is not symmetric: {u} lists {v} "
                        f"but {v} does not list {u}"
                    )

    # ------------------------------------------------------------------ #
    # Liveness.
    # ------------------------------------------------------------------ #

    def is_alive(self, node: int, rnd: Optional[int] = None) -> bool:
        """Whether ``node`` is alive in round ``rnd`` (default: current)."""
        if rnd is None:
            rnd = self.round
        if rnd >= self.crash_rounds.get(node, NEVER):
            return False
        for start, end in self.down_intervals.get(node, ()):
            if start <= rnd < end:
                return False
        return True

    def alive_nodes(self, rnd: Optional[int] = None) -> List[int]:
        """All nodes alive in round ``rnd`` (default: current)."""
        return [u for u in self.adjacency if self.is_alive(u, rnd)]

    def schedule_crash(self, node: int, rnd: int) -> None:
        """Mark ``node`` dead from round ``rnd`` on (injector API).

        Keeps the earliest crash round if the node is already scheduled.
        Adaptive injectors call this during execution; crashing a node in
        the current or a past round is rejected because the node has
        already acted this round (crashes take effect from the *next*
        round at the earliest).
        """
        if node not in self.adjacency:
            raise ValueError(f"cannot crash unknown node {node}")
        if self.root is not None and node == self.root and not self.allow_root_crash:
            raise ValueError(ROOT_CRASH_ERROR)
        if rnd <= self.round:
            raise ValueError(
                f"cannot crash node {node} at round {rnd}: "
                f"round {self.round} already executed"
            )
        current = self.crash_rounds.get(node, NEVER)
        self.crash_rounds[node] = min(current, rnd)

    def schedule_downtime(self, node: int, start: int, end: float) -> None:
        """Mark ``node`` down for rounds ``start <= r < end`` (churn API).

        Unlike :meth:`schedule_crash` the outage is bounded: the node
        resumes computing and broadcasting in round ``end``.  The root is
        protected exactly as for permanent crashes — even a temporary root
        outage is outside Section 2 unless ``allow_root_crash`` is set.
        """
        if node not in self.adjacency:
            raise ValueError(f"cannot take down unknown node {node}")
        if (
            self.root is not None
            and node == self.root
            and not self.allow_root_crash
        ):
            raise ValueError(ROOT_CRASH_ERROR)
        if end <= start:
            raise ValueError(
                f"downtime for node {node} must end after it starts "
                f"(got [{start}, {end}))"
            )
        intervals = self.down_intervals.setdefault(node, [])
        intervals.append((start, end))
        intervals.sort()
        if end != NEVER:
            self._wake(node, int(end))

    def schedule_link_flap(self, u: int, v: int, start: int, end: int) -> None:
        """Suppress all deliveries over edge ``{u, v}`` due in rounds
        ``start..end`` inclusive (churn API)."""
        if u not in self.adjacency or v not in self.adjacency[u]:
            raise ValueError(f"cannot flap nonexistent edge {u}-{v}")
        if end < start:
            raise ValueError(
                f"flap window for edge {u}-{v} is empty ({start}-{end})"
            )
        key = (u, v) if u < v else (v, u)
        windows = self.link_flaps.setdefault(key, [])
        windows.append((start, end))
        windows.sort()

    def link_up(self, u: int, v: int, rnd: int) -> bool:
        """Whether edge ``{u, v}`` carries deliveries due in round ``rnd``."""
        key = (u, v) if u < v else (v, u)
        for start, end in self.link_flaps.get(key, ()):
            if start <= rnd <= end:
                return False
        return True

    def bump_incarnation(self, node: int) -> int:
        """Record a revival of ``node``; returns its new incarnation."""
        inc = self.incarnations.get(node, 0) + 1
        self.incarnations[node] = inc
        return inc

    # ------------------------------------------------------------------ #
    # Round execution.
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Execute one round: deliver, then run the nodes with mail or a
        due wake in adjacency order; each broadcasts for next round."""
        self.round += 1
        rnd = self.round
        for injector in self._begin_round:
            injector.begin_round(rnd)

        if self._delivery_injectors:
            inboxes = self._deliver_scheduled(rnd)
        else:
            inboxes = self._deliver_exact(rnd)

        # Flood managers first used in this round bind to this run's index.
        # Restored by value inside the try: an exception raised as the set
        # returns would skip a token reset and leave it bound.
        previous = RUN_INDEX.get()
        try:
            RUN_INDEX.set(self.contents)
            self._run_nodes(rnd, inboxes)
        finally:
            RUN_INDEX.set(previous)
        self.stats.rounds_executed = rnd
        for injector in self._end_round:
            injector.end_round(rnd)

    def _run_nodes(self, rnd: int, inboxes: Dict[int, List[Envelope]]) -> None:
        """Run the nodes with mail or a due wake, in adjacency order."""
        wakes = self._wakes
        if rnd == 1:
            for node in self.adjacency:
                wake = self.handlers[node].next_wake(0)
                if wake is not None:
                    wakes.setdefault(max(wake, 1), set()).add(node)
        active = wakes.pop(rnd, set()).union(inboxes)
        unchecked = self._unchecked
        crashes, churn = self.crash_rounds, self.down_intervals
        handlers, soonest = self.handlers, rnd + 1
        for node in sorted(active, key=self._order.__getitem__):
            # A down node's wake is not lost: its first live round after
            # an outage is the end of one, where schedule_downtime woke it.
            if rnd >= crashes.get(node, NEVER) or (
                churn and not self.is_alive(node, rnd)
            ):
                continue
            handler = handlers[node]
            out = handler.on_round(rnd, inboxes.get(node, ()))
            # An empty list or tuple is silent; any other iterable is
            # materialised to find out.
            if out:
                parts = tuple(out)
                if parts:
                    self._broadcast(rnd, node, parts)
            unchecked.add(node)
            # File the next wake as _wake does, inline.
            wake = handler.next_wake(rnd)
            if wake is not None:
                if wake < soonest:
                    wake = soonest
                bucket = wakes.get(wake)
                if bucket is None:
                    bucket = wakes[wake] = set()
                bucket.add(node)

    def _wake(self, node: int, wake: Optional[int]) -> None:
        """Put ``node`` in the bucket of round ``wake`` (None: no wake)."""
        if wake is not None:
            self._wakes.setdefault(max(wake, self.round + 1), set()).add(node)

    def _broadcast(self, rnd: int, node: int, parts: tuple) -> None:
        """Book one node's broadcast and put it on the delivery path."""
        bits = 0
        for part in parts:
            bits += part.bits
        overhead = (
            sum(self.overhead_fn(p) for p in parts)
            if self.overhead_fn is not None
            else 0
        )
        self.stats.record_broadcast(node, len(parts), bits, overhead)
        for injector in self._on_broadcast:
            injector.on_broadcast(rnd, node, parts, bits)
        if self._delivery_injectors:
            self._transmit(rnd, node, parts)
        else:
            self._in_flight.append((node, parts))

    def _deliver_exact(self, rnd: int) -> Dict[int, List[Envelope]]:
        """Exact-model delivery: last round's broadcasts reach all live
        neighbours, in broadcast order.

        Each broadcast is one envelope, shared by every receiver (each
        still gets its own inbox list), and each receiver's liveness is
        checked once per round (:meth:`is_alive` only under churn).
        """
        inboxes: Dict[int, List[Envelope]] = {}
        alive: Dict[int, bool] = {}
        observers = self._on_deliver
        flaps = self.link_flaps
        crashes, churn = self.crash_rounds, self.down_intervals
        in_flight, self._in_flight = self._in_flight, []
        if not (flaps or churn or observers):
            # The model itself: no link flaps, no churn, no observers.
            adjacency = self.adjacency
            for sender, parts in in_flight:
                envelope = Envelope(sender, parts)
                for neighbour in adjacency[sender]:
                    live = alive.get(neighbour)
                    if live is None:
                        live = alive[neighbour] = rnd < crashes.get(
                            neighbour, NEVER
                        )
                    if live:
                        box = inboxes.get(neighbour)
                        if box is None:
                            box = inboxes[neighbour] = []
                        box.append(envelope)
            return inboxes
        for sender, parts in in_flight:
            envelope = Envelope(sender, parts)
            for neighbour in self.adjacency[sender]:
                if flaps and not self.link_up(sender, neighbour, rnd):
                    continue
                live = alive.get(neighbour)
                if live is None:
                    live = alive[neighbour] = (
                        rnd < crashes.get(neighbour, NEVER)
                        and (not churn or self.is_alive(neighbour, rnd))
                    )
                if live:
                    inboxes.setdefault(neighbour, []).append(envelope)
                    for observer in observers:
                        for p in parts:
                            observer.on_deliver(rnd, sender, neighbour, p)
        return inboxes

    def _transmit(self, rnd: int, sender: int, parts: Sequence[Part]) -> None:
        """Schedule a broadcast's per-link deliveries through the injectors.

        Each (neighbour, part) copy nominally arrives at ``rnd + 1``; every
        delivery-modifying injector may drop it, duplicate it, or move its
        due round.  A copy due no later than this round arrives next round.
        """
        soonest = rnd + 1
        buckets = self._due
        first, *rest = self._delivery_injectors
        for neighbour in self.adjacency[sender]:
            for part in parts:
                deliveries = first.on_transmit(soonest, sender, neighbour, part)
                for injector in rest:
                    rewritten: List[tuple] = []
                    for due, p in deliveries:
                        rewritten.extend(
                            injector.on_transmit(due, sender, neighbour, p)
                        )
                    deliveries = rewritten
                for due, p in deliveries:
                    if due < soonest:
                        due = soonest
                    bucket = buckets.get(due)
                    if bucket is None:
                        bucket = buckets[due] = []
                    bucket.append((sender, neighbour, p))

    def _deliver_scheduled(self, rnd: int) -> Dict[int, List[Envelope]]:
        """Fault-injection delivery: hand over every copy due this round,
        in scheduling order, one single-part envelope per copy, then let
        injectors reorder each inbox.

        Liveness is read inline from the crash map (:meth:`is_alive` only
        under churn), once per receiver and once per sender per round.
        """
        inboxes: Dict[int, List[Envelope]] = {}
        copies = self._due.pop(rnd, None)
        if not copies:
            return inboxes
        alive: Dict[int, bool] = {}
        sender_alive: Dict[int, bool] = {}
        observers = self._on_deliver
        flaps = self.link_flaps
        crashes, churn = self.crash_rounds, self.down_intervals
        for sender, receiver, part in copies:
            live = alive.get(receiver)
            if live is None:
                live = alive[receiver] = rnd < crashes.get(
                    receiver, NEVER
                ) and (not churn or self.is_alive(receiver, rnd))
            if not live:
                continue
            # A delivery at round ``rnd`` requires a broadcast at round
            # ``rnd - 1`` in the model; a sender dead by then cannot have
            # made it.  This drops delayed/duplicated ghost copies landing
            # after the sender's crash round (delivery exactly *at* the
            # crash round stays, matching the model's "the round r-1
            # broadcast is still delivered").
            sent = sender_alive.get(sender)
            if sent is None:
                sent = sender_alive[sender] = rnd - 1 < crashes.get(
                    sender, NEVER
                ) and (not churn or self.is_alive(sender, rnd - 1))
            if not sent:
                continue
            # A flapped link carries nothing in either direction while its
            # window is open; copies delayed *into* the window are lost too.
            if flaps and not self.link_up(sender, receiver, rnd):
                continue
            box = inboxes.get(receiver)
            if box is None:
                box = inboxes[receiver] = []
            box.append(Envelope(sender, (part,)))
            for observer in observers:
                observer.on_deliver(rnd, sender, receiver, part)
        for receiver, box in inboxes.items():
            for injector in self._delivery_injectors:
                box = injector.arrange_inbox(rnd, receiver, box)
            inboxes[receiver] = box
        return inboxes

    def next_delivery_round(self) -> Optional[int]:
        """The earliest due round of a scheduled copy (None: none)."""
        return min(self._due, default=None)

    def _next_event(self, end: int) -> int:
        """The first round after the current one that can do anything:
        the next wake bucket, the next scheduled delivery, or the first
        round the root is dead (``Network.run`` stops there), capped at
        ``end``.  Only valid with nothing in flight."""
        soonest = self.round + 1
        nxt = end
        if self._wakes:
            nxt = min(nxt, min(self._wakes))
        due = self.next_delivery_round()
        if due is not None and due < nxt:
            nxt = due
        root = self.root
        if root is not None:
            crash = self.crash_rounds.get(root, NEVER)
            if crash < nxt:
                nxt = int(crash)
            for start, stop in self.down_intervals.get(root, ()):
                if start < nxt and stop > soonest:
                    nxt = start
        return max(nxt, soonest)

    def stop_requested(self) -> bool:
        """Whether a handler reports :meth:`NodeHandler.wants_to_stop`.

        The first call asks every handler; later calls ask only the
        handlers that ran since the previous call (a handler's answer only
        changes inside ``on_round``).
        """
        nodes, self._unchecked = self._unchecked, set()
        handlers = self.handlers
        return any(handlers[u].wants_to_stop() for u in nodes)

    def run(self, max_rounds: int, stop_on_output: bool = True) -> SimStats:
        """Run up to ``max_rounds`` rounds.

        ``max_rounds`` must be non-negative (0 executes nothing and returns
        the untouched stats).  Stops early once any handler's
        :meth:`NodeHandler.wants_to_stop` returns True (the root
        terminating with its output), unless ``stop_on_output`` is False.
        Also stops once the designated root is dead — impossible in the
        strict model, but under ``allow_root_crash`` the remaining rounds
        cannot produce an output and the failover layer takes over.
        Every injector's :meth:`~repro.sim.faults.FaultInjector.end_run`
        fires exactly once, after the last round.  Raises
        :class:`RunTimeout` before a round once :data:`DEADLINE` has
        passed.
        """
        if max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
        end = self.round + max_rounds
        limit = DEADLINE.get()
        # A round observer sees every round; otherwise rounds with nothing
        # to deliver, no wake and no root death are jumped.
        jumps = not (self._begin_round or self._end_round)
        while self.round < end:
            if limit is not None and monotonic() > limit[0]:
                raise RunTimeout(f"run exceeded {limit[1]}s wall clock")
            if jumps and self.round and not self._in_flight:
                # A jumped round counts as executed, as an idle step
                # would, also when the next step raises.
                jump_to = self._next_event(end) - 1
                self.round = self.stats.rounds_executed = jump_to
            self.step()
            if stop_on_output and self.stop_requested():
                break
            if self.root is not None and not self.is_alive(self.root):
                break
        for injector in self._end_run:
            injector.end_run(self.round)
        return self.stats

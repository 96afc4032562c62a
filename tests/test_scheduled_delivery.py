"""Due-round delivery buckets against the flat pending list they replace.

On the fault-injection path ``Network`` files every scheduled copy in the
bucket of its due round.  The reference, :class:`FlatPending`, keeps all
copies in one flat list that every round re-filters, as the simulator
once did.  Runs under both must hand every handler the same inboxes in
the same order, and make the same ``on_deliver`` and ``arrange_inbox``
calls in the same order, and leave the same corruption ledgers.  The
property draws drops, duplicates, delays, reorders, corruption, crashes,
churn and link flaps, under ``unknown_f`` and ``algorithm1`` with and
without the reliable transport plus MAC frames.
"""

import random
from typing import Dict, List

import pytest

from repro.adversary import FailureSchedule
from repro.analysis.runner import make_inputs, run_protocol
from repro.families.churn import ChurnSchedule
from repro.graphs import grid_graph
from repro.resilience.transport import TransportConfig
from repro.sim import Network
from repro.sim.faults import FaultInjector, MessageCorruption, MessageFaults
from repro.sim.message import Envelope

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - property tests skip
    given = None

#: Modules whose runners build a ``Network`` by that name (algorithm1
#: may fall back to brute force).
BUILDERS = ("repro.baselines.bruteforce", "repro.resilience.transport")


class FlatPending(Network):
    """Reference scheduled path: one flat ``(due, sender, receiver,
    part)`` list, re-filtered in every round it steps; ``Network.run``
    reads the next delivery round from that list too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending: List[tuple] = []

    def _transmit(self, rnd, sender, parts):
        for neighbour in self.adjacency[sender]:
            for part in parts:
                deliveries = [(rnd + 1, part)]
                for injector in self._delivery_injectors:
                    rewritten: List[tuple] = []
                    for due, p in deliveries:
                        rewritten.extend(
                            injector.on_transmit(due, sender, neighbour, p)
                        )
                    deliveries = rewritten
                for due, p in deliveries:
                    self._pending.append((due, sender, neighbour, p))

    def next_delivery_round(self):
        return min((copy[0] for copy in self._pending), default=None)

    def _deliver_scheduled(self, rnd):
        inboxes: Dict[int, List[Envelope]] = {}
        alive: Dict[int, bool] = {}
        still_pending: List[tuple] = []
        for due, sender, receiver, part in self._pending:
            if due > rnd:
                still_pending.append((due, sender, receiver, part))
                continue
            live = alive.get(receiver)
            if live is None:
                live = alive[receiver] = self.is_alive(receiver, rnd)
            if not live:
                continue
            if not self.is_alive(sender, rnd - 1):
                continue
            if self.link_flaps and not self.link_up(sender, receiver, rnd):
                continue
            inboxes.setdefault(receiver, []).append(Envelope(sender, (part,)))
            for observer in self._on_deliver:
                observer.on_deliver(rnd, sender, receiver, part)
        self._pending = still_pending
        for receiver, box in inboxes.items():
            for injector in self._delivery_injectors:
                box = injector.arrange_inbox(rnd, receiver, box)
            inboxes[receiver] = box
        return inboxes


def _logged(network_cls, log):
    """``network_cls`` also logging every inbox it hands the handlers."""

    class Logged(network_cls):
        def _deliver_scheduled(self, rnd):
            inboxes = super()._deliver_scheduled(rnd)
            log.append(("inboxes", rnd, repr(list(inboxes.items()))))
            return inboxes

    return Logged


class DeliveryLog(FaultInjector):
    """Logs every ``on_deliver`` call."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def on_deliver(self, rnd, sender, receiver, part):
        self.log.append(("deliver", rnd, sender, receiver, repr(part)))


class ArrangeLog(FaultInjector):
    """A pass-through delivery injector logging every ``arrange_inbox``
    call (its presence also takes ``_transmit`` off the one-injector
    path)."""

    modifies_delivery = True

    def __init__(self, log):
        super().__init__()
        self.log = log

    def on_transmit(self, due, sender, receiver, part):
        return [(due, part)]

    def arrange_inbox(self, rnd, receiver, envelopes):
        self.log.append(("arrange", rnd, receiver, repr(envelopes)))
        return envelopes


def _observe(network_cls, case):
    """One run under ``network_cls``; everything the property compares."""
    topo = grid_graph(3, 3)
    seed = case["seed"]
    rng = random.Random(seed)
    inputs = make_inputs(topo, rng)
    log: list = []
    injectors = [MessageFaults(seed=seed, **case["faults"]), DeliveryLog(log)]
    corruption = None
    if case["corrupt"]:
        corruption = MessageCorruption(seed=seed, **case["corrupt"])
        injectors.append(corruption)
    if case["arrange_log"]:
        injectors.append(ArrangeLog(log))
    if case["churn"]:
        injectors.append(ChurnSchedule.from_spec(case["churn"]))
    kwargs = {}
    if case["overlays"]:
        kwargs = dict(
            transport=TransportConfig(retransmits=2), integrity="mac"
        )
    schedule = FailureSchedule(case["crashes"])
    if case["protocol"] == "algorithm1":
        kwargs.update(f=max(2, schedule.edge_failures(topo)), b=60)
    with pytest.MonkeyPatch.context() as mp:
        for module in BUILDERS:
            mp.setattr(f"{module}.Network", _logged(network_cls, log))
        try:
            record = run_protocol(
                case["protocol"], topo, inputs,
                schedule=schedule, rng=rng, strict=False, injectors=injectors, **kwargs,
            )
            outcome = (record.result, record.cc_bits, record.rounds)
        except Exception as exc:  # garbage from corruption: same either way
            outcome = repr(exc)
    ledgers = None
    if corruption is not None:
        ledgers = (
            corruption.delivered_corruptions,
            corruption.delivered_stales,
            corruption.counts,
        )
    return outcome, ledgers, log


RATES = [0.0, 0.05, 0.2]

if given is not None:
    _cases = st.fixed_dictionaries({
        "protocol": st.sampled_from(["unknown_f", "algorithm1"]),
        "overlays": st.booleans(),
        "seed": st.integers(0, 10_000),
        "faults": st.fixed_dictionaries({
            "drop": st.sampled_from(RATES),
            "duplicate": st.sampled_from(RATES),
            "delay": st.sampled_from(RATES),
            "reorder": st.sampled_from(RATES),
        }),
        "corrupt": st.sampled_from([
            None,
            {"bitflip": 0.05},
            {"bitflip": 0.03, "truncate": 0.02, "stale": 0.03},
        ]),
        "crashes": st.sampled_from([{}, {4: 3}, {7: 6, 8: 2}]),
        "churn": st.sampled_from([
            None,
            "5:crash@r3,5:revive@r9",
            "3:crash@r2,3:revive@r6:amnesiac,flap:1-2@r2-r5",
            "flap:0-1@r1-r4,flap:4-5@r3-r8",
        ]),
        "arrange_log": st.booleans(),
    })


@pytest.mark.skipif(given is None, reason="hypothesis not installed")
class TestBucketsMatchFlatList:
    if given is not None:

        @settings(max_examples=25, deadline=None)
        @given(case=_cases)
        def test_same_inboxes_hooks_and_ledgers(self, case):
            bucketed = _observe(Network, case)
            flat = _observe(FlatPending, case)
            assert bucketed == flat
            assert any(entry[0] == "deliver" for entry in bucketed[2])

    def test_copies_due_this_round_or_earlier_arrive_next_round(self):
        """A copy an injector schedules for the current round (or one
        already past) is delivered next round, as the flat list did."""
        log: list = []

        class Early(FaultInjector):
            modifies_delivery = True

            def on_transmit(self, due, sender, receiver, part):
                return [(due - 1, part), (due - 3, part), (due, part)]

        for network_cls in (Network, FlatPending):
            topo = grid_graph(3, 3)
            rng = random.Random(1)
            with pytest.MonkeyPatch.context() as mp:
                for module in BUILDERS:
                    mp.setattr(f"{module}.Network", _logged(network_cls, log))
                run_protocol(
                    "unknown_f", topo, make_inputs(topo, rng), rng=rng,
                    strict=False, injectors=[Early(), ArrangeLog(log)],
                )
        half = len(log) // 2
        assert half and log[:half] == log[half:]

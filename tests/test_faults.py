"""Fault-injection middleware: determinism, budgets, model equivalence.

The acceptance property for the chaos layer lives here too: under message
drop/duplicate/delay with strict monitors, Algorithm 1 and the unknown-f
wrapper either produce an oracle-correct SUM or fail with an explicit
``InvariantViolation`` — and both outcomes actually occur.
"""

import random
import re

import pytest

from repro.adversary import FailureSchedule
from repro.analysis.runner import make_inputs, run_protocol, safe_run_protocol
from repro.core.algorithm1 import run_algorithm1
from repro.graphs import grid_graph
from repro.sim import Network, Part
from repro.sim.faults import FaultInjector, MessageFaults, ScheduledCrashes
from repro.sim.monitors import InvariantViolation, standard_monitors
from repro.sim.node import NodeHandler
from tests.conftest import RelayNode, SilentNode


class Beacon(SilentNode):
    def __init__(self, part, at=1):
        self.part = part
        self.at = at

    def on_round(self, rnd, inbox):
        return [self.part] if rnd == self.at else []


class Recorder(NodeHandler):
    """Remembers every delivery as (round, sender, kind)."""

    def __init__(self):
        self.received = []

    def on_round(self, rnd, inbox):
        for env in inbox:
            for part in env.parts:
                self.received.append((rnd, env.sender, part.kind))
        return []


def line3():
    return {0: [1], 1: [0, 2], 2: [1]}


def chatty_network(injector, rounds=20):
    """Node 0 broadcasts every round; node 2 records what arrives."""

    class Chatty(SilentNode):
        def on_round(self, rnd, inbox):
            return [Part("ping", (rnd,), 8)]

    recorder = Recorder()
    net = Network(
        line3(),
        {0: Chatty(), 1: RelayNode(), 2: recorder},
        injectors=[injector] if injector else (),
    )
    net.run(rounds, stop_on_output=False)
    return recorder.received


class TestMessageFaultsSpec:
    def test_from_spec_parses_all_keys(self):
        mf = MessageFaults.from_spec(
            "drop=0.1,dup=0.05,delay=0.2,reorder=0.3,max_delay=4", seed=9
        )
        assert mf.drop == 0.1
        assert mf.duplicate == 0.05
        assert mf.delay == 0.2
        assert mf.reorder == 0.3
        assert mf.max_delay == 4
        assert mf.seed == 9

    def test_from_spec_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault key"):
            MessageFaults.from_spec("corrupt=0.5")

    def test_from_spec_requires_key_value(self):
        with pytest.raises(ValueError, match="needs key=value"):
            MessageFaults.from_spec("drop")

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="drop rate"):
            MessageFaults(drop=1.5)
        with pytest.raises(ValueError, match="max_delay"):
            MessageFaults(max_delay=0)

    def test_bad_fragment_names_token_and_grammar(self):
        """Every malformed fragment is named verbatim, with the grammar."""
        for spec, bad_token in [
            ("drop=0.1,corrupt=0.5", "corrupt=0.5"),
            ("drop", "drop"),
            ("drop=fast", "drop=fast"),
            ("max_delay=2.5", "max_delay=2.5"),
            ("drop=0.1,drop=0.2", "drop=0.2"),
            ("dup=0.1,duplicate=0.2", "duplicate=0.2"),  # alias collision
        ]:
            with pytest.raises(ValueError) as exc_info:
                MessageFaults.from_spec(spec)
            message = str(exc_info.value)
            assert repr(bad_token) in message, (spec, message)
            assert MessageFaults.SPEC_GRAMMAR in message

    def test_good_fragments_before_bad_do_not_mask_the_error(self):
        with pytest.raises(ValueError, match="not a number"):
            MessageFaults.from_spec("drop=0.1,delay=lots")

    def test_empty_fragments_are_tolerated(self):
        mf = MessageFaults.from_spec("drop=0.1,,")
        assert mf.drop == 0.1

    def test_dash_alias_for_max_delay(self):
        assert MessageFaults.from_spec("max-delay=3").max_delay == 3


class TestRootCrashRejection:
    """All three scheduling paths refuse to crash the root, identically.

    The Section 2 model says the root never fails; a crash schedule that
    touches it is a configuration bug, and every entry point must say so
    with the same message: ``FailureSchedule.validate``,
    ``ScheduledCrashes``, and ``Network.schedule_crash``.
    """

    def _topology(self):
        from repro.graphs import path_graph

        return path_graph(4)  # root 0

    def test_failure_schedule_validate_rejects_root(self):
        from repro.sim.network import ROOT_CRASH_ERROR

        topology = self._topology()
        with pytest.raises(ValueError, match=re.escape(ROOT_CRASH_ERROR)):
            FailureSchedule({topology.root: 3}).validate(topology)

    def test_scheduled_crashes_reject_root_at_construction(self):
        from repro.sim.network import ROOT_CRASH_ERROR

        topology = self._topology()
        with pytest.raises(ValueError, match=re.escape(ROOT_CRASH_ERROR)):
            ScheduledCrashes({topology.root: 3}, root=topology.root)

    def test_scheduled_crashes_reject_root_at_attach(self):
        from repro.sim.network import ROOT_CRASH_ERROR

        net = Network(line3(), {u: SilentNode() for u in range(3)}, root=0)
        crashes = ScheduledCrashes({0: 3})  # root unknown until attach
        with pytest.raises(ValueError, match=re.escape(ROOT_CRASH_ERROR)):
            crashes.attach(net)

    def test_network_schedule_crash_rejects_root(self):
        from repro.sim.network import ROOT_CRASH_ERROR

        net = Network(line3(), {u: SilentNode() for u in range(3)}, root=0)
        with pytest.raises(ValueError, match=re.escape(ROOT_CRASH_ERROR)):
            net.schedule_crash(0, 5)

    def test_all_three_paths_raise_the_same_message(self):
        from repro.sim.network import ROOT_CRASH_ERROR

        topology = self._topology()
        messages = set()
        for trigger in (
            lambda: FailureSchedule({0: 3}).validate(topology),
            lambda: ScheduledCrashes({0: 3}, root=0),
            lambda: Network(
                line3(), {u: SilentNode() for u in range(3)}, root=0
            ).schedule_crash(0, 5),
        ):
            with pytest.raises(ValueError) as exc_info:
                trigger()
            messages.add(str(exc_info.value))
        assert messages == {ROOT_CRASH_ERROR}

    def test_non_root_crashes_still_accepted(self):
        net = Network(line3(), {u: SilentNode() for u in range(3)}, root=0)
        net.schedule_crash(2, 5)
        assert net.crash_rounds[2] == 5


class TestFaultKinds:
    def test_drops_lose_messages(self):
        clean = chatty_network(None)
        dropped = chatty_network(MessageFaults(drop=0.5, seed=1))
        assert len(dropped) < len(clean)

    def test_duplicates_add_messages(self):
        clean = chatty_network(None)
        duped = chatty_network(MessageFaults(duplicate=0.9, seed=1))
        assert len(duped) > len(clean)

    def test_delays_shift_arrival_rounds(self):
        delayed = chatty_network(MessageFaults(delay=1.0, max_delay=3, seed=1))
        # Every copy was delayed by >= 1 round: nothing from node 1 (the
        # relay's earliest hop lands at round 3) before round 4.
        assert delayed
        assert all(rnd >= 4 for rnd, _s, _k in delayed)

    def test_per_seed_determinism(self):
        runs = [
            chatty_network(
                MessageFaults(drop=0.3, duplicate=0.2, delay=0.2, seed=42)
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        different = chatty_network(
            MessageFaults(drop=0.3, duplicate=0.2, delay=0.2, seed=43)
        )
        assert different != runs[0]

    def test_budget_caps_respected(self):
        mf = MessageFaults(drop=1.0, max_drops=3, seed=0)
        received = chatty_network(mf)
        assert mf.counts.drops == 3
        assert received  # everything after the cap is delivered

    def test_protected_nodes_never_faulted(self):
        mf = MessageFaults(drop=1.0, protect=(0, 1, 2), seed=0)
        protected = chatty_network(mf)
        clean = chatty_network(None)
        assert protected == clean
        assert mf.counts.total == 0

    def test_counts_as_dict(self):
        mf = MessageFaults(drop=1.0, max_drops=2, seed=0)
        chatty_network(mf)
        assert mf.counts.as_dict()["drops"] == 2
        assert mf.counts.total == 2


class FixedDelay(FaultInjector):
    """Delay every copy from ``sender`` by exactly ``by`` rounds."""

    modifies_delivery = True

    def __init__(self, sender, by):
        super().__init__()
        self.sender = sender
        self.by = by

    def on_transmit(self, due, sender, receiver, part):
        if sender == self.sender:
            return [(due + self.by, part)]
        return [(due, part)]


class TestDelayedCopiesFromCrashedSenders:
    """Regression: a delayed copy must die with its sender.

    In the model a delivery at round ``r`` corresponds to a broadcast at
    ``r - 1``; a sender dead by then cannot have produced it.  The delay
    fault used to resurrect such ghost copies, letting a crashed node
    keep talking past its crash round.
    """

    def crashed_chatty(self, injector, crash_round):
        class Chatty(SilentNode):
            def on_round(self, rnd, inbox):
                return [Part("ping", (rnd,), 8)]

        recorder = Recorder()
        net = Network(
            line3(),
            {0: Chatty(), 1: recorder, 2: SilentNode()},
            crash_rounds={0: crash_round},
            injectors=[injector] if injector else (),
        )
        net.run(12, stop_on_output=False)
        return recorder.received

    def test_ghost_copy_past_crash_round_is_dropped(self):
        # Sender 0 crashes at round 5: its last broadcast is round 4,
        # normally delivered at round 5.  A +4 delay would land copies at
        # rounds 6..9 — all after the crash; none may arrive.
        received = self.crashed_chatty(FixedDelay(0, by=4), crash_round=5)
        assert all(rnd <= 5 for rnd, s, _k in received if s == 0)
        assert not any(rnd > 5 for rnd, s, _k in received if s == 0)

    def test_delivery_exactly_at_crash_round_survives(self):
        # A +1 delay moves the round-3 broadcast (due 4) to round 5 — the
        # crash round itself, i.e. the last in-model delivery; it stays.
        received = self.crashed_chatty(FixedDelay(0, by=1), crash_round=5)
        rounds = [rnd for rnd, s, _k in received if s == 0]
        assert 5 in rounds
        assert all(rnd <= 5 for rnd in rounds)

    def test_random_delays_never_resurrect_a_crashed_sender(self):
        for seed in range(6):
            received = self.crashed_chatty(
                MessageFaults(delay=1.0, max_delay=3, seed=seed),
                crash_round=4,
            )
            assert all(rnd <= 4 for rnd, s, _k in received if s == 0), (
                f"seed {seed}: ghost delivery after the sender's crash"
            )


class TestScheduledCrashes:
    def test_equivalent_to_crash_rounds_argument(self):
        def run_with(**kwargs):
            recorder = Recorder()
            net = Network(
                line3(),
                {
                    0: Beacon(Part("ping", (), 4)),
                    1: RelayNode(),
                    2: recorder,
                },
                **kwargs,
            )
            net.run(4, stop_on_output=False)
            return recorder.received

        legacy = run_with(crash_rounds={1: 2})
        injected = run_with(injectors=[ScheduledCrashes({1: 2})])
        assert legacy == injected

    def test_accepts_failure_schedule(self):
        schedule = FailureSchedule({1: 3})
        net = Network(
            line3(),
            {i: SilentNode() for i in range(3)},
            injectors=[ScheduledCrashes(schedule)],
        )
        assert net.crash_rounds == {1: 3}

    def test_earliest_round_wins_when_composed(self):
        net = Network(
            line3(),
            {i: SilentNode() for i in range(3)},
            crash_rounds={1: 5},
            injectors=[ScheduledCrashes({1: 2})],
        )
        assert net.crash_rounds[1] == 2


class TestFastPathEquivalence:
    def test_crash_only_injector_keeps_exact_delivery(self):
        inert = FaultInjector()
        net = Network(line3(), {i: SilentNode() for i in range(3)}, injectors=[inert])
        assert net._delivery_injectors == ()

    def test_noop_message_faults_matches_clean_run(self):
        # All rates zero: the scheduled-delivery path must reproduce the
        # exact-model inboxes (delivery next round, broadcast order).
        clean = chatty_network(None)
        noop = chatty_network(MessageFaults(seed=5))
        assert noop == clean

    def test_algorithm1_bitexact_with_inert_injector(self):
        topo = grid_graph(4, 4)
        rng = random.Random(3)
        inputs = {u: rng.randint(0, 9) for u in topo.nodes()}
        base = run_algorithm1(topo, inputs, f=3, b=60, rng=random.Random(1))
        with_inert = run_algorithm1(
            topo,
            inputs,
            f=3,
            b=60,
            rng=random.Random(1),
            injectors=[FaultInjector()],
        )
        assert with_inert.result == base.result
        assert with_inert.stats.max_bits == base.stats.max_bits
        assert with_inert.rounds == base.rounds


class TestAcceptanceAbortOrCorrect:
    """Under injected faults + strict monitors: correct output or loud death.

    Seeds are chosen so each protocol demonstrates BOTH outcomes at least
    once over the seed range (guarded by assertions below).
    """

    SEEDS = range(8)
    RATES = dict(drop=0.05, duplicate=0.02, delay=0.03)

    def _outcomes(self, protocol, b=None):
        topo = grid_graph(5, 5)
        outcomes = []
        for seed in self.SEEDS:
            rng = random.Random(seed)
            inputs = make_inputs(topo, rng)
            monitors = standard_monitors(topo, inputs, mode="strict")
            try:
                record = run_protocol(
                    protocol,
                    topo,
                    inputs,
                    f=4,
                    b=b,
                    rng=rng,
                    strict=False,
                    injectors=[MessageFaults(seed=seed, **self.RATES)],
                    monitors=monitors,
                )
            except InvariantViolation as exc:
                outcomes.append(("violation", exc.rule))
                continue
            assert record.correct or record.result is None, (
                f"seed {seed}: silently wrong result {record.result}"
            )
            outcomes.append(("correct" if record.correct else "abort", None))
        return outcomes

    def test_algorithm1_aborts_or_is_correct(self):
        outcomes = self._outcomes("algorithm1", b=90)
        kinds = {kind for kind, _ in outcomes}
        assert "correct" in kinds
        assert "violation" in kinds

    def test_unknown_f_aborts_or_is_correct(self):
        outcomes = self._outcomes("unknown_f")
        kinds = {kind for kind, _ in outcomes}
        assert "correct" in kinds
        assert "violation" in kinds

    def test_safe_runner_turns_violation_into_error_row(self):
        topo = grid_graph(5, 5)
        seen_error = seen_correct = False
        for seed in self.SEEDS:
            rng = random.Random(seed)
            inputs = make_inputs(topo, rng)
            record = safe_run_protocol(
                "unknown_f",
                topo,
                inputs,
                seed=seed,
                rng=rng,
                strict=False,
                injectors=[MessageFaults(seed=seed, **self.RATES)],
                monitors=standard_monitors(topo, inputs, mode="strict"),
            )
            if record.failed:
                assert record.error_kind == "InvariantViolation"
                assert record.correct is False
                seen_error = True
            else:
                assert record.correct or record.result is None
                seen_correct = seen_correct or record.correct
        assert seen_error and seen_correct

"""Churn-tolerant epochs: crash-recovery nodes, flaps, exactly-once.

Acceptance properties (ISSUE 7):

* Under crash-recovery churn with durable rejoins within the ``f``
  budget, the epoch manager reports the **exact** SUM with zero
  DOUBLE-COUNT verdicts, and the protocol CC is unchanged from the
  no-churn transport baseline (every repair byte — retransmits, NACKs,
  incarnation stamps, announce/handshake mini-runs — is booked under
  ``overhead_bits``).
* With amnesiac rejoins the result is exact when a neighbour snapshot
  survives, and an honestly certified partial otherwise — never a
  silently wrong total (the :class:`DoubleCountOracle` grades every
  certified claim against the ground-truth input multiset).
* An epoch whose output matches no contributor subset is discarded
  wholesale and rerun; nothing from it is booked, so the retry can
  neither double-count nor drop a contribution.
"""

import random

import pytest

from repro.analysis.runner import run_protocol
from repro.analysis.sweep import point_units, run_point
from repro.analysis.families import draw_schedules, materialize
from repro.exec.scheduler import execute_unit
from repro.families.churn import (
    REJOIN_AMNESIAC,
    REJOIN_DURABLE,
    ChurnSchedule,
    DoubleCountOracle,
    random_churn,
)
from repro.graphs import grid_graph
from repro.resilience import ChurnPolicy, TransportConfig
from repro.resilience.driver import drive_epochs
from repro.resilience.epochs import ChurnPlan, neutral_input
from repro.sim.monitors import FBudgetMonitor

try:
    from hypothesis import HealthCheck, example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the toolchain
    HAVE_HYPOTHESIS = False


def _churn(topology, inputs, churn, rng, **plan):
    """Drive a churn plan's epochs: ``(plan, outcome)``."""
    plan = ChurnPlan(topology, inputs, churn, **plan)
    return plan, drive_epochs(plan, "unknown_f", rng=rng)


# --------------------------------------------------------------------- #
# Spec grammar and schedule validation.
# --------------------------------------------------------------------- #


class TestChurnSpec:
    def test_crash_revive_flap_round_trip(self):
        ch = ChurnSchedule.from_spec(
            "5:crash@r3,5:revive@r7:amnesiac,flap:1-2@r2-r5"
        )
        assert ch.cycles == {5: [(3, 7, REJOIN_AMNESIAC)]}
        assert ch.flaps == [(1, 2, 2, 5)]

    def test_revive_defaults_to_durable(self):
        ch = ChurnSchedule.from_spec("4:crash@r2,4:revive@r6")
        assert ch.cycles[4] == [(2, 6, REJOIN_DURABLE)]

    def test_crash_without_revive_is_permanent(self):
        ch = ChurnSchedule.from_spec("4:crash@r2")
        assert ch.cycles[4] == [(2, None, REJOIN_DURABLE)]
        assert ch.crash_rounds == {4: 2}

    def test_rejects_revive_before_crash(self):
        with pytest.raises(ValueError, match="strictly after"):
            ChurnSchedule(cycles={3: [(5, 5, REJOIN_DURABLE)]})

    def test_rejects_recrash_while_down(self):
        with pytest.raises(ValueError):
            ChurnSchedule(
                cycles={3: [(2, 8, REJOIN_DURABLE), (5, 9, REJOIN_DURABLE)]}
            )

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown rejoin mode"):
            ChurnSchedule(cycles={3: [(2, 5, "flaky")]})

    def test_rejects_bad_spec_with_grammar(self):
        bad_specs = {
            "5:explode@r3": "unknown churn event 'explode'",
            "flap:1-x@r2-r5": "edge '1-x' is not a node pair",
            "flap:1-2@r3": "window needs the form r<R1>-r<R2>",
            "flap:1-2@r5-r2": "flap window 5-2 is empty",
            "5:crash@rq": "round 'q' is not an integer",
        }
        for bad, why in bad_specs.items():
            with pytest.raises(ValueError) as exc_info:
                ChurnSchedule.from_spec(bad)
            assert str(exc_info.value) == (
                f"bad churn spec fragment {bad!r}: {why} (accepted "
                f"grammar: {ChurnSchedule.SPEC_GRAMMAR})"
            ), bad

    def test_rejects_empty_flap_window(self):
        with pytest.raises(ValueError):
            ChurnSchedule(flaps=[(1, 2, 5, 3)])

    def test_root_crash_rejected_without_sanction(self):
        with pytest.raises(ValueError, match="root"):
            ChurnSchedule.from_spec("0:crash@r2,0:revive@r5", root=0)

    def test_validate_rejects_unknown_node_and_edge(self):
        topo = grid_graph(3, 3)
        with pytest.raises(ValueError):
            ChurnSchedule(cycles={99: [(2, 5, REJOIN_DURABLE)]}).validate(
                topo
            )
        with pytest.raises(ValueError):
            ChurnSchedule(flaps=[(0, 8, 2, 4)]).validate(topo)

    def test_incarnation_counts_completed_revives(self):
        ch = ChurnSchedule(
            cycles={
                5: [(2, 4, REJOIN_DURABLE), (7, 9, REJOIN_AMNESIAC)]
            }
        )
        assert ch.incarnation_at(5, 3) == 0
        assert ch.incarnation_at(5, 5) == 1
        assert ch.incarnation_at(5, 20) == 2
        assert ch.incarnation_at(1, 20) == 0

    def test_shifted_drops_past_events_keeps_incarnations(self):
        ch = ChurnSchedule(
            cycles={5: [(2, 4, REJOIN_DURABLE), (7, 9, REJOIN_DURABLE)]},
            flaps=[(1, 2, 3, 8)],
        )
        view = ch.shifted(5)
        assert view.cycles[5] == [(2, 4, REJOIN_DURABLE)]
        assert view.flaps == [(1, 2, 1, 3)]
        assert view.incarnation_base.get(5) == 1

    def test_random_churn_is_seed_deterministic(self):
        topo = grid_graph(3, 3)
        a = random_churn(topo, 0.3, random.Random(11), horizon=40)
        b = random_churn(topo, 0.3, random.Random(11), horizon=40)
        assert a.cycles == b.cycles
        assert a.flaps == b.flaps
        assert topo.root not in a.cycles

    def test_random_churn_rate_zero_is_empty(self):
        topo = grid_graph(3, 3)
        ch = random_churn(topo, 0.0, random.Random(1), horizon=40)
        assert not ch.cycles and not ch.flaps


class TestChurnPolicy:
    def test_default_carries_a_transport(self):
        policy = ChurnPolicy.default()
        assert policy.transport is not None

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ChurnPolicy(max_epochs=0)
        # Retired knobs load only at the value the runtime hard-wires.
        assert ChurnPolicy.from_jsonable(
            {"heartbeat_gap": 2, "snapshots": True, "max_epochs": 3}
        ) == ChurnPolicy(max_epochs=3)
        with pytest.raises(ValueError, match="heartbeat_gap"):
            ChurnPolicy.from_jsonable({"heartbeat_gap": 4})
        with pytest.raises(ValueError, match="snapshots"):
            ChurnPolicy.from_jsonable({"snapshots": False})


# --------------------------------------------------------------------- #
# The epoch manager on real protocol runs.
# --------------------------------------------------------------------- #


class TestDurableChurn:
    def setup_method(self):
        self.topo = grid_graph(3, 3)
        self.inputs = {u: u + 1 for u in self.topo.nodes()}
        self.expected = sum(self.inputs.values())
        self.policy = ChurnPolicy(transport=TransportConfig(retransmits=3))

    def test_blip_is_exact_in_one_epoch(self):
        ch = ChurnSchedule.from_spec(
            "5:crash@r3,5:revive@r6", root=self.topo.root
        )
        _, out = _churn(
            self.topo,
            self.inputs,
            ch,
            rng=random.Random(7),
            policy=self.policy,
        )
        assert out.result == self.expected
        assert out.partial.certified
        assert len(out.epochs) == 1
        assert sum(t.rejoins_durable for t in out.transports) == 1

    def test_protocol_cc_unchanged_by_churn(self):
        """Every repair byte is overhead: the blipped run's protocol CC
        equals the clean transport baseline bit-for-bit."""
        _, clean = _churn(
            self.topo,
            self.inputs,
            ChurnSchedule(),
            rng=random.Random(7),
            policy=self.policy,
        )
        ch = ChurnSchedule.from_spec(
            "5:crash@r3,5:revive@r6", root=self.topo.root
        )
        _, blip = _churn(
            self.topo,
            self.inputs,
            ch,
            rng=random.Random(7),
            policy=self.policy,
        )
        assert blip.stats.max_bits == clean.stats.max_bits
        assert blip.stats.max_overhead_bits > clean.stats.max_overhead_bits

    def test_exactly_once_nonce_per_rejoined_node(self):
        ch = ChurnSchedule.from_spec(
            "5:crash@r3,5:revive@r6", root=self.topo.root
        )
        oracle = DoubleCountOracle(self.inputs, mode="strict")
        plan, out = _churn(
            self.topo,
            self.inputs,
            ch,
            rng=random.Random(7),
            policy=self.policy,
            monitors=[oracle],
        )
        booked = {node: inc for node, inc, _v in plan.ledger.as_entries()}
        assert set(booked) == set(self.topo.nodes())
        assert oracle.double_counts == 0
        assert oracle.lost_contributions == 0

    def test_permanent_crash_certifies_partial_or_exact(self):
        ch = ChurnSchedule.from_spec("5:crash@r3", root=self.topo.root)
        _, out = _churn(
            self.topo,
            self.inputs,
            ch,
            rng=random.Random(7),
            policy=self.policy,
        )
        assert out.partial.certified
        covered = set(out.partial.coverage or self.topo.nodes())
        assert out.result == sum(
            self.inputs[u] for u in covered
        )


#: Node 2 rejoins amnesiac after both of its snapshot holders (its
#: neighbours 1 and 5) crashed for good.
ALL_HOLDERS_DEAD = "1:crash@r2,2:crash@r2,2:revive@r3:amnesiac,5:crash@r2"


class TestAmnesiacChurn:
    def setup_method(self):
        self.topo = grid_graph(3, 3)
        self.inputs = {u: u + 1 for u in self.topo.nodes()}
        self.expected = sum(self.inputs.values())
        self.policy = ChurnPolicy(transport=TransportConfig(retransmits=3))

    def test_snapshot_recovery_makes_amnesiac_exact(self):
        ch = ChurnSchedule.from_spec(
            "5:crash@r3,5:revive@r9:amnesiac", root=self.topo.root
        )
        plan, out = _churn(
            self.topo,
            self.inputs,
            ch,
            rng=random.Random(7),
            policy=self.policy,
        )
        assert out.result == self.expected
        assert out.partial.certified
        assert 5 in plan.recovered
        assert out.partial.extra["handshakes"] >= 1
        # The recovered node is booked under its post-revive incarnation.
        incs = {n: i for n, i, _v in plan.ledger.as_entries()}
        assert incs[5] == 1

    def test_all_holders_dead_contribution_is_honestly_lost(self):
        """Node 2's only snapshot holders (1 and 5) crash for good, so its
        amnesiac rejoin has nothing to fetch: the contribution is lost,
        the coverage excludes it, and the oracle agrees no copy survived."""
        ch = ChurnSchedule.from_spec(ALL_HOLDERS_DEAD, root=self.topo.root)
        inputs = {u: (u * 5) % 23 + 1 for u in self.topo.nodes()}
        oracle = DoubleCountOracle(inputs, mode="record")
        plan, out = _churn(
            self.topo,
            inputs,
            ch,
            rng=random.Random(0),
            policy=self.policy,
            monitors=[oracle],
        )
        assert 2 in plan.lost
        assert out.partial.certified
        assert 2 not in set(out.partial.coverage)
        assert out.result == sum(inputs[u] for u in out.partial.coverage)
        assert oracle.double_counts == 0
        assert oracle.lost_contributions == 0

    def test_holder_reviving_durably_keeps_the_node_pending(self):
        """Holder 1 is down at the handshake but revives durably, so node
        2 stays pending (not lost) and is recovered once 1 is back."""
        ch = ChurnSchedule.from_spec(
            "1:crash@r2,1:revive@r1500,2:crash@r2,2:revive@r3:amnesiac,"
            "5:crash@r2",
            root=self.topo.root,
        )
        inputs = {u: (u * 5) % 23 + 1 for u in self.topo.nodes()}
        oracle = DoubleCountOracle(inputs, mode="record")
        plan, out = _churn(
            self.topo,
            inputs,
            ch,
            rng=random.Random(0),
            policy=self.policy,
            monitors=[oracle],
        )
        assert plan.lost == set()
        assert 2 in plan.recovered
        assert out.partial.certified
        assert set(out.partial.coverage) == set(self.topo.nodes()) - {5}
        assert oracle.lost_contributions == 0

    def test_neutral_input_rejects_count(self):
        from repro.core.caaf import COUNT, MAX, SUM

        assert neutral_input(SUM) == 0
        assert neutral_input(MAX) is not None
        with pytest.raises(ValueError):
            neutral_input(COUNT)


class TestEpochRetry:
    """A tainted epoch is discarded wholesale and rerun."""

    def test_drop_faults_trigger_discard_then_exact(self):
        from repro.cli import parse_topology
        from repro.exec.scheduler import WorkUnit

        topo = parse_topology("grid:3x3", 0)
        unit = WorkUnit(
            protocol="unknown_f",
            topology=topo,
            seed=1,
            schedule={"kind": "none"},
            inject="drop=0.02",
            monitors={"mode": "record", "recovery": False},
            churn={
                "kind": "random",
                "rate": 0.05,
                "horizon": 168,
                "amnesiac": 0.0,
                "flap_rate": 0.0,
            },
        )
        record = execute_unit(unit)
        assert record.correct
        assert record.extra["certified"]
        assert record.extra["epochs_discarded"] >= 1
        assert record.extra["double_counted"] == 0
        assert record.extra["lost_contributions"] == 0

    def test_budget_exhaustion_stays_certified_partial(self):
        topo = grid_graph(3, 3)
        inputs = {u: u + 1 for u in topo.nodes()}
        # The amnesiac node revives far beyond a single epoch's horizon,
        # so a one-epoch budget must stop while it is still pending.
        ch = ChurnSchedule.from_spec(
            "5:crash@r3,5:revive@r900:amnesiac", root=topo.root
        )
        policy = ChurnPolicy(
            transport=TransportConfig(retransmits=3), max_epochs=1
        )
        _, out = _churn(
            topo,
            inputs,
            ch,
            rng=random.Random(7),
            policy=policy,
        )
        assert out.partial.certified
        assert "budget exhausted" in out.partial.reason
        assert 5 not in set(out.partial.coverage or ())
        assert out.result == sum(
            inputs[u] for u in set(out.partial.coverage or ())
        )


# --------------------------------------------------------------------- #
# Flap windows against the f budget (per-transition semantics).
# --------------------------------------------------------------------- #


class TestFlapBudget:
    def test_same_link_flapping_twice_charges_two_events(self):
        topo = grid_graph(3, 3)
        inputs = {u: 1 for u in topo.nodes()}
        monitor = FBudgetMonitor(topo, f=1, mode="record")
        ch = ChurnSchedule.from_spec(
            "flap:1-2@r2-r4,flap:1-2@r6-r8", root=topo.root
        )
        record = run_protocol(
            "unknown_f",
            topo,
            inputs,
            rng=random.Random(3),
            churn=ch,
            churn_policy=ChurnPolicy(transport=TransportConfig(retransmits=3)),
            monitors=(monitor,),
        )
        assert monitor.events_used == 2
        assert any("exceed the budget" in e.message for e in monitor.violations)
        assert record.result is not None

    def test_single_flap_within_budget_is_clean(self):
        topo = grid_graph(3, 3)
        inputs = {u: 1 for u in topo.nodes()}
        monitor = FBudgetMonitor(topo, f=1, mode="strict")
        run_protocol(
            "unknown_f",
            topo,
            inputs,
            rng=random.Random(3),
            churn=ChurnSchedule.from_spec("flap:1-2@r2-r4", root=topo.root),
            churn_policy=ChurnPolicy(transport=TransportConfig(retransmits=3)),
            monitors=(monitor,),
        )
        assert monitor.events_used == 1
        assert not monitor.violations


# --------------------------------------------------------------------- #
# The oracle itself.
# --------------------------------------------------------------------- #


class TestDoubleCountOracle:
    def test_double_booking_is_a_double_count(self):
        oracle = DoubleCountOracle({1: 5, 2: 7}, mode="record")
        oracle.grade_ledger(
            [(1, 0, 5), (2, 0, 7)], double_booked=[(1, 1, 5)]
        )
        assert oracle.double_counts == 1
        assert oracle.violations[0].rule == "double-count"

    def test_misbooked_value_is_a_double_count(self):
        oracle = DoubleCountOracle({1: 5}, mode="record")
        oracle.grade_ledger([(1, 0, 6)])
        assert oracle.double_counts == 1

    def test_certified_shortfall_is_lost_contribution(self):
        oracle = DoubleCountOracle({1: 5, 2: 7}, mode="record")
        oracle.grade_final(5, {1, 2}, certified=True)
        assert oracle.lost_contributions == 1
        assert oracle.violations[0].rule == "lost-contribution"

    def test_recoverable_node_outside_coverage_is_lost(self):
        oracle = DoubleCountOracle({1: 5, 2: 7}, mode="record")
        oracle.grade_final(5, {1}, certified=True, recoverable={2})
        assert oracle.lost_contributions == 1

    def test_uncertified_claims_are_not_graded(self):
        oracle = DoubleCountOracle({1: 5, 2: 7}, mode="record")
        oracle.grade_final(99, {1, 2}, certified=False)
        assert oracle.double_counts == 0
        assert oracle.lost_contributions == 0


# --------------------------------------------------------------------- #
# Runner / engine / sweep integration.
# --------------------------------------------------------------------- #


class TestChurnIntegration:
    def setup_method(self):
        self.topo = grid_graph(3, 3)
        self.inputs = {u: u + 1 for u in self.topo.nodes()}

    def test_runner_routes_churn_and_reports_oracle_fields(self):
        ch = ChurnSchedule.from_spec(
            "5:crash@r3,5:revive@r9:amnesiac", root=self.topo.root
        )
        record = run_protocol(
            "unknown_f",
            self.topo,
            self.inputs,
            rng=random.Random(7),
            churn=ch,
            churn_policy=ChurnPolicy(transport=TransportConfig(retransmits=3)),
        )
        assert record.correct
        assert record.extra["double_counted"] == 0
        assert record.extra["lost_contributions"] == 0
        assert record.extra["epochs"] >= 1

    def test_churn_excludes_recovery_and_integrity(self):
        from repro.resilience import RecoveryPolicy

        ch = ChurnSchedule(root=self.topo.root)
        with pytest.raises(ValueError, match="immortal root"):
            run_protocol(
                "unknown_f",
                self.topo,
                self.inputs,
                churn=ch,
                recovery=RecoveryPolicy.default(),
            )
        with pytest.raises(ValueError, match="integrity"):
            run_protocol(
                "unknown_f",
                self.topo,
                self.inputs,
                churn=ch,
                integrity="checksum",
            )

    def test_spec_string_coerced_by_runner(self):
        record = run_protocol(
            "unknown_f",
            self.topo,
            self.inputs,
            rng=random.Random(7),
            churn="5:crash@r3,5:revive@r6",
            churn_policy=ChurnPolicy(transport=TransportConfig(retransmits=3)),
        )
        assert record.correct

    def test_serial_and_engine_derive_identical_churn(self):
        spec = {
            "kind": "random",
            "rate": 0.2,
            "horizon": 60,
            "amnesiac": 0.5,
            "flap_rate": 0.1,
        }
        for seed in (0, 3, 9):
            serial = materialize(
                "churn", spec, self.topo, self._seeded(seed)
            )
            units = point_units(
                "unknown_f",
                self.topo,
                [seed],
                schedule_spec={"kind": "none"},
                churn=spec,
            )
            rng = random.Random(seed)
            from repro.analysis.runner import make_inputs
            from repro.exec.scheduler import build_schedule

            make_inputs(self.topo, rng)
            build_schedule(units[0], self.topo, rng)
            engine = draw_schedules(
                {"churn": units[0].churn}, self.topo, rng
            )["churn"]
            assert engine.cycles == serial.cycles
            assert engine.flaps == serial.flaps

    def _seeded(self, seed):
        """Consume rng exactly as the serial sweep does before churn."""
        from repro.analysis.runner import make_inputs
        from repro.adversary.schedule import FailureSchedule

        rng = random.Random(seed)
        make_inputs(self.topo, rng)
        return rng

    def test_sweep_rows_carry_exactly_once_columns(self):
        point = run_point(
            "unknown_f",
            self.topo,
            range(3),
            coords={"churn": 0.1},
            churn={
                "kind": "random",
                "rate": 0.1,
                "horizon": 60,
                "amnesiac": 0.25,
                "flap_rate": 0.0,
            },
        )
        assert all("double_counted" in r.extra for r in point.records)
        assert len(point.records) == 3
        row = point.as_dict()
        assert row["double_counts"] == 0
        assert row["lost_contributions"] == 0
        assert "exact_rows" in row


# --------------------------------------------------------------------- #
# Record / replay of churn runs (bundle v3).
# --------------------------------------------------------------------- #


class TestChurnBundles:
    def test_flap_budget_failure_captures_and_replays(self, tmp_path):
        from repro.analysis.runner import safe_run_protocol
        from repro.sim.monitors import standard_monitors
        from repro.sim.replay import replay_bundle

        topo = grid_graph(3, 3)
        inputs = {u: u + 1 for u in topo.nodes()}
        ch = ChurnSchedule.from_spec(
            "flap:1-2@r2-r4,flap:1-2@r6-r8", root=topo.root
        )
        monitors = standard_monitors(topo, inputs, f=1, mode="record") + [
            DoubleCountOracle(inputs, mode="record")
        ]
        record = safe_run_protocol(
            "unknown_f",
            topo,
            inputs,
            seed=5,
            rng=random.Random(5),
            f=1,
            monitors=monitors,
            capture_dir=str(tmp_path),
            churn=ch,
            churn_policy=ChurnPolicy(transport=TransportConfig(retransmits=3)),
        )
        assert record.extra.get("violations"), "f=1 must flag two flaps"
        bundle = record.extra.get("bundle")
        assert bundle, "a failing churn run must capture a bundle"
        outcome = replay_bundle(bundle)
        assert outcome.reproduced

    def test_bundle_records_churn_params(self, tmp_path):
        from repro.analysis.runner import safe_run_protocol
        from repro.sim.monitors import standard_monitors
        from repro.sim.recorder import ExecutionRecord

        topo = grid_graph(3, 3)
        inputs = {u: u + 1 for u in topo.nodes()}
        ch = ChurnSchedule.from_spec(
            "flap:1-2@r2-r4,flap:1-2@r6-r8", root=topo.root
        )
        record = safe_run_protocol(
            "unknown_f",
            topo,
            inputs,
            seed=5,
            rng=random.Random(5),
            f=1,
            monitors=standard_monitors(topo, inputs, f=1, mode="record")
            + [DoubleCountOracle(inputs, mode="record")],
            capture_dir=str(tmp_path),
            churn=ch,
            churn_policy=ChurnPolicy(transport=TransportConfig(retransmits=3)),
        )
        bundle = ExecutionRecord.load(record.extra["bundle"])
        assert bundle.version >= 3
        params = bundle.params
        assert params["churn"]["flaps"] == [[1, 2, 2, 4], [1, 2, 6, 8]]
        assert params["churn_policy"]["transport"]["retransmits"] == 3


# --------------------------------------------------------------------- #
# Properties.
# --------------------------------------------------------------------- #

if HAVE_HYPOTHESIS:

    _topo = grid_graph(3, 3)
    _non_root = sorted(set(_topo.nodes()) - {_topo.root})

    @st.composite
    def durable_churn(draw):
        """1-2 durable crash/revive cycles on distinct non-root nodes."""
        nodes = draw(
            st.lists(
                st.sampled_from(_non_root),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
        cycles = {}
        for node in nodes:
            crash = draw(st.integers(min_value=2, max_value=12))
            gap = draw(st.integers(min_value=1, max_value=8))
            cycles[node] = [(crash, crash + gap, REJOIN_DURABLE)]
        return ChurnSchedule(cycles=cycles, root=_topo.root)

    @st.composite
    def mixed_churn(draw):
        """Cycles in either mode, possibly never reviving."""
        nodes = draw(
            st.lists(
                st.sampled_from(_non_root),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        cycles = {}
        for node in nodes:
            crash = draw(st.integers(min_value=2, max_value=12))
            revives = draw(st.booleans())
            mode = draw(st.sampled_from([REJOIN_DURABLE, REJOIN_AMNESIAC]))
            gap = draw(st.integers(min_value=1, max_value=10))
            cycles[node] = [(crash, crash + gap if revives else None, mode)]
        return ChurnSchedule(cycles=cycles, root=_topo.root)

    class TestChurnProperties:
        @settings(
            max_examples=12,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(churn=durable_churn(), seed=st.integers(0, 2**16))
        def test_durable_churn_within_budget_is_exact(self, churn, seed):
            """Durable rejoins never cost a contribution: the SUM is
            exact and every node books exactly one nonce."""
            inputs = {u: (u * 3 + seed) % 17 + 1 for u in _topo.nodes()}
            oracle = DoubleCountOracle(inputs, mode="strict")
            _, out = _churn(
                _topo,
                inputs,
                churn,
                rng=random.Random(seed),
                policy=ChurnPolicy(transport=TransportConfig(retransmits=3)),
                monitors=[oracle],
            )
            assert out.result == sum(inputs.values())
            assert out.partial.certified
            assert oracle.double_counts == 0
            assert oracle.lost_contributions == 0

        @settings(
            max_examples=12,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(churn=mixed_churn(), seed=st.integers(0, 2**16))
        @example(
            churn=ChurnSchedule.from_spec(ALL_HOLDERS_DEAD, root=_topo.root),
            seed=0,
        )
        def test_mixed_churn_is_never_silently_wrong(self, churn, seed):
            """Exact, or a certified partial whose value equals the
            aggregate over its claimed coverage — never a wrong total."""
            inputs = {u: (u * 5 + seed) % 23 + 1 for u in _topo.nodes()}
            oracle = DoubleCountOracle(inputs, mode="strict")
            _, out = _churn(
                _topo,
                inputs,
                churn,
                rng=random.Random(seed),
                policy=ChurnPolicy(transport=TransportConfig(retransmits=3)),
                monitors=[oracle],
            )
            assert oracle.double_counts == 0
            if out.partial.certified and out.result is not None:
                covered = set(out.partial.coverage or ())
                assert out.result == sum(inputs[u] for u in covered)

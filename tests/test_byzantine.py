"""Byzantine-tolerant aggregation: equivocation, witnesses, eviction, bounds.

Acceptance properties (ISSUE 10):

* Compromised non-root nodes lie about their own sub-aggregates
  (equivocate / inflate / deflate / replay / omit); the schedule is its
  own ground-truth taint ledger for grading.
* Witness cross-validation convicts only on proof — two authenticated
  contradictory frames, or a delta audit showing an impossible
  contribution — so honest nodes are never convicted.
* Every delivered result is exact or carries a satisfied influence
  bound: ``|error| <= b_rem * v_max`` with ``b_rem`` the unconvicted
  residual budget.
* A byz-enabled pipeline with zero compromised nodes is byte-identical
  (CC, rounds, result, per-round trace digests) to the plain pipeline.
* Node-level blame: a sender with two individually quarantined links is
  quarantined wholesale (satellite regression).
* The φ-accrual detector cannot instantly confirm from a cold-start
  single sample (satellite regression).
"""

import random

import pytest

from repro.analysis.runner import run_protocol
from repro.analysis.sweep import run_point
from repro.core.caaf import MAX
from repro.families.byz import (
    BYZ_MODES,
    ByzantineOracle,
    ByzantineSchedule,
    random_byz,
)
from repro.graphs import grid_graph, path_graph
from repro.integrity import IntegrityConfig, LinkQuarantine
from repro.resilience import (
    AUDITABLE_CAAFS,
    ByzantineConfig,
    PhiAccrualDetector,
    PhiConfig,
)
from repro.resilience.byzantine import ByzantinePlan
from repro.resilience.driver import drive_epochs
from repro.sim.faults import ledger_sources
from repro.sim.recorder import RecordingInjector
from repro.analysis.runner import make_inputs

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the toolchain
    HAVE_HYPOTHESIS = False


GRID = grid_graph(4, 4)


def _inputs(topology, seed=0):
    return make_inputs(topology, random.Random(seed))


def _byz_run(byz, seed=0, topology=None, config=None, **kwargs):
    topology = topology or GRID
    rng = random.Random(seed)
    inputs = make_inputs(topology, rng)
    return run_protocol(
        "algorithm1",
        topology,
        inputs,
        f=1,
        b=64,
        rng=rng,
        byz=byz,
        byz_config=config,
        **kwargs,
    )


class TestByzantineSchedule:
    def test_spec_round_trip(self):
        byz = ByzantineSchedule.from_spec("5:equivocate,7:inflate=4@r3,9:omit")
        assert byz.behaviors[5] == ("equivocate", 1, 1)
        assert byz.behaviors[7] == ("inflate", 4, 3)
        assert byz.behaviors[9] == ("omit", 1, 1)
        assert byz.budget == 3

    BAD_SPECS = {
        "5": ("5", "needs <node>:<mode>"),
        "5:teleport": ("5:teleport", "unknown byzantine mode 'teleport'"),
        "5:inflate=0": ("5:inflate=0", "magnitude 0 is < 1"),
        "5:inflate@r0": ("5:inflate@r0", "round 0 is < 1"),
        "x:omit": ("x:omit", "node 'x' is not an integer"),
        "5:omit,5:inflate": ("5:inflate", "node 5 given more than once"),
        "5:omit@rq": ("5:omit@rq", "round 'q' is not an integer"),
    }

    @pytest.mark.parametrize("bad", list(BAD_SPECS))
    def test_spec_rejects_bad_grammar(self, bad):
        token, why = self.BAD_SPECS[bad]
        with pytest.raises(ValueError) as exc_info:
            ByzantineSchedule.from_spec(bad)
        assert str(exc_info.value) == (
            f"bad byzantine spec fragment {token!r}: {why} (accepted "
            f"grammar: {ByzantineSchedule.SPEC_GRAMMAR})"
        )

    def test_validate_rejects_root_and_unknown_nodes(self):
        with pytest.raises(ValueError):
            ByzantineSchedule.from_spec(f"{GRID.root}:inflate").validate(GRID)
        with pytest.raises(ValueError):
            ByzantineSchedule.from_spec("999:omit").validate(GRID)

    def test_random_byz_never_compromises_the_root(self):
        for seed in range(6):
            byz = random_byz(
                GRID, 0.6, random.Random(seed), horizon=20, root=GRID.root
            )
            assert GRID.root not in byz.byz_nodes()
            for mode, k, start in byz.behaviors.values():
                assert mode in BYZ_MODES
                assert k >= 1 and start >= 1

    def test_random_byz_rate_zero_is_empty(self):
        byz = random_byz(GRID, 0.0, random.Random(1), horizon=20, root=0)
        assert not byz.has_events
        assert byz.budget == 0

    def test_random_byz_deterministic_per_rng_state(self):
        a = random_byz(GRID, 0.3, random.Random(7), horizon=24, root=0)
        b = random_byz(GRID, 0.3, random.Random(7), horizon=24, root=0)
        assert a.behaviors == b.behaviors

    def test_byz_sources_flattens_injector_chains(self):
        byz = ByzantineSchedule.from_spec("5:omit")
        assert ledger_sources([byz], "delivered_taints") == [byz]
        assert ledger_sources([], "delivered_taints") == []


def _defend(topology, inputs, spec, **config):
    """Drive a Byzantine plan's Algorithm 1 epochs: ``(plan, outcome)``."""
    plan = ByzantinePlan(
        topology, inputs, ByzantineSchedule.from_spec(spec), f=1, **config
    )
    return plan, drive_epochs(plan, "algorithm1", b=64)


class TestRunWithByzantine:
    def test_equivocator_convicted_and_evicted(self):
        plan, out = _defend(GRID, _inputs(GRID), "5:equivocate=3")
        convictions = plan.coordinator.convictions
        assert 5 in convictions
        assert convictions[5].reason == "equivocation"
        assert 5 in plan.evicted
        assert out.partial.certified
        # The convict's contribution is excluded, not re-guessed: the
        # value is exact over the surviving coverage.
        assert 5 not in out.partial.coverage

    def test_inflation_caught_by_delta_audit(self):
        topo = path_graph(6)
        inputs = {u: 1 for u in topo.nodes()}
        plan, out = _defend(topo, inputs, "3:inflate=9")
        assert 3 in plan.coordinator.convictions
        assert out.partial.certified

    def test_result_exact_or_within_influence_bound(self):
        honest = sum(_inputs(GRID).values())
        for spec in ("5:inflate=2", "9:deflate=1", "11:replay", "6:omit"):
            _, out = _defend(GRID, _inputs(GRID), spec)
            partial = out.partial
            assert partial.certified, spec
            bound = partial.influence_bound or 0
            # Evicted contributions leave the bracket; the remaining
            # error is bounded by the residual budget.
            assert partial.lower_bound - bound <= partial.value, spec
            assert partial.value <= partial.upper_bound + bound, spec

    def test_flag_policy_keeps_convict_uncertified(self):
        plan, out = _defend(
            GRID,
            _inputs(GRID),
            "5:equivocate=3",
            config=ByzantineConfig(evict_policy="flag"),
        )
        assert 5 in plan.coordinator.convictions
        assert plan.evicted == set()
        assert not out.partial.certified
        assert out.partial.influence_bound is None

    def test_rejects_unsupported_protocol_and_caaf(self, monkeypatch):
        """Both rejections come before any network is built: the CAAF
        when the plan is built, the protocol when the driver is entered."""
        from repro.sim.network import Network

        def no_network(*args, **kwargs):
            raise AssertionError("a network was built before the rejection")

        monkeypatch.setattr(Network, "__init__", no_network)
        byz = ByzantineSchedule.from_spec("5:omit")
        plan = ByzantinePlan(GRID, _inputs(GRID), byz, f=1)
        with pytest.raises(ValueError, match="supports protocols"):
            drive_epochs(plan, "folklore", b=64)
        assert "MAX" not in AUDITABLE_CAAFS
        with pytest.raises(ValueError, match="sum-like CAAF"):
            ByzantinePlan(GRID, _inputs(GRID), byz, f=1, caaf=MAX)

    def test_echo_traffic_is_overhead_never_protocol_cc(self):
        plan, out = _defend(GRID, _inputs(GRID), "5:inflate=2")
        echo_bits = plan.coordinator.total_echo_bits
        assert echo_bits > 0
        assert out.stats.max_overhead_bits >= 0
        # Echo bits are booked in the partial's overhead, not its CC.
        assert out.partial.extra["echo_bits"] == echo_bits

    def test_witness_election_is_deterministic_and_local(self):
        plan, _ = _defend(GRID, _inputs(GRID), "5:omit")
        coord = plan.coordinator
        for node in GRID.nodes():
            w1 = coord.witnesses_of(node)
            w2 = coord.witnesses_of(node)
            assert w1 == w2
            assert node not in w1
            assert len(w1) <= coord.config.witnesses


class TestRunnerIntegration:
    def test_string_spec_reaches_the_byz_path(self):
        record = _byz_run("5:equivocate,9:inflate=3")
        assert record.correct
        assert record.extra["certified"]
        assert record.extra["convicted"] >= 1
        assert record.extra["false_convictions"] == 0
        assert record.extra["undetected_equivocations"] == 0
        assert record.extra["influence_exceeded"] == 0

    def test_byz_is_mutually_exclusive_with_other_fault_runtimes(self):
        from repro.resilience import TransportConfig

        with pytest.raises(ValueError, match="mutually exclusive"):
            _byz_run(
                "5:omit", transport=TransportConfig(retransmits=2)
            )

    def test_clean_byz_run_is_bit_identical_to_baseline(self):
        rng_a, rng_b = random.Random(3), random.Random(3)
        inputs = make_inputs(GRID, rng_a)
        make_inputs(GRID, rng_b)
        tap_a, tap_b = RecordingInjector(), RecordingInjector()
        base = run_protocol(
            "algorithm1", GRID, inputs, f=1, b=64, rng=rng_a,
            injectors=(tap_a,),
        )
        zero = run_protocol(
            "algorithm1", GRID, inputs, f=1, b=64, rng=rng_b,
            injectors=(tap_b,), byz=ByzantineSchedule(),
        )
        assert zero.cc_bits == base.cc_bits
        assert zero.rounds == base.rounds
        assert zero.result == base.result
        assert tap_a._digests == tap_b._digests

    def test_sweep_point_carries_byz_columns(self):
        point = run_point(
            "algorithm1",
            GRID,
            seeds=[0, 1],
            f=1,
            b=64,
            byz="5:inflate=2",
        )
        row = point.as_dict()
        assert row["byz_rows"] == 2
        assert row["byz_violations"] == 0


class TestByzantineOracle:
    def test_false_conviction_counted(self):
        byz = ByzantineSchedule.from_spec("5:inflate=2")
        oracle = ByzantineOracle(byz, mode="record")
        oracle.grade_convictions([7])  # honest node
        assert oracle.false_convictions == 1
        oracle2 = ByzantineOracle(byz, mode="record")
        oracle2.grade_convictions([5])  # actually compromised
        assert oracle2.false_convictions == 0

    def test_strict_mode_raises_on_false_conviction(self):
        from repro.sim.monitors import InvariantViolation

        byz = ByzantineSchedule.from_spec("5:inflate=2")
        oracle = ByzantineOracle(byz, mode="strict")
        with pytest.raises(InvariantViolation):
            oracle.grade_convictions([7])


class TestNodeBlameQuarantine:
    """Satellite regression: >= 2 blamed links quarantine the node."""

    def test_two_blamed_links_quarantine_the_node(self):
        q = LinkQuarantine(threshold=2, node_threshold=2)
        for _ in range(2):
            q.record((5, 1), rnd=3, blamed=True)
        assert q.is_quarantined((5, 1))
        assert not q.quarantined_nodes
        for _ in range(2):
            q.record((5, 2), rnd=4, blamed=True)
        assert q.quarantined_nodes == {5}
        assert [e.node for e in q.node_events] == [5]
        # Every remaining link out of the node is now quarantined, even
        # ones whose own score never crossed the link threshold.
        assert q.is_quarantined((5, 3))
        assert not q.is_quarantined((6, 3))

    def test_unblamed_and_distinct_senders_do_not_escalate(self):
        q = LinkQuarantine(threshold=1)
        q.record((5, 1), rnd=1, blamed=False)
        assert not q.quarantined
        q.record((5, 1), rnd=1, blamed=True)
        q.record((6, 1), rnd=1, blamed=True)
        assert q.quarantined_nodes == set()

    def test_node_threshold_validated(self):
        with pytest.raises(ValueError):
            LinkQuarantine(threshold=1, node_threshold=1)

    def test_as_dict_and_counters_surface_nodes(self):
        from repro.integrity import IntegrityCoordinator

        q = LinkQuarantine(threshold=1)
        q.record((5, 1), rnd=1, blamed=True)
        q.record((5, 2), rnd=2, blamed=True)
        d = q.as_dict()
        assert d["quarantined_nodes"] == [5]
        assert d["node_threshold"] == 2
        coord = IntegrityCoordinator(IntegrityConfig(mode="checksum"))
        assert coord.counters()["quarantined_nodes"] == 0


class TestPhiColdStart:
    """Satellite regression: no instant confirm from a cold-start fit."""

    @pytest.mark.parametrize("bad", [0, 1, -1])
    def test_single_sample_fits_rejected_by_config(self, bad):
        with pytest.raises(ValueError, match="min_samples"):
            PhiConfig(min_samples=bad)

    def test_single_gap_falls_back_to_the_prior(self):
        det = PhiAccrualDetector(PhiConfig())
        det.observe(0, 1, logical_round=1)
        det.observe(0, 1, logical_round=2)  # exactly one gap sample
        # A bypassed config guard must still not fit one sample: phi at
        # a short silence stays identical to the prior's.
        prior = PhiAccrualDetector(PhiConfig())
        prior.observe(0, 1, logical_round=2)
        assert det.phi(0, 1, logical_round=4) == pytest.approx(
            prior.phi(0, 1, logical_round=4)
        )

    def test_zero_variance_history_is_floored_not_instant(self):
        cfg = PhiConfig()
        det = PhiAccrualDetector(cfg)
        # A long perfectly regular history: gap variance is exactly 0.
        for r in range(1, 12):
            det.observe(0, 1, logical_round=r)
        phi_one_late = det.phi(0, 1, logical_round=13)  # one round late
        assert phi_one_late < cfg.confirm_threshold
        # Genuine long silence still confirms.
        assert det.phi(0, 1, logical_round=40) >= cfg.confirm_threshold


if HAVE_HYPOTHESIS:

    def topologies():
        return st.sampled_from(
            [grid_graph(3, 3), grid_graph(4, 4), path_graph(7)]
        )

    class TestByzantineProperties:
        @given(seed=st.integers(0, 200), topo=topologies())
        @settings(
            max_examples=10,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def test_zero_byz_pipeline_is_byte_identical(self, seed, topo):
            rng_a, rng_b = random.Random(seed), random.Random(seed)
            inputs = make_inputs(topo, rng_a)
            make_inputs(topo, rng_b)
            tap_a, tap_b = RecordingInjector(), RecordingInjector()
            base = run_protocol(
                "algorithm1", topo, inputs, f=1, b=64, rng=rng_a,
                injectors=(tap_a,),
            )
            zero = run_protocol(
                "algorithm1", topo, inputs, f=1, b=64, rng=rng_b,
                injectors=(tap_b,), byz=ByzantineSchedule(),
            )
            assert zero.cc_bits == base.cc_bits
            assert zero.rounds == base.rounds
            assert zero.result == base.result
            assert tap_a._digests == tap_b._digests

        @given(
            seed=st.integers(0, 100),
            node=st.integers(1, 8),
            magnitude=st.integers(1, 5),
        )
        @settings(
            max_examples=10,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def test_single_equivocation_detected_or_bounded(
            self, seed, node, magnitude
        ):
            topo = grid_graph(3, 3)
            byz = ByzantineSchedule.from_spec(f"{node}:equivocate={magnitude}")
            rng = random.Random(seed)
            inputs = make_inputs(topo, rng)
            record = run_protocol(
                "algorithm1", topo, inputs, f=1, b=64, rng=rng, byz=byz
            )
            # Either the equivocator was convicted (bound shrinks to 0)
            # or its influence stays inside the certified bound — and
            # the oracle never books a violation either way.
            assert record.extra["false_convictions"] == 0
            assert record.extra["undetected_equivocations"] == 0
            assert record.extra["influence_exceeded"] == 0
            assert record.correct

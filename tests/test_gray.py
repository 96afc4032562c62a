"""Gray-failure resilience: stragglers, φ-accrual suspicion, adaptive RTO.

Acceptance properties (ISSUE 8):

* Gray failures are pure *latency* faults: under stalls/inflations whose
  peak severity fits the transport's tolerance window, every protocol
  run stays **exact** — nothing is dropped, nothing is evicted.
* The φ-accrual detector grades suspicion (trust / suspect / confirm)
  instead of issuing binary verdicts; only a *confirmed* suspicion may
  evict, so a limping-but-live node is never treated as dead — the
  :class:`StragglerOracle` reports zero FALSE-SUSPECT verdicts.
* Adaptive per-link RTO closes clean windows early: on the same
  workload the adaptive transport finishes in measurably fewer physical
  rounds than the fixed NACK schedule, at identical protocol CC.
* Every gray schedule is deterministic (profiles are pure functions of
  the broadcast round) and rides repro bundles: a recorded gray run
  replays bit-exactly.
"""

import random

import pytest

from repro.analysis.runner import run_protocol, safe_run_protocol
from repro.analysis.families import materialize
from repro.exec.scheduler import WorkUnit, execute_unit
from repro.families.gray import (
    GRAY_CONSTANT,
    GRAY_LIMP,
    GRAY_RAMP,
    LIMP_PERIOD,
    GrayFailureSchedule,
    StragglerOracle,
    _profile_delay,
    random_gray,
)
from repro.graphs import grid_graph, path_graph
from repro.resilience import (
    LEVEL_CONFIRM,
    LEVEL_SUSPECT,
    LEVEL_TRUST,
    AdaptiveRto,
    PhiAccrualDetector,
    PhiConfig,
    ReliableTransport,
    TransportConfig,
)
from repro.sim.faults import ledger_sources
from repro.sim.stats import SimStats

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the toolchain
    HAVE_HYPOTHESIS = False


# --------------------------------------------------------------------- #
# Spec grammar, validation, serialization.
# --------------------------------------------------------------------- #


class TestGraySpec:
    def test_spec_round_trip(self):
        gray = GrayFailureSchedule.from_spec(
            "5:stall@r3-r9:x2:ramp,link:1-2@r2-r8:x1"
        )
        assert gray.stalls == {5: [(3, 9, 2, GRAY_RAMP)]}
        assert gray.links == [(1, 2, 2, 8, 1, GRAY_CONSTANT)]

    def test_default_severity_and_profile(self):
        gray = GrayFailureSchedule.from_spec("3:stall@r2-r4:x1")
        assert gray.stalls == {3: [(2, 4, 1, GRAY_CONSTANT)]}

    BAD_SPECS = {
        "5:melt@r3-r9:x2": "unknown gray event 'melt'",
        "5:stall@r3-r9:x0": "severity 0 is < 1",
        "5:stall@r9-r3:x2": "gray window 9-3 is empty",
        "5:stall@r0-r3:x2": "round 0 is < 1",
        "5:stall@r3-r9:x2:jitter": "unknown gray profile 'jitter'",
        "link:4-4@r2-r8:x1": None,  # self-loop: rejected by the constructor
        "gibberish": "needs <node>:stall@r<R1>-r<R2>:x<S>",
        "link:1-x@r2-r8:x1": "edge '1-x' is not a node pair",
        "5:stall@r3:x2": "window needs the form r<R1>-r<R2>",
        "5:stall@rq-r9:x2": "round 'q' is not an integer",
    }

    @pytest.mark.parametrize("bad", list(BAD_SPECS))
    def test_spec_rejects_name_the_grammar(self, bad):
        why = self.BAD_SPECS[bad]
        expected = (
            "cannot degrade self-loop edge 4-4"
            if why is None
            else f"bad gray spec fragment {bad!r}: {why} (accepted grammar: "
            f"{GrayFailureSchedule.SPEC_GRAMMAR})"
        )
        with pytest.raises(ValueError) as exc_info:
            GrayFailureSchedule.from_spec(bad)
        assert str(exc_info.value) == expected

    def test_overlapping_stalls_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            GrayFailureSchedule(stalls={2: [(3, 9, 1, "constant"),
                                            (7, 12, 1, "constant")]})

    def test_validate_against_topology(self):
        topo = grid_graph(3, 3)
        with pytest.raises(ValueError, match="unknown node"):
            GrayFailureSchedule(stalls={99: [(2, 4)]}).validate(topo)
        with pytest.raises(ValueError, match="nonexistent edge"):
            GrayFailureSchedule(links=[(0, 8, 2, 4)]).validate(topo)
        GrayFailureSchedule(
            stalls={4: [(2, 4)]}, links=[(0, 1, 2, 4)]
        ).validate(topo)

    def test_degraded_intervals_ledger_sorted(self):
        gray = GrayFailureSchedule.from_spec(
            "5:stall@r8-r9:x2,link:1-2@r2-r8:x1,3:stall@r4-r6:x3:limp"
        )
        ledger = gray.degraded_intervals()
        assert [e[2] for e in ledger] == sorted(e[2] for e in ledger)
        assert ("stall", (3,), 4, 6, 3, GRAY_LIMP) in ledger
        assert ("link", (1, 2), 2, 8, 1, GRAY_CONSTANT) in ledger

    def test_gray_sources_flattens_one_level(self):
        gray = GrayFailureSchedule.from_spec("3:stall@r2-r4:x1")

        class Wrapper:
            inner = [gray]

        assert ledger_sources([gray], "degraded_intervals") == [gray]
        assert ledger_sources([Wrapper()], "degraded_intervals") == [gray]
        assert ledger_sources([], "degraded_intervals") == []


# --------------------------------------------------------------------- #
# Latency profiles.
# --------------------------------------------------------------------- #


class TestGrayProfiles:
    def test_constant_holds_the_severity(self):
        for rnd in range(5, 11):
            assert _profile_delay(GRAY_CONSTANT, 3, rnd, 5, 10) == 3

    def test_ramp_degrades_linearly(self):
        delays = [_profile_delay(GRAY_RAMP, 4, r, 10, 19) for r in range(10, 20)]
        assert delays[0] == 1
        assert delays[-1] == 4
        assert delays == sorted(delays)

    def test_limp_alternates_in_period_blocks(self):
        delays = [_profile_delay(GRAY_LIMP, 2, r, 1, 12) for r in range(1, 13)]
        expected = []
        for idx in range(12):
            expected.append(2 if (idx // LIMP_PERIOD) % 2 == 0 else 0)
        assert delays == expected

    def test_delay_of_compounds_stall_and_link(self):
        gray = GrayFailureSchedule(
            stalls={1: [(3, 8, 2, GRAY_CONSTANT)]},
            links=[(1, 2, 3, 8, 3, GRAY_CONSTANT)],
        )
        # Stalled sender over a degraded edge: delays add.
        assert gray.delays(1, 2, 5) == (2, 3)
        # Only the stall applies on a clean edge.
        assert gray.delays(1, 4, 5) == (2, 0)
        # Only the inflation applies for the non-stalled direction.
        assert gray.delays(2, 1, 5) == (0, 3)
        # Outside the interval: clean.
        assert gray.delays(1, 2, 9) == (0, 0)


# --------------------------------------------------------------------- #
# Seeded random schedules.
# --------------------------------------------------------------------- #


class TestRandomGray:
    def test_deterministic_per_rng_state(self):
        topo = grid_graph(4, 4)
        a = random_gray(topo, 0.5, random.Random(7), horizon=40, root=0)
        b = random_gray(topo, 0.5, random.Random(7), horizon=40, root=0)
        assert a.as_jsonable() == b.as_jsonable()
        c = random_gray(topo, 0.5, random.Random(8), horizon=40, root=0)
        assert a.as_jsonable() != c.as_jsonable()

    def test_root_is_never_stalled(self):
        topo = grid_graph(4, 4)
        for seed in range(10):
            gray = random_gray(
                topo, 1.0, random.Random(seed), horizon=30, root=topo.root
            )
            assert topo.root not in gray.stalls

    def test_rate_zero_is_empty(self):
        topo = grid_graph(3, 3)
        gray = random_gray(topo, 0.0, random.Random(1), horizon=30)
        assert not gray.has_events

    def test_severity_is_bounded(self):
        topo = grid_graph(4, 4)
        gray = random_gray(
            topo, 1.0, random.Random(3), horizon=30, max_severity=2
        )
        assert gray.max_severity() <= 2

    def test_invalid_parameters_rejected(self):
        topo = grid_graph(3, 3)
        with pytest.raises(ValueError):
            random_gray(topo, 1.5, random.Random(1), horizon=10)
        with pytest.raises(ValueError):
            random_gray(topo, 0.5, random.Random(1), horizon=10, max_severity=0)

    def test_materialize_gray_coercions(self):
        topo = grid_graph(3, 3)
        rng = random.Random(2)
        assert materialize("gray", None, topo, rng) is None
        gray = materialize("gray", "3:stall@r2-r4:x1", topo, rng)
        assert gray.stalls == {3: [(2, 4, 1, GRAY_CONSTANT)]}
        assert materialize("gray", gray, topo, rng) is gray
        rnd_spec = {"kind": "random", "rate": 0.5, "horizon": 20}
        drawn = materialize("gray", rnd_spec, topo, random.Random(4))
        again = materialize("gray", rnd_spec, topo, random.Random(4))
        assert drawn.as_jsonable() == again.as_jsonable()


# --------------------------------------------------------------------- #
# φ-accrual detection.
# --------------------------------------------------------------------- #


class TestPhiAccrualDetector:
    def test_phi_accrues_with_silence(self):
        det = PhiAccrualDetector()
        det.observe(0, 1, 1)
        values = [det.phi(0, 1, lr) for lr in range(2, 12)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_graded_levels_and_event_log(self):
        det = PhiAccrualDetector()
        det.observe(0, 1, 1)
        assert det.level(0, 1, 2, rnd=10) == LEVEL_TRUST
        # Keep probing as silence lengthens; the level must pass through
        # suspect before reaching confirm, and each *rise* is logged.
        seen = [det.level(0, 1, lr, rnd=lr * 5) for lr in range(2, 30)]
        assert LEVEL_SUSPECT in seen and LEVEL_CONFIRM in seen
        assert seen.index(LEVEL_SUSPECT) < seen.index(LEVEL_CONFIRM)
        levels = [e.level for e in det.events]
        assert levels == [LEVEL_SUSPECT, LEVEL_CONFIRM]
        assert det.suspects == 1 and det.confirms == 1
        assert det.suspected_peers() == {1}
        assert det.suspected_peers(LEVEL_CONFIRM) == {1}

    def test_arrival_resets_to_trust(self):
        det = PhiAccrualDetector()
        det.observe(0, 1, 1)
        for lr in range(2, 30):
            det.level(0, 1, lr)
        assert det._level[(0, 1)] == LEVEL_CONFIRM
        det.observe(0, 1, 30)
        assert det._level[(0, 1)] == LEVEL_TRUST
        assert det.level(0, 1, 30) == LEVEL_TRUST

    def test_history_replaces_prior_after_min_samples(self):
        det = PhiAccrualDetector(PhiConfig(min_samples=3, min_std=0.5))
        # A peer that reliably arrives every 4 logical rounds.
        for lr in (1, 5, 9, 13):
            det.observe(0, 1, lr)
        # Elapsed 4 is that peer's normal cadence: low phi.
        assert det.phi(0, 1, 17) < 1.0
        # A fresh pair still runs on the mean-1 prior: elapsed 4 is alarming.
        assert det.phi(0, 2, 4) > det.phi(0, 1, 17)

    def test_window_size_bounds_history(self):
        det = PhiAccrualDetector(PhiConfig(window_size=4))
        for lr in range(1, 20):
            det.observe(0, 1, lr)
        assert len(det._gaps[(0, 1)]) == 4

    def test_phi_config_validation(self):
        with pytest.raises(ValueError):
            PhiConfig(window_size=1)
        with pytest.raises(ValueError):
            PhiConfig(min_std=0.0)
        with pytest.raises(ValueError):
            PhiConfig(suspect_threshold=9.0, confirm_threshold=8.0)

    def test_the_detector_changes_a_verdict(self, capsys, monkeypatch):
        # Seed 17 of the adaptive-RTO chaos argv: graded suspicion keeps
        # the run correct; evicting on the first missing frame (every
        # level read as confirm) makes it silently wrong.
        from repro.cli import main

        argv = [
            "chaos", "--topology", "grid:3x3", "--protocol", "algorithm1",
            "-f", "2", "-b", "64", "--inject", "drop=0.02",
            "--retransmit-budget", "2", "--rto", "adaptive",
            "--seed", "17", "--seeds", "1",
        ]

        def row():
            code = main(argv)
            line = capsys.readouterr().out.splitlines()[3]
            return code, [cell.strip() for cell in line.split("|")[:3]]

        assert row() == (0, ["17", "correct", "38"])
        monkeypatch.setattr(
            PhiAccrualDetector, "level", lambda self, *a, **k: LEVEL_CONFIRM
        )
        assert row() == (1, ["17", "SILENT-WRONG", "37"])


class TestAdaptiveRto:
    def test_initial_rto_is_one_round(self):
        rto = AdaptiveRto()
        assert rto.rto == AdaptiveRto.INITIAL_RTO == 1
        assert rto.samples == 0

    def test_first_sample_seeds_the_estimator(self):
        rto = AdaptiveRto()
        rto.sample(3)
        assert rto.srtt == 3.0 and rto.rttvar == 1.5
        assert rto.rto == 9  # ceil(3 + 4 * 1.5)
        assert rto.min_rtt == 3

    def test_converges_toward_stable_rtt(self):
        rto = AdaptiveRto()
        for _ in range(64):
            rto.sample(2)
        assert rto.rto <= 4  # variance decays; 2 + 4*var -> ~2
        assert rto.rto >= rto.min_rtt == 2

    def test_floor_at_min_rtt(self):
        rto = AdaptiveRto()
        rto.sample(6)
        for _ in range(64):
            rto.sample(6)
        assert rto.rto >= rto.min_rtt == 6

    def test_rejects_negative_and_clamps_zero(self):
        rto = AdaptiveRto()
        with pytest.raises(ValueError):
            rto.sample(-1)
        rto.sample(0)
        assert rto.min_rtt == 1

    def test_as_dict_snapshot(self):
        rto = AdaptiveRto()
        rto.sample(2)
        snap = rto.as_dict()
        assert snap["samples"] == 1 and snap["min_rtt"] == 2
        assert snap["rto"] == rto.rto


# --------------------------------------------------------------------- #
# Adaptive windows (coordinator-level).
# --------------------------------------------------------------------- #


class TestAdaptiveWindows:
    def test_fixed_mode_is_closed_form(self):
        t = ReliableTransport(TransportConfig(retransmits=2))
        w = t.config.window
        assert t.locate(1) == (1, 1)
        assert t.locate(w) == (1, w)
        assert t.locate(w + 1) == (2, 1)

    def test_clean_window_closes_after_all_zero_reports(self):
        t = ReliableTransport(TransportConfig(retransmits=2, rto="adaptive"))
        assert t.locate(1) == (1, 1)
        assert t.locate(2) == (1, 2)
        t.report_missing(0, 2, 0)
        t.report_missing(1, 2, 0)
        # Every node reported a complete inbox at slot 2: round 3 opens
        # the next logical round.
        assert t.locate(3) == (2, 1)
        assert t.window_start(2) == 3

    def test_missing_frames_hold_the_window_open(self):
        t = ReliableTransport(TransportConfig(retransmits=2, rto="adaptive"))
        t.locate(1), t.locate(2)
        t.report_missing(0, 2, 1)
        t.report_missing(1, 2, 0)
        assert t.locate(3) == (1, 3)

    def test_cap_forces_the_close(self):
        t = ReliableTransport(TransportConfig(retransmits=2, rto="adaptive"))
        cap = t.config.window
        for rnd in range(1, cap + 1):
            lr, slot = t.locate(rnd)
            assert (lr, slot) == (1, rnd)
            t.report_missing(0, rnd, 1)  # never complete
        assert t.locate(cap + 1) == (2, 1)

    def test_per_link_retransmit_attribution(self):
        t = ReliableTransport(TransportConfig(retransmits=1))
        assert t.consume_retransmit(3, 1, [0, 5]) == 1
        # Budget exhausted: further requests are cap hits, per link.
        assert t.consume_retransmit(3, 1, [0]) is None
        counters = t.link_counters()
        assert counters["attempts"] == {"3->0": 1, "3->5": 1}
        assert counters["cap_hits"] == {"3->0": 1}
        assert counters["budget"] == 1

    def test_stats_absorb_merges_link_stats(self):
        a = SimStats()
        a.link_stats = {"attempts": {"1->0": 2}, "budget": 2}
        b = SimStats()
        b.link_stats = {"attempts": {"1->0": 1, "2->0": 3}, "budget": 2}
        a.absorb(b)
        assert a.link_stats["attempts"] == {"1->0": 3, "2->0": 3}


# --------------------------------------------------------------------- #
# End-to-end: protocols limp but stay exact.
# --------------------------------------------------------------------- #


def _gray_run(rto="fixed", gray=None, seed=3, protocol="algorithm1"):
    from repro.sim.monitors import standard_monitors

    topo = grid_graph(3, 3)
    rng = random.Random(seed)
    inputs = {u: u + 1 for u in topo.nodes()}
    # Coerce the transport up front so the straggler oracle watches the
    # same live detector the run uses (the scheduler does the same).
    transport = ReliableTransport(TransportConfig(retransmits=2, rto=rto))
    monitors = None
    if gray is not None:
        monitors = standard_monitors(
            topo, inputs, f=2, mode="record", transport=transport
        ) + [StragglerOracle(gray, transport=transport, mode="record")]
    return run_protocol(
        protocol,
        topo,
        inputs,
        f=2,
        b=64,
        rng=rng,
        monitors=monitors,
        transport=transport,
        gray=gray,
    )


class TestGrayEndToEnd:
    def test_tolerable_stalls_stay_exact_fixed(self):
        gray = GrayFailureSchedule.from_spec(
            "4:stall@r5-r30:x2,link:0-1@r10-r40:x2:limp"
        )
        record = _gray_run(gray=gray)
        assert record.correct
        assert record.result == sum(u + 1 for u in grid_graph(3, 3).nodes())
        assert record.extra["gray_stalled"] > 0
        assert record.extra["live_gaps"] == 0

    def test_tolerable_stalls_stay_exact_adaptive(self):
        gray = GrayFailureSchedule.from_spec(
            "4:stall@r5-r30:x2:ramp,link:1-2@r10-r40:x2"
        )
        record = _gray_run(rto="adaptive", gray=gray)
        assert record.correct
        assert record.extra["false_suspects"] == 0
        assert record.extra["missed_degradations"] == 0

    def test_adaptive_beats_fixed_on_wall_rounds(self):
        gray = GrayFailureSchedule.from_spec("4:stall@r5-r20:x2")
        fixed = _gray_run(rto="fixed", gray=gray)
        adaptive = _gray_run(rto="adaptive", gray=gray)
        assert fixed.correct and adaptive.correct
        assert adaptive.rounds < fixed.rounds
        assert adaptive.result == fixed.result

    def test_gray_counters_surface_in_extras(self):
        gray = GrayFailureSchedule.from_spec("4:stall@r5-r15:x2")
        record = _gray_run(rto="adaptive", gray=gray)
        for key in (
            "gray_stalled",
            "gray_inflated",
            "gray_delay_rounds",
            "suspects",
            "confirms",
        ):
            assert key in record.extra, key

    def test_unknown_f_limps_too(self):
        gray = GrayFailureSchedule.from_spec("5:stall@r4-r18:x2:limp")
        record = _gray_run(rto="adaptive", gray=gray, seed=5, protocol="unknown_f")
        assert record.correct
        assert record.extra["false_suspects"] == 0

    def test_execute_unit_matches_serial_derivation(self):
        topo = grid_graph(3, 3)
        unit = WorkUnit(
            protocol="algorithm1",
            topology=topo,
            seed=11,
            f=2,
            b=64,
            schedule={"kind": "none"},
            transport=TransportConfig(retransmits=2, rto="adaptive"),
            gray={"kind": "random", "rate": 0.4, "horizon": 60},
        )
        first = execute_unit(unit)
        second = execute_unit(unit)
        assert first.result == second.result
        assert first.cc_bits == second.cc_bits
        assert first.rounds == second.rounds
        assert first.extra.get("gray_delay_rounds") == second.extra.get(
            "gray_delay_rounds"
        )


# --------------------------------------------------------------------- #
# The straggler oracle.
# --------------------------------------------------------------------- #


class _FakeNetwork:
    def __init__(self, alive=True):
        self.alive = alive

    def is_alive(self, node, rnd):
        return self.alive


class _FakeTransport:
    def __init__(self, detector):
        self.detector = detector
        self.config = TransportConfig(retransmits=2, rto="adaptive")


class TestStragglerOracle:
    def _confirmed_detector(self):
        det = PhiAccrualDetector()
        det.observe(0, 4, 1)
        for lr in range(2, 40):
            det.level(0, 4, lr, rnd=lr * 3)
        assert any(e.level == LEVEL_CONFIRM for e in det.events)
        return det

    def test_confirm_on_live_peer_is_false_suspect(self):
        det = self._confirmed_detector()
        oracle = StragglerOracle(
            GrayFailureSchedule(), transport=_FakeTransport(det), mode="record"
        )
        net = _FakeNetwork(alive=True)
        oracle.attach(net)
        oracle.end_run(40)
        assert oracle.false_suspects == 1
        assert any(v.rule == "false-suspect" for v in oracle.violations)
        # A second run's end (next epoch) must not double-report the pair.
        oracle.end_run(40)
        assert oracle.false_suspects == 1

    def test_confirm_on_dead_peer_is_legitimate(self):
        det = self._confirmed_detector()
        oracle = StragglerOracle(
            GrayFailureSchedule(), transport=_FakeTransport(det), mode="record"
        )
        net = _FakeNetwork(alive=False)
        oracle.attach(net)
        oracle.end_run(40)
        assert oracle.false_suspects == 0
        assert not oracle.violations

    def test_undetected_severe_stall_is_missed_degradation(self):
        det = PhiAccrualDetector()  # never observed anything
        window = TransportConfig(retransmits=2).window
        gray = GrayFailureSchedule(
            stalls={4: [(2, 2 + 4 * window, window, GRAY_CONSTANT)]}
        )
        oracle = StragglerOracle(
            gray, transport=_FakeTransport(det), mode="record"
        )
        oracle.grade_final()
        assert oracle.missed_degradations == 1
        assert any(v.rule == "unbounded-stall" for v in oracle.violations)

    def test_mild_stall_is_not_a_miss(self):
        det = PhiAccrualDetector()
        gray = GrayFailureSchedule(stalls={4: [(2, 6, 1, GRAY_CONSTANT)]})
        oracle = StragglerOracle(
            gray, transport=_FakeTransport(det), mode="record"
        )
        oracle.grade_final()
        assert oracle.missed_degradations == 0

    def test_suspected_severe_stall_is_not_a_miss(self):
        det = self._confirmed_detector()  # node 4 was suspected
        window = TransportConfig(retransmits=2).window
        gray = GrayFailureSchedule(
            stalls={4: [(2, 2 + 4 * window, window, GRAY_CONSTANT)]}
        )
        oracle = StragglerOracle(
            gray, transport=_FakeTransport(det), mode="record"
        )
        oracle.grade_final()
        assert oracle.missed_degradations == 0


# --------------------------------------------------------------------- #
# Bundles: gray runs record and replay bit-exactly.
# --------------------------------------------------------------------- #


class TestGrayBundles:
    def test_gray_run_records_and_replays(self, tmp_path):
        from repro.sim.monitors import standard_monitors
        from repro.sim.recorder import ExecutionRecord
        from repro.sim.replay import replay_bundle

        topo = grid_graph(3, 3)
        inputs = {u: u + 1 for u in topo.nodes()}
        # A stall past the fixed window's tolerance: the run degrades
        # (live gaps), which is exactly what capture_dir snapshots.
        gray = GrayFailureSchedule.from_spec("4:stall@r2-r40:x9")
        transport = TransportConfig(retransmits=1)
        record = safe_run_protocol(
            "algorithm1",
            topo,
            inputs,
            seed=6,
            rng=random.Random(6),
            f=2,
            b=64,
            monitors=standard_monitors(topo, inputs, f=2, mode="record"),
            capture_dir=str(tmp_path),
            transport=transport,
            gray=gray,
        )
        bundle_path = record.extra.get("bundle")
        assert bundle_path, "a degraded gray run must capture a bundle"
        bundle = ExecutionRecord.load(bundle_path)
        assert bundle.version >= 4
        assert bundle.params["gray"]["stalls"] == {"4": [[2, 40, 9, "constant"]]}
        outcome = replay_bundle(bundle_path)
        assert outcome.reproduced

    def test_transport_config_jsonable_round_trips_gray_knobs(self):
        cfg = TransportConfig(retransmits=3, rto="adaptive")
        data = cfg.as_jsonable()
        assert data["rto"] == "adaptive" and "hedge" not in data
        assert TransportConfig.from_jsonable(data) == cfg
        # Pre-gray configs serialize byte-identically to v3 bundles.
        legacy = TransportConfig(retransmits=3).as_jsonable()
        assert "rto" not in legacy

    def test_hedged_transport_config_is_a_retired_knob(self):
        data = {"retransmits": 2, "backoff_cap": 8, "hedge": True}
        with pytest.raises(ValueError, match="no longer supported"):
            TransportConfig.from_jsonable(data)

    def test_unhedged_transport_config_loads_as_the_default(self):
        data = {"retransmits": 2, "backoff_cap": 8, "hedge": False}
        assert TransportConfig.from_jsonable(data) == TransportConfig()


# --------------------------------------------------------------------- #
# Properties.
# --------------------------------------------------------------------- #


if HAVE_HYPOTHESIS:

    class TestGrayProperties:
        @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                        max_size=40))
        @settings(max_examples=60, deadline=None)
        def test_rto_never_below_min_observed_rtt(self, rtts):
            rto = AdaptiveRto()
            seen = []
            for rtt in rtts:
                rto.sample(rtt)
                seen.append(max(1, rtt))  # samples clamp to >= 1 round
                assert rto.min_rtt == min(seen)
                assert rto.rto >= min(seen)

        @given(st.integers(min_value=1, max_value=30),
               st.integers(min_value=1, max_value=8))
        @settings(max_examples=40, deadline=None)
        def test_phi_is_monotone_in_silence(self, last_seen, probe):
            det = PhiAccrualDetector()
            det.observe(0, 1, last_seen)
            a = det.phi(0, 1, last_seen + probe)
            b = det.phi(0, 1, last_seen + probe + 1)
            assert b >= a

        @given(st.integers(min_value=0, max_value=100))
        @settings(
            max_examples=8,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def test_clean_runs_raise_no_suspicion(self, seed):
            record = _gray_run(rto="adaptive", seed=seed)
            assert record.correct
            assert record.extra["suspects"] == 0
            assert record.extra["confirms"] == 0


"""Deterministic failure forensics: record -> replay -> divergence.

The headline loop: a chaos run that misbehaves is auto-captured as a repro
bundle, the bundle replays to the bit-identical outcome, and any tampering
with the bundle (or drift in the code path) raises
:class:`repro.sim.replay.ReplayDivergence` naming the first divergent
round.
"""

import copy
import dataclasses
import glob
import json
import os

import pytest

from repro.analysis.runner import RunTimeout, make_inputs, safe_run_protocol
from repro.graphs import grid_graph
from repro.sim import (
    BUNDLE_FORMAT,
    BUNDLE_VERSION,
    ExecutionRecord,
    MessageFaults,
    RecordingInjector,
    ReplayDivergence,
    is_failure,
    replay_bundle,
)
from repro.sim.faults import FaultInjector
from repro.sim.monitors import standard_monitors

import random


def chaos_capture(tmp_path, seed=2, protocol="unknown_f", spec=None,
                  monitor_mode="record", **extra):
    """One seeded chaos run with auto-capture; returns (record, bundle)."""
    topo = grid_graph(4, 4)
    rng = random.Random(seed)
    inputs = make_inputs(topo, rng)
    faults = spec or MessageFaults(drop=0.08, duplicate=0.03, delay=0.05,
                                   seed=seed)
    kwargs = dict(extra)
    if monitor_mode == "record":
        kwargs["monitors"] = standard_monitors(topo, inputs, mode="record")
    elif monitor_mode == "strict":
        kwargs["strict_monitors"] = True
    record = safe_run_protocol(
        protocol,
        topo,
        inputs,
        seed=seed,
        rng=rng,
        strict=False,
        injectors=[faults],
        capture_dir=str(tmp_path),
        **kwargs,
    )
    path = record.extra.get("bundle")
    bundle = ExecutionRecord.load(path) if path else None
    return record, bundle


def row_without_capture(record):
    """A row's columns minus its bundle path: what a recorded and an
    unrecorded execution must agree on."""
    row = record.as_dict()
    row.pop("bundle", None)
    return row


class TestCapture:
    def test_failing_chaos_run_is_auto_captured(self, tmp_path):
        record, bundle = chaos_capture(tmp_path)
        assert not record.correct
        assert bundle is not None
        assert bundle.protocol == "unknown_f"
        assert bundle.faulty_delivery
        assert bundle.transmits  # at least one drop/dup/delay fired
        assert bundle.expected["result"] == record.result
        assert bundle.expected["cc_bits"] == record.cc_bits

    def test_clean_run_is_not_captured(self, tmp_path):
        record, bundle = chaos_capture(tmp_path, seed=0)
        assert record.correct
        assert bundle is None
        assert not glob.glob(str(tmp_path / "*.json"))

    def test_strict_monitor_violation_is_captured_as_error_row(self, tmp_path):
        record, bundle = chaos_capture(tmp_path, monitor_mode="strict")
        assert record.failed
        assert record.error_kind == "InvariantViolation"
        assert bundle is not None
        assert bundle.monitor_mode == "strict"
        assert bundle.expected["error_kind"] == "InvariantViolation"

    def test_capture_filename_is_deterministic(self, tmp_path):
        chaos_capture(tmp_path)
        first = set(glob.glob(str(tmp_path / "*.json")))
        chaos_capture(tmp_path)
        assert set(glob.glob(str(tmp_path / "*.json"))) == first

    def test_timeout_rows_are_not_captured(self, tmp_path):
        class Stall(FaultInjector):
            def begin_round(self, rnd):
                import time

                time.sleep(0.05)

        topo = grid_graph(4, 4)
        rng = random.Random(0)
        inputs = make_inputs(topo, rng)
        record = safe_run_protocol(
            "tag",
            topo,
            inputs,
            seed=0,
            rng=rng,
            strict=False,
            timeout_s=0.1,
            injectors=[Stall()],
            capture_dir=str(tmp_path),
        )
        assert record.error_kind == "RunTimeout"
        assert "bundle" not in record.extra
        assert not glob.glob(str(tmp_path / "*.json"))


class TestBundleFormat:
    def test_json_roundtrip_is_identity(self, tmp_path):
        _, bundle = chaos_capture(tmp_path)
        again = ExecutionRecord.from_json(bundle.to_json())
        assert again == bundle
        assert again.content_hash() == bundle.content_hash()

    def test_header_is_validated(self, tmp_path):
        _, bundle = chaos_capture(tmp_path)
        data = bundle.to_jsonable()
        with pytest.raises(ValueError, match="not a repro-bundle"):
            ExecutionRecord.from_jsonable(dict(data, format="zip"))
        with pytest.raises(ValueError, match="version"):
            ExecutionRecord.from_jsonable(
                dict(data, version=BUNDLE_VERSION + 1)
            )
        with pytest.raises(ValueError, match="unknown fields"):
            ExecutionRecord.from_jsonable(dict(data, surprise=1))
        assert data["format"] == BUNDLE_FORMAT

    def test_bundle_is_plain_sorted_json_on_disk(self, tmp_path):
        record, bundle = chaos_capture(tmp_path)
        with open(record.extra["bundle"], encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk == bundle.to_jsonable()

    def test_node_order_survives_the_sorted_json(self, tmp_path):
        """A network runs its nodes in adjacency order; the sorted JSON
        keys put node 10 before node 2, so the rebuilt topology must
        restore the run's order."""
        from repro.graphs.topology import Topology
        from repro.sim.recorder import serialize_topology

        _, bundle = chaos_capture(tmp_path)
        assert "order" not in bundle.topology
        rebuilt = ExecutionRecord.from_json(bundle.to_json()).build_topology()
        assert list(rebuilt.adjacency) == list(range(16))

        grid = grid_graph(4, 4)
        order = [5, 12, 0, *(u for u in range(16) if u not in (5, 12, 0))]
        shuffled = Topology(
            {u: grid.adjacency[u] for u in order}, name="shuffled", root=0
        )
        again = ExecutionRecord.from_json(
            dataclasses.replace(
                bundle, topology=serialize_topology(shuffled)
            ).to_json()
        )
        assert again.topology["order"] == order
        assert list(again.build_topology().adjacency) == order


class TestReplay:
    def test_replay_reproduces_the_recording_exactly(self, tmp_path):
        record, bundle = chaos_capture(tmp_path)
        outcome = replay_bundle(record.extra["bundle"])
        assert outcome.reproduced
        assert outcome.record.result == record.result
        assert outcome.record.cc_bits == record.cc_bits
        assert outcome.record.rounds == record.rounds
        assert outcome.record.extra.get("violations") == record.extra.get(
            "violations"
        )

    def test_replay_reproduces_strict_monitor_abort(self, tmp_path):
        record, bundle = chaos_capture(tmp_path, monitor_mode="strict")
        outcome = replay_bundle(bundle)
        assert outcome.reproduced
        assert outcome.record.error_kind == "InvariantViolation"
        assert outcome.record.error == record.error

    def test_removed_fault_decision_raises_divergence_with_round(
        self, tmp_path
    ):
        _, bundle = chaos_capture(tmp_path)
        tampered = copy.deepcopy(bundle)
        del tampered.transmits[0]
        with pytest.raises(ReplayDivergence) as exc_info:
            replay_bundle(tampered)
        assert exc_info.value.round is not None
        assert exc_info.value.epoch == 0
        assert "round" in str(exc_info.value)

    def test_tampered_input_raises_divergence(self, tmp_path):
        _, bundle = chaos_capture(tmp_path)
        tampered = copy.deepcopy(bundle)
        node = next(iter(tampered.inputs))
        tampered.inputs[node] += 7
        with pytest.raises(ReplayDivergence):
            replay_bundle(tampered)

    def test_tampered_expected_outcome_raises_divergence(self, tmp_path):
        _, bundle = chaos_capture(tmp_path)
        tampered = copy.deepcopy(bundle)
        tampered.expected["result"] = (tampered.expected["result"] or 0) + 1
        with pytest.raises(ReplayDivergence, match="outcome mismatch"):
            replay_bundle(tampered)

    def test_best_effort_replay_reports_instead_of_raising(self, tmp_path):
        _, bundle = chaos_capture(tmp_path)
        tampered = copy.deepcopy(bundle)
        tampered.transmits = []
        outcome = replay_bundle(tampered, strict=False)
        assert isinstance(outcome.mismatches, list)  # no raise

    def test_replay_is_idempotent(self, tmp_path):
        record, _ = chaos_capture(tmp_path)
        first = replay_bundle(record.extra["bundle"])
        second = replay_bundle(record.extra["bundle"])
        assert first.record.result == second.record.result
        assert first.record.cc_bits == second.record.cc_bits


class TestAdaptiveReplay:
    def test_online_crashes_are_recorded_and_reapplied(self, tmp_path):
        from repro.adversary.adaptive import make_adaptive

        topo = grid_graph(4, 4)
        found = None
        for seed in range(12):
            rng = random.Random(seed)
            inputs = make_inputs(topo, rng)
            record = safe_run_protocol(
                "unknown_f",
                topo,
                inputs,
                seed=seed,
                rng=rng,
                strict=False,
                injectors=[
                    MessageFaults(drop=0.08, seed=seed),
                    make_adaptive("top-talker", topo, f=2, seed=seed),
                ],
                monitors=standard_monitors(topo, inputs, mode="record"),
                capture_dir=str(tmp_path),
            )
            if record.extra.get("bundle"):
                bundle = ExecutionRecord.load(record.extra["bundle"])
                if bundle.crashes:
                    found = (record, bundle)
                    break
        assert found, "no adaptive-crash failure found in 12 seeds"
        record, bundle = found
        outcome = replay_bundle(bundle)
        assert outcome.reproduced
        assert outcome.record.result == record.result

    def test_agg_veri_bundles_span_epochs(self, tmp_path):
        for seed in range(12):
            record, bundle = chaos_capture(
                tmp_path, seed=seed, protocol="agg_veri", t=2
            )
            if bundle is None:
                continue
            epochs = {t["e"] for t in bundle.transmits}
            if len(epochs) > 1:
                outcome = replay_bundle(bundle)
                assert outcome.reproduced
                return
        pytest.skip("no two-epoch agg_veri failure found in 12 seeds")


class _NoReprCache(dict):
    """A cache that never hits: the recorder then calls ``repr`` once per
    delivered copy, as it did before the per-broadcast cache."""

    def get(self, key, default=None):
        return default


class _PerCopyRecorder(RecordingInjector):
    max_parts = 0

    def on_broadcast(self, rnd, node, parts, bits):
        super().on_broadcast(rnd, node, parts, bits)
        self._keys._reprs = _NoReprCache()
        self.max_parts = max(self.max_parts, len(parts))


class TestRecordingInjector:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_repr_cache_keeps_transmits_and_occurrences(self, seed):
        """Multi-part broadcasts under drop/dup/delay record the same
        entries and occurrence counts with and without the cache."""
        topo = grid_graph(4, 4)
        recorders = []
        for cls in (RecordingInjector, _PerCopyRecorder):
            recorder = cls([MessageFaults(drop=0.08, duplicate=0.05,
                                          delay=0.05, seed=seed)])
            recorders.append(recorder)
            safe_run_protocol(
                "unknown_f", topo, make_inputs(topo, random.Random(seed)),
                seed=seed, rng=random.Random(seed), strict=False,
                injectors=[recorder],
            )
        cached, per_copy = recorders
        assert cached.transmits and cached.transmits == per_copy.transmits
        assert cached._keys._occ == per_copy._keys._occ
        assert per_copy.max_parts > 1
        assert {len(e["out"]) for e in cached.transmits} >= {0, 2}
        assert cached.digests_jsonable() == per_copy.digests_jsonable()

    def test_repr_cache_is_keyed_by_identity_not_equality(self):
        """``Part("a", (1,), 3) == Part("a", (True,), 3)`` with one hash,
        but their reprs differ: one broadcast carrying both must record two
        distinct keys."""
        from repro.sim.message import Part

        class DropAll(FaultInjector):
            modifies_delivery = True

            def on_transmit(self, due, sender, receiver, part):
                return []

        class FakeNetwork:
            crash_rounds = {}

        recorder = RecordingInjector([DropAll()])
        recorder.attach(FakeNetwork())
        one, true = Part("a", (1,), 3), Part("a", (True,), 3)
        again = Part("a", (1,), 3)
        assert one == true and hash(one) == hash(true)
        parts = [one, true, again]
        recorder.on_broadcast(1, 0, parts, 9)
        for receiver in (1, 2):
            for part in parts:
                recorder.on_transmit(2, 0, receiver, part)
        assert [(e["part"][1], e["occ"]) for e in recorder.transmits] == [
            ("(1,)", 0), ("(True,)", 0), ("(1,)", 1)
        ] * 2

    def test_recorder_is_transparent(self):
        """A recorded run behaves exactly like the unrecorded one."""
        topo = grid_graph(4, 4)

        def run(injectors):
            rng = random.Random(3)
            return safe_run_protocol(
                "unknown_f",
                topo,
                make_inputs(topo, random.Random(3)),
                seed=3,
                rng=rng,
                strict=False,
                injectors=injectors,
            )

        plain = run([MessageFaults(drop=0.08, duplicate=0.03, seed=3)])
        recorded = run(
            [RecordingInjector([MessageFaults(drop=0.08, duplicate=0.03,
                                              seed=3)])]
        )
        assert row_without_capture(recorded) == row_without_capture(plain)

    def test_is_failure_matches_sweep_semantics(self):
        from repro.analysis.runner import RunRecord

        def row(**kw):
            base = dict(
                protocol="tag", topology="g", n_nodes=1, diameter=1,
                f_budget=None, f_actual=0, result=1, correct=True,
                cc_bits=0, rounds=1, flooding_rounds=1,
            )
            base.update(kw)
            return RunRecord(**base)

        assert not is_failure(row())
        assert is_failure(row(correct=False))
        assert is_failure(row(error="boom", error_kind="ValueError"))
        assert is_failure(row(extra={"violations": ["[oracle@r3] bad"]}))


class _UnitsOnly(Exception):
    """Raised by the engine spy once the CLI has built its units."""


def chaos_units(monkeypatch, argv):
    """The work units ``repro-agg chaos <argv>`` builds, not run."""
    from repro.cli import main
    from repro.exec import ExecutionEngine

    units = []

    def spy(self, batch, *args, **kwargs):
        units.extend(batch)
        raise _UnitsOnly

    with monkeypatch.context() as patch:
        patch.setattr(ExecutionEngine, "run", spy)
        with pytest.raises(_UnitsOnly):
            main(["chaos", *argv.split()])
    return units


#: One chaos argv per fault family, with the seeds to run: each family
#: has passing or failing seeds, and the table has both.
FAMILY_ARGVS = [
    pytest.param(
        "--topology grid:4x4 --protocol unknown_f "
        "--inject drop=0.08,dup=0.03,delay=0.05,reorder=0.1 --seeds 2",
        id="drop-dup-delay-reorder",
    ),
    pytest.param(
        "--topology grid:4x4 --protocol unknown_f --inject drop=0.02 "
        "--corrupt bitflip:0.02,stale:0.01 --integrity mac --recover "
        "--seeds 1",
        id="corruption-mac",
    ),
    pytest.param(
        "--topology grid:3x3 --protocol algorithm1 -f 2 -b 64 "
        "--inject drop=0.1 --retransmit-budget 1 --gray rate:0.6 "
        "--seed 2 --seeds 2",
        id="gray",
    ),
    pytest.param(
        "--topology grid:3x3 --protocol unknown_f --inject drop=0.02 "
        "--churn rate:0.1 --seeds 1",
        id="churn-pass",
    ),
    pytest.param(
        "--topology grid:3x3 --protocol unknown_f --inject drop=0.2 "
        "--churn rate:0.4 --max-epochs 1 --seed 1 --seeds 1",
        id="churn-fail",
    ),
    pytest.param(
        "--topology grid:4x4 --protocol algorithm1 -f 1 -b 64 "
        "--byz rate:0.15 --seeds 1",
        id="byzantine-pass",
    ),
    pytest.param(
        "--topology grid:4x4 --protocol algorithm1 -f 1 -b 64 "
        "--byz 5:equivocate,9:inflate=3,10:omit --witnesses 1 "
        "--evict-policy flag --seeds 1",
        id="byzantine-fail",
    ),
    pytest.param(
        "--topology grid:4x4 --protocol algorithm1 -f 2 -b 60 "
        "--inject drop=0.05 --adaptive top-talker --seeds 2",
        id="adaptive",
    ),
    pytest.param(
        "--topology grid:4x4 --protocol unknown_f --inject drop=0.05 "
        "--recover --integrity mac --allow-root-crash --seeds 1",
        id="recovery-integrity",
    ),
]


#: Corruption without the reliable transport, with and without MAC
#: frames: seeds 0 and 1 both fail and are captured.
CORRUPTION_ARGVS = [
    pytest.param(
        "--topology grid:4x4 --protocol unknown_f --corrupt bitflip:0.03 "
        "--seeds 2",
        id="corruption-only",
    ),
    pytest.param(
        "--topology grid:4x4 --protocol unknown_f --corrupt bitflip:0.03 "
        "--integrity mac --seeds 2",
        id="corruption-mac-no-transport",
    ),
]


class TestCorruptionReplay:
    @pytest.mark.parametrize("argv", CORRUPTION_ARGVS)
    def test_captured_bundles_replay_strictly(self, argv, tmp_path, capsys):
        """The silent-corruption ledger is filled in delivery order, which
        follows the node order; replay must reproduce it exactly."""
        from repro.cli import main

        status = main(
            ["chaos", *argv.split(), "--capture-dir", str(tmp_path)]
        )
        capsys.readouterr()
        bundles = sorted(glob.glob(str(tmp_path / "*.json")))
        assert status == 1 and len(bundles) == 2
        for path in bundles:
            bundle = ExecutionRecord.load(path)
            assert bundle.expected["violations"]
            replay_bundle(path, strict=True)


class TestCaptureOnFailure:
    """``execute_unit`` records only failing units, by re-executing them:
    a unit's row must not depend on ``capture_dir``, and every failing
    row must carry a bundle that strict-replays."""

    @pytest.mark.parametrize("argv", FAMILY_ARGVS)
    def test_capture_dir_never_changes_the_row(
        self, argv, monkeypatch, tmp_path
    ):
        from repro.exec import execute_unit

        units = chaos_units(monkeypatch, argv)
        assert units
        for unit in units:
            plain = execute_unit(unit)
            captured = execute_unit(
                dataclasses.replace(unit, capture_dir=str(tmp_path))
            )
            assert row_without_capture(captured) == row_without_capture(plain)
            assert "bundle" not in plain.extra
            if not is_failure(plain):
                assert "bundle" not in captured.extra
                continue
            bundle = captured.extra["bundle"]
            replay_bundle(bundle, strict=True)
            assert ExecutionRecord.load(bundle).seed == unit.seed

    def test_passing_units_write_nothing(self, monkeypatch, tmp_path):
        """No passing unit constructs a recorder."""
        from repro.exec import execute_unit
        from repro.sim import recorder

        built = []

        class Counting(RecordingInjector):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(recorder, "RecordingInjector", Counting)
        units = chaos_units(
            monkeypatch,
            "--topology grid:4x4 --protocol unknown_f --inject drop=0.08,"
            "dup=0.03,delay=0.05 --seeds 3",
        )
        rows = [
            execute_unit(dataclasses.replace(u, capture_dir=str(tmp_path)))
            for u in units
        ]
        failing = [r for r in rows if is_failure(r)]
        assert 0 < len(failing) < len(rows)
        assert len(built) == len(failing)
        assert sorted(glob.glob(str(tmp_path / "*.json"))) == sorted(
            r.extra["bundle"] for r in failing
        )

    def test_diverging_re_execution_is_flagged(self, monkeypatch, tmp_path):
        """An injector whose state outlives a run makes the recorded
        re-execution differ: the first execution's row is kept, flagged,
        and no bundle of the other run is left behind."""
        from repro.exec import execute_unit, scheduler

        runs = []

        class SecondRunDropsAll(FaultInjector):
            modifies_delivery = True

            def __init__(self):
                super().__init__()
                runs.append(self)
                self.drop = len(runs) > 1

            def on_transmit(self, due, sender, receiver, part):
                return [] if self.drop else [(due, part)]

        derive_run = scheduler.derive_run

        def derive_with_state(unit):
            inputs, schedule, kwargs = derive_run(unit)
            kwargs["injectors"] += (SecondRunDropsAll(),)
            return inputs, schedule, kwargs

        units = chaos_units(
            monkeypatch,
            "--topology grid:4x4 --protocol unknown_f --inject drop=0.08,"
            "dup=0.03,delay=0.05 --seed 2 --seeds 1",
        )
        expected = execute_unit(units[0])
        assert is_failure(expected)
        monkeypatch.setattr(scheduler, "derive_run", derive_with_state)
        record = execute_unit(
            dataclasses.replace(units[0], capture_dir=str(tmp_path))
        )
        assert len(runs) == 2
        assert record.result == expected.result
        assert record.cc_bits == expected.cc_bits
        assert "bundle" not in record.extra
        assert record.extra["capture_diverged"]
        assert "result" in record.extra["capture_diverged"].split(",")
        assert not glob.glob(str(tmp_path / "*.json"))

"""Crash-safe runner and JSONL checkpoint/resume.

The headline property: a sweep killed partway through and resumed from
its checkpoint produces the *identical* record set as one uninterrupted
run — no lost rows, no duplicates, no drifted values.
"""

import json
import os
import time

import pytest

from repro.adversary.schedule import FailureSchedule
from repro.analysis.checkpoint import (
    SweepCheckpoint,
    make_key,
    record_from_jsonable,
    record_to_jsonable,
)
from repro.analysis.runner import (
    RunRecord,
    RunTimeout,
    error_record,
    make_inputs,
    safe_run_protocol,
    wall_clock_limit,
)
from repro.analysis.sweep import random_schedule_spec, run_point
from repro.exec import scheduler
from repro.graphs import grid_graph, path_graph
from repro.sim.faults import FaultInjector


class TestWallClockLimit:
    def test_interrupts_a_hung_block(self):
        with pytest.raises(RunTimeout):
            with wall_clock_limit(0.05):
                time.sleep(2)

    def test_noop_without_limit(self):
        with wall_clock_limit(None):
            pass

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            with wall_clock_limit(0):
                pass

    def test_swallowed_alarm_still_times_out(self):
        # A gc callback or destructor the alarm lands in swallows its
        # exception; the block must still end in RunTimeout.
        with pytest.raises(RunTimeout):
            with wall_clock_limit(0.01):
                try:
                    time.sleep(2)
                except RunTimeout:
                    pass

    def test_timer_cleared_after_exit(self):
        with wall_clock_limit(0.05):
            pass
        time.sleep(0.08)  # would fire now if the timer leaked


class SlowInjector(FaultInjector):
    """Stalls every round, to trip per-run timeouts deterministically."""

    def begin_round(self, rnd):
        time.sleep(0.02)


class FlakyInjector(FaultInjector):
    """Raises for the first ``failures`` attach calls, then behaves."""

    def __init__(self, failures=1):
        super().__init__()
        self.remaining = failures

    def begin_round(self, rnd):
        if self.remaining > 0:
            self.remaining -= 1
            raise RuntimeError("transient fault-injection hiccup")


class TestSafeRunProtocol:
    def _args(self, seed=0):
        topo = grid_graph(3, 3)
        import random

        rng = random.Random(seed)
        return topo, make_inputs(topo, rng)

    def test_clean_run_matches_run_protocol_semantics(self):
        topo, inputs = self._args()
        record = safe_run_protocol("bruteforce", topo, inputs, seed=7)
        assert not record.failed
        assert record.correct
        assert record.attempts == 1
        assert record.seed == 7

    def test_exception_becomes_error_row(self):
        topo, inputs = self._args()
        record = safe_run_protocol("no_such_protocol", topo, inputs, seed=3)
        assert record.failed
        assert record.error_kind == "ValueError"
        assert "unknown protocol" in record.error
        assert record.correct is False
        assert record.result is None
        assert record.seed == 3

    def test_timeout_becomes_error_row(self):
        topo, inputs = self._args()
        record = safe_run_protocol(
            "bruteforce",
            topo,
            inputs,
            timeout_s=0.05,
            injectors=[SlowInjector()],
        )
        assert record.failed
        assert record.error_kind == "RunTimeout"

    def test_retry_recovers_from_transient_failure(self):
        topo, inputs = self._args()
        record = safe_run_protocol(
            "bruteforce",
            topo,
            inputs,
            retries=2,
            seed=5,
            injectors=[FlakyInjector(failures=1)],
        )
        assert not record.failed
        assert record.attempts == 2

    def test_retries_exhausted_reports_attempts(self):
        topo, inputs = self._args()
        record = safe_run_protocol(
            "bruteforce",
            topo,
            inputs,
            retries=2,
            injectors=[FlakyInjector(failures=10)],
        )
        assert record.failed
        assert record.attempts == 3

    def test_negative_retries_rejected(self):
        topo, inputs = self._args()
        with pytest.raises(ValueError, match="retries"):
            safe_run_protocol("bruteforce", topo, inputs, retries=-1)

    def test_keyboard_interrupt_propagates(self):
        class Interrupter(FaultInjector):
            def begin_round(self, rnd):
                raise KeyboardInterrupt

        topo, inputs = self._args()
        with pytest.raises(KeyboardInterrupt):
            safe_run_protocol(
                "bruteforce", topo, inputs, injectors=[Interrupter()]
            )


class TestErrorRecordShape:
    def test_as_dict_hides_bookkeeping_on_clean_rows(self):
        topo, = (grid_graph(3, 3),)
        record = RunRecord(
            protocol="x",
            topology=topo.name,
            n_nodes=9,
            diameter=4,
            f_budget=None,
            f_actual=0,
            result=5,
            correct=True,
            cc_bits=10,
            rounds=4,
            flooding_rounds=1,
        )
        row = record.as_dict()
        assert "error" not in row and "error_kind" not in row
        assert "attempts" not in row and "seed" not in row

    def test_error_rows_expose_diagnostics(self):
        topo = grid_graph(3, 3)
        record = error_record(
            "algorithm1",
            topo,
            ValueError("boom"),
            schedule=FailureSchedule({3: 2}),
            f=4,
            attempts=2,
            seed=9,
        )
        row = record.as_dict()
        assert row["error"] == "boom"
        assert row["error_kind"] == "ValueError"
        assert row["attempts"] == 2
        assert row["seed"] == 9
        assert record.failed


class TestCheckpointStore:
    def _record(self, seed=0, extra=None):
        return RunRecord(
            protocol="bruteforce",
            topology="grid(3x3)",
            n_nodes=9,
            diameter=4,
            f_budget=2,
            f_actual=1,
            result=12,
            correct=True,
            cc_bits=40,
            rounds=8,
            flooding_rounds=2,
            extra=extra or {"winning_interval": (3, 5)},
            seed=seed,
        )

    def test_record_roundtrip_canonicalizes_tuples(self):
        record = self._record()
        back = record_from_jsonable(
            json.loads(json.dumps(record_to_jsonable(record)))
        )
        assert back.result == record.result
        assert back.extra["winning_interval"] == [3, 5]
        assert record_to_jsonable(back) == record_to_jsonable(record)

    def test_make_key_is_stable_and_distinct(self):
        a = make_key("algorithm1", "grid(4x4)", 1, {"b": 42, "f": 3})
        b = make_key("algorithm1", "grid(4x4)", 1, {"f": 3, "b": 42})
        assert a == b  # key order canonicalized
        assert a != make_key("algorithm1", "grid(4x4)", 2, {"b": 42, "f": 3})

    def test_put_get_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        key = make_key("bruteforce", "grid(3x3)", 0)
        with SweepCheckpoint(path) as ckpt:
            assert ckpt.get(key) is None
            ckpt.put(key, self._record())
            assert key in ckpt
        reopened = SweepCheckpoint(path)
        assert len(reopened) == 1
        assert reopened.get(key).result == 12

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with SweepCheckpoint(path) as ckpt:
            ckpt.put(make_key("bruteforce", "g", 0), self._record(seed=0))
            ckpt.put(make_key("bruteforce", "g", 1), self._record(seed=1))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "torn", "record": {"proto')  # crash mid-write
        recovered = SweepCheckpoint(path)
        assert len(recovered) == 2  # both intact rows, torn line dropped
        assert recovered.skipped_lines == []  # torn final line is expected

    def test_corrupt_midfile_lines_warn_with_line_numbers(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with SweepCheckpoint(path) as ckpt:
            for seed in range(3):
                ckpt.put(make_key("bruteforce", "g", seed),
                         self._record(seed=seed))
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # corrupt the middle line
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")  # note: intact trailing \n
        with pytest.warns(UserWarning, match=r"line 2"):
            recovered = SweepCheckpoint(path)
        assert recovered.skipped_lines == [2]
        assert len(recovered) == 2  # the two intact rows survive

    def test_corrupt_final_line_with_newline_is_not_torn(self, tmp_path):
        """A complete-but-invalid last line is corruption, not a crash."""
        path = str(tmp_path / "ckpt.jsonl")
        with SweepCheckpoint(path) as ckpt:
            ckpt.put(make_key("bruteforce", "g", 0), self._record(seed=0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")  # newline: a finished write
        with pytest.warns(UserWarning, match="1 corrupt"):
            recovered = SweepCheckpoint(path)
        assert recovered.skipped_lines == [2]

    def test_strict_mode_raises_on_corruption(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with SweepCheckpoint(path) as ckpt:
            ckpt.put(make_key("bruteforce", "g", 0), self._record(seed=0))
            ckpt.put(make_key("bruteforce", "g", 1), self._record(seed=1))
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[0] = "garbage"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"line 1"):
            SweepCheckpoint(path, strict=True)
        # Non-strict still loads the survivors.
        with pytest.warns(UserWarning):
            assert len(SweepCheckpoint(path)) == 1

    def test_strict_mode_still_tolerates_torn_final_line(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with SweepCheckpoint(path) as ckpt:
            ckpt.put(make_key("bruteforce", "g", 0), self._record(seed=0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "torn"')  # crash mid-write: no newline
        recovered = SweepCheckpoint(path, strict=True)  # no raise
        assert len(recovered) == 1


class TestCheckpointCrashRecovery:
    """End-to-end: die mid-write, reload, re-run only what was lost."""

    def test_truncated_checkpoint_resumes_only_lost_seeds(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        topo = path_graph(4)
        seeds = [0, 1, 2, 3]

        baseline = run_point(
            "bruteforce", topo, seeds,
            checkpoint=SweepCheckpoint(path),
        )
        # Simulate a crash mid-write of the final record: chop the file at
        # an arbitrary byte inside the last line.
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 37)

        recovered = SweepCheckpoint(path)
        survivors = {rec.seed for _key, rec in recovered.records()}
        assert survivors == {0, 1, 2}  # the torn seed-3 row is gone
        assert recovered.skipped_lines == []  # ...and not "corruption"

        executed = []
        original_put = recovered.put

        def tracking_put(key, record):
            executed.append(record.seed)
            original_put(key, record)

        recovered.put = tracking_put
        resumed = run_point("bruteforce", topo, seeds, checkpoint=recovered)
        recovered.close()
        assert executed == [3]  # only the lost run re-executed
        assert [record_to_jsonable(r) for r in resumed.records] == [
            record_to_jsonable(r) for r in baseline.records
        ]


class InterruptAfter:
    """``build_schedule`` wrapper that dies after ``n`` invocations."""

    def __init__(self, build, n):
        self.build = build
        self.n = n
        self.calls = 0

    def __call__(self, unit, topology, rng):
        self.calls += 1
        if self.calls > self.n:
            raise KeyboardInterrupt
        return self.build(unit, topology, rng)


class TestKillAndResumeIdentity:
    PROTOCOL = "bruteforce"
    SEEDS = list(range(6))

    def _sweep(self, checkpoint=None):
        topo = grid_graph(3, 3)
        return run_point(
            self.PROTOCOL,
            topo,
            self.SEEDS,
            schedule_spec=random_schedule_spec(2, horizon=10),
            f=2,
            coords={"f": 2},
            checkpoint=checkpoint,
        )

    def test_resumed_sweep_equals_uninterrupted(self, tmp_path, monkeypatch):
        path = str(tmp_path / "sweep.jsonl")
        baseline = self._sweep()

        # Arm 2: same sweep, killed after 3 runs...
        interrupting = InterruptAfter(scheduler.build_schedule, 3)
        ckpt = SweepCheckpoint(path)
        with monkeypatch.context() as patch:
            patch.setattr(scheduler, "build_schedule", interrupting)
            with pytest.raises(KeyboardInterrupt):
                self._sweep(checkpoint=ckpt)
        ckpt.close()
        assert 0 < len(SweepCheckpoint(path)) < len(self.SEEDS)

        # ...then resumed: completed seeds load, missing seeds execute.
        with SweepCheckpoint(path) as resumed_ckpt:
            resumed = self._sweep(checkpoint=resumed_ckpt)

        def canon(records):
            return [record_to_jsonable(r) for r in records]

        assert canon(resumed.records) == canon(baseline.records)
        assert resumed.as_dict() == baseline.as_dict()

    def test_second_resume_is_pure_replay(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepCheckpoint(path) as ckpt:
            first = self._sweep(checkpoint=ckpt)
        size_after = os.path.getsize(path)
        with SweepCheckpoint(path) as ckpt:
            replay = self._sweep(checkpoint=ckpt)
        assert os.path.getsize(path) == size_after  # nothing re-executed
        assert [record_to_jsonable(r) for r in replay.records] == [
            record_to_jsonable(r) for r in first.records
        ]


class TestSweepErrorRows:
    def test_failed_runs_become_rows_not_crashes(self, monkeypatch):
        class AlwaysBoom(FaultInjector):
            def begin_round(self, rnd):
                raise RuntimeError("boom")

        monkeypatch.setattr(
            scheduler, "build_injectors", lambda unit, topology: [AlwaysBoom()]
        )
        topo = path_graph(4)
        point = run_point("bruteforce", topo, seeds=[0, 1])
        assert point.runs == 2
        assert point.errors == 2
        assert point.correct_rate == 0.0
        assert all(r.error_kind == "RuntimeError" for r in point.records)

    def test_error_count_surfaces_in_as_dict(self):
        topo = path_graph(4)
        point = run_point("bruteforce", topo, seeds=[0, 1])
        assert "errors" not in point.as_dict()  # clean sweeps look as before

"""Crash-safe runner, and resuming sweeps from the result cache.

The headline property: a sweep killed partway through and rerun against
the same result cache produces the *identical* record set as one
uninterrupted run — no lost rows, no duplicates, no drifted values — and
re-executes only the runs the cache had not stored.
"""

import json
import os
import re
import threading
import time

import pytest

from repro.adversary.schedule import FailureSchedule
from repro.analysis.runner import (
    RunRecord,
    RunTimeout,
    error_record,
    make_inputs,
    safe_run_protocol,
    wall_clock_limit,
)
from repro.analysis.sweep import random_schedule_spec, run_point
from repro.exec import (
    ExecutionEngine,
    ProgressEmitter,
    ResultCache,
    WorkUnit,
    scheduler,
    unit_cache_hash,
    unit_cache_token,
)
from repro.exec.cache import record_from_jsonable, record_to_jsonable
from repro.graphs import grid_graph, path_graph
from repro.sim.faults import FaultInjector
from repro.sim.flooding import RUN_INDEX
from repro.sim.network import DEADLINE
from tests.conftest import cached_records


class TestWallClockLimit:
    def test_noop_without_limit(self):
        with wall_clock_limit(None):
            pass

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            with wall_clock_limit(0):
                pass

    def test_timer_cleared_after_exit(self):
        with wall_clock_limit(0.05):
            pass
        assert DEADLINE.get() is None


class SlowInjector(FaultInjector):
    """Stalls every round, to trip per-run timeouts deterministically."""

    def begin_round(self, rnd):
        time.sleep(0.02)


class RoundCounter(SlowInjector):
    """A :class:`SlowInjector` that counts the rounds begun and ended."""

    def __init__(self):
        super().__init__()
        self.began = self.ended = 0

    def begin_round(self, rnd):
        self.began += 1
        super().begin_round(rnd)

    def end_round(self, rnd):
        self.ended += 1


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

    def test_timeout_works_off_the_main_thread(self):
        topo, inputs = self._args()
        rows = []

        def run():
            rows.append(
                safe_run_protocol(
                    "bruteforce", topo, inputs, timeout_s=0.05,
                    injectors=[SlowInjector()],
                )
            )

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert rows[0].error_kind == "RunTimeout"

    def test_a_timeout_lands_between_rounds(self):
        topo, inputs = self._args()
        counter = RoundCounter()
        record = safe_run_protocol(
            "bruteforce", topo, inputs, timeout_s=0.05, injectors=[counter]
        )
        assert record.error_kind == "RunTimeout"
        assert counter.began == counter.ended > 0
        assert RUN_INDEX.get() is None
        assert DEADLINE.get() is None

    def test_a_transient_failure_is_not_retried(self):
        topo, inputs = self._args()
        flaky = FlakyInjector(failures=1)
        record = safe_run_protocol(
            "bruteforce", topo, inputs, seed=5, injectors=[flaky]
        )
        assert record.failed
        assert record.error_kind == "RuntimeError"
        assert flaky.remaining == 0  # one run, one failure

    @pytest.mark.parametrize("key", ["retries", "bogus"])
    def test_unknown_keyword_raises_instead_of_becoming_a_row(self, key):
        topo, inputs = self._args()
        with pytest.raises(TypeError, match=repr(key)):
            safe_run_protocol("bruteforce", topo, inputs, **{key: 1})

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
        assert "seed" not in row

    def test_error_rows_expose_diagnostics(self):
        topo = grid_graph(3, 3)
        record = error_record(
            "algorithm1",
            topo,
            ValueError("boom"),
            schedule=FailureSchedule({3: 2}),
            f=4,
            seed=9,
        )
        row = record.as_dict()
        assert row["error"] == "boom"
        assert row["error_kind"] == "ValueError"
        assert row["seed"] == 9
        assert record.failed


class TestCheckpointStore:
    """The result cache is the sweep's checkpoint store."""

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

    def test_put_get_persists_across_instances(self, tmp_path):
        unit = WorkUnit(protocol="bruteforce", topology=grid_graph(3, 3), seed=0)
        cache = ResultCache(str(tmp_path))
        assert cache.get(unit) is None
        cache.put(unit, self._record())
        reopened = ResultCache(str(tmp_path))
        back = reopened.get(unit)
        assert reopened.hits == 1
        assert back.result == 12
        assert back.extra["winning_interval"] == [3, 5]


class CountingEngine(ExecutionEngine):
    """An in-process engine over ``cache_dir`` that lists the seeds it
    executes (cache hits are not executions)."""

    def __init__(self, cache_dir, jobs=1):
        self.executed = []
        super().__init__(
            jobs=jobs,
            cache=ResultCache(cache_dir),
            emitter=ProgressEmitter(listeners=[self._listen]),
        )

    def _listen(self, event):
        if event["event"] == "unit_started":
            self.executed.append(int(re.search(r"-s(\d+)", event["unit"])[1]))


class TestCheckpointCrashRecovery:
    """End-to-end: lose a cache entry, rerun, re-execute only what was lost."""

    def test_truncated_checkpoint_resumes_only_lost_seeds(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        topo = path_graph(4)
        seeds = [0, 1, 2, 3]

        baseline = run_point(
            "bruteforce", topo, seeds, engine=CountingEngine(cache_dir)
        )
        # Tear seed 3's entry as a power loss mid-write could: chop the
        # file at an arbitrary byte.
        unit = WorkUnit(protocol="bruteforce", topology=topo, seed=3)
        digest = unit_cache_hash(unit_cache_token(unit))
        path = ResultCache(cache_dir)._path(digest)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 37)

        engine = CountingEngine(cache_dir)
        resumed = run_point("bruteforce", topo, seeds, engine=engine)
        assert engine.executed == [3]  # only the lost run re-executed
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

    def _sweep(self, engine=None):
        topo = grid_graph(3, 3)
        return run_point(
            self.PROTOCOL,
            topo,
            self.SEEDS,
            schedule_spec=random_schedule_spec(2, horizon=10),
            f=2,
            coords={"f": 2},
            engine=engine,
        )

    def test_resumed_sweep_equals_uninterrupted(self, tmp_path, monkeypatch):
        self._kill_and_resume(tmp_path, monkeypatch, jobs=1)

    def test_resume_on_a_pool_equals_uninterrupted(self, tmp_path, monkeypatch):
        self._kill_and_resume(tmp_path, monkeypatch, jobs=2)

    def _kill_and_resume(self, tmp_path, monkeypatch, jobs):
        cache_dir = str(tmp_path / "cache")
        baseline = self._sweep()

        # Arm 2: same sweep, killed after 3 runs...
        interrupting = InterruptAfter(scheduler.build_schedule, 3)
        with monkeypatch.context() as patch:
            patch.setattr(scheduler, "build_schedule", interrupting)
            with pytest.raises(KeyboardInterrupt):
                self._sweep(engine=CountingEngine(cache_dir))
        stored = len(cached_records(cache_dir))
        assert 0 < stored < len(self.SEEDS)

        # ...then rerun against the same cache: stored seeds are served,
        # only the missing seeds execute.
        engine = CountingEngine(cache_dir, jobs=jobs)
        resumed = self._sweep(engine=engine)
        assert engine.cache.hits == stored
        assert len(engine.executed) == len(self.SEEDS) - stored

        def canon(records):
            return [record_to_jsonable(r) for r in records]

        assert canon(resumed.records) == canon(baseline.records)
        assert resumed.as_dict() == baseline.as_dict()

    def test_second_resume_is_pure_replay(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = self._sweep(engine=CountingEngine(cache_dir))
        stored = cached_records(cache_dir)
        engine = CountingEngine(cache_dir)
        replay = self._sweep(engine=engine)
        assert engine.executed == []  # nothing re-executed
        assert cached_records(cache_dir) == stored
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

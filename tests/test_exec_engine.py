"""Unit tests for the execution engine package (repro.exec)."""

import io
import json
import os
import random
import time

import pytest

from repro.adversary import no_failures, random_failures
from repro.analysis.runner import (
    RunTimeout,
    error_record,
    make_inputs,
    safe_run_protocol,
)
from repro.exec import (
    ExecutionEngine,
    ProgressEmitter,
    ProgressTracker,
    ResultCache,
    SerialBackend,
    WorkUnit,
    execute_unit,
    live_renderer,
    plan_order,
    pooled_map,
    unit_cache_hash,
    unit_cache_token,
)
from repro.exec.cache import parse_age
from repro.exec.pool import ProcessBackend, WorkerCrashed
from repro.exec.scheduler import build_schedule, derive_run
from repro.graphs import grid_graph
from tests.conftest import ShuffledBackend, cached_records


def _hash(unit):
    """The cache entry name of ``unit``."""
    return unit_cache_hash(unit_cache_token(unit))


def _unit(topology, seed=0, b=42, f=2, **kwargs):
    defaults = dict(
        protocol="algorithm1",
        topology=topology,
        seed=seed,
        f=f,
        b=b,
        schedule={
            "kind": "random",
            "f": f,
            "first_round": 1,
            "last_round": b * topology.diameter,
            "respect_c": None,
        },
        coords={"b": b, "f": f, "n": topology.n_nodes},
    )
    defaults.update(kwargs)
    return WorkUnit(**defaults)


# --------------------------------------------------------------------- #
# WorkUnit / scheduler.
# --------------------------------------------------------------------- #


class TestWorkUnit:
    def test_cost_hint_scales_with_size_and_horizon(self, grid44):
        small = _unit(grid44, b=42)
        big = _unit(grid44, b=84)
        assert big.cost_hint > small.cost_hint
        bigger_graph = _unit(grid_graph(6, 6), b=42)
        assert bigger_graph.cost_hint > small.cost_hint

    def test_label_mentions_protocol_seed_and_coords(self, grid44):
        label = _unit(grid44, seed=7).label()
        assert "algorithm1" in label and "s7" in label and "b42" in label

    def test_units_are_picklable(self, grid44):
        import pickle

        unit = _unit(grid44)
        clone = pickle.loads(pickle.dumps(unit))
        assert clone.seed == unit.seed
        assert clone.topology.name == grid44.name


class TestBuildSchedule:
    def test_none_spec_is_empty(self, grid44):
        unit = _unit(grid44, schedule={"kind": "none"})
        assert len(build_schedule(unit, grid44, random.Random(0))) == 0

    def test_explicit_spec_survives_json_string_keys(self, grid44):
        # Cache/JSON round-trips turn int node ids into strings; the
        # builder must accept both.
        unit = _unit(grid44, schedule={"kind": "explicit", "crash_rounds": {"3": 9}})
        schedule = build_schedule(unit, grid44, random.Random(0))
        assert schedule.crash_rounds == {3: 9}

    def test_random_spec_matches_factory_derivation(self, grid44):
        # The declarative spec must consume the rng exactly like the
        # serial factory so seeds mean the same thing in both worlds.
        unit = _unit(grid44, f=2, b=42)
        got = build_schedule(unit, grid44, random.Random(5))
        expected = random_failures(
            grid44, 2, random.Random(5), first_round=1,
            last_round=42 * grid44.diameter, respect_c=None,
        )
        assert got.crash_rounds == expected.crash_rounds

    def test_random_spec_with_zero_f_is_no_failures(self, grid44):
        unit = _unit(
            grid44,
            schedule={"kind": "random", "f": 0, "last_round": 10},
        )
        assert (
            build_schedule(unit, grid44, random.Random(0)).crash_rounds
            == no_failures().crash_rounds
        )

    def test_crash_root_appends_seeded_root_crash(self, grid44):
        unit = _unit(
            grid44,
            schedule={"kind": "none"},
            crash_root={"lo": 2, "hi": 20},
            allow_root_crash=True,
        )
        schedule = build_schedule(unit, grid44, random.Random(1))
        assert grid44.root in schedule.crash_rounds
        assert 2 <= schedule.crash_rounds[grid44.root] <= 20

    def test_unknown_kind_rejected(self, grid44):
        unit = _unit(grid44, schedule={"kind": "wat"})
        with pytest.raises(ValueError, match="unknown schedule spec"):
            build_schedule(unit, grid44, random.Random(0))


class TestExecuteUnit:
    def test_matches_serial_derivation(self, grid44):
        unit = _unit(grid44, seed=1)
        got = execute_unit(unit)

        rng = random.Random(1)
        inputs = make_inputs(grid44, rng)
        schedule = random_failures(
            grid44, 2, rng, first_round=1,
            last_round=42 * grid44.diameter, respect_c=None,
        )
        expected = safe_run_protocol(
            "algorithm1", grid44, inputs, schedule=schedule,
            seed=1, rng=rng, f=2, b=42, strict=False,
        )
        assert got.as_dict() == expected.as_dict()

    def test_bad_unit_yields_error_row_not_exception(self, grid44):
        unit = _unit(grid44, caaf="NOPE")
        record = execute_unit(unit)
        assert record.failed
        assert record.result is None

    def test_worker_side_timeout_is_the_serial_code_path(self, grid44):
        # timeout_s goes through safe_run_protocol's deadline, so the
        # worker's row is the serial timeout row.
        unit = _unit(grid_graph(6, 6), b=84, f=4, timeout_s=0.001)
        record = execute_unit(unit)
        assert record.failed
        assert record.error_kind == "RunTimeout"
        inputs, schedule, kwargs = derive_run(unit)
        serial = safe_run_protocol(
            unit.protocol, unit.topology, inputs, schedule=schedule,
            timeout_s=unit.timeout_s, seed=unit.seed, **kwargs,
        )
        assert record.as_dict() == serial.as_dict()


class TestPlanOrder:
    def test_longest_first_with_index_tiebreak(self, grid44):
        units = [_unit(grid44, b=42), _unit(grid44, b=168), _unit(grid44, b=84)]
        assert plan_order(units) == [1, 2, 0]
        same = [_unit(grid44, seed=s) for s in range(3)]
        assert plan_order(same) == [0, 1, 2]

    def test_restricts_to_given_indices(self, grid44):
        units = [_unit(grid44, b=42), _unit(grid44, b=168), _unit(grid44, b=84)]
        assert plan_order(units, [0, 2]) == [2, 0]


# --------------------------------------------------------------------- #
# Cache.
# --------------------------------------------------------------------- #


class TestResultCache:
    def test_timeout_rows_are_not_stored(self, tmp_path):
        # A wall-clock overrun says how loaded the machine was, not what
        # the unit computes: a rerun executes the unit again.
        cache_dir = str(tmp_path / "cache")
        unit = _unit(grid_graph(6, 6), b=84, f=4, timeout_s=0.001)
        first = ExecutionEngine(cache=ResultCache(cache_dir)).run([unit])
        assert first[0].error_kind == "RunTimeout"
        cache = ResultCache(cache_dir)
        again = ExecutionEngine(cache=cache).run([unit])
        assert (cache.hits, cache.misses) == (0, 1)
        assert again[0].error_kind == "RunTimeout"

    def test_worker_crash_rows_are_not_stored(self, grid44, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        unit = _unit(grid44)
        row = error_record("algorithm1", grid44, WorkerCrashed("boom"))
        assert cache.put(unit, row) is None
        assert cache.get(unit) is None

    def test_roundtrip(self, grid44, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        unit = _unit(grid44)
        assert cache.get(unit) is None
        record = execute_unit(unit)
        cache.put(unit, record)
        hit = cache.get(unit)
        assert hit is not None
        assert hit.as_dict() == record.as_dict()
        assert cache.hits == 1 and cache.misses == 1

    def test_key_separates_everything_result_relevant(self, grid44):
        base = _unit(grid44)
        assert _hash(base) == _hash(_unit(grid44))
        for variant in (
            _unit(grid44, seed=1),
            _unit(grid44, b=84),
            _unit(grid44, f=3),
            _unit(grid44, protocol="unknown_f"),
            _unit(grid44, inject="drop=0.05"),
            _unit(grid44, strict=True),
            _unit(grid_graph(5, 5)),
        ):
            assert _hash(variant) != _hash(base)

    def test_token_is_json_canonical(self, grid44):
        token = unit_cache_token(
            _unit(grid44, schedule={"kind": "explicit", "crash_rounds": {3: 9}})
        )
        assert token == json.loads(json.dumps(token))

    def test_corrupt_entry_is_a_miss(self, grid44, tmp_path):
        cache = ResultCache(str(tmp_path))
        unit = _unit(grid44)
        path = cache.put(unit, execute_unit(unit))
        with open(path, "w") as fh:
            fh.write("{ not json")
        assert cache.get(unit) is None

    def test_stats_gc_clear(self, grid44, tmp_path):
        cache = ResultCache(str(tmp_path))
        for seed in range(3):
            unit = _unit(grid44, seed=seed)
            cache.put(unit, execute_unit(unit))
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["by_protocol"] == {"algorithm1": 3}
        assert cache.gc(older_than_s=3600) == 0
        assert cache.gc(older_than_s=0) == 3
        assert cache.stats()["entries"] == 0
        unit = _unit(grid44)
        cache.put(unit, execute_unit(unit))
        assert cache.clear() == 1
        assert not any(os.scandir(str(tmp_path)))

    def test_parse_age(self):
        assert parse_age("90") == 90
        assert parse_age("90s") == 90
        assert parse_age("15m") == 900
        assert parse_age("12h") == 12 * 3600
        assert parse_age("7d") == 7 * 86400
        with pytest.raises(ValueError):
            parse_age("soon")
        with pytest.raises(ValueError):
            parse_age("-1h")


# --------------------------------------------------------------------- #
# Progress.
# --------------------------------------------------------------------- #


class TestProgress:
    def test_emitter_writes_jsonl_and_fans_out(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        seen = []
        with ProgressEmitter(path, listeners=[seen.append], clock=lambda: 1.0) as em:
            em.emit("engine_started", units=2, jobs=1)
            em.emit("unit_finished", index=0, wall_s=0.5)
        lines = [json.loads(l) for l in open(path)]
        assert [l["event"] for l in lines] == ["engine_started", "unit_finished"]
        assert all(l["ts"] == 1.0 for l in lines)
        assert [e["event"] for e in seen] == ["engine_started", "unit_finished"]

    def test_tracker_folds_the_stream(self):
        tracker = ProgressTracker()
        tracker({"event": "engine_started", "units": 4, "jobs": 2, "cached": 1})
        tracker({"event": "unit_started", "index": 0})
        tracker({"event": "unit_started", "index": 1})
        assert tracker.in_flight == 2
        tracker({"event": "unit_finished", "index": 0, "wall_s": 2.0})
        tracker({"event": "unit_failed", "index": 1, "wall_s": 2.0})
        assert tracker.executed == 2 and tracker.failed == 1
        assert tracker.done == 3 and tracker.remaining == 1
        assert tracker.eta_s() == pytest.approx(2.0 * 1 / 2)
        text = tracker.render()
        assert "3/4" in text and "1 failed" in text

    def test_live_renderer_paints_and_finishes_with_newline(self):
        stream = io.StringIO()
        listen = live_renderer(stream)
        listen({"event": "engine_started", "units": 1, "jobs": 1})
        listen({"event": "unit_started", "index": 0})
        listen({"event": "engine_finished"})
        text = stream.getvalue()
        assert "\r" in text
        assert text.endswith("\n")


# --------------------------------------------------------------------- #
# Backends / engine.
# --------------------------------------------------------------------- #


def _sleeper(x):
    time.sleep(0.01)
    return x * 2


class TestPooledMap:
    def test_serial_inline(self):
        assert pooled_map(_sleeper, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_parallel_preserves_order(self):
        assert pooled_map(_sleeper, list(range(6)), jobs=3) == [
            x * 2 for x in range(6)
        ]


class TestEngine:
    def _units(self, topology, n=4):
        return [_unit(topology, seed=s) for s in range(n)]

    def test_serial_run_produces_one_record_per_unit(self, grid44):
        units = self._units(grid44)
        records = ExecutionEngine(jobs=1).run(units)
        assert len(records) == len(units)
        assert [r.seed for r in records] == [u.seed for u in units]
        assert all(r.correct for r in records)

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            ExecutionEngine(jobs=0)

    def test_cache_hits_skip_execution(self, grid44, tmp_path):
        units = self._units(grid44)
        cache = ResultCache(str(tmp_path))
        first = ExecutionEngine(jobs=1, cache=cache).run(units)

        events = []
        engine = ExecutionEngine(
            jobs=1,
            cache=ResultCache(str(tmp_path)),
            emitter=ProgressEmitter(listeners=[events.append]),
        )
        second = engine.run(units)
        assert [r.as_dict() for r in second] == [r.as_dict() for r in first]
        kinds = [e["event"] for e in events]
        assert kinds.count("unit_cached") == len(units)
        assert "unit_started" not in kinds

    def test_force_recomputes_despite_cache(self, grid44, tmp_path):
        units = self._units(grid44, n=2)
        cache = ResultCache(str(tmp_path))
        ExecutionEngine(jobs=1, cache=cache).run(units)
        events = []
        engine = ExecutionEngine(
            jobs=1,
            cache=ResultCache(str(tmp_path)),
            force=True,
            emitter=ProgressEmitter(listeners=[events.append]),
        )
        engine.run(units)
        kinds = [e["event"] for e in events]
        assert kinds.count("unit_started") == 2
        assert "unit_cached" not in kinds

    def test_checkpoint_serving_and_byte_identity(self, grid44, tmp_path):
        units = self._units(grid44)
        dir_a = str(tmp_path / "a")
        baseline = ExecutionEngine(jobs=1, cache=ResultCache(dir_a)).run(units)

        # A shuffled completion order must store the identical records.
        dir_b = str(tmp_path / "b")
        shuffled = ExecutionEngine(
            backend=ShuffledBackend(random.Random(99)), cache=ResultCache(dir_b)
        ).run(units)
        assert [r.as_dict() for r in shuffled] == [r.as_dict() for r in baseline]
        assert cached_records(dir_a) == cached_records(dir_b)
        assert len(cached_records(dir_a)) == len(units)

        # A rerun serves every unit from the cache without executing.
        events = []
        resumed = ExecutionEngine(
            jobs=1,
            cache=ResultCache(dir_a),
            emitter=ProgressEmitter(listeners=[events.append]),
        ).run(units)
        assert [r.as_dict() for r in resumed] == [r.as_dict() for r in baseline]
        kinds = [e["event"] for e in events]
        assert kinds.count("unit_cached") == len(units)
        assert "unit_started" not in kinds
        assert events[-1]["executed"] == 0

    def _resume(self, units, cache_dir, stored):
        """Rerun ``units`` against ``cache_dir``: only the units not stored
        execute, and the records equal an uninterrupted run's."""
        events = []
        resumed = ExecutionEngine(
            jobs=1,
            cache=ResultCache(cache_dir),
            emitter=ProgressEmitter(listeners=[events.append]),
        ).run(units)
        assert events[-1]["event"] == "engine_finished"
        assert events[-1]["executed"] == len(units) - stored
        clean = ExecutionEngine(jobs=1).run(units)
        assert [r.as_dict() for r in resumed] == [r.as_dict() for r in clean]

    def test_interrupt_drains_and_flushes_then_reraises(self, grid44, tmp_path):
        units = self._units(grid44)

        class InterruptingBackend(ShuffledBackend):
            """Completes one unit, then simulates Ctrl-C."""

            def __init__(self):
                super().__init__(random.Random(0))
                self.completions = 0

            def next_completed(self):
                self.completions += 1
                if self.completions > 1:
                    raise KeyboardInterrupt
                self._buffer.sort()
                index, record = self._buffer.pop(0)
                return index, record, None

        cache_dir = str(tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            ExecutionEngine(
                backend=InterruptingBackend(),
                window=len(units),
                cache=ResultCache(cache_dir),
            ).run(units)

        # The completed unit and every drained one are stored.
        stored = len(cached_records(cache_dir))
        assert stored == len(units), "interrupted run must leave durable progress"
        self._resume(units, cache_dir, stored)

    def test_interrupt_flushes_completed_stragglers(self, grid44, tmp_path):
        # Longest-expected-first scheduling completes high indices first;
        # every completed unit must be in the cache at Ctrl-C, whatever
        # its index.
        units = self._units(grid44)

        class HighestFirstInterrupting(ShuffledBackend):
            def __init__(self):
                super().__init__(random.Random(0))
                self.completions = 0

            def next_completed(self):
                self.completions += 1
                if self.completions > 2:
                    raise KeyboardInterrupt
                self._buffer.sort()
                index, record = self._buffer.pop()
                return index, record, None

            def drain(self):
                # Nothing in flight completes during the interrupt: the
                # only durable rows are the two completed stragglers.
                return []

        cache_dir = str(tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            ExecutionEngine(
                backend=HighestFirstInterrupting(),
                window=len(units),
                cache=ResultCache(cache_dir),
            ).run(units)

        cache = ResultCache(cache_dir)
        served = [u.seed for u in units if cache.get(u) is not None]
        assert served == [2, 3], "both completed stragglers must be durable"
        self._resume(units, cache_dir, len(served))


class TestProcessBackend:
    def test_runs_units_in_worker_processes(self, grid44):
        backend = ProcessBackend(jobs=2)
        try:
            units = [_unit(grid44, seed=s) for s in range(2)]
            for i, unit in enumerate(units):
                backend.submit(i, unit)
            got = {}
            while backend.inflight():
                index, record, exc = backend.next_completed()
                assert exc is None
                got[index] = record
        finally:
            backend.shutdown()
        assert sorted(got) == [0, 1]
        assert all(r.correct for r in got.values())

    def test_exhausted_respawns_become_error_rows(self, grid44):
        backend = ProcessBackend(jobs=1, max_respawns=0)
        backend._units[0] = _unit(grid44)
        backend._futures[object()] = 0
        backend._replace_pool("test crash")
        index, record, exc = backend.next_completed()
        backend.shutdown(cancel=True)
        assert index == 0 and record is None
        assert isinstance(exc, WorkerCrashed)

    def test_overdue_units_are_reaped_as_timeouts(self, grid44):
        backend = ProcessBackend(jobs=1, max_respawns=0)
        backend._units[0] = _unit(grid44)
        backend._futures[object()] = 0
        backend._deadlines[0] = time.monotonic() - 1
        backend._reap_overdue()
        index, record, exc = backend.next_completed()
        backend.shutdown(cancel=True)
        assert index == 0 and record is None
        assert isinstance(exc, RunTimeout)

    def test_engine_turns_infra_failures_into_error_records(self, grid44):
        class DoomedBackend(SerialBackend):
            def next_completed(self):
                index, unit = self._queue.popleft()
                return index, None, WorkerCrashed("boom")

        records = ExecutionEngine(backend=DoomedBackend()).run([_unit(grid44)])
        assert records[0].failed
        assert records[0].error_kind == "WorkerCrashed"

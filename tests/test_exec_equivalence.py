"""The engine's determinism contract: parallel == serial, byte for byte.

The execution engine promises that worker count, completion order, and
cache state are *invisible* in the results: any ``--jobs`` value must
produce byte-identical aggregated sweep output, and leave result caches
holding the same records.  These tests pin that contract — first against
:func:`legacy_run_point`, a test-side reference that derives each run
inline with a schedule closure (the engine is a refactor, not a
semantics change), then across process fan-out, then property-based over
random completion orders.
"""

import io
import json
import random

import pytest

from repro.adversary.adversaries import no_failures, random_failures
from repro.adversary.schedule import FailureSchedule
from repro.analysis import run_point, sweep_b, sweep_f
from repro.analysis.families import draw_schedules, pin_horizon
from repro.analysis.runner import make_inputs, safe_run_protocol
from repro.analysis.sweep import aggregate, random_schedule_spec
from repro.adversary.search import (
    EvaluatorSpec,
    make_algorithm1_evaluator,
    search_worst_adversary,
)
from repro.core.caaf import SUM
from repro.exec import ExecutionEngine, ResultCache
from repro.exec.cache import record_to_jsonable
from repro.graphs import grid_graph
from tests.conftest import ShuffledBackend, cached_records

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

BS = [42, 84]
F = 2
SEEDS = range(3)


# --------------------------------------------------------------------- #
# Reference: each run derived inline, from a schedule closure.
# --------------------------------------------------------------------- #


def random_schedule_factory(f, horizon, respect_c=None):
    """A closure drawing a fresh random budgeted schedule per seed."""

    def factory(topology, rng):
        if f <= 0:
            return no_failures()
        return random_failures(
            topology, f, rng, first_round=1, last_round=horizon, respect_c=respect_c
        )

    return factory


def legacy_run_point(
    protocol,
    topology,
    seeds,
    schedule_factory=None,
    f=None,
    b=None,
    t=None,
    c=2,
    caaf=SUM,
    coords=None,
    timeout_s=None,
    injector_factory=None,
    capture_dir=None,
    corrupt=None,
    **faults,
):
    """One sweep coordinate, each seed's run derived in a plain loop:
    ``Random(seed)`` → inputs → schedule → fault schedules → injectors."""
    base = {"protocol": protocol, "topology": topology.name}
    base.update(coords or {})
    records = []
    for seed in seeds:
        rng = random.Random(seed)
        inputs = make_inputs(topology, rng)
        schedule = (
            schedule_factory(topology, rng)
            if schedule_factory
            else FailureSchedule()
        )
        seed_faults = draw_schedules(faults, topology, rng)
        injectors = list(injector_factory(seed)) if injector_factory else []
        if corrupt:
            from repro.sim.faults import MessageCorruption

            injectors.append(MessageCorruption.from_spec(corrupt, seed=seed))
        record = safe_run_protocol(
            protocol,
            topology,
            inputs,
            schedule=schedule,
            timeout_s=timeout_s,
            seed=seed,
            rng=rng,
            f=f,
            b=b,
            t=t,
            c=c,
            caaf=caaf,
            strict=False,
            injectors=injectors,
            capture_dir=capture_dir,
            **seed_faults,
        )
        record.seed = seed
        records.append(record)
    return aggregate(base, records)


def legacy_sweep(topology, bf_pairs, seeds, **faults):
    """Algorithm 1 over ``(b, f)`` coordinates with :func:`legacy_run_point`."""
    return [
        legacy_run_point(
            "algorithm1",
            topology,
            seeds,
            schedule_factory=random_schedule_factory(
                f, horizon=b * topology.diameter
            ),
            f=f,
            b=b,
            coords={"b": b, "f": f, "n": topology.n_nodes},
            **pin_horizon(faults, b * topology.diameter),
        )
        for b, f in bf_pairs
    ]


def _fingerprint(points):
    return [json.dumps(p.as_dict(), sort_keys=True) for p in points]


def _serial_sweep(topology):
    return legacy_sweep(topology, [(b, F) for b in BS], SEEDS)


def _engine_sweep(topology, engine):
    return sweep_b(topology, f=F, bs=BS, seeds=SEEDS, engine=engine)


class TestLegacyEquivalence:
    def test_run_point_engine_matches_serial(self, grid44):
        horizon = 42 * grid44.diameter
        serial = legacy_run_point(
            "algorithm1",
            grid44,
            SEEDS,
            schedule_factory=random_schedule_factory(F, horizon),
            f=F,
            b=42,
            coords={"b": 42, "f": F, "n": grid44.n_nodes},
        )
        engine = run_point(
            "algorithm1",
            grid44,
            SEEDS,
            f=F,
            b=42,
            coords={"b": 42, "f": F, "n": grid44.n_nodes},
            engine=ExecutionEngine(jobs=1),
            schedule_spec=random_schedule_spec(F, horizon),
        )
        assert engine.as_dict() == serial.as_dict()
        assert _fingerprint([engine]) == _fingerprint([serial])

    def test_sweep_b_engine_matches_serial_including_checkpoint(
        self, grid44, tmp_path
    ):
        serial = _serial_sweep(grid44)
        cache_dir = str(tmp_path / "cache")
        engine = _engine_sweep(
            grid44, ExecutionEngine(jobs=1, cache=ResultCache(cache_dir))
        )
        assert _fingerprint(engine) == _fingerprint(serial)
        stored = sorted(
            json.dumps(r, sort_keys=True)
            for r in cached_records(cache_dir).values()
        )
        assert stored == sorted(
            json.dumps(record_to_jsonable(r), sort_keys=True)
            for point in serial
            for r in point.records
        )

    def test_sweep_f_engine_matches_serial(self, grid44):
        serial = legacy_sweep(grid44, [(60, f) for f in (1, 2)], SEEDS)
        engine = sweep_f(
            grid44, fs=[1, 2], b=60, seeds=SEEDS, engine=ExecutionEngine(jobs=1)
        )
        assert _fingerprint(engine) == _fingerprint(serial)

    def test_serial_resume_reads_parallel_checkpoint(self, grid44, tmp_path):
        # A cache a pool filled serves a serial rerun whole, with the
        # reference loop's rows.
        cache_dir = str(tmp_path / "cache")
        _engine_sweep(
            grid44, ExecutionEngine(jobs=2, cache=ResultCache(cache_dir))
        )
        cache = ResultCache(cache_dir)
        resumed = _engine_sweep(grid44, ExecutionEngine(jobs=1, cache=cache))
        assert cache.hits == len(BS) * len(SEEDS)
        assert _fingerprint(resumed) == _fingerprint(_serial_sweep(grid44))


class TestDefaultEngine:
    """``run_point`` without an ``engine`` runs the same units in-process:
    declarative schedules and injectors are honoured, and the rows equal
    a two-worker pool's."""

    def _both(self, topology, **kwargs):
        default = run_point("algorithm1", topology, range(4), **kwargs)
        pooled = run_point(
            "algorithm1", topology, range(4), engine=ExecutionEngine(jobs=2),
            **kwargs,
        )
        return default, pooled

    def test_schedule_spec_is_honoured(self):
        grid = grid_graph(6, 6)
        default, pooled = self._both(
            grid, f=12, b=42,
            schedule_spec=random_schedule_spec(12, horizon=42 * grid.diameter),
        )
        assert default.as_dict() == pooled.as_dict()
        failure_free = run_point("algorithm1", grid, range(4), f=12, b=42)
        assert default.cc_mean != failure_free.cc_mean

    def test_inject_is_honoured(self, grid44):
        default, pooled = self._both(grid44, f=2, b=60, inject="drop=0.2")
        assert default.as_dict() == pooled.as_dict()
        assert default.correct_rate < 1.0
        assert all(r.extra["injected_faults"] > 0 for r in default.records)


class TestProcessEquivalence:
    def test_jobs4_matches_jobs1_byte_for_byte(self, grid44, tmp_path):
        d1, d4 = str(tmp_path / "c1"), str(tmp_path / "c4")
        one = _engine_sweep(
            grid44, ExecutionEngine(jobs=1, cache=ResultCache(d1))
        )
        four = _engine_sweep(
            grid44, ExecutionEngine(jobs=4, cache=ResultCache(d4))
        )
        assert _fingerprint(four) == _fingerprint(one)
        assert cached_records(d4) == cached_records(d1)

    def test_warm_cache_replay_is_identical(self, grid44, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = _engine_sweep(
            grid44, ExecutionEngine(jobs=1, cache=ResultCache(cache_dir))
        )
        warm_cache = ResultCache(cache_dir)
        warm = _engine_sweep(grid44, ExecutionEngine(jobs=1, cache=warm_cache))
        assert _fingerprint(warm) == _fingerprint(cold)
        assert warm_cache.hits == len(BS) * len(list(SEEDS))

    def test_force_recomputes_to_the_same_answer(self, grid44, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = _engine_sweep(
            grid44, ExecutionEngine(jobs=1, cache=ResultCache(cache_dir))
        )
        forced_cache = ResultCache(cache_dir)
        forced = _engine_sweep(
            grid44, ExecutionEngine(jobs=1, cache=forced_cache, force=True)
        )
        assert _fingerprint(forced) == _fingerprint(cold)
        assert forced_cache.hits == 0


# --------------------------------------------------------------------- #
# Property: ANY completion order and ANY jobs value -> identical bytes.
# --------------------------------------------------------------------- #

_BASELINE = {}


def _baseline(tmp_base):
    """Serial fingerprint + cached records, computed once per session."""
    if "points" not in _BASELINE:
        topology = grid_graph(3, 3)
        cache_dir = str(tmp_base / "baseline-cache")
        points = sweep_b(
            topology, f=1, bs=[42, 63], seeds=range(2),
            engine=ExecutionEngine(jobs=1, cache=ResultCache(cache_dir)),
        )
        _BASELINE["points"] = _fingerprint(points)
        _BASELINE["records"] = cached_records(cache_dir)
        _BASELINE["topology"] = topology
    return _BASELINE


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestCompletionOrderProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        order_seed=st.integers(min_value=0, max_value=2**32 - 1),
        jobs=st.integers(min_value=1, max_value=8),
    )
    def test_any_completion_order_and_jobs_is_byte_identical(
        self, tmp_path_factory, order_seed, jobs
    ):
        base = _baseline(tmp_path_factory.getbasetemp())
        topology = base["topology"]
        cache_dir = str(tmp_path_factory.mktemp("perm") / "cache")
        # ShuffledBackend releases completions in an rng-chosen order;
        # `jobs` still drives the engine's submission windowing, so the
        # two axes of nondeterminism vary independently here.
        engine = ExecutionEngine(
            jobs=jobs,
            backend=ShuffledBackend(random.Random(order_seed)),
            cache=ResultCache(cache_dir),
        )
        points = sweep_b(
            topology, f=1, bs=[42, 63], seeds=range(2), engine=engine,
        )
        assert _fingerprint(points) == base["points"]
        assert cached_records(cache_dir) == base["records"]


# --------------------------------------------------------------------- #
# Parallel adversary search.
# --------------------------------------------------------------------- #


class TestSearchEquivalence:
    def _spec(self, topology):
        rng = random.Random(0)
        inputs = make_inputs(topology, rng)
        return EvaluatorSpec(topology, inputs, f=2, b=45)

    def test_jobs2_matches_jobs1(self, grid44):
        spec = self._spec(grid44)
        results = [
            search_worst_adversary(
                spec, grid44, f=2, horizon=45 * grid44.diameter,
                rng=random.Random(7), restarts=3, steps_per_restart=2,
                jobs=jobs,
            )
            for jobs in (1, 2)
        ]
        one, two = results
        assert two.cc_bits == one.cc_bits
        assert two.rounds == one.rounds
        assert two.trials == one.trials
        assert two.schedule.crash_rounds == one.schedule.crash_rounds

    def test_spec_matches_closure_evaluator_serially(self, grid44):
        rng = random.Random(0)
        inputs = make_inputs(grid44, rng)
        closure = make_algorithm1_evaluator(grid44, inputs, f=2, b=45)
        spec = EvaluatorSpec(grid44, inputs, f=2, b=45)
        a = search_worst_adversary(
            closure, grid44, f=2, horizon=45 * grid44.diameter,
            rng=random.Random(3), restarts=2, steps_per_restart=2,
        )
        b = search_worst_adversary(
            spec, grid44, f=2, horizon=45 * grid44.diameter,
            rng=random.Random(3), restarts=2, steps_per_restart=2,
        )
        assert (a.cc_bits, a.rounds, a.trials) == (b.cc_bits, b.rounds, b.trials)
        assert a.schedule.crash_rounds == b.schedule.crash_rounds

    def test_parallel_requires_picklable_spec(self, grid44):
        rng = random.Random(0)
        inputs = make_inputs(grid44, rng)
        closure = make_algorithm1_evaluator(grid44, inputs, f=2, b=45)
        with pytest.raises(TypeError, match="EvaluatorSpec"):
            search_worst_adversary(
                closure, grid44, f=2, horizon=45, jobs=2
            )

    def test_trial_count_invariant_holds(self, grid44):
        spec = self._spec(grid44)
        result = search_worst_adversary(
            spec, grid44, f=2, horizon=45 * grid44.diameter,
            rng=random.Random(1), restarts=3, steps_per_restart=4,
        )
        assert result.trials == 1 + 3 * (1 + 4)


# --------------------------------------------------------------------- #
# End-to-end through the CLI.
# --------------------------------------------------------------------- #


class TestCliEquivalence:
    def _main(self, argv):
        import contextlib

        from repro.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    def test_sweep_b_jobs2_prints_identical_table(self):
        base = ["sweep-b", "--topology", "grid:4x4", "-f", "2",
                "--bs", "42,84", "--seeds", "2"]
        code1, out1 = self._main(base)
        code2, out2 = self._main(base + ["--jobs", "2"])
        assert (code1, out1) == (code2, out2)

    def test_chaos_jobs2_prints_identical_table(self):
        base = ["chaos", "--topology", "grid:4x4", "--protocol", "unknown_f",
                "-f", "2", "--seeds", "3"]
        code1, out1 = self._main(base)
        code2, out2 = self._main(base + ["--jobs", "2"])
        assert (code1, out1) == (code2, out2)

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param([], id="plain"),
            pytest.param(["--inject", "drop=0.1"], id="inject"),
            pytest.param(["--corrupt", "bitflip:0.05"], id="corrupt"),
        ],
    )
    def test_run_jobs2_prints_identical_table(self, extra):
        base = ["run", "--topology", "grid:4x4", "-f", "2", "-b", "60"] + extra
        code1, out1 = self._main(base)
        code2, out2 = self._main(base + ["--jobs", "2"])
        assert (code1, out1) == (code2, out2)

    def test_sweep_f_verb_works(self):
        code, out = self._main(
            ["sweep-f", "--topology", "grid:4x4", "--fs", "1,2", "-b", "60",
             "--seeds", "2"]
        )
        assert code == 0
        assert "CC vs f" in out

    def test_cache_verb_stats_gc_clear(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._main(
            ["sweep-b", "--topology", "grid:4x4", "-f", "2", "--bs", "42",
             "--seeds", "2", "--cache-dir", cache_dir]
        )
        code, out = self._main(["cache", "stats", "--cache-dir", cache_dir])
        assert code == 0 and "entries" in out
        code, out = self._main(
            ["cache", "gc", "--cache-dir", cache_dir, "--older-than", "1d"]
        )
        assert code == 0 and "removed 0" in out
        code, out = self._main(["cache", "clear", "--cache-dir", cache_dir])
        assert code == 0 and "cleared 2" in out

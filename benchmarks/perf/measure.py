"""The timed pass, the traced pass and the probes, for one workload.

The timed pass reports end-to-end metrics with tracing off.  The traced
pass replays a fixed subset twice — once with only the unit timer (the
reference) and once under :class:`layers.LayerTracer` — and reports
per-layer metrics plus the tracing overhead between the two.

Timings are in *reference seconds*: each sample's wall time is scaled by
how fast the host ran a fixed pure-Python loop just before and just after
it (:class:`HostClock`).  The 2-vCPU host this benchmark was tuned on
switches between a fast and a ~40% slower state every few seconds and
drifts by up to 2x over minutes; scaling halves the run-to-run spread
(see README.md).  The loop touches no ``repro`` code, so a change to the
program cannot move the scale.  Raw wall-clock values stay in the report.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from layers import CD_KEY, STEP_KEY, STOP_LAYER, UNIT_KEY, LayerTracer
from workloads import (
    ENGINE_JOBS,
    PER_B,
    TRACE_PER_B,
    TRACE_RUNS,
    WARM_PASSES,
    Workload,
    outcome,
)

PERF = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

#: Iterations of the host-speed probe loop, and the probe's time on the
#: reference host (the 2-vCPU VM the bounds were set on, fast state).
PROBE_LOOPS = 100_000
REFERENCE_PROBE_S = 0.009


class Checker:
    """Counts runs and the ones failing the oracle, certification, the
    golden outcome (when the golden file has the run) or the cache."""

    def __init__(self, workload: Workload, golden: Dict[str, list]):
        self.workload, self.golden = workload, golden
        self.attempted = 0
        self.golden_checked = 0
        self._failed: Dict[str, str] = {}

    @property
    def failures(self) -> List[str]:
        return [f"{run}: {why}" for run, why in sorted(self._failed.items())]

    def check(self, unit, record) -> None:
        self.attempted += 1
        expected = self.golden.get(self.workload.run_id(unit))
        self.golden_checked += expected is not None
        problem = self.workload.problem(record, expected)
        if problem is not None:
            self.fail(unit, problem)

    def fail(self, unit, problem: str) -> None:
        self._failed.setdefault(self.workload.run_id(unit), problem)


def _scratch(name: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail(samples: List[float]) -> Optional[Dict[str, float]]:
    """``{"p", "value", "n"}`` at the highest whole percentile with at
    least 10 samples beyond it (p75 at n=40, p97 at n=400); None while
    that is not above the median."""
    n = len(samples)
    p = 100 * (n - 10) // n if n else 0
    if p <= 50:
        return None
    ordered = sorted(samples)
    rank = (n - 1) * p / 100
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return {"p": p, "value": value, "n": n}


# ---------------------------------------------------------------------- #
# Probes.
# ---------------------------------------------------------------------- #


def setup_probe(workload: Workload, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its units being ready."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
        "--workload", workload.name, "--seed", str(seed),
    ]
    start = PERF()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = PERF() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload.name} failed ({code})")
    return ready


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop (best of two): how fast the
    host runs Python right now."""
    best = float("inf")
    for _ in range(2):
        start = PERF()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc = (acc + i * i) % 1_000_003
        best = min(best, PERF() - start)
    return best


class HostClock:
    """Scales wall-clock samples to reference seconds.

    Call :meth:`mark` just before a sample starts (unless the previous
    sample's :meth:`scale` call just probed) and :meth:`scale` just after
    it ends; the sample's reference seconds are its wall seconds times the
    returned factor, ``REFERENCE_PROBE_S / mean(probe before, probe after)``.
    With ``cpus`` each probe is the mean over those CPUs (the process
    visits each in turn), for work that runs on all of them.
    """

    def __init__(self, cpus: Optional[List[int]] = None) -> None:
        self.cpus = cpus
        self.probes: List[float] = []

    def _probe(self) -> float:
        if not self.cpus:
            return host_probe()
        home = os.sched_getaffinity(0)
        try:
            readings = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                readings.append(host_probe())
        finally:
            os.sched_setaffinity(0, home)
        return sum(readings) / len(readings)

    def mark(self) -> None:
        self.probes.append(self._probe())

    def scale(self) -> float:
        self.probes.append(self._probe())
        return REFERENCE_PROBE_S / ((self.probes[-2] + self.probes[-1]) / 2)


@contextmanager
def host_clock(workload: Workload) -> Iterator[HostClock]:
    """The clock for one pass.  Host slowdowns hit one CPU at a time, so
    a serial workload runs pinned to one CPU and probes it; the engine's
    pool spans every CPU, so its clock probes each of them."""
    if not hasattr(os, "sched_setaffinity"):
        yield HostClock()
        return
    home = os.sched_getaffinity(0)
    if workload.kind != "serial":
        yield HostClock(sorted(home))
        return
    os.sched_setaffinity(0, {min(home)})
    try:
        yield HostClock()
    finally:
        os.sched_setaffinity(0, home)


def environment() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


def _commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


# ---------------------------------------------------------------------- #
# Timed pass.
# ---------------------------------------------------------------------- #


def setup_samples(workload: Workload, seed: int, count: int, clock: HostClock):
    """``count`` set-up probes: (reference seconds, wall seconds) each."""
    out = []
    for _ in range(count):
        clock.mark()
        wall = setup_probe(workload, seed)
        out.append((wall * clock.scale(), wall))
    return out


def timed_pass(
    workload: Workload,
    seed: int,
    golden: Dict[str, list],
    clock: HostClock,
    seconds: Optional[float] = None,
    runs: Optional[int] = None,
) -> Dict[str, Any]:
    """Closed loop for ``seconds`` (or exactly ``runs`` runs) after one
    untimed warm-up run; returns metrics, extras and the checker."""
    from repro.exec import execute_unit

    scratch = _scratch(workload.name)
    try:
        ctx = workload.setup(seed, scratch)
        checker = Checker(workload, golden)
        # Warm-up: lazy imports and first-call set-up finish before timing
        # (in the engine's parent too, whose forked workers inherit them).
        warm = workload.units(ctx, 0, 1)[0]
        checker.check(warm, execute_unit(warm))
        timed = _timed_serial if workload.kind == "serial" else _timed_engine
        result = timed(workload, ctx, checker, clock, seconds, runs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    walls, raw = result["walls"], result["raw_walls"]
    metrics = {
        "runs_per_s": result["runs"] / result["wall"],
        "run_p50_s": statistics.median(walls),
        "node_rounds_per_s": result["node_rounds"] / result["wall"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    extras = {
        "runs": result["runs"],
        "wall_ref_s": result["wall"],
        "raw_wall_s": result["raw_wall"],
        "raw_runs_per_s": result["runs"] / result["raw_wall"],
        "raw_run_p50_s": statistics.median(raw),
    }
    run_tail = tail(walls)
    if run_tail is not None:
        extras["run_tail_s"] = run_tail
    if workload.kind == "engine":
        extras["warm_runs_per_s"] = result["warm_runs_per_s"]
        extras["peak_rss_children_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    return {"metrics": metrics, "extras": extras, "checker": checker}


def _more(start: float, done: int, seconds, runs) -> bool:
    if runs is not None:
        return done < runs
    return PERF() - start < seconds


def _timed_serial(workload, ctx, checker, clock, seconds, runs):
    from repro.exec import execute_unit

    walls: List[float] = []
    raw: List[float] = []
    node_rounds = 0
    clock.mark()
    start = PERF()
    while _more(start, len(walls), seconds, runs):
        unit = workload.unit(ctx, ctx.seed + 1 + len(walls))
        began = PERF()
        record = execute_unit(unit)
        raw.append(PERF() - began)
        walls.append(raw[-1] * clock.scale())
        checker.check(unit, record)
        node_rounds += record.n_nodes * record.rounds
    return {"runs": len(walls), "wall": sum(walls), "walls": walls,
            "raw_wall": sum(raw), "raw_walls": raw, "node_rounds": node_rounds}


def _unit_walls(walls: List[float]):
    def listen(event: Dict[str, Any]) -> None:
        if event["event"] == "unit_finished":
            walls.append(event["wall_s"])

    return listen


def _timed_engine(workload, ctx, checker, clock, seconds, runs):
    """Batches of units, each through a fresh pool and an empty cache,
    then :data:`WARM_PASSES` all-hit passes over the same units."""
    from repro.exec import ExecutionEngine, ProgressEmitter, ResultCache

    raw: List[float] = []
    walls: List[float] = []
    emitter = ProgressEmitter(listeners=[_unit_walls(raw)])
    per_b = runs or PER_B
    cold = raw_cold = 0.0
    warm: List[float] = []
    done = node_rounds = batch = 0
    start = PERF()
    while _more(start, batch, seconds, 1 if runs else None):
        units = workload.units(ctx, batch, per_b)
        cache = ResultCache(os.path.join(ctx.scratch, f"cache-{batch}"))
        engine = ExecutionEngine(jobs=ENGINE_JOBS, cache=cache, emitter=emitter)
        clock.mark()
        began = PERF()
        records = engine.run(units)
        wall = PERF() - began
        scale = clock.scale()
        raw_cold += wall
        cold += wall * scale
        walls.extend(w * scale for w in raw[len(walls):])
        for unit, record in zip(units, records):
            checker.check(unit, record)
            node_rounds += record.n_nodes * record.rounds
        warm.extend(_warm_passes(engine, units, records, checker))
        done += len(units)
        batch += 1
    return {
        "runs": done,
        "wall": cold,
        "walls": walls,
        "raw_wall": raw_cold,
        "raw_walls": raw,
        "node_rounds": node_rounds,
        "warm_runs_per_s": len(units) / statistics.median(warm),
    }


def _warm_passes(engine, units, records, checker) -> List[float]:
    """All-hit passes; every unit must be served from the cache with the
    cold pass's outcome."""
    walls = []
    for _ in range(WARM_PASSES):
        hits = engine.cache.hits
        began = PERF()
        again = engine.run(units)
        walls.append(PERF() - began)
        missed = engine.cache.hits - hits != len(units)
        for unit, cold, warm in zip(units, records, again):
            if missed:
                checker.fail(unit, "a warm pass missed the cache")
            elif outcome(warm) != outcome(cold):
                checker.fail(unit, f"warm {outcome(warm)} != cold {outcome(cold)}")
    return walls


# ---------------------------------------------------------------------- #
# Traced pass.
# ---------------------------------------------------------------------- #


def traced_pass(
    workload: Workload,
    seed: int,
    golden: Dict[str, list],
    clock: HostClock,
    runs: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Per-layer metrics over the fixed subset (the first ``runs`` serial
    runs, or ``runs`` seeds per b value for the engine)."""
    scratch = _scratch(workload.name)
    deltas = os.path.join(scratch, "deltas")
    os.makedirs(deltas)
    tracer = LayerTracer(delta_dir=deltas)
    try:
        with tracer:
            with tracer.span("bench", "setup"):
                ctx = workload.setup(seed, scratch)
        setup = tracer.snapshot()
        tracer.reset()
        checker = Checker(workload, golden)
        if workload.kind == "serial":
            units = workload.units(ctx, 0, runs or TRACE_RUNS)
        else:
            units = workload.units(ctx, 0, runs or TRACE_PER_B)
        reference = LayerTracer(full=False, delta_dir=deltas)
        with reference:
            ref = _replay(workload, units, reference, checker, clock,
                          scratch, "ref")
        with tracer:
            traced = _replay(workload, units, tracer, checker, clock,
                             scratch, "traced")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = _layer_metrics(tracer, setup, reference, ref, traced, len(units))
    if trace_path is not None:
        import json

        os.makedirs(os.path.dirname(os.path.abspath(trace_path)), exist_ok=True)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.chrome_trace(f"{workload.name} seed {seed}"), fh)
    layers = {
        layer: {"calls": cell["calls"] / len(units),
                "self_s": cell["self_s"] / len(units)}
        for layer, cell in sorted(tracer.layers().items())
    }
    return {"metrics": metrics, "layers": layers, "checker": checker,
            "runs": len(units)}


def _replay(workload, units, tracer, checker, clock, scratch, tag):
    """One pass over ``units``: ``wall`` in reference seconds (for the
    tracing overhead) and ``raw_wall`` (against the unit timer's raw
    seconds, for the dispatch overhead)."""
    from repro.exec import execute_unit

    if workload.kind == "serial":
        wall = raw_wall = 0.0
        clock.mark()
        for unit in units:
            start = PERF()
            with tracer.span("bench", "run"):
                record = execute_unit(unit)
            raw = PERF() - start
            raw_wall += raw
            wall += raw * clock.scale()
            checker.check(unit, record)
        return {"wall": wall, "raw_wall": raw_wall, "jobs": 1, "hits": 0}

    from repro.exec import ExecutionEngine, ResultCache

    cache = ResultCache(os.path.join(scratch, f"cache-{tag}"))
    engine = ExecutionEngine(jobs=ENGINE_JOBS, cache=cache)
    clock.mark()
    start = PERF()
    with tracer.span("bench", "cold_pass"):
        records = engine.run(units)
    raw_wall = PERF() - start
    wall = raw_wall * clock.scale()
    complete = tracer.absorb_deltas() == len(units)
    for unit, record in zip(units, records):
        checker.check(unit, record)
        if not complete:
            checker.fail(unit, "a pool worker left no trace delta")
    with tracer.span("bench", "warm_passes"):
        _warm_passes(engine, units, records, checker)
    return {"wall": wall, "raw_wall": raw_wall, "jobs": ENGINE_JOBS,
            "hits": cache.hits}


def _layer_metrics(tracer, setup, reference, ref, traced, n) -> Dict[str, float]:
    layers = tracer.layers()
    counts = tracer.snapshot()["counts"]
    cd = counts.get(CD_KEY, 0)

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0) / n

    def calls(layer: str) -> float:
        return layers.get(layer, {}).get("calls", 0) / n

    handler_calls = counts.get("sim.network.handler_calls", 0)
    idle = counts.get("sim.network.idle_calls", 0)
    transport_calls = layers.get("resilience.transport", {}).get("calls", 0)
    unit_wall = reference.incl.get(UNIT_KEY, 0.0)
    return {
        "graphs.diameter_s": setup["incl"].get("graphs.properties.diameter", 0.0),
        "graphs.bfs_calls": setup["calls"].get("graphs.properties.bfs_levels", 0),
        "graphs.run_bfs_calls": tracer.calls.get("graphs.properties.bfs_levels", 0) / n,
        "core.params.cd_calls": cd / n,
        "sim.network.rounds": tracer.calls.get(STEP_KEY, 0) / n,
        "sim.network.handler_calls": handler_calls / n,
        "sim.network.idle_calls": idle / n,
        "sim.network.idle_frac": idle / handler_calls if handler_calls else 0.0,
        "sim.network.deliveries": counts.get("sim.network.deliveries", 0) / n,
        "sim.network.step_self_s": tracer.self_s.get(STEP_KEY, 0.0) / n,
        "sim.network.stop_scan_s": self_s(STOP_LAYER),
        "core.dispatch.self_s": self_s("core.algorithm1") + self_s("core.unknown_f"),
        "core.algorithm1.calls": calls("core.algorithm1"),
        "core.algorithm1.self_s": self_s("core.algorithm1"),
        "core.unknown_f.calls": calls("core.unknown_f"),
        "core.unknown_f.self_s": self_s("core.unknown_f"),
        "core.agg.calls": calls("core.agg"),
        "core.agg.self_s": self_s("core.agg"),
        "core.veri.calls": calls("core.veri"),
        "core.veri.self_s": self_s("core.veri"),
        "baselines.bruteforce.calls": calls("baselines.bruteforce"),
        "baselines.bruteforce.self_s": self_s("baselines.bruteforce"),
        "resilience.transport.calls": transport_calls / n,
        "resilience.transport.idle_calls":
            counts.get("resilience.transport.idle_calls", 0) / n,
        "resilience.transport.idle_frac":
            counts.get("resilience.transport.idle_calls", 0) / transport_calls
            if transport_calls else 0.0,
        "resilience.transport.self_s": self_s("resilience.transport"),
        "integrity.frames.calls": calls("integrity.frames"),
        "integrity.frames.self_s": self_s("integrity.frames"),
        "sim.faults.callbacks": calls("sim.faults"),
        "sim.faults.self_s": self_s("sim.faults"),
        "sim.monitors.checks": calls("sim.monitors"),
        "sim.monitors.self_s": self_s("sim.monitors"),
        "sim.recorder.callbacks": calls("sim.recorder"),
        "sim.recorder.self_s": self_s("sim.recorder"),
        "analysis.runner.self_s": self_s("analysis.runner"),
        "exec.scheduler.self_s": self_s("exec.scheduler"),
        "exec.pool.unit_wall_s": unit_wall / n,
        "exec.pool.dispatch_overhead_frac":
            1.0 - unit_wall / (ref["jobs"] * ref["raw_wall"]),
        "exec.cache.hits": traced["hits"],
        "exec.cache.get_s": tracer.incl.get("exec.cache.ResultCache.get", 0.0) / n,
        "exec.cache.put_s": tracer.incl.get("exec.cache.ResultCache.put", 0.0) / n,
        "trace.overhead_x": traced["wall"] / ref["wall"],
    }

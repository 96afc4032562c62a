#!/usr/bin/env python3
"""The repository's perf benchmark: four workloads, end-to-end and
per-layer metrics, golden outcome checks.  See README.md in this
directory for the workloads, the metrics and how to read them.

One workload (the last stdout line is the JSON result)::

    python3 benchmarks/perf/run.py --workload grid-idle --seed 0 \
        --seconds 20 --trace 0

Every workload, round-robin over fresh processes (a "set": ROUNDS
rounds, each measuring every workload for ``--seconds / ROUNDS`` on its
own range of seeds)::

    python3 benchmarks/perf/run.py [--seed S] [--trace 1] [--out set.json]

Other verbs::

    python3 benchmarks/perf/run.py compare A.json B.json
    python3 benchmarks/perf/run.py golden [--write]
    python3 benchmarks/perf/run.py smoke

Exits nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
#: Per-layer metric -> the end-to-end metrics and workloads it should move.
MOVES_PATH = os.path.join(HERE, "moves.json")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Runs per workload the golden file records from seed 0 (engine-sweep:
#: batches of 4 b values x 10 seeds).  A 20 s run at seed 0 on the
#: reference host makes up to 15 (grid-idle, chaos-stack), 32 (geo-dense)
#: or 21 batches (engine-sweep), so this covers every run on a host up to
#: ~2x its speed.  Runs beyond it are checked against the oracle only; the
#: report counts the golden-checked ones.
GOLDEN_RUNS = {"grid-idle": 32, "geo-dense": 64, "chaos-stack": 32,
               "engine-sweep": 48}

#: Fresh interpreters timed per run for ``setup_s`` (the median is used).
SETUP_SAMPLES = 5

#: Rounds of a set.  Round ``r`` of a workload runs ``--seconds / ROUNDS``
#: on its own slice of the golden file's seeds (see :func:`round_seed`).
ROUNDS = 4


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_moves() -> Dict[str, List[Dict[str, str]]]:
    with open(MOVES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_golden() -> Dict[str, Dict[str, list]]:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def _use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``; refuse to fall back
    to an installed copy, which would measure different code."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"error: no source tree at {SRC}/repro")
    sys.path.insert(0, SRC)


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def unit_of(name: str, spec: Dict[str, Any]) -> str:
    """The metric's unit: BENCHMARK.json's, else read off its name (for
    the report-only metrics)."""
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    if name.endswith("_s"):
        return "s"
    return "fraction" if name.endswith("_frac") else "count"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------------- #
# One workload.
# ---------------------------------------------------------------------- #


def run_workload(args) -> int:
    _use_source_tree()
    import measure
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[args.workload]
    golden = load_golden().get(workload.name, {})
    report: Dict[str, Any] = {"workload": workload.name, "seed": args.seed,
                              "trace": args.trace}
    with measure.host_clock(workload) as clock:
        if args.trace:
            trace_path = os.path.join(
                OUT, f"trace-{workload.name}-s{args.seed}.json"
            )
            result = measure.traced_pass(workload, args.seed, golden, clock,
                                         runs=args.runs, trace_path=trace_path)
            wanted = spec["per_layer"]
            report.update(layers=result["layers"], trace_path=trace_path,
                          runs=result["runs"])
        else:
            samples = measure.setup_samples(workload, args.seed,
                                            SETUP_SAMPLES, clock)
            result = measure.timed_pass(workload, args.seed, golden, clock,
                                        seconds=args.seconds, runs=args.runs)
            metrics, extras = result["metrics"], result["extras"]
            metrics["setup_s"] = statistics.median(s for s, _ in samples)
            extras["raw_setup_s"] = statistics.median(w for _, w in samples)
            wanted = spec["end_to_end"]
            report.update(setup_samples=samples, extras=extras)
    checker = result["checker"]
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    report.update(
        env=dict(measure.environment(), host_probe_s=_quartiles(clock.probes)),
        metrics=metrics,
        all_metrics=result["metrics"],
        attempted=checker.attempted,
        failed=len(checker.failures),
        failures=checker.failures,
        golden_checked=checker.golden_checked,
    )

    print(f"# {workload.name} seed {args.seed}: {workload.why}")
    print("# '*' marks the metrics BENCHMARK.json lists for this mode; "
          "'->' what each should move")
    moves = load_moves() if args.trace else {}
    for name, value in sorted(result["metrics"].items()):
        mark = "*" if name in metrics else " "
        to = ", ".join(f"{m['metric']} on {m['workload']}"
                       for m in moves.get(name, []))
        print(f"{mark} {name:40s} {_fmt(value):>14s} {unit_of(name, spec)}"
              + (f"  -> {to}" if to else ""))
    for name, value in sorted(report.get("extras", {}).items()):
        print(f"  {name:40s} {_fmt(value)}")
    if args.trace:
        total = sum(cell["self_s"] for cell in result["layers"].values())
        print(f"  {'layer (traced, per run)':40s} {'self_s':>14s} "
              f"{'share':>7s} {'calls':>10s}")
        for layer, cell in sorted(result["layers"].items(),
                                  key=lambda kv: -kv[1]["self_s"]):
            print(f"  {layer:40s} {cell['self_s']:14.6f} "
                  f"{cell['self_s'] / total:7.1%} {cell['calls']:10.6g}")
    print(f"  runs {checker.attempted} checked, {checker.golden_checked} "
          f"against golden, {len(checker.failures)} failed")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }))
    return 1 if checker.failures else 0


def setup_probe(args) -> int:
    """Set up in this fresh interpreter, then say so (timed by the parent)."""
    _use_source_tree()
    from workloads import WORKLOADS

    WORKLOADS[args.workload].setup(args.seed, OUT)
    print("ready", flush=True)
    return 0


# ---------------------------------------------------------------------- #
# A set: every workload, round-robin over fresh processes.
# ---------------------------------------------------------------------- #


def _child(name: str, seed: int, extra: List[str]) -> Dict[str, Any]:
    os.makedirs(OUT, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="report-", suffix=".json", dir=OUT)
    os.close(fd)
    try:
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--json-out", path] + extra
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if not os.path.getsize(path):
            sys.stdout.write(done.stdout)
            raise RuntimeError(f"{name} seed {seed} exited {done.returncode}")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.unlink(path)


def round_seed(name: str, seed: int, rnd: int) -> int:
    """The workload seed of round ``rnd`` of a set at ``seed``.  Rounds
    get disjoint seed ranges, each a ``1/ROUNDS`` share of the golden
    file's runs, so no round replays another's inputs and every round of
    a set at seed 0 stays inside the golden file."""
    from workloads import PER_B, WORKLOADS

    stride = GOLDEN_RUNS[name] // ROUNDS
    if WORKLOADS[name].kind == "engine":
        stride *= PER_B
    return seed + rnd * stride


def run_set(args) -> int:
    _use_source_tree()
    import measure
    from workloads import WORKLOADS

    spec = load_spec()
    names = list(WORKLOADS)
    length = (["--runs", str(args.runs)] if args.runs is not None
              else ["--seconds", str(args.seconds / ROUNDS)])
    started = time.time()
    host: List[float] = []
    reports: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for rnd in range(ROUNDS):
        host.append(measure.host_probe())
        for name in names:
            seed = round_seed(name, args.seed, rnd)
            print(f"round {rnd + 1}/{ROUNDS}: {name} seed {seed}", flush=True)
            reports[name].append(_child(name, seed, length + ["--trace", "0"]))
    host.append(measure.host_probe())
    untraced = time.time()
    traces = {}
    if args.trace:
        for name in names:
            print(f"traced pass: {name} seed {args.seed}", flush=True)
            traces[name] = _child(name, args.seed, ["--trace", "1"])
    result: Dict[str, Any] = {
        "kind": "perf-set",
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": ROUNDS,
        "env": dict(measure.environment(), host_probe_s=_quartiles(host)),
        "wall_s": time.time() - started,
        "untraced_s": untraced - started,
        "traced_s": time.time() - untraced,
        "workloads": {},
    }
    failed = 0
    for name in names:
        cell: Dict[str, Any] = {"metrics": {}, "attempted": 0, "failed": 0,
                                "failures": []}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in reports[name]]
            cell["metrics"][m["name"]] = dict(
                _quartiles(values), unit=m["unit"], values=values
            )
        for r in reports[name] + ([traces[name]] if name in traces else []):
            cell["attempted"] += r["attempted"]
            cell["failed"] += r["failed"]
            cell["failures"] += r["failures"]
        cell["extras"] = [r["extras"] for r in reports[name]]
        if name in traces:
            cell["per_layer"] = traces[name]["all_metrics"]
            cell["layers"] = traces[name]["layers"]
        failed += cell["failed"]
        result["workloads"][name] = cell
    _print_set(result, spec)
    out = args.out or os.path.join(OUT, f"set-{int(started)}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} (untraced {result['untraced_s']:.0f} s, "
          f"traced {result['traced_s']:.0f} s)")
    return 1 if failed else 0


def _print_set(result: Dict[str, Any], spec: Dict[str, Any]) -> None:
    env = result["env"]
    probe = env["host_probe_s"]
    print(f"\ncommit {env['commit']}  python {env['python']}  "
          f"cpus {env['cpu_count']}  host probe {probe['median']:.4f} s "
          f"(q1 {probe['q1']:.4f}, q3 {probe['q3']:.4f})")
    print(f"{'workload':14s} {'metric':20s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s}  unit")
    for name, cell in result["workloads"].items():
        for metric, row in cell["metrics"].items():
            spread = (row["q3"] - row["q1"]) / row["median"]
            print(f"{name:14s} {metric:20s} {row['median']:12.6g} "
                  f"{row['q1']:12.6g} {row['q3']:12.6g} {spread:7.1%}  "
                  f"{row['unit']}")
        print(f"{name:14s} {'runs':20s} {cell['attempted']:>12d} checked, "
              f"{cell['failed']} failed")
        for failure in cell["failures"]:
            print(f"{name:14s} FAILED {failure}")
    for name, cell in result["workloads"].items():
        if "per_layer" not in cell:
            continue
        print(f"\n{name}: per-layer (traced pass, per run)")
        for metric, value in sorted(cell["per_layer"].items()):
            print(f"  {metric:40s} {_fmt(value):>14s} {unit_of(metric, spec)}")


# ---------------------------------------------------------------------- #
# compare
# ---------------------------------------------------------------------- #


def classify(a: List[float], b: List[float], better: str, bound: float) -> str:
    """regressed / improved / unchanged / unresolved, by the rules of the
    choosing-metrics guide (sections 6.5 and 8)."""
    sign = 1.0 if better == "higher" else -1.0
    qa = _quartiles(a)
    spread = (qa["q3"] - qa["q1"]) / qa["median"]
    change = sign * (statistics.median(b) - qa["median"]) / qa["median"]
    every_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
    if -change > bound:
        return "unresolved" if spread > bound else "regressed"
    if spread > bound and not every_better:
        return "unresolved"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if (
        change > 0
        and len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(statistics.median(b) - qa["median"]) > qa["q3"] - qa["q1"]
    ):
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    print(f"A {path_a}: commit {a['env']['commit']}")
    print(f"B {path_b}: commit {b['env']['commit']}")
    print(f"{'workload':14s} {'metric':18s} {'A median':>11s} {'A q1..q3':>23s} "
          f"{'B median':>11s} {'B q1..q3':>23s} {'delta':>7s} {'bound':>6s}  flag")
    flags: Dict[str, int] = {}
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in spec["end_to_end"]:
            ra, rb = wa["metrics"].get(m["name"]), wb["metrics"].get(m["name"])
            if ra is None or rb is None:
                continue
            flag = classify(ra["values"], rb["values"], m["better"], m["bound"])
            flags[flag] = flags.get(flag, 0) + 1
            delta = (rb["median"] - ra["median"]) / ra["median"]
            print(
                f"{name:14s} {m['name']:18s} {ra['median']:11.5g} "
                f"{ra['q1']:11.5g}..{ra['q3']:<11.5g} {rb['median']:11.5g} "
                f"{rb['q1']:11.5g}..{rb['q3']:<11.5g} {delta:+7.1%} "
                f"{m['bound']:6.0%}  {flag}"
            )
        _compare_counts(name, wa, wb, spec)
    print(", ".join(f"{k} {v}" for k, v in sorted(flags.items())))
    return 1 if flags.get("regressed") else 0


def _compare_counts(name, wa, wb, spec) -> None:
    """Per-layer counts from two traced passes must repeat exactly; list
    every one that differs."""
    la, lb = wa.get("per_layer"), wb.get("per_layer")
    if la is None or lb is None:
        return
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    differ = [c for c in counts if la.get(c) != lb.get(c)]
    print(f"{name:14s} per-layer counts: "
          f"{len(counts) - len(differ)}/{len(counts)} identical")
    for c in differ:
        print(f"{name:14s}   {c}: {la.get(c)} -> {lb.get(c)}")


# ---------------------------------------------------------------------- #
# golden / smoke
# ---------------------------------------------------------------------- #


def golden(args) -> int:
    """Compute seed 0's outcomes serially; write them or diff them."""
    _use_source_tree()
    from repro.exec import execute_unit
    from workloads import PER_B, WORKLOADS, outcome

    runs: Dict[str, Dict[str, list]] = {}
    for name, workload in WORKLOADS.items():
        ctx = workload.setup(0, OUT)
        if workload.kind == "serial":
            units = workload.units(ctx, 0, GOLDEN_RUNS[name])
        else:
            units = [u for k in range(GOLDEN_RUNS[name])
                     for u in workload.units(ctx, k, PER_B)]
        cell = runs[name] = {}
        for unit in units:
            record = execute_unit(unit)
            problem = workload.problem(record, None)
            if problem is not None:
                sys.exit(f"{name} {unit.seed}: {problem}")
            cell[workload.run_id(unit)] = outcome(record)
        print(f"{name}: {len(cell)} runs", flush=True)
    if args.write:
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump({
                "seed": 0,
                "outcome": ["result", "cc_bits", "rounds", "flooding_rounds",
                            "status"],
                "runs": runs,
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    committed = load_golden()
    bad = [(n, k) for n in runs for k in runs[n]
           if committed.get(n, {}).get(k) != runs[n][k]]
    for n, k in bad:
        print(f"{n} {k}: {runs[n][k]} != golden {committed.get(n, {}).get(k)}")
    print(f"{sum(map(len, runs.values())) - len(bad)} match, {len(bad)} differ")
    return 1 if bad else 0


def smoke(args) -> int:
    """Two runs per workload, untraced and traced; prints one JSON summary
    (the smoke test reads it)."""
    from workloads import WORKLOADS

    summary: Dict[str, Any] = {}
    failed = 0
    for name in WORKLOADS:
        timed = _child(name, 0, ["--runs", "2", "--trace", "0"])
        traced = _child(name, 0, ["--runs", "2", "--trace", "1"])
        summary[name] = {
            "end_to_end": timed["metrics"],
            "extras": timed["extras"],
            "per_layer": traced["metrics"],
            "all_per_layer": traced["all_metrics"],
            "golden_checked": timed["golden_checked"] + traced["golden_checked"],
            "failures": timed["failures"] + traced["failures"],
            "trace": traced["trace_path"],
        }
        failed += len(summary[name]["failures"])
        print(f"{name}: {timed['attempted'] + traced['attempted']} runs, "
              f"{summary[name]['golden_checked']} golden, "
              f"{len(summary[name]['failures'])} failed", flush=True)
    print(json.dumps(summary, sort_keys=True))
    return 1 if failed else 0


# ---------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    verb = argv[0] if argv[:1] in (["golden"], ["smoke"]) else None
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=_workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload, split over the "
                             "rounds of a set (default: BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=None,
                        help="run exactly this many runs instead (engine: "
                             "seeds per b value)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", default=None)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", default=None)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv[1:] if verb else argv)
    if verb == "golden":
        return golden(args)
    if verb == "smoke":
        return smoke(args)
    if args.setup_probe:
        return setup_probe(args)
    if args.seconds is None and args.runs is None:
        args.seconds = load_spec()["run_seconds"]
    return run_workload(args) if args.workload else run_set(args)


def _workload_names() -> List[str]:
    from workloads import WORKLOADS

    return list(WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the perf benchmark; run with ``pytest benchmarks/perf``.

It is not part of the tier-1 suite (``testpaths`` is ``tests/``).  It runs
``run.py smoke`` — two runs per workload, untraced and traced — and checks
that every metric BENCHMARK.json names is reported, that moves.json maps
every per-layer metric to known end-to-end metrics and workloads, that
the seed-0 runs
match the golden outcomes, that each Chrome trace passes the repository's
own validator, and that the traced pass shows the pattern each workload
was chosen for.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.obs.export import validate_chrome_trace  # noqa: E402


def _smoke():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    summary = _smoke()
    assert sorted(summary) == sorted(w["name"] for w in spec["workloads"])
    for name, cell in summary.items():
        assert set(cell["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(cell["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        for metric in spec["end_to_end"]:
            assert cell["end_to_end"][metric["name"]]["value"] > 0, name
        assert cell["failures"] == [], name
        assert cell["golden_checked"] > 0, name
        with open(cell["trace"], encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc) == [], name
        assert any(e["ph"] == "X" for e in doc["traceEvents"]), name

    # moves.json: every per-layer metric names the end-to-end metric (or
    # report-only metric) and the workload it should move.
    with open(os.path.join(HERE, "moves.json"), encoding="utf-8") as fh:
        moves = json.load(fh)
    assert set(moves) == {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, targets in moves.items():
        assert targets or name == "trace.overhead_x", name
        for target in targets:
            assert set(target) == {"metric", "workload"}, name
            assert target["workload"] in summary, name
            reported = end_to_end | set(summary[target["workload"]]["extras"])
            assert target["metric"] in reported, name

    layer = {name: cell["all_per_layer"] for name, cell in summary.items()}
    assert layer["grid-idle"]["sim.network.idle_frac"] >= 0.9
    assert (
        layer["geo-dense"]["sim.network.deliveries"]
        >= 5 * layer["grid-idle"]["sim.network.deliveries"]
    )
    chaos = layer["chaos-stack"]
    overlays = chaos["resilience.transport.self_s"] + chaos["integrity.frames.self_s"]
    handlers = sum(
        chaos[f"{h}.self_s"]
        for h in ("core.algorithm1", "core.unknown_f", "core.agg", "core.veri",
                  "baselines.bruteforce")
    )
    assert overlays > handlers
    assert 0 < layer["engine-sweep"]["exec.pool.dispatch_overhead_frac"] < 1

"""Cold start: a protocol run loads neither numpy, the lower-bound code
nor the adversary search, shrinker and adaptive adversaries, and a plain
run loads none of the epoch runtimes either.  A run without churn, gray
failures or Byzantine compromise loads none of their family modules, and
the simulator loads no family module at all.  A plain serial run loads
neither the process pool, the result cache, the recorder, the exporters,
the baselines it does not run, nor the transport and integrity overlays;
and what it does load, it loads at import, not during its first run.

``repro``, ``repro.analysis``, ``repro.adversary``, ``repro.resilience``,
``repro.sim``, ``repro.exec`` and ``repro.baselines`` import their
re-exported names on first access.  Each check runs in a fresh
interpreter, since this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
import types

import pytest

import repro
import repro.adversary
import repro.analysis
import repro.baselines
import repro.exec
import repro.resilience
import repro.sim

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

#: Modules only the lower-bound machinery, curve fitting, the report, the
#: adversary search, the shrinker and adaptive adversaries use.
HEAVY = ("numpy", "repro.lowerbound", "repro.analysis.figure1",
         "repro.analysis.report", "repro.adversary.search",
         "repro.adversary.shrink", "repro.adversary.adaptive")

#: Modules only the failover, churn and Byzantine runtimes use.
EPOCH_RUNTIMES = ("repro.resilience.byzantine", "repro.resilience.epochs",
                  "repro.resilience.failover", "repro.resilience.driver")

#: The schedule family modules.
FAMILY_MODULES = ("repro.families.churn", "repro.families.gray",
                  "repro.families.byz")

#: Modules a plain serial run never executes: the process pool, cache and
#: telemetry, the recorder, replay and tracers, the exporters, the
#: baselines it does not run, and the transport and integrity overlays.
PLAIN_RUN_UNUSED = ("concurrent.futures.process", "multiprocessing",
                    "repro.exec.pool", "repro.exec.cache",
                    "repro.exec.progress", "repro.sim.recorder",
                    "repro.sim.replay", "repro.sim.trace", "repro.obs.export",
                    "repro.baselines.folklore", "repro.baselines.gossip",
                    "repro.resilience.transport", "repro.integrity", "hmac")

REPORT = """
import json, sys
print(json.dumps({{"loaded": [m for m in {!r} if m in sys.modules],
                   "results": results}}))
"""


def _fresh(code: str, tmp_path, forbidden=HEAVY) -> dict:
    """Run ``code`` in a fresh interpreter; return its ``results`` and
    which ``forbidden`` modules it loaded."""
    env = dict(os.environ, PYTHONPATH=SRC)
    report = REPORT.format(forbidden)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + report],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_protocol_runs_load_no_numpy(tmp_path):
    out = _fresh("""
        import repro.exec
        from repro.exec import WorkUnit, execute_unit
        from repro.graphs import grid_graph
        from repro.integrity.frames import IntegrityConfig
        from repro.resilience.failover import RecoveryPolicy

        topo = grid_graph(4, 4)
        crashes = {"kind": "random", "f": 2, "first_round": 1,
                   "last_round": 60 * topo.diameter, "respect_c": 2}
        units = [
            WorkUnit("algorithm1", topo, 1, f=2, b=60, schedule=crashes),
            WorkUnit("unknown_f", topo, 2, inject="drop=0.01",
                     recovery=RecoveryPolicy.default(retransmit_budget=5),
                     integrity=IntegrityConfig(mode="mac", key_seed=2),
                     monitors={"mode": "record", "recovery": True},
                     capture_dir=".", allow_root_crash=True),
            WorkUnit("bruteforce", topo, 3, f=2, schedule=crashes),
        ]
        results = [[u.protocol, execute_unit(u).correct] for u in units]
    """, tmp_path, forbidden=HEAVY + FAMILY_MODULES)
    assert out["results"] == [["algorithm1", True], ["unknown_f", True],
                              ["bruteforce", True]]
    assert out["loaded"] == []


def test_plain_serial_runs_load_only_what_they_execute(tmp_path):
    out = _fresh("""
        from repro.exec import WorkUnit, execute_unit
        from repro.graphs import grid_graph

        topo = grid_graph(10, 10)
        crashes = {"kind": "random", "f": 8, "first_round": 1,
                   "last_round": 90 * topo.diameter, "respect_c": 2}
        units = [WorkUnit("algorithm1", topo, 0, f=8, b=90, schedule=crashes),
                 WorkUnit("bruteforce", topo, 1, f=8, schedule=crashes)]
        results = [[u.protocol, execute_unit(u).correct] for u in units]
    """, tmp_path, forbidden=PLAIN_RUN_UNUSED)
    assert out["results"] == [["algorithm1", True], ["bruteforce", True]]
    assert out["loaded"] == []


def test_a_first_run_imports_nothing(tmp_path):
    """What every run needs is imported with the engine, so the first
    run's time is the run's; and the scheduler imports the runner."""
    out = _fresh("""
        import sys

        import repro.exec.scheduler
        runner_at_import = "repro.analysis.runner" in sys.modules

        from repro.exec import WorkUnit, execute_unit
        from repro.graphs import grid_graph

        topo = grid_graph(10, 10)
        unit = WorkUnit("algorithm1", topo, 0, f=8, b=90,
                        schedule={"kind": "random", "f": 8, "first_round": 1,
                                  "last_round": 90 * topo.diameter,
                                  "respect_c": 2})
        before = set(sys.modules)
        record = execute_unit(unit)
        results = {"runner_at_import": runner_at_import,
                   "correct": record.correct,
                   "used_bruteforce": record.extra["used_bruteforce"],
                   "added": sorted(set(sys.modules) - before)}
    """, tmp_path)
    assert out["results"] == {"runner_at_import": True, "correct": True,
                              "used_bruteforce": False, "added": []}


def test_the_simulator_loads_no_family_module(tmp_path):
    out = _fresh("""
        import repro.sim
        import repro.sim.faults
        import repro.sim.monitors
        import repro.sim.recorder
        import repro.sim.replay

        results = None
    """, tmp_path, forbidden=("repro.families",) + FAMILY_MODULES)
    assert out["loaded"] == []


def test_cli_run_loads_no_numpy(tmp_path):
    out = _fresh("""
        import contextlib, io
        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            results = main(["run", "--topology", "grid:6x6", "--protocol",
                            "algorithm1", "-f", "2", "-b", "60"])
    """, tmp_path, forbidden=HEAVY + EPOCH_RUNTIMES)
    assert out["results"] == 0
    assert out["loaded"] == []


FACADES = [repro, repro.analysis, repro.adversary, repro.resilience, repro.sim,
           repro.exec, repro.baselines]


@pytest.mark.parametrize("package", FACADES,
                         ids=[package.__name__ for package in FACADES])
def test_every_public_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))


def test_unknown_name_is_an_attribute_error():
    for package in FACADES:
        with pytest.raises(AttributeError):
            package.no_such_name


def test_a_facade_reads_what_its_submodule_binds_now(monkeypatch):
    """A name read through a facade while its submodule's function is
    rebound (a tracer, a test's patch) reads the original again once the
    rebind is undone."""
    import repro.analysis.runner as runner

    original = runner.run_protocol

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(runner, "run_protocol", wrapper)
        assert repro.analysis.run_protocol is wrapper
    assert repro.analysis.run_protocol is original


@pytest.mark.parametrize("package", FACADES,
                         ids=[package.__name__ for package in FACADES])
def test_a_facade_keeps_no_name_it_resolves(package):
    lazy = [name for name in package.__all__ if name not in vars(package)]
    values = {name: getattr(package, name) for name in lazy}
    kept = {name for name, value in values.items()
            if not isinstance(value, types.ModuleType)} & set(vars(package))
    assert kept == set()

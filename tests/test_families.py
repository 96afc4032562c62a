"""The fault-family table: bundle codec, exclusion rows, shared replay path."""

import glob
import os
from collections import Counter

import pytest

from repro.analysis import families, runner
from repro.analysis.runner import run_protocol
from repro.cli import main
from repro.graphs import grid_graph
from repro.integrity import IntegrityConfig
from repro.resilience import RecoveryPolicy, TransportConfig
from repro.sim import ExecutionRecord, replay_bundle
from repro.sim.faults import MessageCorruption, MessageFaults

CORPUS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.json"))
)
CORPUS_IDS = [os.path.basename(p) for p in CORPUS]
GRID = grid_graph(3, 3)
INPUTS = {u: u + 1 for u in GRID.nodes()}

#: One run_protocol configuration switching on each exclusion-table name.
RUNNER_SIDE = {
    "transport": {"transport": TransportConfig(retransmits=2)},
    "recovery": {"recovery": RecoveryPolicy.default()},
    "integrity": {"integrity": IntegrityConfig(mode="checksum")},
    "churn": {"churn": "5:crash@r3,5:revive@r7"},
    "gray": {"gray": "4:stall@r2-r6:x2"},
    "byz": {"byz": "5:equivocate"},
    "corruption": {
        "injectors": (MessageCorruption.from_spec("bitflip:0.02"),)
    },
    "faults": {"injectors": (MessageFaults.from_spec("drop=0.05"),)},
    "rto": {"transport": TransportConfig(retransmits=2, rto="adaptive")},
    "allow_root_crash": {"allow_root_crash": True},
}

#: The CLI flags switching on each name.
CLI_SIDE = {
    "transport": ["--retransmit-budget", "2"],
    "recovery": ["--recover"],
    "integrity": ["--integrity", "mac"],
    "churn": ["--churn", "rate:0.1"],
    "gray": ["--gray", "rate:0.3"],
    "byz": ["--byz", "rate:0.1"],
    "corruption": ["--corrupt", "bitflip:0.02"],
    "faults": ["--inject", "drop=0.05"],
    "rto": ["--retransmit-budget", "2", "--rto", "adaptive"],
    "allow_root_crash": ["--allow-root-crash"],
}


#: Policy knobs the runtime no longer has.  Older bundles carry them at
#: the one value ``from_jsonable`` still accepts; they encode as absent.
RETIRED = {
    "recovery": ("failover", "election_stretch"),
    "churn_policy": ("heartbeat_gap", "snapshots"),
}


def _without_nulls(value):
    if isinstance(value, dict):
        return {
            k: _without_nulls(v) for k, v in value.items() if v is not None
        }
    return value


def _without_retired(params):
    return {
        name: {k: v for k, v in value.items() if k not in RETIRED[name]}
        if name in RETIRED and isinstance(value, dict)
        else value
        for name, value in params.items()
    }


@pytest.mark.parametrize("path", CORPUS, ids=CORPUS_IDS)
def test_bundle_params_round_trip(path):
    bundle = ExecutionRecord.load(path)
    encoded = families.encode_params(
        families.decode_params(bundle.params), bundle.build_topology()
    )
    # Null fields compare as absent: v1 recovery params predate the
    # policy's (null) integrity field.
    assert _without_nulls(encoded) == _without_nulls(
        _without_retired(bundle.params)
    )


def test_every_exclusion_name_is_reachable_from_both_sides():
    names = {n for row in families.EXCLUSIONS for n in (row.a, row.b)}
    assert names <= set(RUNNER_SIDE)
    assert names <= set(CLI_SIDE)


def test_every_exclusion_name_is_switched_on_by_one_flag():
    from repro.cli import FLAG_TABLE

    names = {n for row in families.EXCLUSIONS for n in (row.a, row.b)}
    switched = Counter(row.family for row in FLAG_TABLE if row.family)
    assert switched == Counter(names)


@pytest.mark.parametrize(
    "row", families.EXCLUSIONS, ids=[f"{r.a}-{r.b}" for r in families.EXCLUSIONS]
)
def test_exclusion_row_raised_by_runner_and_cli(row):
    kwargs = dict(RUNNER_SIDE[row.a])
    kwargs.update(RUNNER_SIDE[row.b])
    with pytest.raises(ValueError) as err:
        run_protocol("unknown_f", GRID, INPUTS, **kwargs)
    assert str(err.value) == row.message()

    argv = ["run", "--topology", "grid:3x3", "--protocol", "unknown_f"]
    argv += CLI_SIDE[row.a] + CLI_SIDE[row.b]
    if (row.a, row.b) == ("transport", "recovery"):
        # The CLI cannot express this pair: with --recover the budget is
        # the recovery policy's, so no transport family switches on.
        from repro.cli import build_parser, fault_families

        args = build_parser().parse_args(argv)
        assert fault_families(args) == ["recovery"]
        return
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert f"({row.reason})" in str(err.value)
    assert str(err.value).startswith("error: ")


def _monitor_stack(monkeypatch, call):
    """Monitor classes each run inside ``call`` attaches."""
    seen = []
    inner = runner.safe_run_protocol

    def spy(*args, **kwargs):
        monitors = kwargs.get("monitors")
        seen.append(
            None if monitors is None else [type(m).__name__ for m in monitors]
        )
        return inner(*args, **kwargs)

    monkeypatch.setattr(runner, "safe_run_protocol", spy)
    result = call()
    monkeypatch.setattr(runner, "safe_run_protocol", inner)
    return result, seen


@pytest.mark.parametrize("path", CORPUS, ids=CORPUS_IDS)
def test_rerecord_takes_the_replay_path(path, monkeypatch):
    from repro.adversary.shrink import rerecord_bundle

    bundle = ExecutionRecord.load(path)
    _, replayed = _monitor_stack(monkeypatch, lambda: replay_bundle(bundle))
    fresh, rerecorded = _monitor_stack(
        monkeypatch, lambda: rerecord_bundle(bundle)
    )
    assert rerecorded == replayed
    assert replay_bundle(fresh).reproduced  # strict


def test_gray_bundle_rerecord_gets_the_gray_stack(monkeypatch):
    from repro.adversary.shrink import rerecord_bundle

    (path,) = [p for p in CORPUS if "-gray-" in p]
    _, stacks = _monitor_stack(
        monkeypatch, lambda: rerecord_bundle(ExecutionRecord.load(path))
    )
    assert "StragglerOracle" in stacks[0]
    assert "RetransmitBudgetMonitor" in stacks[0]


def test_materialize_draws_in_table_order():
    import random

    spec = {"kind": "random", "rate": 0.5, "horizon": 20}
    faults = families.draw_schedules(
        {"churn": spec, "gray": spec, "byz": spec}, GRID, random.Random(3)
    )
    rng = random.Random(3)
    for name in ("churn", "gray", "byz"):
        alone = families.materialize(name, spec, GRID, rng)
        assert alone.as_jsonable() == faults[name].as_jsonable()


def test_pin_horizon_only_fills_missing_random_horizons():
    faults = {
        "churn": {"kind": "random", "rate": 0.1},
        "gray": {"kind": "random", "rate": 0.1, "horizon": 7},
        "byz": "5:omit",
        "transport": None,
    }
    pinned = families.pin_horizon(faults, 40)
    assert pinned["churn"]["horizon"] == 40
    assert pinned["gray"]["horizon"] == 7
    assert pinned["byz"] == "5:omit"
    assert "horizon" not in faults["churn"]

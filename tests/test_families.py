"""The fault-family table: bundle codec, exclusion rows, shared replay path."""

import glob
import os
from collections import Counter

import pytest

from repro.analysis import families, runner
from repro.analysis.runner import run_protocol
from repro.cli import main
from repro.families.byz import ByzantineSchedule
from repro.families.churn import ChurnSchedule
from repro.families.gray import GrayFailureSchedule
from repro.graphs import grid_graph
from repro.integrity import IntegrityConfig
from repro.resilience import RecoveryPolicy, TransportConfig
from repro.resilience.byzantine import ByzantineConfig
from repro.resilience.epochs import ChurnPolicy
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


#: Every codec class at non-default values, with its exact JSON form (key
#: order and list-vs-tuple included, so ``repr`` is compared).
JSONABLE_PINS = [
    (
        TransportConfig(retransmits=3, backoff_cap=4, rto="adaptive"),
        {"retransmits": 3, "backoff_cap": 4, "rto": "adaptive"},
    ),
    # rto is written only when it is not the default.
    (
        TransportConfig(retransmits=0, backoff_cap=2),
        {"retransmits": 0, "backoff_cap": 2},
    ),
    (
        IntegrityConfig(mode="checksum", key_seed=9, quarantine_threshold=4),
        {"mode": "checksum", "key_seed": 9, "quarantine_threshold": 4},
    ),
    (
        ByzantineConfig(witnesses=3, evict_policy="flag", max_epochs=5),
        {"witnesses": 3, "evict_policy": "flag", "max_epochs": 5},
    ),
    (
        ChurnPolicy(transport=TransportConfig(retransmits=4), max_epochs=6),
        {"transport": {"retransmits": 4, "backoff_cap": 8}, "max_epochs": 6},
    ),
    (ChurnPolicy(max_epochs=2), {"transport": None, "max_epochs": 2}),
    (
        RecoveryPolicy(
            transport=TransportConfig(retransmits=2, rto="adaptive"),
            max_epochs=2,
            integrity=IntegrityConfig(mode="mac", key_seed=3),
        ),
        {
            "transport": {"retransmits": 2, "backoff_cap": 8, "rto": "adaptive"},
            "max_epochs": 2,
            "integrity": {
                "mode": "mac", "key_seed": 3, "quarantine_threshold": 10,
            },
        },
    ),
    # Node-keyed maps: string keys in numeric node order; a zero
    # incarnation base is not written.
    (
        ChurnSchedule(
            cycles={
                10: [(3, 7, "amnesiac"), (9, None, "durable")],
                2: [(4, 6, "durable")],
            },
            flaps=[(3, 4, 2, 5), (1, 2, 6, 6)],
            allow_root_crash=True,
            incarnation_base={10: 2, 3: 0, 4: 1},
        ),
        {
            "cycles": {
                "2": [[4, 6, "durable"]],
                "10": [[3, 7, "amnesiac"], [9, None, "durable"]],
            },
            "flaps": [[1, 2, 6, 6], [3, 4, 2, 5]],
            "allow_root_crash": True,
            "incarnation_base": {"4": 1, "10": 2},
        },
    ),
    (
        GrayFailureSchedule(
            stalls={
                10: [(3, 9, 2, "ramp")],
                5: [(1, 2, 1, "constant"), (4, 12, 3, "limp")],
            },
            links=[(4, 5, 2, 8, 3, "limp"), (1, 2, 1, 1, 1, "constant")],
        ),
        {
            "stalls": {
                "5": [[1, 2, 1, "constant"], [4, 12, 3, "limp"]],
                "10": [[3, 9, 2, "ramp"]],
            },
            "links": [[1, 2, 1, 1, 1, "constant"], [4, 5, 2, 8, 3, "limp"]],
        },
    ),
    (
        ByzantineSchedule.from_spec("10:equivocate,7:inflate=4@r3,9:omit"),
        {
            "behaviors": {
                "7": ["inflate", 4, 3],
                "9": ["omit", 1, 1],
                "10": ["equivocate", 1, 1],
            },
        },
    ),
]

#: The grammar each spec family quotes in every rejection.
GRAMMARS = {
    "fault": (
        "key=value[,key=value...] with keys drop, dup|duplicate, delay, "
        "reorder (rates in [0, 1]) and max_delay (integer rounds >= 1)"
    ),
    "corruption": (
        "mode:rate[,mode:rate...] with modes bitflip, truncate, stale and "
        "rates in [0, 1] (e.g. 'bitflip:0.02,stale:0.01')"
    ),
    "churn": (
        "comma-separated events: '<node>:crash@r<R>', "
        "'<node>:revive@r<R>[:durable|:amnesiac]' and "
        "'flap:<u>-<v>@r<R1>-r<R2>' with rounds >= 1 "
        "(e.g. '5:crash@r3,5:revive@r7:amnesiac,flap:1-2@r2-r5')"
    ),
    "gray": (
        "comma-separated events: '<node>:stall@r<R1>-r<R2>:x<S>"
        "[:constant|:ramp|:limp]' and 'link:<u>-<v>@r<R1>-r<R2>:x<S>"
        "[:profile]' with rounds >= 1 and severity x<S> >= 1 added rounds "
        "of latency (e.g. '5:stall@r3-r9:x2:ramp,link:1-2@r2-r8:x1')"
    ),
    "byzantine": (
        "comma-separated behaviors: '<node>:<mode>[=<k>][@r<R>]' with "
        "modes equivocate, inflate, deflate, replay, omit, magnitude k >= 1 "
        "(default 1) and activation round R >= 1 (default 1) "
        "(e.g. '5:equivocate,7:inflate=4@r3,9:omit')"
    ),
}

SPEC_CLASSES = {
    "fault": MessageFaults,
    "corruption": MessageCorruption,
    "churn": ChurnSchedule,
    "gray": GrayFailureSchedule,
    "byzantine": ByzantineSchedule,
}

#: One spec per rejection branch of each grammar: ``(family, spec,
#: rejected token, why)``; a None token is a constructor's own message.
SPEC_REJECTIONS = [
    ("fault", "drop", "drop", "needs key=value"),
    ("fault", "drop:0.1", "drop:0.1", "needs key=value"),
    ("fault", "drip=0.1", "drip=0.1", "unknown fault key 'drip'"),
    ("fault", "dup=0.1,duplicate=0.2", "duplicate=0.2",
     "key 'duplicate' given more than once"),
    ("fault", "drop=x", "drop=x", "value 'x' is not a number"),
    ("fault", "max_delay=1.5", "max_delay=1.5",
     "value '1.5' is not an integer"),
    ("fault", "drop=2", None, "drop rate must be in [0, 1], got 2.0"),
    ("fault", "max-delay=0", None, "max_delay must be >= 1, got 0"),
    ("corruption", "bitflip", "bitflip", "needs mode:rate"),
    ("corruption", "melt:0.1", "melt:0.1", "unknown corruption mode 'melt'"),
    ("corruption", "bitflip:0.1,bitflip=0.2", "bitflip=0.2",
     "mode 'bitflip' given more than once"),
    ("corruption", "stale:x", "stale:x", "rate 'x' is not a number"),
    ("corruption", "truncate=1.5", None,
     "truncate rate must be in [0, 1], got 1.5"),
    ("churn", "flap:1-2", "flap:1-2", "needs flap:<u>-<v>@r<R1>-r<R2>"),
    ("churn", "flap:1-2@r2", "flap:1-2@r2",
     "window needs the form r<R1>-r<R2>"),
    ("churn", "flap:12@r2-r5", "flap:12@r2-r5",
     "edge needs the form <u>-<v>"),
    ("churn", "flap:1-x@r2-r5", "flap:1-x@r2-r5",
     "edge '1-x' is not a node pair"),
    ("churn", "flap:1-2@r5-r2", "flap:1-2@r5-r2", "flap window 5-2 is empty"),
    ("churn", "5", "5", "needs <node>:crash@r<R> or <node>:revive@r<R>"),
    ("churn", "x:crash@r3", "x:crash@r3", "node 'x' is not an integer"),
    ("churn", "5:crash", "5:crash", "event needs @r<R>"),
    ("churn", "5:crash@r0", "5:crash@r0", "round 0 is < 1"),
    ("churn", "5:crash@rq", "5:crash@rq", "round 'q' is not an integer"),
    ("churn", "5:crash@r3:amnesiac", "5:crash@r3:amnesiac",
     "crash events take no mode suffix"),
    ("churn", "5:crash@r3,5:revive@r7:zombie", "5:revive@r7:zombie",
     "unknown rejoin mode 'zombie'"),
    ("churn", "5:explode@r3", "5:explode@r3", "unknown churn event 'explode'"),
    ("churn", "5:crash@r3,5:crash@r5", "5:crash@r3,5:crash@r5",
     "node 5 crashes at round 5 while still down from round 3"),
    ("churn", "5:revive@r3", "5:revive@r3",
     "node 5 revives at round 3 but never crashed before it"),
    ("churn", "5:crash@r3,5:revive@r3", "5:crash@r3,5:revive@r3",
     "node 5 revives at round 3, at or before its crash at round 3"),
    ("churn", "flap:3-3@r2-r4", None, "cannot flap self-loop edge 3-3"),
    ("gray", "link:1-2", "link:1-2", "needs link:<u>-<v>@r<R1>-r<R2>:x<S>"),
    ("gray", "link:1-2@r2-r8", "link:1-2@r2-r8", "needs a severity :x<S>"),
    ("gray", "link:1-2@r2-r8:2", "link:1-2@r2-r8:2",
     "severity '2' needs the form x<S>"),
    ("gray", "link:1-2@r2-r8:x0", "link:1-2@r2-r8:x0", "severity 0 is < 1"),
    ("gray", "link:1-2@r2-r8:xq", "link:1-2@r2-r8:xq",
     "severity 'q' is not an integer"),
    ("gray", "link:1-2@r2-r8:x1:wobble", "link:1-2@r2-r8:x1:wobble",
     "unknown gray profile 'wobble'"),
    ("gray", "link:1-2@r2-r8:x1:ramp:extra", "link:1-2@r2-r8:x1:ramp:extra",
     "too many ':' fields"),
    ("gray", "gibberish", "gibberish", "needs <node>:stall@r<R1>-r<R2>:x<S>"),
    ("gray", "x:stall@r2-r4:x1", "x:stall@r2-r4:x1",
     "node 'x' is not an integer"),
    ("gray", "5:melt@r3-r9:x2", "5:melt@r3-r9:x2", "unknown gray event 'melt'"),
    ("gray", "5:stall:x2", "5:stall:x2", "event needs @r<R1>-r<R2>"),
    ("gray", "5:stall@r9-r3:x2", "5:stall@r9-r3:x2",
     "gray window 9-3 is empty"),
    ("gray", "link:4-4@r2-r8:x1", None, "cannot degrade self-loop edge 4-4"),
    ("byzantine", "5", "5", "needs <node>:<mode>"),
    ("byzantine", "x:omit", "x:omit", "node 'x' is not an integer"),
    ("byzantine", "5:omit,5:inflate", "5:inflate",
     "node 5 given more than once"),
    ("byzantine", "5:omit@r0", "5:omit@r0", "round 0 is < 1"),
    ("byzantine", "5:teleport", "5:teleport",
     "unknown byzantine mode 'teleport'"),
    ("byzantine", "5:inflate=0", "5:inflate=0", "magnitude 0 is < 1"),
    ("byzantine", "5:inflate=q", "5:inflate=q",
     "magnitude 'q' is not an integer"),
]


@pytest.mark.parametrize(
    "obj, expected", JSONABLE_PINS,
    ids=[type(obj).__name__ for obj, _ in JSONABLE_PINS],
)
def test_jsonable_forms_are_pinned(obj, expected):
    assert repr(obj.as_jsonable()) == repr(expected)
    again = type(obj).from_jsonable(obj.as_jsonable())
    assert repr(again.as_jsonable()) == repr(expected)
    if not hasattr(obj, "on_transmit"):  # configs compare by value
        assert again == obj


@pytest.mark.parametrize(
    "family, spec, token, why", SPEC_REJECTIONS,
    ids=[f"{family}:{spec}" for family, spec, _, _ in SPEC_REJECTIONS],
)
def test_spec_rejections_are_pinned(family, spec, token, why):
    with pytest.raises(ValueError) as exc_info:
        SPEC_CLASSES[family].from_spec(spec)
    expected = why if token is None else (
        f"bad {family} spec fragment {token!r}: {why} "
        f"(accepted grammar: {GRAMMARS[family]})"
    )
    assert str(exc_info.value) == expected


def test_jsonable_missing_and_retired_keys():
    # Absent (and null nested) keys keep the default ...
    assert ByzantineConfig.from_jsonable({}) == ByzantineConfig()
    assert ChurnPolicy.from_jsonable({"transport": None}) == ChurnPolicy()
    assert RecoveryPolicy.from_jsonable(
        {"max_epochs": 2, "integrity": None}
    ) == RecoveryPolicy(max_epochs=2)
    assert TransportConfig.from_jsonable({"retransmits": 1}) == (
        TransportConfig(retransmits=1)
    )
    assert ChurnSchedule.from_jsonable({}).as_jsonable() == (
        ChurnSchedule().as_jsonable()
    )
    # ... except the transport's budget and the integrity mode.
    with pytest.raises(ValueError) as exc_info:
        TransportConfig.from_jsonable({"backoff_cap": 4})
    assert str(exc_info.value) == (
        "TransportConfig needs its 'retransmits' field; this bundle cannot "
        "be replayed"
    )
    with pytest.raises(ValueError) as exc_info:
        IntegrityConfig.from_jsonable({"key_seed": 1})
    assert str(exc_info.value) == (
        "IntegrityConfig needs its 'mode' field; this bundle cannot be "
        "replayed"
    )
    # A null required field is as missing as an absent one.
    with pytest.raises(ValueError, match="needs its 'retransmits' field"):
        TransportConfig.from_jsonable({"retransmits": None})
    with pytest.raises(ValueError) as exc_info:
        TransportConfig.from_jsonable({"retransmits": 1, "hedge": True})
    assert str(exc_info.value) == (
        "hedge=True is no longer supported (the runtime always uses False); "
        "this bundle cannot be replayed"
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

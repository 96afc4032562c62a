"""Command-line interface for the reproduction harness.

Usage (installed as ``repro-agg`` or via ``python -m repro.cli``)::

    repro-agg run       --topology grid:6x6 --protocol algorithm1 -f 8 -b 90
    repro-agg sweep-b   --topology grid:6x6 -f 10 --bs 42,84,168 --seeds 3 \
                        --jobs 4 --cache-dir .repro-cache
    repro-agg sweep-f   --topology grid:6x6 --fs 2,4,8,16 -b 60 --seeds 3
    repro-agg cache     stats --cache-dir .repro-cache
    repro-agg cache     gc --older-than 7d
    repro-agg chaos     --topology grid:5x5 --protocol unknown_f -f 4 \
                        --inject drop=0.05,dup=0.02 --seeds 5 \
                        --capture-dir bundles/
    repro-agg chaos     --topology grid:5x5 --protocol unknown_f \
                        --inject drop=0.05 --recover --allow-root-crash
    repro-agg replay    bundles/unknown_f-grid-5x5-s3-0a1b2c3d4e.json
    repro-agg shrink    bundles/unknown_f-grid-5x5-s3-0a1b2c3d4e.json \
                        --out minimal.json
    repro-agg figure1   -n 1024 -f 128 --bs 42,84,168,336 [--plot]
    repro-agg select    --topology grid:5x5 -f 4 -b 45 -k 7
    repro-agg topology  --topology geometric:100 --out field.json
    repro-agg run       --topology grid:5x5 -f 4 -b 60 \
                        --trace-out trace.json --metrics-out metrics.prom
    repro-agg obs       summarize trace.json
    repro-agg obs       validate trace.json --prom metrics.prom

Every subcommand prints the same ASCII tables the benchmarks save.
``run`` accepts ``--strict-monitors`` (abort on any invariant break).

``run``, ``sweep-b`` and ``chaos`` take the fault-model flags of
:data:`FLAG_TABLE` (``run`` / ``chaos`` also ``--inject
drop=0.1,dup=0.05,...`` message faults).  Each row declares one flag
once: its ``add_argument`` keywords, the
:data:`repro.analysis.families.EXCLUSIONS` name it switches on, and
what it needs to have any effect; :func:`validate_fault_flags` rejects
pairs that do not compose and knobs that would do nothing.

The execution-engine verbs (``run``, ``sweep-b``, ``sweep-f``,
``chaos``, ``worst-case``/``search``) accept ``--jobs N`` (process-pool
fan-out; results are bit-identical to ``--jobs 1``), ``--cache-dir``
(content-addressed result cache; ``--force`` recomputes; rerunning an
interrupted sweep with the same ``--cache-dir`` resumes it), and
``--progress-log`` (structured JSONL telemetry).  ``cache`` inspects and
maintains a cache directory.

``run``, ``sweep-b``, ``sweep-f``, and ``chaos`` additionally accept
the observability flags ``--trace-out`` (span trace: Chrome
``trace_event`` JSON for Perfetto, or flat deterministic JSONL when
the path ends in ``.jsonl``), ``--metrics-out`` (Prometheus textfile
snapshot), and ``--trace-detail off|phases|messages``.  ``obs``
summarizes, diffs, ranks, and validates those artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from typing import List, Optional

from . import graphs
from .adversary import no_failures
from .analysis import (
    families,
    format_series,
    format_table,
    make_inputs,
    random_schedule_spec,
    run_protocol,
    sweep_b,
    sweep_f,
)
from .analysis.asciiplot import plot_series
from .extensions.quantiles import distributed_select
from .families import FaultFlag
from .graphs import io as graph_io


def parse_topology(spec: str, seed: int = 0) -> graphs.Topology:
    """Parse ``kind[:args]`` specs like ``grid:6x6``, ``geometric:100``,
    ``path:20``, ``gnp:50``, ``file:/path/to.json``."""
    kind, _, arg = spec.partition(":")
    rng = random.Random(seed)
    if kind == "grid":
        rows, _, cols = arg.partition("x")
        return graphs.grid_graph(int(rows), int(cols or rows))
    if kind == "path":
        return graphs.path_graph(int(arg))
    if kind == "cycle":
        return graphs.cycle_graph(int(arg))
    if kind == "star":
        return graphs.star_graph(int(arg))
    if kind == "tree":
        branching, _, n = arg.partition(",")
        return graphs.balanced_tree(int(branching), int(n))
    if kind == "geometric":
        return graphs.random_geometric(int(arg), rng=rng)
    if kind == "regular":
        n, _, degree = arg.partition(",")
        return graphs.random_regular(int(n), int(degree or 3), rng=rng)
    if kind == "gnp":
        return graphs.gnp_connected(int(arg), rng=rng)
    if kind == "clustered":
        clusters, _, size = arg.partition("x")
        return graphs.clustered_graph(int(clusters), int(size))
    if kind == "file":
        return graph_io.load(arg)
    raise SystemExit(f"unknown topology spec {spec!r}")


def _ints(text: str) -> List[int]:
    return [int(v) for v in text.split(",") if v]


_NEEDS_TRANSPORT = (
    lambda a: a.recover or a.retransmit_budget is not None,
    "tunes the reliable transport's retransmission timing; add --recover "
    "or --retransmit-budget N",
)


def _family_rows(name: str) -> list:
    """``(family, row)`` for each row of every family module's ``name``
    table (see :mod:`repro.families`), in family-table order."""
    return [
        (family.name, row)
        for family in families.FAMILIES
        if family.module
        for row in getattr(family.load(), name)
    ]


#: Every fault-model flag, in ``--help`` order: the transport, recovery,
#: root-crash, corruption and integrity flags, then each schedule
#: family's ``FLAGS``.  Adding a fault family = one
#: :data:`repro.analysis.families.FAMILIES` row + its module (flags
#: included) + its runtime.
FLAG_TABLE = (
    FaultFlag("--recover", dict(
        action="store_true",
        default=False,
        help="self-healing runtime: reliable transport, root failover, "
        "certified partial results (algorithm1 / unknown_f)",
    ), "recovery"),
    FaultFlag("--retransmit-budget", dict(
        type=int,
        help="reliable-transport retransmissions per frame "
        "(alone: transport only; with --recover: sets its budget)",
    ), "transport",
        # With --recover the budget is the recovery policy's, not a
        # transport.
        on=lambda a: a.retransmit_budget is not None and not a.recover),
    FaultFlag("--rto", dict(
        default="fixed",
        choices=["fixed", "adaptive"],
        help="retransmission timing: 'fixed' keeps the historical "
        "NACK schedule; 'adaptive' times NACKs per link from an EWMA "
        "RTT estimator and closes clean windows early (needs "
        "--recover or --retransmit-budget)",
    ), "rto", needs=(_NEEDS_TRANSPORT,), label="--rto adaptive"),
    FaultFlag("--allow-root-crash", dict(
        action="store_true",
        default=False,
        help="opt out of the Section 2 root protection and schedule a "
        "seeded root crash (pair with --recover to survive it)",
    ), "allow_root_crash"),
    FaultFlag("--corrupt", dict(
        help="message-corruption spec, e.g. bitflip:0.02,stale:0.01 "
        "(modes: bitflip, truncate, stale)",
    ), "corruption"),
    FaultFlag("--integrity", dict(
        default="off",
        choices=["off", "checksum", "mac"],
        help="authenticated wire frames: detect, drop, and quarantine "
        "corrupted deliveries (checksum: CRC-32; mac: seeded-key "
        "HMAC-SHA256); framing cost is booked as overhead, never "
        "protocol CC",
    ), "integrity"),
    *(row for _, row in _family_rows("FLAGS")),
    # drop/dup/delay/reorder message faults; its help differs per verb.
    FaultFlag("--inject", None, "faults"),
)


def fault_families(args: argparse.Namespace) -> List[str]:
    """The :data:`repro.analysis.families.EXCLUSIONS` names ``args`` switch on."""
    return [row.family for row in FLAG_TABLE if row.family and row.is_on(args)]


def validate_fault_flags(args: argparse.Namespace) -> None:
    """Reject fault-model flags that do not compose or would do nothing.

    Raises ``SystemExit`` on the first
    :data:`repro.analysis.families.EXCLUSIONS` row the on flags hit, with
    the row's reason (the runner raises ``ValueError`` from the same
    rows), then on the first unmet :attr:`FaultFlag.needs`.
    """
    labels = {r.family: r.label or r.flag for r in FLAG_TABLE if r.family}
    row = families.conflict(fault_families(args))
    if row is not None:
        raise SystemExit("error: " + row.message(labels.get))
    for row in FLAG_TABLE:
        for test, why in row.needs:
            if row.is_on(args) and not test(args):
                raise SystemExit(f"error: {row.label or row.flag} {why}")


def _schedule_spec(
    args, name: str, topology, horizon: Optional[int], **shape
):
    """A schedule family's ``--<name>`` spec, kept declarative so it can
    ride a work unit across process boundaries.

    ``rate:<float>`` becomes the random spec
    :func:`repro.analysis.families.materialize` samples from the run's
    seeded rng (``horizon=None`` leaves the horizon to the sweep); it is
    drawn once on ``topology`` here, so the draw's own range checks fail
    before any run starts.  Any other value must parse as an explicit
    schedule spec and is checked here so typos fail early too.
    """
    value = getattr(args, name)
    if not value:
        return None
    try:
        spec = families.parse_rate(value, horizon, **shape)
    except ValueError:
        raise SystemExit(f"error: bad --{name} rate in {value!r}")
    if spec is not None:
        try:
            families.materialize(name, spec, topology, random.Random(0))
        except ValueError as exc:
            raise SystemExit(f"error: bad --{name} rate in {value!r}: {exc}")
        return spec
    try:
        families.FAMILY[name].load().parse(value, None)
    except ValueError as exc:
        raise SystemExit(f"error: bad --{name} spec: {exc}")
    return value


def _fault_config(args, topology, horizon: Optional[int]):
    """The fault-family ``run_protocol`` kwargs of the fault flags.

    ``--recover`` gets the full self-healing stack (reliable transport +
    root failover + certified partial results); ``--retransmit-budget``
    alone gets just the transport shim, which ``--rto`` tunes.
    ``--integrity checksum|mac`` adds authenticated wire frames on top of
    either (or standalone); the MAC key is derived from ``--seed`` so
    runs stay deterministic.  Each schedule family's ``cli_config``
    reads its own flags, its schedule spec staying declarative (see
    :func:`_schedule_spec`).
    """
    from . import resilience
    from .integrity import IntegrityConfig

    budget = args.retransmit_budget
    transport = recovery = None
    if args.recover:
        recovery = resilience.RecoveryPolicy.default(
            retransmit_budget=5 if budget is None else budget
        )
        if args.rto != "fixed":
            recovery = dataclasses.replace(
                recovery,
                transport=dataclasses.replace(recovery.transport, rto=args.rto),
            )
    elif budget is not None:
        transport = resilience.TransportConfig(
            retransmits=budget, rto=args.rto
        )
    config = dict(
        transport=transport,
        recovery=recovery,
        integrity=(
            IntegrityConfig(mode=args.integrity, key_seed=args.seed)
            if args.integrity != "off"
            else None
        ),
        allow_root_crash=args.allow_root_crash,
    )

    def spec(name: str, **shape):
        return _schedule_spec(args, name, topology, horizon, **shape)

    for family in families.FAMILIES:
        if family.module:
            config.update(family.load().cli_config(args, spec))
    return config


def _engine_from_args(args):
    """Build an :class:`repro.exec.ExecutionEngine` from the shared
    ``--jobs`` / ``--cache-dir`` / ``--force`` / ``--progress-log`` flags.

    A live status line is painted on stderr when it is a TTY; structured
    JSONL events additionally go to ``--progress-log`` when given.  Close
    ``engine.emitter`` when the verb is done.
    """
    from .exec import (
        ExecutionEngine,
        ProgressEmitter,
        ProgressTracker,
        ResultCache,
        live_renderer,
    )

    cache = ResultCache(args.cache_dir) if getattr(args, "cache_dir", None) else None
    tracker = ProgressTracker()
    listeners = [tracker]
    try:
        interactive = sys.stderr.isatty()
    except (AttributeError, ValueError):
        interactive = False
    if interactive:
        listeners.append(live_renderer(sys.stderr, tracker))
    emitter = ProgressEmitter(
        jsonl_path=getattr(args, "progress_log", None), listeners=listeners
    )
    return ExecutionEngine(
        jobs=getattr(args, "jobs", 1),
        cache=cache,
        force=getattr(args, "force", False),
        emitter=emitter,
    )


def _obs_from_args(args: argparse.Namespace):
    """Build + activate an :class:`repro.obs.ObsCapture` from the shared
    ``--trace-out`` / ``--metrics-out`` / ``--trace-detail`` flags.

    Returns ``None`` when nothing was requested (the common path: the
    tracer module flag stays ``False`` and instrumented hot paths cost
    one attribute read).  ``--trace-detail`` defaults to ``phases``
    once an output path asks for capture; an explicit ``off`` keeps
    the metrics registry live but arms no spans.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    detail = getattr(args, "trace_detail", None)
    if not trace_out and not metrics_out:
        return None
    from .obs import ObsCapture

    cap = ObsCapture(
        seed=getattr(args, "seed", 0), detail=detail or "phases"
    )
    return cap.activate()


def _obs_finish(cap, args: argparse.Namespace) -> None:
    """Deactivate a capture and flush it to the requested sinks."""
    if cap is None:
        return
    cap.deactivate()
    cap.write(
        trace_out=getattr(args, "trace_out", None),
        metrics_out=getattr(args, "metrics_out", None),
    )


def _unit_base(args: argparse.Namespace):
    """``(topology, horizon, WorkUnit fields)`` shared by ``run`` and
    ``chaos``: the protocol, ``-f``/``-b``/``-t``, the seeded root crash
    inside the horizon, and the fault-flag kwargs."""
    validate_fault_flags(args)
    topology = parse_topology(args.topology, args.seed)
    horizon = max(2, (args.budget or 42) * topology.diameter)
    return topology, horizon, dict(
        protocol=args.protocol,
        topology=topology,
        f=args.failures or None,
        b=args.budget,
        t=args.tolerance,
        max_input=args.max_input,
        crash_root=(
            {"lo": 2, "hi": max(2, horizon // 2)}
            if args.allow_root_crash
            else None
        ),
        corrupt=args.corrupt,
        **_fault_config(args, topology, horizon),
    )


def cmd_run(args: argparse.Namespace) -> int:
    """One seeded run, built as a work unit.

    ``--jobs 1`` without a cache runs it in-process through
    :func:`repro.analysis.run_protocol`, so a strict-model violation
    raises and ``--trace-out`` sees the bare run; otherwise the engine
    executes it (violations then surface as an error *row*, nonzero
    exit).  Both derive the run with
    :func:`repro.exec.scheduler.derive_run` and print the same table.
    """
    from .exec import WorkUnit
    from .exec.scheduler import derive_run, stamp_injected

    topology, horizon, base = _unit_base(args)
    unit = WorkUnit(
        seed=args.seed,
        schedule=(
            random_schedule_spec(args.failures, horizon, respect_c=2)
            if args.failures > 0
            else {"kind": "none"}
        ),
        inject=args.inject,
        strict=True,
        strict_monitors=args.strict_monitors,
        **base,
    )
    if args.jobs > 1 or args.cache_dir or args.force:
        engine = _engine_from_args(args)
        try:
            record = engine.run([unit])[0]
        finally:
            engine.emitter.close()
        # The seed is a flag, not a sweep coordinate: no seed column.
        record.seed = None
    else:
        inputs, schedule, kwargs = derive_run(unit)
        record = run_protocol(
            args.protocol, topology, inputs, schedule=schedule, **kwargs
        )
        stamp_injected(record, kwargs["injectors"])
    print(format_table([record.as_dict()], title=f"{args.protocol} on {topology}"))
    return 0 if record.correct else 1


def _sweep(args, topology, sweep, axis: str, fixed: str, **kwargs) -> int:
    """The shared body of ``sweep-b`` / ``sweep-f``: ``sweep(**kwargs)``
    on ``topology`` over the ``--seeds`` with the timeout / capture flags,
    printed as the CC-vs-``axis`` table at ``fixed``."""
    engine = _engine_from_args(args)
    try:
        points = sweep(
            topology,
            seeds=range(args.seeds),
            timeout_s=args.timeout,
            capture_dir=args.capture_dir,
            engine=engine,
            **kwargs,
        )
    finally:
        engine.emitter.close()
    print(
        format_table(
            [p.as_dict() for p in points],
            title=f"Algorithm 1 CC vs {axis} on {topology.name} ({fixed})",
        )
    )
    return 0


def cmd_sweep_b(args: argparse.Namespace) -> int:
    validate_fault_flags(args)
    topology = parse_topology(args.topology, args.seed)
    return _sweep(
        args,
        topology,
        sweep_b,
        "b",
        f"f={args.failures}",
        f=args.failures,
        bs=_ints(args.bs),
        corrupt=args.corrupt,
        # The horizon is per-b: sweep_b pins each coordinate's random
        # specs to its own run length.
        **_fault_config(args, topology, horizon=None),
    )


def cmd_sweep_f(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology, args.seed)
    return _sweep(
        args, topology, sweep_f, "f", f"b={args.budget}",
        fs=_ints(args.fs), b=args.budget,
    )


#: Chaos verdicts read off a run's oracle columns, in precedence order, as
#: ``(column, verdict, family)``: corrupted bits that reached a handler
#: with no layer rejecting them (the value is untrustworthy whatever the
#: oracle says), then each schedule family's ``VERDICTS``.  Each fails
#: the campaign; a family's verdicts join the summary line when its flag
#: is given.
ORACLE_VERDICTS = (
    ("unresolved_corruptions", "CORRUPT-ACCEPTED", None),
    *((column, verdict, family)
      for family, (column, verdict) in _family_rows("VERDICTS")),
)

#: Per-family chaos columns, in table order, as ``(family, column, read)``
#: with ``read`` applied to the run's extra columns (each schedule
#: family's ``CHAOS_COLUMNS``); a family's columns join the table when
#: its flag is given.
FAMILY_COLUMNS = tuple(
    (family, column, read)
    for family, (column, read) in _family_rows("CHAOS_COLUMNS")
)


def _chaos_verdict(record) -> str:
    """One chaos run's verdict (the campaign fails on the uppercase ones)."""
    status = record.extra.get("status")
    if record.failed:
        return f"error:{record.error_kind}"
    if record.result is None:
        return "aborted"
    for column, verdict, _ in ORACLE_VERDICTS:
        if record.extra.get(column):
            return verdict
    if status is not None and not record.extra.get("certified"):
        return "PARTIAL-UNCERTIFIED"
    if status == "partial":
        return "partial-certified"
    if record.correct:
        return "exact" if status == "exact" else "correct"
    return "SILENT-WRONG"


def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos harness: protocols under injected message faults + monitors.

    Every seed runs one execution with the requested drop/dup/delay/reorder
    rates (and, optionally, an adaptive crash adversary) under the
    standard invariant monitors in record mode.  A run is *correct*,
    *aborted* (no output: an honest failure) or *SILENT-WRONG* (output
    outside the oracle interval).  Under the :mod:`repro.resilience`
    runtime (``--recover`` or ``--retransmit-budget``) *correct* refines
    to *exact* or *partial-certified*, and a best-effort value nothing
    vouches for is *PARTIAL-UNCERTIFIED*.  ``--byz`` injects no message
    faults: the compromised senders' lies are the faults.

    The exit status is 1 iff some run's verdict fails the campaign:
    SILENT-WRONG always, PARTIAL-UNCERTIFIED under the runtime,
    CORRUPT-ACCEPTED under ``--corrupt`` (pair it with ``--integrity
    mac``, plus ``--recover`` to retransmit rejected frames), and under
    ``--churn``, ``--gray`` and ``--byz`` their family's
    :data:`ORACLE_VERDICTS`.  Errored runs do not fail it.
    """
    from .exec import WorkUnit

    topology, _, base = _unit_base(args)
    # A family that excludes message faults (--byz: the compromised
    # senders' lies) is the fault source itself; the drop-rate default
    # would trip that exclusion (an explicit --inject already errored
    # above).
    source = families.conflict([*fault_families(args), "faults"])
    spec = args.inject or (None if source else "drop=0.05")
    label = spec or f"{source.a}:{getattr(args, source.a)}"
    schedule_spec = (
        random_schedule_spec(
            args.failures, max(2, 60 * topology.diameter), respect_c=2
        )
        if args.failures
        else {"kind": "none"}
    )
    monitor_spec = {
        "mode": "strict" if args.strict else "record",
        "recovery": base["recovery"] is not None or args.allow_root_crash,
    }
    seeds = range(args.seed, args.seed + args.seeds)
    units = [
        WorkUnit(
            seed=seed,
            schedule=schedule_spec,
            inject=spec,
            adaptive=args.adaptive,
            monitors=monitor_spec,
            capture_dir=args.capture_dir,
            coords={"inject": label},
            **base,
        )
        for seed in seeds
    ]
    engine = _engine_from_args(args)
    try:
        records = engine.run(units)
    finally:
        engine.emitter.close()
    rows = []
    for seed, record in zip(seeds, records):
        status = record.extra.get("status")
        rows.append(
            {
                "seed": seed,
                "verdict": _chaos_verdict(record),
                "result": record.result,
                "cc_bits": record.cc_bits,
                "rounds": record.rounds,
                "faults": record.extra.get("injected_faults", 0),
                "violations": len(record.extra.get("violations", ())),
            }
        )
        if args.corrupt:
            rows[-1]["corruptions"] = record.extra.get(
                "injected_corruptions", 0
            )
            rows[-1]["rejected"] = record.extra.get("integrity_rejected", 0)
        if "overhead_bits" in record.extra:
            rows[-1]["overhead"] = record.extra["overhead_bits"]
        if record.extra.get("coverage") is not None and status is not None:
            rows[-1]["coverage"] = (
                f"{record.extra['coverage']}/{topology.n_nodes}"
            )
        for family, column, read in FAMILY_COLUMNS:
            if base[family] is not None:
                rows[-1][column] = read(record.extra)
        if record.extra.get("bundle"):
            rows[-1]["bundle"] = record.extra["bundle"]
    print(
        format_table(
            rows,
            title=(
                f"chaos: {args.protocol} on {topology.name} [{label}]"
                + (f" + {args.adaptive}" if args.adaptive else "")
            ),
        )
    )
    verdicts = [r["verdict"] for r in rows]
    summary = (
        f"{verdicts.count('correct') + verdicts.count('exact')} correct, "
        f"{verdicts.count('partial-certified')} partial-certified, "
        f"{verdicts.count('aborted')} aborted, "
        f"{sum(1 for v in verdicts if v.startswith('error'))} errored, "
        f"{verdicts.count('PARTIAL-UNCERTIFIED')} uncertified, "
        f"{verdicts.count('SILENT-WRONG') + verdicts.count('CORRUPT-ACCEPTED')}"
        f" silent-wrong "
        f"(incl. {verdicts.count('CORRUPT-ACCEPTED')} corrupt-accepted)"
    )
    for _, verdict, family in ORACLE_VERDICTS:
        if family is not None and base[family] is not None:
            summary += f", {verdicts.count(verdict)} {verdict.lower()}"
    print(summary)
    failing = {"SILENT-WRONG", "PARTIAL-UNCERTIFIED"}
    failing.update(verdict for _, verdict, _ in ORACLE_VERDICTS)
    return 1 if failing.intersection(verdicts) else 0


#: Trace paths each ``obs`` action takes: (fewest, most, usage words).
OBS_PATH_ARITY = {
    "summarize": (1, 1, "exactly one trace file"),
    "diff": (2, 2, "exactly two trace files"),
    "top": (1, 1, "exactly one trace file"),
    "validate": (0, 1, "at most one trace file"),
}


def cmd_obs(args: argparse.Namespace) -> int:
    """Inspect observability artifacts written by ``--trace-out`` /
    ``--metrics-out``.

    ``summarize`` aggregates one trace (span counts + round-time
    totals per name); ``diff`` compares two summaries sorted by
    absolute delta; ``top`` lists the k slowest individual spans;
    ``validate`` checks a Chrome trace for well-formedness and
    balanced B/E tracks (``--prom FILE`` additionally lints a
    Prometheus textfile) with nonzero exit on any problem — the CI
    smoke gate.
    """
    import json as _json

    from .obs import export as obs_export

    def _fmt_us(us: float) -> str:
        return f"{us / 1000.0:.0f} rounds"

    fewest, most, usage = OBS_PATH_ARITY[args.action]
    if not fewest <= len(args.paths) <= most:
        raise SystemExit(f"obs {args.action} takes {usage}")

    if args.action == "summarize":
        summary = obs_export.summarize_trace(
            obs_export.load_trace(args.paths[0])
        )
        rows = [
            {
                "span": name,
                "count": cell["count"],
                "total": _fmt_us(cell["total_us"]),
                "max": _fmt_us(cell["max_us"]),
            }
            for name, cell in summary["by_name"].items()
        ]
        if rows:
            print(format_table(rows, title=f"spans in {args.paths[0]}"))
        print(
            f"{summary['spans']} span(s), {summary['instants']} "
            f"instant event(s)"
        )
        for name, count in summary["instants_by_name"].items():
            print(f"  {name}: {count}")
        return 0

    if args.action == "diff":
        a = obs_export.summarize_trace(obs_export.load_trace(args.paths[0]))
        b = obs_export.summarize_trace(obs_export.load_trace(args.paths[1]))
        rows = [
            {
                "span": name,
                "a": _fmt_us(ta),
                "b": _fmt_us(tb),
                "delta": _fmt_us(tb - ta),
            }
            for name, ta, tb in obs_export.diff_summaries(a, b)
        ]
        if rows:
            print(
                format_table(
                    rows, title=f"{args.paths[0]} vs {args.paths[1]}"
                )
            )
        else:
            print("no spans in either trace")
        return 0

    if args.action == "top":
        spans = obs_export.top_spans(
            obs_export.load_trace(args.paths[0]), k=args.k
        )
        rows = [
            {
                "span": s["name"],
                "cat": s["cat"],
                "pid": s["pid"],
                "tid": s["tid"],
                "start": _fmt_us(s["ts"]),
                "duration": _fmt_us(s["dur"]),
            }
            for s in spans
        ]
        if rows:
            print(
                format_table(
                    rows, title=f"top {len(rows)} spans in {args.paths[0]}"
                )
            )
        else:
            print("no spans in trace")
        return 0

    # validate
    if not args.paths and not args.prom:
        # Checking nothing would pass: a vacuous gate.
        raise SystemExit("obs validate needs a trace file or --prom")
    problems: List[str] = []
    for path in args.paths:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            doc = _json.loads(text)
        except _json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict) and "type" not in doc:
            errors = obs_export.validate_chrome_trace(doc)
        else:
            # JSONL traces are validated through the shared pairing
            # path: resynthesized B/E events must balance too.
            errors = obs_export.validate_chrome_trace(
                {"traceEvents": obs_export.load_trace(path)}
            )
        problems.extend(f"{path}: {e}" for e in errors)
        print(f"{path}: {'OK' if not errors else f'{len(errors)} problem(s)'}")
    if args.prom:
        with open(args.prom, "r", encoding="utf-8") as fh:
            errors = obs_export.lint_prometheus(fh.read())
        problems.extend(f"{args.prom}: {e}" for e in errors)
        print(
            f"{args.prom}: "
            f"{'OK' if not errors else f'{len(errors)} problem(s)'}"
        )
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-execute a repro bundle; nonzero exit iff the replay diverges.

    Strict replay (the default) re-applies every recorded fault decision
    and checks per-round digests plus the final outcome, raising
    ``ReplayDivergence`` with the first divergent round.  ``--best-effort``
    replays whatever still matches and reports outcome mismatches instead
    of failing on them.
    """
    from .sim.recorder import ExecutionRecord
    from .sim.replay import ReplayDivergence, replay_bundle

    bundle = ExecutionRecord.load(args.bundle)
    print(
        f"bundle: {bundle.protocol} on {bundle.topology.get('name')} "
        f"(seed {bundle.seed}, {bundle.n_decisions} recorded event(s), "
        f"monitors={bundle.monitor_mode or 'none'})"
    )
    try:
        outcome = replay_bundle(bundle, strict=not args.best_effort)
    except ReplayDivergence as exc:
        print(f"DIVERGED: {exc}")
        return 1
    except ValueError as exc:
        print(f"cannot replay: {exc}")
        return 1
    row = outcome.record.as_dict()
    row.pop("violations", None)
    print(format_table([row], title=f"replay of {args.bundle}"))
    if outcome.reproduced:
        print("outcome reproduced exactly")
        return 0
    print("outcome mismatches:")
    for line in outcome.mismatches:
        print(f"  {line}")
    return 1


def cmd_shrink(args: argparse.Namespace) -> int:
    """ddmin-minimize a failing bundle to a 1-minimal fault schedule."""
    from .adversary.shrink import shrink_bundle
    from .sim.recorder import ExecutionRecord

    bundle = ExecutionRecord.load(args.bundle)
    try:
        result = shrink_bundle(
            bundle,
            max_evals=args.max_evals,
            max_seconds=args.max_seconds,
            log=print,
        )
    except ValueError as exc:
        print(f"cannot shrink: {exc}")
        return 1
    print(
        format_table(
            [
                {
                    "events before": result.original_size,
                    "events after": result.shrunk_size,
                    "reduction": f"{result.reduction:.0%}",
                    "replays": result.evaluations,
                    "wall (s)": round(result.wall_seconds, 1),
                    "1-minimal": result.complete,
                }
            ],
            title=f"shrink of {args.bundle}",
        )
    )
    out = args.out or (args.bundle.rsplit(".json", 1)[0] + ".min.json")
    result.minimal.save(out)
    print(f"minimized bundle written to {out}")
    return 0


def cmd_figure1(args: argparse.Namespace) -> int:
    from .analysis.figure1 import figure1_data

    data = figure1_data(args.n, args.failures, _ints(args.bs))
    series = {
        name: [round(v, 2) for v in values]
        for name, values in data.curves.items()
        if name in ("upper_bound_new", "lower_bound_new", "lower_bound_old",
                    "bruteforce", "folklore")
    }
    print(
        format_series(
            data.bs,
            series,
            x_label="b",
            title=f"Figure 1 curves: N={args.n}, f={args.failures}",
        )
    )
    if args.plot:
        print()
        print(
            plot_series(
                data.bs,
                series,
                title="Figure 1 (log-scale CC vs b)",
            )
        )
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology, args.seed)
    rng = random.Random(args.seed)
    inputs = make_inputs(topology, rng, max_input=args.max_input)
    outcome = distributed_select(
        topology, inputs, k=args.k, f=args.failures, b=args.budget, rng=rng
    )
    expected = sorted(inputs.values())[args.k - 1]
    print(
        format_table(
            [
                {
                    "k": args.k,
                    "selected value": outcome.value,
                    "expected (failure-free)": expected,
                    "COUNT probes": outcome.probe_count,
                    "total rounds": outcome.total_rounds,
                    "CC (bits/node)": outcome.cc_bits,
                }
            ],
            title=f"distributed selection on {topology.name}",
        )
    )
    return 0


def cmd_worst_case(args: argparse.Namespace) -> int:
    from .adversary.search import EvaluatorSpec, search_worst_adversary

    topology = parse_topology(args.topology, args.seed)
    rng = random.Random(args.seed)
    inputs = make_inputs(topology, rng, max_input=args.max_input)
    evaluator = EvaluatorSpec(
        topology, inputs, f=args.failures, b=args.budget
    )
    result = search_worst_adversary(
        evaluator,
        topology,
        f=args.failures,
        horizon=args.budget * topology.diameter,
        rng=rng,
        restarts=args.restarts,
        steps_per_restart=args.steps,
        jobs=args.jobs,
    )
    print(
        format_table(
            [
                {
                    "worst CC (bits/node)": result.cc_bits,
                    "rounds": result.rounds,
                    "crashes": len(result.schedule),
                    "protocol runs": result.trials,
                    "incorrect results": result.incorrect_runs,
                }
            ],
            title=f"worst-case search on {topology.name} (f={args.failures}, b={args.budget})",
        )
    )
    if result.schedule.crash_rounds:
        print("schedule:", sorted(result.schedule.crash_rounds.items()))
    return 0 if result.incorrect_runs == 0 else 1


def cmd_monitor(args: argparse.Namespace) -> int:
    from .adversary import random_failures
    from .extensions.monitoring import drifting_inputs, run_monitoring

    topology = parse_topology(args.topology, args.seed)
    rng = random.Random(args.seed)
    base = make_inputs(topology, rng, max_input=args.max_input)
    horizon = args.epochs * args.budget * topology.diameter
    schedule = (
        random_failures(topology, args.failures, rng, last_round=horizon)
        if args.failures
        else no_failures()
    )
    outcome = run_monitoring(
        topology,
        drifting_inputs(base, rng),
        epochs=args.epochs,
        f=max(1, args.failures),
        b=args.budget,
        schedule=schedule,
        rng=rng,
    )
    rows = [
        {
            "epoch": e.epoch,
            "result": e.result,
            "correct": e.correct,
            "survivors": e.survivors,
            "CC": e.cc_bits,
        }
        for e in outcome.epochs
    ]
    print(format_table(rows, title=f"monitoring {topology.name}"))
    return 0 if outcome.all_correct else 1


def cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import generate_report

    text = generate_report(side=args.side, f=args.failures, seeds=args.seeds)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    from .analysis.regression import capture_baseline, compare_to_baseline

    if args.action == "capture":
        metrics = capture_baseline(args.path)
        print(
            format_table(
                [{"metric": k, "value": v} for k, v in sorted(metrics.items())],
                title=f"baseline captured -> {args.path}",
            )
        )
        return 0
    drifts = compare_to_baseline(args.path, tolerance=args.tolerance)
    if not drifts:
        print(f"no drift beyond {args.tolerance:.0%} vs {args.path}")
        return 0
    print(
        format_table(
            [
                {
                    "metric": d.metric,
                    "baseline": d.baseline,
                    "measured": d.measured,
                    "ratio": round(d.ratio, 3),
                }
                for d in drifts
            ],
            title=f"DRIFT beyond {args.tolerance:.0%}",
        )
    )
    return 1


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect / maintain a content-addressed result cache directory."""
    from .exec import ResultCache
    from .exec.cache import parse_age

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        by_protocol = stats.pop("by_protocol", {})
        rows = [stats]
        print(format_table(rows, title=f"result cache at {args.cache_dir}"))
        if by_protocol:
            print(
                format_table(
                    [
                        {"protocol": name, "entries": count}
                        for name, count in by_protocol.items()
                    ],
                    title="entries by protocol",
                )
            )
        return 0
    if args.action == "gc":
        if not args.older_than:
            raise SystemExit("cache gc requires --older-than (e.g. 7d, 12h, 90s)")
        try:
            age = parse_age(args.older_than)
        except ValueError as exc:
            raise SystemExit(str(exc))
        removed = cache.gc(age)
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    removed = cache.clear()
    print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology, args.seed)
    print(
        format_table(
            [
                {
                    "name": topology.name,
                    "N": topology.n_nodes,
                    "edges": topology.n_edges,
                    "diameter": topology.diameter,
                    "root": topology.root,
                }
            ],
            title="topology",
        )
    )
    if args.out:
        graph_io.save(topology, args.out)
        print(f"saved to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-agg",
        description="Fault-tolerant aggregation (PODC'14 reproduction) CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--topology", default="grid:6x6", help="kind[:args] spec")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-input", type=int, default=None, dest="max_input")

    def parallel(p, cache: bool = True):
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes (1 = in-process, no pool; every value "
            "derives each run the same way, so results are bit-identical)",
        )
        if cache:
            p.add_argument(
                "--cache-dir",
                default=None,
                dest="cache_dir",
                help="content-addressed result cache directory "
                "(hits skip recomputation; rerunning an interrupted sweep "
                "against it resumes where it stopped)",
            )
            p.add_argument(
                "--force",
                action="store_true",
                help="recompute cached results (fresh runs refresh the cache)",
            )
            p.add_argument(
                "--progress-log",
                default=None,
                dest="progress_log",
                help="append structured JSONL progress events here",
            )

    def resilience(p):
        for row in FLAG_TABLE:
            if row.kwargs is not None:
                p.add_argument(row.flag, **row.kwargs)

    def protocol(p, default, inject_help):
        p.add_argument(
            "--protocol",
            default=default,
            choices=["algorithm1", "bruteforce", "folklore", "tag", "unknown_f", "agg_veri"],
        )
        p.add_argument("-f", "--failures", type=int, default=0)
        p.add_argument("-b", "--budget", type=int, default=None)
        p.add_argument("-t", "--tolerance", type=int, default=None)
        p.add_argument("--inject", default=None, help=inject_help)

    def timeout_and_capture(p, timeout=False, capture_note=""):
        if timeout:
            p.add_argument(
                "--timeout",
                type=float,
                default=None,
                help="per-run wall-clock limit (s)",
            )
        p.add_argument(
            "--capture-dir",
            default=None,
            dest="capture_dir",
            help="write a repro bundle here for every failing run; passing "
            "runs are not recorded, a failing one is re-executed once under "
            "the recorder" + capture_note,
        )

    def obs(p):
        p.add_argument(
            "--trace-out",
            default=None,
            dest="trace_out",
            help="write a span trace here (.jsonl = flat deterministic "
            "lines; anything else = Chrome trace_event JSON for "
            "Perfetto / chrome://tracing)",
        )
        p.add_argument(
            "--metrics-out",
            default=None,
            dest="metrics_out",
            help="write a Prometheus textfile metrics snapshot here",
        )
        p.add_argument(
            "--trace-detail",
            default=None,
            dest="trace_detail",
            choices=["off", "phases", "messages"],
            help="span granularity: off = metrics only, phases = "
            "protocol phase/epoch/transport spans (default when an "
            "output is requested), messages = + one instant event per "
            "broadcast",
        )

    p_run = sub.add_parser("run", help="run one protocol execution")
    common(p_run)
    protocol(
        p_run,
        "algorithm1",
        "message-fault spec, e.g. drop=0.1,dup=0.05,delay=0.1",
    )
    p_run.add_argument(
        "--strict-monitors",
        action="store_true",
        dest="strict_monitors",
        help="attach strict invariant monitors (raise on violation)",
    )
    resilience(p_run)
    parallel(p_run)
    obs(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep-b", help="Algorithm 1 CC vs time budget")
    common(p_sweep)
    p_sweep.add_argument("-f", "--failures", type=int, required=True)
    p_sweep.add_argument("--bs", default="42,84,168,336")
    p_sweep.add_argument("--seeds", type=int, default=3)
    timeout_and_capture(p_sweep, timeout=True)
    resilience(p_sweep)
    parallel(p_sweep)
    obs(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep_b)

    p_sweep_f = sub.add_parser(
        "sweep-f", help="Algorithm 1 CC vs failure budget"
    )
    common(p_sweep_f)
    p_sweep_f.add_argument("--fs", default="2,4,8,16", help="failure budgets")
    p_sweep_f.add_argument("-b", "--budget", type=int, default=60)
    p_sweep_f.add_argument("--seeds", type=int, default=3)
    timeout_and_capture(p_sweep_f, timeout=True)
    parallel(p_sweep_f)
    obs(p_sweep_f)
    p_sweep_f.set_defaults(func=cmd_sweep_f)

    p_chaos = sub.add_parser(
        "chaos", help="protocols under injected message faults + monitors"
    )
    common(p_chaos)
    protocol(
        p_chaos,
        "unknown_f",
        "fault spec (default drop=0.05), e.g. drop=0.1,dup=0.05,reorder=0.2",
    )
    p_chaos.add_argument(
        "--adaptive",
        default=None,
        help="adaptive crash adversary: top-talker[:period], "
        "trigger:<kind>, root-isolation",
    )
    p_chaos.add_argument("--seeds", type=int, default=5)
    p_chaos.add_argument(
        "--strict",
        action="store_true",
        help="strict monitors: abort the run at the first invariant break",
    )
    timeout_and_capture(
        p_chaos,
        capture_note=" (replay with `repro-agg replay`, minimize with "
        "`repro-agg shrink`)",
    )
    resilience(p_chaos)
    parallel(p_chaos)
    obs(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_obs = sub.add_parser(
        "obs", help="summarize / diff / validate trace + metrics artifacts"
    )
    p_obs.add_argument("action", choices=list(OBS_PATH_ARITY))
    p_obs.add_argument(
        "paths",
        nargs="*",
        help="trace file(s): Chrome JSON or JSONL from --trace-out",
    )
    p_obs.add_argument(
        "-k", type=int, default=10, help="span count for `obs top`"
    )
    p_obs.add_argument(
        "--prom",
        default=None,
        help="with validate: lint this Prometheus textfile too",
    )
    p_obs.set_defaults(func=cmd_obs)

    p_replay = sub.add_parser(
        "replay", help="re-execute a repro bundle, checking for divergence"
    )
    p_replay.add_argument("bundle", help="path to a repro bundle .json")
    p_replay.add_argument(
        "--best-effort",
        action="store_true",
        dest="best_effort",
        help="re-apply what matches instead of failing on divergence",
    )
    p_replay.set_defaults(func=cmd_replay)

    p_shrink = sub.add_parser(
        "shrink", help="ddmin-minimize a failing bundle (1-minimal schedule)"
    )
    p_shrink.add_argument("bundle", help="path to a repro bundle .json")
    p_shrink.add_argument(
        "--out", default=None, help="minimized bundle path (default *.min.json)"
    )
    p_shrink.add_argument("--max-evals", type=int, default=500, dest="max_evals")
    p_shrink.add_argument(
        "--max-seconds", type=float, default=120.0, dest="max_seconds"
    )
    p_shrink.set_defaults(func=cmd_shrink)

    p_fig = sub.add_parser("figure1", help="print the Figure 1 bound curves")
    p_fig.add_argument("-n", type=int, default=1024)
    p_fig.add_argument("-f", "--failures", type=int, default=128)
    p_fig.add_argument("--bs", default="42,84,168,336,672")
    p_fig.add_argument("--plot", action="store_true", help="ASCII chart too")
    p_fig.set_defaults(func=cmd_figure1)

    p_sel = sub.add_parser("select", help="k-th smallest via COUNT probes")
    common(p_sel)
    p_sel.add_argument("-k", type=int, required=True)
    p_sel.add_argument("-f", "--failures", type=int, default=1)
    p_sel.add_argument("-b", "--budget", type=int, default=45)
    p_sel.set_defaults(func=cmd_select)

    p_worst = sub.add_parser(
        "worst-case",
        aliases=["search"],
        help="hill-climb for a costly failure schedule",
    )
    common(p_worst)
    p_worst.add_argument("-f", "--failures", type=int, required=True)
    p_worst.add_argument("-b", "--budget", type=int, default=60)
    p_worst.add_argument("--restarts", type=int, default=3)
    p_worst.add_argument("--steps", type=int, default=5)
    parallel(p_worst, cache=False)
    p_worst.set_defaults(func=cmd_worst_case)

    p_cache = sub.add_parser(
        "cache", help="inspect / maintain a result cache directory"
    )
    p_cache.add_argument("action", choices=["stats", "gc", "clear"])
    p_cache.add_argument(
        "--cache-dir", default=".repro-cache", dest="cache_dir"
    )
    p_cache.add_argument(
        "--older-than",
        default=None,
        dest="older_than",
        help="gc cutoff age: 3600, 90s, 15m, 12h, or 7d",
    )
    p_cache.set_defaults(func=cmd_cache)

    p_mon = sub.add_parser("monitor", help="periodic aggregation epochs")
    common(p_mon)
    p_mon.add_argument("--epochs", type=int, default=4)
    p_mon.add_argument("-f", "--failures", type=int, default=0)
    p_mon.add_argument("-b", "--budget", type=int, default=45)
    p_mon.set_defaults(func=cmd_monitor)

    p_rep = sub.add_parser("report", help="run the compact experiment suite")
    p_rep.add_argument("--side", type=int, default=5, help="grid side length")
    p_rep.add_argument("-f", "--failures", type=int, default=6)
    p_rep.add_argument("--seeds", type=int, default=3)
    p_rep.add_argument("--out", default=None, help="write Markdown here")
    p_rep.set_defaults(func=cmd_report)

    p_base = sub.add_parser(
        "baseline", help="capture/check performance-regression baselines"
    )
    p_base.add_argument("action", choices=["capture", "check"])
    p_base.add_argument("--path", default="repro-baseline.json")
    p_base.add_argument("--tolerance", type=float, default=0.05)
    p_base.set_defaults(func=cmd_baseline)

    p_topo = sub.add_parser("topology", help="describe / export a topology")
    common(p_topo)
    p_topo.add_argument("--out", default=None, help="write .json/.dot/edge list")
    p_topo.set_defaults(func=cmd_topology)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cap = _obs_from_args(args)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # The engine has stored every completed row in the --cache-dir
        # cache by now; rerunning the same command resumes.
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        # Partial traces from interrupted/failed runs still flush:
        # close_all() balances whatever spans were open.
        _obs_finish(cap, args)


if __name__ == "__main__":
    sys.exit(main())

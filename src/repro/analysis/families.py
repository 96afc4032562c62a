"""The fault-family table: each family's run configuration, declared once.

A *fault family* is one kind of behaviour outside the Section 2 model that
a run can be configured with: the reliable transport, the self-healing
recovery runtime, authenticated integrity frames, the ``allow_root_crash``
relaxation, and the schedule families — crash-recovery churn, gray
failures and Byzantine compromise.  :data:`FAMILIES` lists them in table
order, which is also the order the schedule families draw from a run's
seeded rng (churn, then gray, then byz, right after the crash schedule).
Each row names the :func:`repro.analysis.runner.run_protocol` keywords
the family owns, the first being its switch, and a schedule family's
module in :mod:`repro.families`, which holds everything only that family
knows; it is imported on first use.

:data:`EXCLUSIONS` holds every pairwise rule with its reason: the runner
raises ``ValueError`` and the CLI ``SystemExit`` from the same rows.
:func:`family_monitors` adds each family's oracle to the standard monitor
stack; :func:`encode_params` / :func:`decode_params` are the repro-bundle
``params`` codec.

Adding a fault family = one row here + its module (see
:mod:`repro.families` for what a module declares) + its runtime: an
overlay, or, for a family that restarts the protocol in epochs, a plan
for :func:`repro.resilience.driver.drive_epochs`
(:class:`~repro.resilience.failover.FailoverPlan` is the smallest).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, Iterator, NamedTuple
from typing import Optional, Tuple

from ..sim.faults import MessageFaults, flat_injectors, ledger_sources
from ..sim.monitors import standard_monitors
from ..sim.specs import SHAPE_ERRORS, config_jsonable, shape_error


def load_config(path: str) -> Callable[[Any], Any]:
    """``from_jsonable`` of ``module:Class``, the module named relative to
    :mod:`repro.analysis` and imported on first use, so the resilience
    stack stays unloaded until a run needs it."""
    module, _, name = path.partition(":")

    def load(data):
        cls = getattr(importlib.import_module(module, __package__), name)
        return cls.from_jsonable(data)

    return load


def _dump_integrity(integrity) -> Any:
    from ..integrity.frames import as_integrity

    coordinator = as_integrity(integrity)  # mode strings; "off" -> None
    return None if coordinator is None else config_jsonable(coordinator)


class Family(NamedTuple):
    """One row of the table (see the module docstring).

    ``runtime`` marks a family that runs through a runtime only
    ``algorithm1`` / ``unknown_f`` implement.
    """

    name: str
    keys: Tuple[str, ...]
    module: Optional[str] = None
    runtime: bool = False

    def load(self):
        """The family's module in :mod:`repro.families`."""
        return importlib.import_module(
            f"..families.{self.module}", __package__
        )


FAMILIES: Tuple[Family, ...] = (
    Family("transport", ("transport",), runtime=True),
    Family("recovery", ("recovery",), runtime=True),
    Family("integrity", ("integrity",), runtime=True),
    Family("allow_root_crash", ("allow_root_crash",)),
    Family("churn", ("churn", "churn_policy"), "churn", runtime=True),
    Family("gray", ("gray",), "gray"),
    Family("byz", ("byz", "byz_config"), "byz", runtime=True),
)

#: The bundle ``(decode, encode)`` codecs of the families without a
#: module; a module's ``CODECS`` hold its own.
CODECS = {
    "transport": (
        load_config("..resilience.transport:TransportConfig"), config_jsonable
    ),
    "recovery": (
        load_config("..resilience.failover:RecoveryPolicy"), config_jsonable
    ),
    "integrity": (
        load_config("..integrity.frames:IntegrityConfig"), _dump_integrity
    ),
    "allow_root_crash": (bool, lambda on: True if on else None),
}

FAMILY: Dict[str, Family] = {family.name: family for family in FAMILIES}

#: Every ``run_protocol`` keyword owned by some family, in table order.
RUN_KEYS: Tuple[str, ...] = tuple(
    key for family in FAMILIES for key in family.keys
)

#: The schedule families, in rng draw order.
SCHEDULES: Tuple[str, ...] = tuple(f.name for f in FAMILIES if f.module)


def _codecs(family: Family) -> Dict[str, Tuple[Callable, Callable]]:
    return family.load().CODECS if family.module else CODECS


def hooks(cfg: Dict[str, Any], name: str) -> Iterator[Callable]:
    """Hook ``name`` of each schedule family whose switch ``cfg`` sets, in
    table order; modules that do not define it are skipped."""
    for family in FAMILIES:
        if family.module and cfg.get(family.keys[0]) is not None:
            hook = getattr(family.load(), name, None)
            if hook is not None:
                yield hook


def _is_on(value) -> bool:
    """Whether a family's switch value turns the family on.  An empty
    gray/byz schedule (``has_events`` false) does not: it takes the plain
    path bit for bit."""
    return (
        value is not None
        and value is not False
        and getattr(value, "has_events", True)
    )


def parse_rate(text: str, horizon: Optional[int] = None, **shape):
    """``'rate:<float>'`` as a random spec dict, or None for other text.

    ``horizon=None`` leaves the horizon for :func:`pin_horizon`; ``shape``
    adds family-specific draw parameters (e.g. churn's ``amnesiac``).
    """
    if not text.startswith("rate:"):
        return None
    spec = {"kind": "random", "rate": float(text[len("rate:"):])}
    if horizon is not None:
        spec["horizon"] = horizon
    spec.update(shape)
    return spec


def materialize(name: str, spec, topology, rng=None):
    """Schedule family ``name``'s schedule from its spec.

    ``None`` and schedule objects pass through; a spec string is parsed;
    a ``{"kind": "random", ...}`` dict is drawn from ``rng`` (its horizon
    defaults to four diameters).
    """
    if not isinstance(spec, (str, dict)):
        return spec
    family = FAMILY[name].load()
    if isinstance(spec, str):
        return family.parse(spec, topology.root)
    kind = spec.get("kind", "random")
    if kind != "random":
        raise ValueError(f"unknown {name} spec kind {kind!r}")
    horizon = spec.get("horizon", 4 * max(1, topology.diameter))
    shape = {
        key: value for key, value in spec.items()
        if key not in ("kind", "rate", "horizon")
    }
    return family.draw(
        topology, spec["rate"], rng, horizon=horizon, root=topology.root,
        **shape,
    )


def draw_schedules(faults: Dict[str, Any], topology, rng) -> Dict[str, Any]:
    """``faults`` with every schedule family materialized, drawing from
    ``rng`` in table order (the slot right after the crash schedule; see
    :func:`repro.exec.scheduler.derive_run`)."""
    out = dict(faults)
    for name in SCHEDULES:
        out[name] = materialize(name, faults.get(name), topology, rng)
    return out


def pin_horizon(faults: Dict[str, Any], horizon: int) -> Dict[str, Any]:
    """Random specs without a caller-chosen horizon stretched to one sweep
    coordinate's run length, so fault density stays comparable across
    budgets; explicit specs and schedules pass through."""
    return {
        key: dict(value, horizon=horizon)
        if key in SCHEDULES and isinstance(value, dict)
        and "horizon" not in value
        else value
        for key, value in faults.items()
    }


def share(faults: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce the coordinators a monitor stack shares with its run.

    Integrity becomes one coordinator (falling back to the recovery
    policy's config) for the run, the silent-corruption oracle and the
    row's rejection columns; each family's ``share`` hook coerces what
    its oracle shares.
    """
    from ..integrity.frames import as_integrity

    out = dict(faults)
    integrity = out.get("integrity")
    if integrity is None:
        integrity = getattr(out.get("recovery"), "integrity", None)
    out["integrity"] = as_integrity(integrity)
    for hook in hooks(out, "share"):
        hook(out)
    return out


def normalize(faults: Dict[str, Any], topology) -> Dict[str, Any]:
    """``run_protocol``'s family arguments, coerced once.

    Spec strings become validated schedules, and transport and integrity
    become coordinators shared by the run, its monitors and its row
    columns.
    """
    cfg = {key: faults.get(key) for key in RUN_KEYS}
    for name in SCHEDULES:
        cfg[name] = materialize(name, cfg[name], topology)
        if cfg[name] is not None:
            cfg[name].validate(topology)
    cfg = share(cfg)
    if cfg["transport"] is not None:
        from ..resilience.transport import as_transport

        cfg["transport"] = as_transport(cfg["transport"])
    return cfg


class Exclusion(NamedTuple):
    """Families ``a`` and ``b`` do not compose, because ``reason``.

    Besides family names, rows may name the transport knob ``rto`` and
    the injector kinds ``corruption`` and ``faults`` (drop/dup/delay/
    reorder message faults).
    """

    a: str
    b: str
    reason: str

    def message(self, label: Callable[[str], str] = str) -> str:
        return (
            f"{label(self.a)} and {label(self.b)} are mutually exclusive "
            f"({self.reason})"
        )


_IN_MODEL = "the witness audits assume in-model delivery for honest nodes"

EXCLUSIONS: Tuple[Exclusion, ...] = (
    Exclusion(
        "transport", "recovery",
        "pass the transport inside the RecoveryPolicy",
    ),
    Exclusion(
        "churn", "recovery", "the churn epoch manager assumes an immortal root"
    ),
    Exclusion(
        "churn", "integrity",
        "the churn epoch manager does not run the integrity layer yet",
    ),
    Exclusion(
        "rto", "churn",
        "the churn epoch manager assumes fixed-window round arithmetic",
    ),
    Exclusion("byz", "recovery", _IN_MODEL),
    Exclusion("byz", "transport", _IN_MODEL),
    Exclusion("byz", "churn", _IN_MODEL),
    Exclusion("byz", "gray", _IN_MODEL),
    Exclusion(
        "byz", "corruption",
        "equivocation is modelled at the sender; wire corruption would "
        "blur the authenticated-frame evidence convictions stand on",
    ),
    Exclusion("byz", "faults", _IN_MODEL),
    Exclusion(
        "byz", "allow_root_crash",
        "the witness protocol trusts the root as judge, so the root must "
        "stay honest and immortal",
    ),
)


def conflict(active: Iterable[str]) -> Optional[Exclusion]:
    """The first exclusion row whose two sides are both ``active``."""
    active = set(active)
    return next(
        (row for row in EXCLUSIONS if row.a in active and row.b in active),
        None,
    )


def active(cfg: Dict[str, Any], injectors=()) -> set:
    """The exclusion-table names a normalized configuration switches on."""
    on = {family.name for family in FAMILIES if _is_on(cfg[family.keys[0]])}
    # A family's own config (the churn policy) may run a transport too.
    transports = [getattr(cfg["transport"], "config", None)] + [
        getattr(cfg[key], "transport", None)
        for family in FAMILIES
        for key in family.keys[1:]
    ]
    if any(t is not None and t.rto != "fixed" for t in transports):
        on.add("rto")
    # A replay injector counts as corruption only when its bundle recorded
    # content rewrites (a byz bundle's replay carries the ledger, not them).
    if any(
        getattr(s, "has_rewrites", True)
        for s in ledger_sources(injectors, "delivered_corruptions")
    ):
        on.add("corruption")
    if any(isinstance(i, MessageFaults) for i in flat_injectors(injectors)):
        on.add("faults")
    return on


def check(protocol: str, cfg: Dict[str, Any], injectors=()) -> None:
    """Raise ``ValueError`` when a normalized configuration hits an
    exclusion row or needs a runtime ``protocol`` does not have."""
    on = active(cfg, injectors)
    row = conflict(on)
    if row is not None:
        raise ValueError(row.message())
    runtimes = [family.name for family in FAMILIES if family.runtime]
    if on.intersection(runtimes):
        from ..resilience.driver import RECOVERABLE_PROTOCOLS

        if protocol not in RECOVERABLE_PROTOCOLS:
            raise ValueError(
                f"{'/'.join(runtimes)} support "
                f"{RECOVERABLE_PROTOCOLS}, not {protocol!r}"
            )


def epoch_plan(cfg: Dict[str, Any]) -> Optional[Callable]:
    """The ``plan`` hook of the on family that restarts the protocol in
    epochs (the exclusion table leaves at most one), or None."""
    for family in FAMILIES:
        if family.module and _is_on(cfg[family.keys[0]]):
            plan = getattr(family.load(), "plan", None)
            if plan is not None:
                return plan
    return None


def family_monitors(
    topology,
    inputs,
    faults: Dict[str, Any],
    *,
    f=None,
    caaf=None,
    mode: str = "record",
    recovery: bool = False,
    corruption=(),
    transport_always: bool = False,
):
    """:func:`repro.sim.monitors.standard_monitors` plus the oracles of
    each family's ``oracles`` hook, in table order.

    An oracle that watches the transport (its ``transport`` attribute)
    also hands the stack that transport, adding the retransmit-budget
    watchdog; ``transport_always`` hands it over for every run.
    """
    oracles = [
        oracle
        for hook in hooks(faults, "oracles")
        for oracle in hook(faults, inputs, caaf=caaf, mode=mode)
    ]
    watched = transport_always or any(
        getattr(oracle, "transport", None) is not None for oracle in oracles
    )
    return standard_monitors(
        topology,
        inputs,
        f=f,
        caaf=caaf,
        mode=mode,
        recovery=recovery,
        transport=faults.get("transport") if watched else None,
        corruption=corruption,
        integrity=faults.get("integrity"),
    ) + oracles


def encode_params(kwargs: Dict[str, Any], topology) -> Dict[str, Any]:
    """The bundle ``params`` block for one run's ``run_protocol`` kwargs
    (None entries are dropped when the bundle is assembled)."""
    params = {
        "f": kwargs.get("f"),
        "b": kwargs.get("b"),
        "t": kwargs.get("t"),
        "c": kwargs.get("c", 2),
        "caaf": getattr(kwargs.get("caaf"), "name", None),
    }
    for family in FAMILIES:
        for key in family.keys:
            value = kwargs.get(key)
            if key in SCHEDULES:
                value = materialize(key, value, topology)
            params[key] = (
                None if value is None else _codecs(family)[key][1](value)
            )
    return params


def decode_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """``run_protocol`` kwargs from a bundle ``params`` block (absent keys
    keep ``run_protocol``'s defaults).

    A value of the wrong JSON shape raises a ``ValueError`` naming its
    field (the family configs' own decoders name their class too).
    """
    from ..core.caaf import by_name

    kwargs = {key: params[key] for key in ("f", "b", "t", "c") if key in params}
    for key, value in kwargs.items():
        if value is not None and type(value) is not int:
            raise shape_error("params", key, f"{value!r} is not an integer")
    owned = [(None, "caaf")] + [
        (family, key) for family in FAMILIES for key in family.keys
    ]
    for family, key in owned:
        if params.get(key):
            load = by_name if family is None else _codecs(family)[key][0]
            try:
                kwargs[key] = load(params[key])
            except SHAPE_ERRORS as exc:
                raise shape_error("params", key, exc) from None
    return kwargs

"""The fault-family table: each family's run configuration, declared once.

A *fault family* is one kind of behaviour outside the Section 2 model that
a run can be configured with: the reliable transport, the self-healing
recovery runtime, authenticated integrity frames, crash-recovery churn,
gray failures, Byzantine compromise, and the ``allow_root_crash``
relaxation.  :data:`FAMILIES` lists them in table order, which is also the
order their random schedules are drawn from a run's seeded rng (churn,
then gray, then byz, right after the crash schedule).  Each row names

* the :func:`repro.analysis.runner.run_protocol` keyword arguments the
  family owns, with their repro-bundle ``params`` codec
  (:func:`encode_params` / :func:`decode_params`), which each config and
  schedule derives from its field declarations
  (:class:`repro.sim.specs.JsonFields`);
* for schedule families, how a spec string or a ``{"kind": "random",
  "rate": ...}`` dict becomes a schedule (:func:`materialize`).

:data:`EXCLUSIONS` holds every pairwise rule with its reason: the runner
raises ``ValueError`` and the CLI ``SystemExit`` from the same rows.
:func:`family_monitors` adds each family's oracle to the standard monitor
stack.

Adding a fault family = one row here + its field declarations + its
runtime: an overlay, or, for a family that restarts the protocol in
epochs, a plan for :func:`repro.resilience.driver.drive_epochs`
(:class:`~repro.resilience.failover.FailoverPlan` is the smallest).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from ..sim.faults import (
    ByzantineSchedule,
    ChurnSchedule,
    GrayFailureSchedule,
    MessageFaults,
    flat_injectors,
    ledger_sources,
    random_byz,
    random_churn,
    random_gray,
)
from ..sim.monitors import standard_monitors
from ..sim.specs import SHAPE_ERRORS, config_jsonable, shape_error


def _load(path: str) -> Callable[[Any], Any]:
    """``from_jsonable`` of ``module:Class`` (imported on first use, so the
    resilience stack stays unloaded until a run needs it)."""
    module, _, name = path.partition(":")

    def load(data):
        cls = getattr(importlib.import_module(module, __package__), name)
        return cls.from_jsonable(data)

    return load


def _dump_integrity(integrity) -> Any:
    from ..integrity.frames import as_integrity

    coordinator = as_integrity(integrity)  # mode strings; "off" -> None
    return None if coordinator is None else config_jsonable(coordinator)


@dataclass(frozen=True)
class Family:
    """One row of the table (see the module docstring).

    ``keys`` maps each owned ``run_protocol`` keyword to its bundle
    ``(decoder, encoder)``; the first key is the family's own switch.
    Schedule families also give ``parse(spec, root)`` for spec strings and
    ``draw(spec, topology, rng, horizon)`` for random specs.
    """

    name: str
    keys: Tuple[Tuple[str, Callable, Callable], ...]
    parse: Optional[Callable] = None
    draw: Optional[Callable] = None


FAMILIES: Tuple[Family, ...] = (
    Family("transport", (
        ("transport", _load("..resilience.transport:TransportConfig"),
         config_jsonable),
    )),
    Family("recovery", (
        ("recovery", _load("..resilience.failover:RecoveryPolicy"),
         config_jsonable),
    )),
    Family("integrity", (
        ("integrity", _load("..integrity.frames:IntegrityConfig"),
         _dump_integrity),
    )),
    Family("allow_root_crash", (
        ("allow_root_crash", bool, lambda on: True if on else None),
    )),
    Family(
        "churn",
        (
            ("churn", ChurnSchedule.from_jsonable, config_jsonable),
            ("churn_policy", _load("..resilience.epochs:ChurnPolicy"),
             config_jsonable),
        ),
        parse=lambda spec, root: ChurnSchedule.from_spec(spec, root=root),
        draw=lambda spec, topology, rng, horizon: random_churn(
            topology, spec["rate"], rng, horizon=horizon,
            amnesiac=spec.get("amnesiac", 0.25),
            flap_rate=spec.get("flap_rate", 0.0), root=topology.root,
        ),
    ),
    Family(
        "gray",
        (("gray", GrayFailureSchedule.from_jsonable, config_jsonable),),
        parse=lambda spec, root: GrayFailureSchedule.from_spec(spec),
        draw=lambda spec, topology, rng, horizon: random_gray(
            topology, spec["rate"], rng, horizon=horizon,
            link_rate=spec.get("link_rate"),
            max_severity=spec.get("max_severity", 2), root=topology.root,
        ),
    ),
    Family(
        "byz",
        (
            ("byz", ByzantineSchedule.from_jsonable, config_jsonable),
            ("byz_config", _load("..resilience.byzantine:ByzantineConfig"),
             config_jsonable),
        ),
        parse=lambda spec, root: ByzantineSchedule.from_spec(spec),
        draw=lambda spec, topology, rng, horizon: random_byz(
            topology, spec["rate"], rng, horizon=horizon, root=topology.root,
            max_magnitude=spec.get("max_magnitude", 3),
        ),
    ),
)

FAMILY: Dict[str, Family] = {family.name: family for family in FAMILIES}

#: Every ``run_protocol`` keyword owned by some family, in table order.
RUN_KEYS: Tuple[str, ...] = tuple(
    key for family in FAMILIES for key, _, _ in family.keys
)

#: The schedule families, in rng draw order.
SCHEDULES: Tuple[str, ...] = tuple(f.name for f in FAMILIES if f.parse)

#: Families that run through a runtime only ``algorithm1`` / ``unknown_f``
#: implement.
RUNTIMES = frozenset({"transport", "recovery", "integrity", "churn", "byz"})


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
    family = FAMILY[name]
    if isinstance(spec, str):
        return family.parse(spec, topology.root)
    kind = spec.get("kind", "random")
    if kind != "random":
        raise ValueError(f"unknown {name} spec kind {kind!r}")
    horizon = spec.get("horizon", 4 * max(1, topology.diameter))
    return family.draw(spec, topology, rng, horizon)


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
    row's rejection columns.  A gray run's transport becomes one
    coordinator so the straggler oracle watches the detector the run uses.
    """
    from ..integrity.frames import as_integrity

    out = dict(faults)
    integrity = out.get("integrity")
    if integrity is None:
        integrity = getattr(out.get("recovery"), "integrity", None)
    out["integrity"] = as_integrity(integrity)
    if out.get("gray") is not None and out.get("transport") is not None:
        from ..resilience.transport import as_transport

        out["transport"] = as_transport(out["transport"])
    return out


def normalize(faults: Dict[str, Any], topology) -> Dict[str, Any]:
    """``run_protocol``'s family arguments, coerced once.

    Spec strings become validated schedules, and transport and integrity
    become coordinators shared by the run, its monitors and its row
    columns.  A churn run without a policy inherits the transport's
    config.
    """
    cfg = {key: faults.get(key) for key in RUN_KEYS}
    for name in SCHEDULES:
        cfg[name] = materialize(name, cfg[name], topology)
        if cfg[name] is not None:
            cfg[name].validate(topology)
    cfg = share(cfg)
    if cfg["transport"] is not None:
        from ..resilience.epochs import ChurnPolicy
        from ..resilience.transport import as_transport

        cfg["transport"] = as_transport(cfg["transport"])
        if cfg["churn"] is not None and cfg["churn_policy"] is None:
            cfg["churn_policy"] = ChurnPolicy(
                transport=cfg["transport"].config
            )
    return cfg


def has_events(schedule) -> bool:
    """Whether a gray/byz schedule does anything (an empty one takes the
    plain path bit for bit)."""
    return schedule is not None and schedule.has_events


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
    on = {
        name
        for name in ("transport", "recovery", "integrity", "churn")
        if cfg[name] is not None
    }
    on.update(name for name in ("gray", "byz") if has_events(cfg[name]))
    if cfg["allow_root_crash"]:
        on.add("allow_root_crash")
    transports = [
        getattr(cfg["transport"], "config", None),
        getattr(cfg["churn_policy"], "transport", None),
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
    if on & RUNTIMES:
        from ..resilience.driver import RECOVERABLE_PROTOCOLS

        if protocol not in RECOVERABLE_PROTOCOLS:
            raise ValueError(
                f"transport/recovery/integrity/churn/byz support "
                f"{RECOVERABLE_PROTOCOLS}, not {protocol!r}"
            )


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
    """:func:`repro.sim.monitors.standard_monitors` plus each family's
    oracle: churn's double-count oracle, gray's straggler oracle and byz's
    Byzantine oracle.

    The straggler oracle watches the transport's detector, so a gray run
    also hands the stack its transport (adding the retransmit-budget
    watchdog); ``transport_always`` hands it over for every run.
    """
    gray = faults.get("gray")
    byz = faults.get("byz")
    return standard_monitors(
        topology,
        inputs,
        f=f,
        caaf=caaf,
        mode=mode,
        recovery=recovery,
        transport=(
            faults.get("transport")
            if transport_always or gray is not None
            else None
        ),
        corruption=corruption,
        integrity=faults.get("integrity"),
        churn=faults.get("churn") is not None,
        gray=gray,
        byz=byz if has_events(byz) else None,
    )


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
        for key, _, dump in family.keys:
            value = kwargs.get(key)
            if key in SCHEDULES:
                value = materialize(key, value, topology)
            params[key] = None if value is None else dump(value)
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
    loads = [("caaf", by_name)] + [
        (key, load) for family in FAMILIES for key, load, _ in family.keys
    ]
    for key, load in loads:
        if params.get(key):
            try:
                kwargs[key] = load(params[key])
            except SHAPE_ERRORS as exc:
                raise shape_error("params", key, exc) from None
    return kwargs

"""The fault families' two formats: bundle JSON and CLI spec strings.

This module is the only place that knows either format.  Each config and
schedule derives its bundle codec from its field declarations
(:class:`JsonFields`).  :class:`SpecReader` reads every family's spec and
words every rejection the same way; it reads key=value specs (message
faults, corruption) whole, while the churn, gray and Byzantine event
grammars stay with their schedules in :mod:`repro.sim.faults`.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Callable, ClassVar, Dict, Iterable, Optional, Tuple


def retired_knobs(data: Dict[str, object], **fixed) -> None:
    """Reject a serialized policy whose retired knob differs from the
    value the runtime now hard-wires (such a bundle cannot be replayed
    faithfully)."""
    for key, value in fixed.items():
        if key in data and data[key] != value:
            raise ValueError(
                f"{key}={data[key]!r} is no longer supported (the runtime "
                f"always uses {value!r}); this bundle cannot be replayed"
            )


def listify(value: Any) -> Any:
    """Tuples become lists recursively, so JSON round-trips are identity."""
    if isinstance(value, (tuple, list)):
        return [listify(v) for v in value]
    if isinstance(value, dict):
        return {k: listify(v) for k, v in value.items()}
    return value


def encode(value) -> Any:
    """JSON-ready form: nested configs as their JSON, maps with string keys
    in key order, tuples as lists."""
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if hasattr(value, "as_jsonable"):
        return value.as_jsonable()
    return value


def decode(value) -> Any:
    """Inverse of :func:`encode` for schedules: int (node) keys, tuples.

    A map key that is not a node id raises ``TypeError``, one of
    :data:`SHAPE_ERRORS`.
    """
    if isinstance(value, dict):
        return {_node_id(key): decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return tuple(decode(item) for item in value)
    return value


def _node_id(key) -> int:
    try:
        return int(key)
    except ValueError:
        raise TypeError(f"map key {key!r} is not a node id") from None


#: What decoding or constructing raises when a bundle value has the wrong
#: JSON shape (a list where a map belongs, a number where a list does).
SHAPE_ERRORS = (TypeError, AttributeError, KeyError, IndexError)


def shape_error(owner: str, field: str, why) -> ValueError:
    """The ``ValueError`` for a bundle value of the wrong JSON shape."""
    return ValueError(
        f"{owner} field {field!r} has the wrong JSON shape ({why}); this "
        "bundle cannot be replayed"
    )


def config_jsonable(value) -> Any:
    """The JSON form of a config or schedule; a coordinator (reliable
    transport, integrity) serializes as its config."""
    return getattr(value, "config", value).as_jsonable()


class JsonFields:
    """``as_jsonable`` / ``from_jsonable`` derived from declared fields.

    A dataclass's fields are decoded by their annotated type (``int``,
    ``str`` or an ``Optional`` nested config); any other class names its
    constructor arguments in ``JSON_FIELDS``, decoded by :func:`decode`.
    A missing or null key keeps the default.  ``QUIET`` dataclass fields
    are written only when not the default, ``RETIRED`` maps each knob the
    runtime no longer has to the one value a bundle may carry
    (:func:`retired_knobs`), and ``REQUIRED`` fields must be present and
    not null.  A missing required field, or a field value of the wrong
    JSON shape, raises a ``ValueError`` naming the class and the field;
    ``data`` that is not an object at all raises ``TypeError``, which the
    enclosing decoder (a parent config's, or
    :func:`repro.analysis.families.decode_params`) reports under its field.
    """

    JSON_FIELDS: ClassVar[Tuple[str, ...]] = ()
    QUIET: ClassVar[Tuple[str, ...]] = ()
    RETIRED: ClassVar[Dict[str, Any]] = {}
    REQUIRED: ClassVar[Tuple[str, ...]] = ()

    def as_jsonable(self) -> Dict[str, Any]:
        """JSON-ready form, round-tripped by :meth:`from_jsonable`."""
        out = {}
        for name, default, _load in _fields(type(self)):
            value = getattr(self, name)
            if name not in self.QUIET or value != default:
                out[name] = encode(value)
        return out

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]):
        """The object :meth:`as_jsonable` wrote ``data`` from."""
        owner = cls.__name__
        if not isinstance(data, dict):
            # A shape error: the caller's field decoder names the field.
            raise TypeError(f"{owner} must be a JSON object, not {data!r}")
        retired_knobs(data, **cls.RETIRED)
        for name in cls.REQUIRED:
            if data.get(name) is None:
                raise ValueError(
                    f"{owner} needs its {name!r} field; this bundle "
                    "cannot be replayed"
                )
        kwargs = {}
        for name, _default, load in _fields(cls):
            if data.get(name) is not None:
                try:
                    kwargs[name] = load(data[name])
                except SHAPE_ERRORS as exc:
                    raise shape_error(owner, name, exc) from None
        try:
            return cls(**kwargs)
        except SHAPE_ERRORS as exc:
            # The constructor does not say which argument it choked on;
            # every field has a default, so find the one failing alone.
            for name, value in kwargs.items():
                try:
                    cls(**{name: value})
                except SHAPE_ERRORS as alone:
                    raise shape_error(owner, name, alone) from None
                except ValueError:
                    pass
            raise shape_error(owner, ", ".join(kwargs), exc) from None


@functools.lru_cache(maxsize=None)
def _fields(cls) -> Tuple[Tuple[str, Any, Callable[[Any], Any]], ...]:
    """``(name, default, decoder)`` per JSON field of ``cls``."""
    if not dataclasses.is_dataclass(cls):
        return tuple((name, None, decode) for name in cls.JSON_FIELDS)
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.default, _decoder(hints[f.name]))
        for f in dataclasses.fields(cls)
    )


def _decoder(hint) -> Callable[[Any], Any]:
    """A type's cast; ``Optional[X]`` decodes as ``X``, and a nested
    config through its ``from_jsonable``."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    hint = args[0] if args else hint
    return getattr(hint, "from_jsonable", hint)


class SpecReader:
    """The one token reader behind every fault family's ``from_spec``.

    Iterating yields the spec's stripped, non-empty comma items.  Every
    helper rejects with the single message shape ``bad <family> spec
    fragment '<token>': <why> (accepted grammar: <grammar>)``, naming the
    item being read, so a CLI typo comes back with the fix attached.
    """

    def __init__(self, family: str, grammar: str, spec: str) -> None:
        self.family = family
        self.grammar = grammar
        self.spec = spec
        self.token = spec

    def __iter__(self):
        for item in self.spec.split(","):
            item = item.strip()
            if item:
                self.token = item
                yield item

    def reject(self, why: str, token: Optional[str] = None) -> ValueError:
        """The rejection for the current item (or an explicit ``token``)."""
        return ValueError(
            f"bad {self.family} spec fragment "
            f"{self.token if token is None else token!r}: {why} "
            f"(accepted grammar: {self.grammar})"
        )

    def key_values(
        self, keys: Dict[str, str], *, seps: str = "=", noun: str = "key",
        value: str = "value", integers: Iterable[str] = (),
        normalize: Callable[[str], str] = str.strip,
    ) -> Dict[str, Any]:
        """The spec's ``<key><sep><value>`` items as ``{key: number}``.

        ``keys`` maps each accepted spelling (after ``normalize``) to its
        canonical key; values are floats, or ints for keys in
        ``integers``.  The first of ``seps`` in an item splits it; the
        rejections name ``noun`` and ``value`` ("needs mode:rate").
        """
        values: Dict[str, Any] = {}
        for item in self:
            sep = next((s for s in seps if s in item), seps[-1])
            key, found, raw = item.partition(sep)
            key = normalize(key)
            if not found:
                raise self.reject(f"needs {noun}{seps[0]}{value}")
            if key not in keys:
                raise self.reject(f"unknown {self.family} {noun} {key!r}")
            key = keys[key]
            if key in values:
                raise self.reject(f"{noun} {key!r} given more than once")
            parse = self.integer if key in integers else self.number
            values[key] = parse(raw.strip(), value)
        return values

    def integer(self, raw: str, what: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise self.reject(f"{what} {raw!r} is not an integer") from None

    def number(self, raw: str, what: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise self.reject(f"{what} {raw!r} is not a number") from None

    def at_least_one(self, raw: str, what: str) -> int:
        value = self.integer(raw, what)
        if value < 1:
            raise self.reject(f"{what} {value} is < 1")
        return value

    def round(self, raw: str) -> int:
        """An ``r<R>`` (or bare ``<R>``) round with ``R >= 1``."""
        raw = raw.strip()
        if raw.startswith("r"):
            raw = raw[1:]
        return self.at_least_one(raw, "round")

    def window(self, raw: str, label: str) -> Tuple[int, int]:
        """A closed, non-empty ``r<R1>-r<R2>`` round window."""
        start_raw, dash, end_raw = raw.partition("-")
        if not dash:
            raise self.reject("window needs the form r<R1>-r<R2>")
        start = self.round(start_raw)
        end = self.round(end_raw)
        if end < start:
            raise self.reject(f"{label} window {start}-{end} is empty")
        return start, end

    def edge(self, raw: str) -> Tuple[int, int]:
        """A ``<u>-<v>`` node pair."""
        u_raw, dash, v_raw = raw.partition("-")
        if not dash:
            raise self.reject("edge needs the form <u>-<v>")
        try:
            return int(u_raw), int(v_raw)
        except ValueError:
            raise self.reject(f"edge {raw!r} is not a node pair") from None

    @staticmethod
    def check_topology(topology, family: str, nodes, edges, verb: str) -> None:
        """Reject schedule events naming unknown nodes or nonexistent
        edges; ``edges`` holds ``(u, v, start, end, ...)`` entries."""
        known = set(topology.nodes())
        present = {frozenset(e) for e in topology.edges()}
        for node in nodes:
            if node not in known:
                raise ValueError(f"{family} schedule names unknown node {node}")
        for u, v, start, end, *_rest in edges:
            if frozenset((u, v)) not in present:
                raise ValueError(
                    f"{family} schedule {verb} nonexistent edge {u}-{v} "
                    f"(rounds {start}-{end})"
                )

"""Content-addressed result cache for work units: the one store that
serves a finished run instead of executing it.

Each completed :class:`repro.exec.scheduler.WorkUnit` is stored under a
canonical SHA-256 of everything that determines its result: the topology
(structure, root, and name), protocol and parameters, seed, and the
code-relevant execution config (schedule / injector / monitor specs,
fault-family configs, strictness, timeout).  Two invocations
that would compute the same record hash to the same entry, so re-running
a sweep or benchmark skips already-computed points; anything that could
change the record changes the hash.  That is also how an interrupted
sweep resumes: the engine stores each unit as it finishes, so a rerun
with the same cache directory executes only the units not yet stored.

Entries are one JSON file each, sharded by the first two hash characters
(``<root>/ab/abcdef....json``), holding the token (for paranoia-level
verification on read — a hash match with a token mismatch is treated as
a miss), the record, and a creation timestamp for ``gc --older-than``.
A record is stored in its JSON-canonical form (:func:`record_to_jsonable`,
tuples as lists, keys in the record's order), so serving a hit is
equivalent to re-running the unit; :data:`UNCACHED_ERRORS` rows re-run.

Crash safety: an entry is written to a unique temp file and atomically
renamed into place (``os.replace``), which also makes the store safe
under concurrent writers.  There is no ``fsync``: after a killed process
an entry is whole or absent, and after a power loss a torn or empty
entry fails the JSON parse or the token check, reads as a miss, and its
unit simply re-runs — a wrong record is never served.  Skipping the
sync keeps a cold batch from paying one disk flush per unit.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Any, Dict, Iterator, Optional, Tuple

from ..analysis.runner import RunRecord
from ..sim.specs import config_jsonable, listify
from .scheduler import WorkUnit

#: Bump when the execution semantics change in a way that invalidates
#: previously cached records.  v2: the token auto-enumerates every
#: :class:`WorkUnit` field (minus :data:`EXCLUDED_FIELDS`) instead of a
#: hand-maintained list — v1 silently omitted fields added after it was
#: written, so two units differing only in a new field (e.g. a corruption
#: spec) collided on one cache entry.
CACHE_VERSION = 2

#: WorkUnit fields that provably cannot affect the resulting record:
#: ``coords`` only labels telemetry.  Everything else is part of the
#: cache identity — including fields that don't exist yet.
EXCLUDED_FIELDS = frozenset({"coords"})

#: ``error_kind`` values of rows that say how the machine behaved, not
#: what the unit computes: a wall-clock overrun and a dead worker.
UNCACHED_ERRORS = frozenset({"RunTimeout", "WorkerCrashed"})

#: RunRecord fields stored in an entry, restored by name on read.
_RECORD_FIELDS = (
    "protocol",
    "topology",
    "n_nodes",
    "diameter",
    "f_budget",
    "f_actual",
    "result",
    "correct",
    "cc_bits",
    "rounds",
    "flooding_rounds",
    "extra",
    "error",
    "error_kind",
    "seed",
)


def record_to_jsonable(record: RunRecord) -> Dict[str, Any]:
    """A JSON-serializable dict that round-trips through
    :func:`record_from_jsonable`."""
    return {field: listify(getattr(record, field)) for field in _RECORD_FIELDS}


def record_from_jsonable(data: Dict[str, Any]) -> RunRecord:
    """Rebuild a :class:`RunRecord` saved by :func:`record_to_jsonable`."""
    kwargs = {field: data.get(field) for field in _RECORD_FIELDS}
    kwargs["extra"] = dict(kwargs.get("extra") or {})
    return RunRecord(**kwargs)


def _topology_token(topology) -> Dict[str, Any]:
    return {
        "name": topology.name,
        "root": topology.root,
        "adjacency": {
            str(u): list(vs) for u, vs in sorted(topology.adjacency.items())
        },
    }


def _field_token(name: str, value) -> Any:
    """One WorkUnit field's contribution to the cache token: configs,
    schedules and coordinators as their bundle JSON form."""
    if name == "topology":
        return _topology_token(value)
    if value is None or isinstance(
        value, (str, int, float, bool, dict, list, tuple)
    ):
        return value
    if hasattr(getattr(value, "config", value), "as_jsonable"):
        return config_jsonable(value)
    return repr(value)


def unit_cache_token(unit: WorkUnit) -> Dict[str, Any]:
    """The canonical jsonable identity of a unit's result.

    Every :class:`WorkUnit` dataclass field outside
    :data:`EXCLUDED_FIELDS` is enumerated automatically, so a field added
    to the unit can never be silently missing from the cache identity;
    the ``schema`` entry records which fields the token covers, so
    entries written before a field existed mismatch on read instead of
    serving a stale record.

    Round-tripped through JSON so non-string dict keys (e.g. an explicit
    schedule's node ids) canonicalize exactly as they will when an entry
    is read back — token equality is then a plain ``==``.
    """
    import dataclasses

    names = sorted(
        f.name
        for f in dataclasses.fields(WorkUnit)
        if f.name not in EXCLUDED_FIELDS
    )
    token: Dict[str, Any] = {
        "version": CACHE_VERSION,
        "schema": names,
    }
    for name in names:
        token[name] = _field_token(name, getattr(unit, name))
    return json.loads(json.dumps(token, sort_keys=True))


def unit_cache_hash(token: Dict[str, Any]) -> str:
    """SHA-256 (hex) of a :func:`unit_cache_token`: the entry's name."""
    blob = json.dumps(token, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of completed run records on disk."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    # ------------------------------------------------------------------ #
    # Get / put.
    # ------------------------------------------------------------------ #

    def get(self, unit: WorkUnit) -> Optional[RunRecord]:
        """The cached record for ``unit``, or None (corrupt entry = miss)."""
        token = unit_cache_token(unit)
        path = self._path(unit_cache_hash(token))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry.get("token") != token:
                self.misses += 1
                return None
            record = record_from_jsonable(entry["record"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, unit: WorkUnit, record: RunRecord) -> Optional[str]:
        """Store one completed record; atomic against concurrent writers
        and whole-or-absent after a kill (see the module docstring).
        A row in :data:`UNCACHED_ERRORS` is not stored (returns None)."""
        if record.error_kind in UNCACHED_ERRORS:
            return None
        token = unit_cache_token(unit)
        digest = unit_cache_hash(token)
        path = self._path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "hash": digest,
            "saved_at": time.time(),
            "token": token,
            "record": record_to_jsonable(record),
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    # ------------------------------------------------------------------ #
    # Inspection and maintenance (the `repro-agg cache` verb).
    # ------------------------------------------------------------------ #

    def _entries(self) -> Iterator[Tuple[str, os.stat_result]]:
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json") or name.startswith(".tmp-"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    yield path, os.stat(path)
                except OSError:
                    continue

    def stats(self) -> Dict[str, Any]:
        """Entry count, total bytes, age span, and per-protocol counts."""
        entries = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        by_protocol: Dict[str, int] = {}
        for path, stat in self._entries():
            entries += 1
            total_bytes += stat.st_size
            oldest = stat.st_mtime if oldest is None else min(oldest, stat.st_mtime)
            newest = stat.st_mtime if newest is None else max(newest, stat.st_mtime)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    protocol = json.load(fh)["token"]["protocol"]
            except (OSError, ValueError, KeyError, TypeError):
                protocol = "<corrupt>"
            by_protocol[protocol] = by_protocol.get(protocol, 0) + 1
        now = time.time()
        return {
            "root": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "oldest_age_s": round(now - oldest, 1) if oldest is not None else None,
            "newest_age_s": round(now - newest, 1) if newest is not None else None,
            "by_protocol": dict(sorted(by_protocol.items())),
        }

    def gc(self, older_than_s: float) -> int:
        """Delete entries older than ``older_than_s`` seconds; returns count."""
        cutoff = time.time() - older_than_s
        removed = 0
        for path, stat in list(self._entries()):
            if stat.st_mtime < cutoff:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    continue
        self._prune_empty_shards()
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path, _ in list(self._entries()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        self._prune_empty_shards()
        return removed

    def _prune_empty_shards(self) -> None:
        if not os.path.isdir(self.root):
            return
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if os.path.isdir(shard_dir) and not os.listdir(shard_dir):
                try:
                    os.rmdir(shard_dir)
                except OSError:
                    pass


def parse_age(text: str) -> float:
    """Parse ``gc --older-than`` durations: ``90``/``90s``, ``15m``,
    ``12h``, ``7d``."""
    text = text.strip().lower()
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    factor = 1.0
    if text and text[-1] in units:
        factor = units[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"bad duration {text!r}: use e.g. 3600, 90s, 15m, 12h, 7d"
        ) from None
    if value < 0:
        raise ValueError("duration must be >= 0")
    return value * factor

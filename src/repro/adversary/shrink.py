"""ddmin-style minimization of repro bundles (fault-schedule shrinking).

A chaos-found failure usually drags along dozens of irrelevant events: the
recorded bundle (:mod:`repro.sim.recorder`) contains every scheduled crash
and every message-fault decision, most of which have nothing to do with
the violation.  :func:`shrink_bundle` searches the *combined* space of

* declared oblivious crashes (``bundle.schedule`` entries),
* recorded drop/duplicate/delay decisions (``bundle.transmits``),
* recorded inbox reorders (``bundle.reorders``),
* recorded online (adaptive) crashes (``bundle.crashes``), and
* declared Byzantine behaviours (``bundle.params["byz"]["behaviors"]``
  entries — the deterministic schedule is re-run live on replay, so
  removing a behaviour removes that node's lies wholesale)

for a 1-minimal subset that still fails: removing any single remaining
event makes the failure disappear.  Candidates are evaluated by replaying
the modified bundle in best-effort mode (``strict=False`` — removing an
event legitimately changes downstream rounds) and comparing the resulting
:func:`failure_signature` against the original.

The algorithm is Zeller-Hildebrandt ddmin with an explicit evaluation and
wall-clock budget plus progress logging; afterwards the surviving events
are *re-recorded* (:func:`rerecord_bundle`) so the minimized bundle carries
fresh digests and an exact expected outcome, making it strict-replayable
and fit for the regression corpus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..sim.recorder import ExecutionRecord

#: One shrinkable event: ("schedule", node) | ("transmit", index) |
#: ("reorder", index) | ("crash", index) | ("byz", node).
Component = Tuple[str, Any]


def _byz_behaviors(bundle: ExecutionRecord) -> dict:
    """The bundle's Byzantine behaviour map (``{node_str: behaviour}``)."""
    return (bundle.params.get("byz") or {}).get("behaviors") or {}


def components_of(bundle: ExecutionRecord) -> List[Component]:
    """All shrinkable events of a bundle, in a stable order."""
    out: List[Component] = []
    out.extend(("schedule", node) for node in sorted(bundle.schedule))
    out.extend(("transmit", i) for i in range(len(bundle.transmits)))
    out.extend(("reorder", i) for i in range(len(bundle.reorders)))
    out.extend(("crash", i) for i in range(len(bundle.crashes)))
    out.extend(("byz", node) for node in sorted(_byz_behaviors(bundle)))
    return out


def restrict_bundle(
    bundle: ExecutionRecord, keep: Sequence[Component]
) -> ExecutionRecord:
    """A copy of ``bundle`` containing only the ``keep`` events.

    Removed transmit/reorder/crash decisions simply revert to passthrough
    during best-effort replay; removed schedule entries uncrash the node.
    The digests and expected outcome are dropped — a restricted bundle is
    a *probe*, not a recording (re-record it to get those back).
    """
    kept = set(keep)
    params = dict(bundle.params)
    if params.get("byz"):
        byz = dict(params["byz"])
        byz["behaviors"] = {
            node: behaviour
            for node, behaviour in _byz_behaviors(bundle).items()
            if ("byz", node) in kept
        }
        params["byz"] = byz
    return replace(
        bundle,
        params=params,
        schedule={
            node: rnd
            for node, rnd in bundle.schedule.items()
            if ("schedule", node) in kept
        },
        transmits=[
            t for i, t in enumerate(bundle.transmits) if ("transmit", i) in kept
        ],
        reorders=[
            r for i, r in enumerate(bundle.reorders) if ("reorder", i) in kept
        ],
        crashes=[
            c for i, c in enumerate(bundle.crashes) if ("crash", i) in kept
        ],
        digests={},
        expected={},
    )


def failure_signature(record) -> Optional[Tuple]:
    """The equivalence class a failure belongs to, or None for a clean run.

    * ``("error", kind)`` — the run raised and was captured;
    * ``("violation", rule, rule, ...)`` — recorded monitor violations
      (sorted rule names, deduplicated);
    * ``("silent-wrong",)`` — an output graded incorrect with no recorded
      violation (the zero-error property broke silently);
    * ``("no-output",)`` — no result where correctness demanded one.
    """
    if record.failed:
        return ("error", record.error_kind)
    violations = record.extra.get("violations") or ()
    if violations:
        rules = sorted({v.split("]")[0].lstrip("[").split("@")[0]
                        for v in violations})
        return ("violation", *rules)
    if not record.correct:
        if record.result is None:
            return ("no-output",)
        return ("silent-wrong",)
    return None


def signature_matches(expected: Optional[Tuple], got: Optional[Tuple]) -> bool:
    """Whether ``got`` reproduces the failure class ``expected``.

    Violation signatures match when the expected rules are a subset of the
    observed ones (a shrunk schedule may trip an extra monitor on the way
    to the same root cause); all other signatures must match exactly.
    """
    if expected is None or got is None:
        return expected == got
    if expected[0] == "violation" and got[0] == "violation":
        return set(expected[1:]) <= set(got[1:])
    return expected == got


@dataclass
class ShrinkResult:
    """Outcome of one :func:`shrink_bundle` call.

    ``minimal`` is guaranteed 1-minimal only when ``complete`` is True —
    a budget exhaustion returns the best reduction found so far.
    """

    minimal: ExecutionRecord
    original_size: int
    shrunk_size: int
    evaluations: int
    wall_seconds: float
    complete: bool
    kept: List[Component] = field(default_factory=list)

    @property
    def reduction(self) -> float:
        """Fraction of events removed (0.0 when nothing shrank)."""
        if self.original_size == 0:
            return 0.0
        return 1.0 - self.shrunk_size / self.original_size


class _Budget:
    """Shared evaluation/wall-clock budget for one shrink session."""

    def __init__(self, max_evals: Optional[int], max_seconds: Optional[float]):
        self.max_evals = max_evals
        self.max_seconds = max_seconds
        self.evals = 0
        self.started = time.monotonic()

    @property
    def exhausted(self) -> bool:
        if self.max_evals is not None and self.evals >= self.max_evals:
            return True
        if (
            self.max_seconds is not None
            and time.monotonic() - self.started >= self.max_seconds
        ):
            return True
        return False

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _chunks(items: List[Component], n: int) -> List[List[Component]]:
    """Split ``items`` into ``n`` contiguous, non-empty chunks."""
    n = min(n, len(items))
    size, extra = divmod(len(items), n)
    out, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def shrink_bundle(
    bundle: ExecutionRecord,
    predicate: Optional[Callable[[Any], bool]] = None,
    max_evals: int = 500,
    max_seconds: Optional[float] = 120.0,
    log: Optional[Callable[[str], None]] = None,
    rerecord: bool = True,
) -> ShrinkResult:
    """Minimize a failing bundle to a 1-minimal fault schedule.

    ``predicate(run_record) -> bool`` decides whether a probe still fails;
    the default compares :func:`failure_signature` against the bundle's
    recorded failure (derived from its ``expected`` block via one baseline
    replay).  ``max_evals`` / ``max_seconds`` bound the search; ``log``
    (e.g. ``print``) receives one progress line per reduction.

    Returns a :class:`ShrinkResult` whose ``minimal`` bundle — re-recorded
    by default so it is strict-replayable — still fails, and from which no
    single event can be removed without losing the failure (when
    ``complete``).

    Raises ``ValueError`` if the unmodified bundle does not fail its own
    predicate (nothing to shrink — likely a flaky or mis-captured run).
    """
    # Imported lazily: analysis imports sim/adversary at package load.
    from ..sim.replay import replay_bundle

    log = log or (lambda _msg: None)
    budget = _Budget(max_evals, max_seconds)

    def probe(keep: List[Component]):
        budget.evals += 1
        return replay_bundle(
            restrict_bundle(bundle, keep), strict=False, check_outcome=False
        ).record

    if predicate is None:
        baseline = probe(components_of(bundle))
        target = failure_signature(baseline)
        if target is None:
            raise ValueError(
                "bundle does not fail when replayed: nothing to shrink "
                "(expected outcome: "
                f"{bundle.expected.get('error_kind') or 'incorrect result'})"
            )

        def predicate(record) -> bool:
            return signature_matches(target, failure_signature(record))

        log(f"shrink: target failure signature {target}")

    components = components_of(bundle)
    original_size = len(components)
    if not predicate(probe(components)):
        raise ValueError(
            "bundle does not satisfy the failure predicate when replayed "
            "unmodified; refusing to shrink a non-reproducing bundle"
        )

    current = list(components)
    n = 2
    complete = True
    while len(current) >= 2:
        if budget.exhausted:
            complete = False
            log(
                f"shrink: budget exhausted after {budget.evals} evaluations "
                f"({budget.elapsed:.1f}s) with {len(current)} events left"
            )
            break
        chunks = _chunks(current, n)
        reduced = False
        for chunk in chunks:
            if budget.exhausted:
                break
            if len(chunk) == len(current):
                continue
            if predicate(probe(chunk)):
                log(
                    f"shrink: {len(current)} -> {len(chunk)} events "
                    f"(subset, eval {budget.evals})"
                )
                current, n, reduced = list(chunk), 2, True
                break
        if reduced:
            continue
        for i in range(len(chunks)):
            if budget.exhausted:
                break
            complement = [
                comp for j, chunk in enumerate(chunks) if j != i
                for comp in chunk
            ]
            if complement and len(complement) < len(current) and predicate(
                probe(complement)
            ):
                log(
                    f"shrink: {len(current)} -> {len(complement)} events "
                    f"(complement, eval {budget.evals})"
                )
                current, n, reduced = complement, max(n - 1, 2), True
                break
        if reduced:
            continue
        if n >= len(current):
            break
        n = min(n * 2, len(current))

    minimal = restrict_bundle(bundle, current)
    if rerecord:
        minimal = rerecord_bundle(minimal)
    log(
        f"shrink: done — {original_size} -> {len(current)} events in "
        f"{budget.evals} evaluations ({budget.elapsed:.1f}s)"
    )
    return ShrinkResult(
        minimal=minimal,
        original_size=original_size,
        shrunk_size=len(current),
        evaluations=budget.evals,
        wall_seconds=budget.elapsed,
        complete=complete,
        kept=list(current),
    )


def rerecord_bundle(bundle: ExecutionRecord) -> ExecutionRecord:
    """Re-execute a (possibly restricted) bundle and record it afresh.

    The surviving fault decisions are applied best-effort through a
    :class:`repro.sim.replay.ReplayInjector`, and a fresh
    :class:`repro.sim.recorder.RecordingInjector` around it captures new
    digests, re-keyed decisions, and the actual outcome — producing a
    bundle that replays strictly (bit-identical) on its own.  The run goes
    through :func:`repro.sim.replay.rerun_bundle`, the same configuration
    and monitor stack strict replay uses.
    """
    from ..sim.recorder import RecordingInjector, make_execution_record
    from ..sim.replay import ReplayInjector, bundle_rng, rerun_bundle

    replayer = ReplayInjector(bundle, strict=False)
    recorder = RecordingInjector([replayer])
    record = rerun_bundle(bundle, replayer, recorder)
    return make_execution_record(
        recorder,
        bundle.protocol,
        bundle.build_topology(),
        bundle.build_inputs(),
        bundle.build_schedule(),
        dict(bundle.params),
        run_record=record,
        seed=bundle.seed,
        rng_state=bundle_rng(bundle).getstate(),
        strict_model=bundle.strict_model,
        monitor_mode=bundle.monitor_mode,
    )

"""Wire format of AGG and VERI: part constructors with exact bit sizes.

Every constructor returns a :class:`repro.sim.message.Part`.  Sizes follow
the paper's accounting: node ids are ``logN`` bits, level fields fit
``c * d``, partial aggregates fit the CAAF's domain, and each part pays a
small tag plus the sender-id overhead the paper attaches to every message.

Flood parts are de-duplicated by ``(kind, payload)``; the payload therefore
contains exactly the fields the paper treats as the flood's *content*.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..sim.message import TAG_BITS, Part
from .params import ProtocolParams

# --------------------------------------------------------------------- #
# AGG parts (Algorithm 2).
# --------------------------------------------------------------------- #

#: Flood kinds of AGG: forwarded content-deduplicated messages.
AGG_FLOOD_KINDS = frozenset(
    {"critical_failure", "flooded_psum", "determination", "agg_abort"}
)

#: Labels used in determination floods.  ``KEEP`` is the paper's
#: "compulsory||optional" label; DOMINATED psums are excluded by the root.
DOMINATED = "dominated"
KEEP = "compulsory||optional"


def _overhead(p: ProtocolParams) -> int:
    """Tag plus the implicit sender id the paper attaches to messages."""
    return TAG_BITS + p.id_bits


def tree_construct(p: ProtocolParams, level: int, ancestors: Tuple) -> Part:
    """Tree-construction beacon: sender's level and its nearest ``2t`` ancestors."""
    bits = _overhead(p) + p.level_bits + 2 * p.t * p.id_bits
    return Part("tree_construct", (level, ancestors), bits)


def ack(p: ProtocolParams, parent: int) -> Part:
    """Child-to-parent acknowledgement naming the parent."""
    return Part("ack", (parent,), _overhead(p) + p.id_bits)


def aggregation(p: ProtocolParams, psum: int, max_level: int) -> Part:
    """Upstream partial aggregate plus the deepest level seen in the subtree."""
    bits = _overhead(p) + p.psum_bits + p.level_bits
    return Part("aggregation", (psum, max_level), bits)


def critical_failure(p: ProtocolParams, failed: int) -> Part:
    """Flooded claim that ``failed`` experienced a critical failure."""
    return Part("critical_failure", (failed,), _overhead(p) + p.id_bits)


def flooded_psum(p: ProtocolParams, source: int, psum: int) -> Part:
    """Flooded partial aggregate of ``source`` (speculative flooding phase)."""
    bits = _overhead(p) + p.id_bits + p.psum_bits
    return Part("flooded_psum", (source, psum), bits)


def determination(p: ProtocolParams, label: str, source: int) -> Part:
    """Witness determination about ``source``'s flooded partial aggregate."""
    if label not in (DOMINATED, KEEP):
        raise ValueError(f"unknown determination label {label!r}")
    return Part("determination", (label, source), _overhead(p) + p.id_bits + 1)


def agg_abort(p: ProtocolParams) -> Part:
    """The special symbol aborting AGG once a node exceeds its bit budget."""
    return Part("agg_abort", (), _overhead(p))


# --------------------------------------------------------------------- #
# VERI parts (Algorithm 3).
# --------------------------------------------------------------------- #

#: Flood kinds of VERI.
VERI_FLOOD_KINDS = frozenset(
    {
        "detect_failed_parent",
        "failed_parent",
        "detect_failed_child",
        "failed_child",
        "lfc_tail",
        "not_lfc_tail",
        "veri_overflow",
    }
)


def detect_failed_parent(p: ProtocolParams) -> Part:
    """The single bit the root floods to start failed-parent detection."""
    return Part("detect_failed_parent", (), _overhead(p) + 1)


def failed_parent(
    p: ProtocolParams, parent: int, depth_below: int, claimer: int
) -> Part:
    """Flooded claim that ``parent`` failed.

    ``depth_below`` is the paper's ``x = max_level - level + 1`` computed by
    the claiming child; ``claimer`` is the child (the paper attaches the
    sender id to every message, which keeps claims from distinct children
    distinct for flooding purposes).  Three id-sized fields — matching the
    ``3 logN`` factor in VERI's bit budget.
    """
    bits = _overhead(p) + 2 * p.id_bits + p.level_bits
    return Part("failed_parent", (parent, depth_below, claimer), bits)


def detect_failed_child(p: ProtocolParams, leaf: int) -> Part:
    """The upstream bit a leaf floods to start failed-child detection.

    The initiating leaf's id is the flood content, so distinct leaves'
    waves are not merged by de-duplication before reaching their parents.
    """
    return Part("detect_failed_child", (leaf,), _overhead(p) + p.id_bits)


def failed_child(p: ProtocolParams, child: int) -> Part:
    """Flooded claim that ``child`` failed (missed its upstream slot)."""
    return Part("failed_child", (child,), _overhead(p) + p.id_bits)


def lfc_tail(p: ProtocolParams, node: int) -> Part:
    """Witness determination: ``node`` is the tail of a long failure chain."""
    return Part("lfc_tail", (node,), _overhead(p) + p.id_bits)


def not_lfc_tail(p: ProtocolParams, node: int) -> Part:
    """Witness determination: ``node`` is *not* the tail of an LFC."""
    return Part("not_lfc_tail", (node,), _overhead(p) + p.id_bits)


def veri_overflow(p: ProtocolParams) -> Part:
    """The special symbol that makes VERI output false on budget overflow."""
    return Part("veri_overflow", (), _overhead(p))

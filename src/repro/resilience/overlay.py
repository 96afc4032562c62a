"""The one constructor of a run's network under its overlays.

Importing this module loads neither the reliable transport nor the
integrity layer: a plain run passes no overlay, and each layer is
imported only when its spec is given.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..sim.network import Network
from ..sim.node import NodeHandler

if TYPE_CHECKING:
    from ..integrity.frames import IntegrityCoordinator
    from .transport import ReliableTransport


def overlay_network(
    topology,
    handlers: Dict[int, NodeHandler],
    crash_rounds,
    *,
    transport=None,
    integrity=None,
    **network_kwargs,
) -> Tuple[
    Network, int, Optional[ReliableTransport], Optional[IntegrityCoordinator]
]:
    """Build a run's :class:`~repro.sim.network.Network` under its overlays.

    The one place handlers are wrapped: the reliable transport inside and
    the integrity layer outermost (what travels on the wire is always an
    authenticated frame, whatever is inside), with the overhead
    classifiers chained in the same order.  ``transport`` and
    ``integrity`` are coerced by
    :func:`repro.resilience.transport.as_transport` and
    :func:`repro.integrity.frames.as_integrity`, each imported only when
    its spec is not None.  Returns ``(network, window, transport,
    integrity)``; ``window`` is the physical rounds per logical round (1
    without a transport).
    """
    overhead_fn = None
    window = 1
    if transport is not None:
        from .transport import as_transport

        transport = as_transport(transport)
        handlers = transport.wrap(handlers, topology.adjacency)
        overhead_fn = transport.overhead_bits
        window = transport.window
    if integrity is not None:
        from ..integrity.frames import as_integrity

        integrity = as_integrity(integrity)  # mode "off" -> None
        if integrity is not None:
            handlers = integrity.wrap(handlers)
            overhead_fn = integrity.overhead_fn(overhead_fn)
    network = Network(
        topology.adjacency,
        handlers,
        crash_rounds,
        overhead_fn=overhead_fn,
        **network_kwargs,
    )
    return network, window, transport, integrity

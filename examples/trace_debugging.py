#!/usr/bin/env python
"""Watching AGG work: execution tracing of the speculative-flooding dance.

Puts a :class:`repro.sim.Tracer` in the injector list of an AGG run where
a node and its neighbourhood crash mid-aggregation (the paper's Figure 3
scenario), then uses the trace to answer the questions one asks while
studying the protocol:

* when did the crash happen, and who flooded a critical_failure claim?
* which nodes initiated speculative partial-sum floods, and when?
* what determinations did the witnesses issue?
* how many bits flowed per phase?

Run:  python examples/trace_debugging.py
"""

from repro.adversary import blocker_failures
from repro.analysis import format_table
from repro.core.agg import AggNode
from repro.core.params import params_for
from repro.graphs import grid_graph
from repro.sim import Network, Tracer


def main() -> None:
    topology = grid_graph(5, 5)
    t = 12
    cd = 2 * topology.diameter
    schedule = blocker_failures(
        topology, f=12, victim=12, at_round=2 * cd + 2
    )
    print(f"topology: {topology}")
    print(
        f"blocker adversary: nodes {sorted(schedule.failed_nodes)} crash at "
        f"round {min(schedule.crash_rounds.values())} "
        "(start of the aggregation phase)\n"
    )

    params = params_for(topology, t=t)
    inputs = {u: 1 for u in topology.nodes()}
    nodes = {u: AggNode(params, u, inputs[u]) for u in topology.nodes()}
    tracer = Tracer()
    network = Network(
        topology.adjacency, nodes, schedule.crash_rounds, injectors=[tracer]
    )
    network.run(params.agg_rounds, stop_on_output=False)
    root = nodes[topology.root]
    print(f"AGG result: {root.result} (25 nodes, {len(schedule)} crashed)\n")

    print("--- crash and critical-failure timeline ---")
    print(tracer.timeline(kinds={"critical_failure"}, limit=12))

    print("\n--- speculative partial-sum floods (initiations only) ---")
    initiators = [
        e
        for e in tracer.sends_of_kind("flooded_psum")
        if any(
            p.kind == "flooded_psum" and p.payload[0] == e.node for p in e.parts
        )
    ]
    rows = [
        {
            "round": e.round,
            "initiator": e.node,
            "its level": nodes[e.node].state.level,
            "psum flooded": next(
                p.payload[1]
                for p in e.parts
                if p.kind == "flooded_psum" and p.payload[0] == e.node
            ),
        }
        for e in initiators
    ]
    print(format_table(rows))

    print("\n--- witness determinations received by the root ---")
    det_rows = [
        {"label": label, "about node": source}
        for (label, source) in sorted(root.determinations)
    ]
    print(format_table(det_rows))

    print("\n--- traffic by message kind ---")
    hist = tracer.kind_histogram()
    print(
        format_table(
            [{"kind": k, "parts broadcast": v} for k, v in sorted(hist.items())]
        )
    )

    bits = tracer.bits_per_round()
    busiest = max(bits, key=bits.get)
    print(
        f"\nbusiest round: r{busiest} with {bits[busiest]} bits network-wide "
        f"(phases: construction <= r{2*params.cd+1}, aggregation <= "
        f"r{4*params.cd+2}, flooding <= r{6*params.cd+3}, selection after)"
    )


if __name__ == "__main__":
    main()

"""E16 — the topology max in the FT_0 definition.

``FT_0(SUM_N, f, b)`` is defined as the *maximum* over all connected
topologies of the best protocol's CC.  We cannot maximize over all graphs,
but we can sweep structurally extreme families — low-diameter expanders
(hypercube, torus), bottlenecks (cluster-line, lollipop), a sensor field
(geometric), and the grid — and report where Algorithm 1 pays the most.
Every row must stay correct and under the pair-budget ceiling; the spread
across families quantifies how much the topology (not just N, f, b)
matters at these scales.
"""

import math
import random

import pytest

from repro.analysis import format_table
from repro.analysis.sweep import random_schedule_spec, run_point
from repro.core.params import params_for
from repro.graphs import (
    cluster_line_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    random_geometric,
    torus_graph,
)

from _util import emit, once

F, B = 6, 84
SEEDS = range(3)


def topology_suite():
    return [
        grid_graph(6, 6),
        torus_graph(6, 6),
        hypercube_graph(5),
        cluster_line_graph(8, 4),
        lollipop_graph(16, 16),
        random_geometric(36, rng=random.Random(1)),
    ]


def run_topology_sweep():
    rows = []
    points = []
    for topo in topology_suite():
        point = run_point(
            "algorithm1",
            topo,
            SEEDS,
            schedule_spec=random_schedule_spec(F, horizon=B * topo.diameter),
            f=F,
            b=B,
            coords={"topology": topo.name},
        )
        points.append((topo, point))
        rows.append(
            {
                "topology": topo.name,
                "N": topo.n_nodes,
                "diameter": topo.diameter,
                "CC mean": round(point.cc_mean, 1),
                "CC max": point.cc_max,
                "TC mean (flooding rounds)": round(
                    point.flooding_rounds_mean, 1
                ),
                "correct": point.correct_rate,
            }
        )
    return points, rows


@pytest.mark.benchmark(group="topologies")
def test_topology_sweep(benchmark):
    points, rows = once(benchmark, run_topology_sweep)
    emit(
        "topology_sweep",
        format_table(
            rows,
            title=f"Algorithm 1 across topology families (f={F}, b={B})",
        ),
    )
    for topo, point in points:
        assert point.correct_rate == 1.0, topo.name
        # Per-node CC stays within min(x, f+1, logN) pair budgets.
        plan_x = (B - 4) // 38
        t = (2 * F) // plan_x
        params = params_for(topo, t=t)
        pair_cap = min(plan_x, F + 1, math.ceil(math.log2(topo.n_nodes)))
        ceiling = (
            params.agg_bit_budget + params.veri_bit_budget
        ) * pair_cap + 64
        assert point.cc_max <= ceiling, topo.name

"""One-shot Markdown experiment report.

``generate_report`` runs a compact version of every experiment in the
reproduction index (E1..E12) and renders a single Markdown document with
the measured tables — the programmatic counterpart of EXPERIMENTS.md,
suitable for CI artifacts or for re-checking the reproduction on a new
machine (``repro-agg report``).

Scale is deliberately small (one topology, few seeds) so the full report
finishes in tens of seconds; the benchmarks are the heavyweight versions.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Dict, List, Optional

from ..adversary import random_failures
from ..core.caaf import COUNT, MAX, SUM
from ..core.correctness import is_correct_result
from ..extensions.quantiles import distributed_select
from ..graphs import grid_graph
from ..lowerbound import (
    WrapPositionUnionSize,
    lemma11_bound,
    random_instance,
    sperner_rank,
    union_size,
    unionsize_lower_bound,
)
from .figure1 import figure1_data
from .runner import run_protocol
from .sweep import random_schedule_spec, run_point
from .tables import format_series, format_table


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def generate_report(
    side: int = 5,
    f: int = 6,
    seeds: int = 3,
    rng_seed: int = 0,
) -> str:
    """Run the compact experiment suite and return a Markdown report."""
    topo = grid_graph(side, side)
    seeds_range = range(seeds)
    sections: List[str] = [
        "# Reproduction report",
        "",
        f"Topology: `{topo.name}` (N={topo.n_nodes}, d={topo.diameter}); "
        f"f={f}; {seeds} seeds per point.",
        "",
    ]

    # E1: Figure 1 analytic curves.
    data = figure1_data(1024, 128, [42, 84, 168, 336])
    series = {
        k: [round(v, 1) for v in vs]
        for k, vs in data.curves.items()
        if k in ("upper_bound_new", "lower_bound_new", "gap_ratio", "polylog_ceiling")
    }
    sections.append(
        _section(
            "E1 — Figure 1 curves (N=1024, f=128)",
            format_series(data.bs, series, x_label="b"),
        )
    )

    # E4: Algorithm 1 CC vs b, measured.
    rows = []
    for b in (42, 84, 168):
        point = run_point(
            "algorithm1",
            topo,
            seeds_range,
            schedule_spec=random_schedule_spec(f, horizon=b * topo.diameter),
            f=f,
            b=b,
            coords={"b": b},
        )
        rows.append(
            {
                "b": b,
                "CC mean": round(point.cc_mean, 1),
                "correct": point.correct_rate,
            }
        )
    sections.append(
        _section("E4 — Algorithm 1 CC vs b (measured)", format_table(rows))
    )

    # E5: baselines at a glance.
    rows = []
    for name, kwargs in (
        ("bruteforce", {}),
        ("folklore", {"f": f}),
        ("tag", {}),
    ):
        point = run_point(
            name,
            topo,
            seeds_range,
            schedule_spec=random_schedule_spec(f, horizon=4 * topo.diameter),
            coords={"protocol": name},
            **kwargs,
        )
        rows.append(
            {
                "protocol": name,
                "CC mean": round(point.cc_mean, 1),
                "correct rate": point.correct_rate,
            }
        )
    sections.append(_section("E5 — baselines", format_table(rows)))

    # E9: CAAF generality.
    rng = random.Random(rng_seed)
    rows = []
    for caaf in (SUM, COUNT, MAX):
        schedule = random_failures(
            topo, f=f, rng=random.Random(rng_seed), first_round=1,
            last_round=42 * topo.diameter,
        )
        inputs = {u: rng.randint(0, 9) for u in topo.nodes()}
        rec = run_protocol(
            "algorithm1",
            topo,
            inputs,
            schedule=schedule,
            f=f,
            b=42,
            caaf=caaf,
            rng=random.Random(rng_seed + 1),
        )
        rows.append(
            {"CAAF": caaf.name, "result": rec.result, "correct": rec.correct}
        )
    sections.append(_section("E9 — CAAF generality", format_table(rows)))

    # E6/E7: two-party and Sperner spot checks.
    n_tp = 1024
    rows = []
    for q in (4, 16, 64):
        x, y = random_instance(n_tp, q, rng)
        answer, tr = WrapPositionUnionSize(q).run(x, y)
        assert answer == union_size(x, y)
        rows.append(
            {
                "q": q,
                "measured bits": tr.total_bits,
                "LB n/q - logn": round(unionsize_lower_bound(n_tp, q)),
                "rank(M(q)) == q-1": sperner_rank(q) == q - 1,
                "Lemma11(n,q)": round(lemma11_bound(n_tp, q), 1),
            }
        )
    sections.append(
        _section(f"E6/E7 — two-party + Sperner (n={n_tp})", format_table(rows))
    )

    # E11: selection spot check.
    inputs = {u: rng.randint(0, 30) for u in topo.nodes()}
    k = topo.n_nodes // 2
    sel = distributed_select(topo, inputs, k=k, f=1, b=45, rng=rng)
    sections.append(
        _section(
            "E11 — selection via COUNT",
            format_table(
                [
                    {
                        "k": k,
                        "selected": sel.value,
                        "truth": sorted(inputs.values())[k - 1],
                        "probes": sel.probe_count,
                    }
                ]
            ),
        )
    )

    sections.append(
        "See EXPERIMENTS.md for the full paper-vs-measured record and\n"
        "`pytest benchmarks/ --benchmark-only` for the complete harness.\n"
    )
    return "\n".join(sections)

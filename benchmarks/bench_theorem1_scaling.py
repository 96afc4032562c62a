"""E4 — Theorem 1: Algorithm 1's CC shape ``O(f/b log^2 N + log^2 N)``.

Three measured sweeps:

* CC vs ``b`` at fixed ``(N, f)`` — expect hyperbolic decay to a floor;
* CC vs ``f`` at fixed ``(N, b)`` — expect growth toward the small-``x``
  regime;
* CC vs ``N`` at fixed ``(f, b)`` — expect polylog growth (CC/log^2 N
  roughly flat).

Absolute constants are implementation-specific; the assertions check the
paper's *shape*: monotonicity and the predicted normalization flattening.
"""

import math
import random

import pytest

from repro.analysis import format_table, sweep_b, sweep_f
from repro.analysis.fitting import fit_theorem1_b_sweep
from repro.analysis.sweep import random_schedule_spec, run_point
from repro.graphs import grid_graph

from _util import emit, once

SEEDS = range(3)


def run_b_sweep():
    topo = grid_graph(6, 6)
    f = 10
    bs = [42, 84, 168, 336, 672]
    points = sweep_b(topo, f=f, bs=bs, seeds=SEEDS)
    rows = [
        {
            "b": p.coords["b"],
            "CC mean": round(p.cc_mean, 1),
            "CC * b (const if f/b dominates)": round(p.cc_mean * p.coords["b"], 0),
            "TC used": round(p.flooding_rounds_mean, 1),
            "correct": p.correct_rate,
        }
        for p in points
    ]
    return topo, f, points, rows


def run_f_sweep():
    topo = grid_graph(6, 6)
    b = 168
    fs = [1, 4, 8, 16, 24]
    points = sweep_f(topo, fs=fs, b=b, seeds=SEEDS)
    rows = [
        {
            "f": p.coords["f"],
            "CC mean": round(p.cc_mean, 1),
            "correct": p.correct_rate,
        }
        for p in points
    ]
    return topo, b, points, rows


def run_n_sweep():
    b, f = 84, 6
    points = []
    for side in (4, 6, 8, 10, 14, 20):
        topo = grid_graph(side, side)
        points.append(
            run_point(
                "algorithm1",
                topo,
                SEEDS,
                schedule_spec=random_schedule_spec(
                    f, horizon=b * topo.diameter
                ),
                f=f,
                b=b,
                coords={"n": topo.n_nodes},
            )
        )
    rows = [
        {
            "N": p.coords["n"],
            "CC mean": round(p.cc_mean, 1),
            "CC / log^2 N": round(
                p.cc_mean / (math.log2(p.coords["n"]) ** 2), 2
            ),
            "correct": p.correct_rate,
        }
        for p in points
    ]
    return points, rows


@pytest.mark.benchmark(group="theorem1")
def test_cc_vs_b(benchmark):
    topo, f, points, rows = once(benchmark, run_b_sweep)
    bs = [p.coords["b"] for p in points]
    ccs = [p.cc_mean for p in points]
    fit = fit_theorem1_b_sweep(bs, ccs, n=topo.n_nodes, f=f)
    table = format_table(rows, title=f"Theorem 1: CC vs b on {topo.name}, f={f}")
    emit(
        "theorem1_cc_vs_b",
        table + f"\nmodel fit: {fit.predict_label()}",
    )
    assert ccs[0] > ccs[-1]  # decay
    assert all(p.correct_rate == 1.0 for p in points)
    # Theorem 1's two-term form explains the measured sweep well.
    assert fit.r_squared > 0.9


@pytest.mark.benchmark(group="theorem1")
def test_cc_vs_f(benchmark):
    topo, b, points, rows = once(benchmark, run_f_sweep)
    emit(
        "theorem1_cc_vs_f",
        format_table(rows, title=f"Theorem 1: CC vs f on {topo.name}, b={b}"),
    )
    ccs = [p.cc_mean for p in points]
    assert ccs[-1] > ccs[0]  # growth in f
    assert all(p.correct_rate == 1.0 for p in points)


@pytest.mark.benchmark(group="theorem1")
def test_cc_vs_n(benchmark):
    points, rows = once(benchmark, run_n_sweep)
    emit(
        "theorem1_cc_vs_n",
        format_table(rows, title="Theorem 1: CC vs N at f=6, b=84"),
    )
    # Polylog scaling: CC normalized by log^2 N stays within a small band
    # while N grows 6x.
    normalized = [row["CC / log^2 N"] for row in rows]
    assert max(normalized) / min(normalized) < 3.0
    assert all(p.correct_rate == 1.0 for p in points)

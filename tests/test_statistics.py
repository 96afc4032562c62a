"""Summary statistics used by the benchmark harness."""

import random

import pytest

from repro.analysis.statistics import (
    Summary,
    summarize,
)


class TestSummarize:
    def test_single_sample(self):
        s = summarize([7.0])
        assert s.n == 1
        assert s.mean == 7.0
        assert s.stderr == 0.0
        assert s.ci_low == s.ci_high == 7.0

    def test_known_values(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        assert s.ci_low < 2.0 < s.ci_high

    def test_ci_shrinks_with_more_samples(self):
        rng = random.Random(0)
        small = summarize([rng.gauss(10, 2) for _ in range(5)])
        big = summarize([random.Random(1).gauss(10, 2) for _ in range(100)])
        assert (big.ci_high - big.ci_low) < (small.ci_high - small.ci_low)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_rendering(self):
        assert "±" in str(summarize([1.0, 2.0]))


class TestOverlap:
    def test_disjoint_intervals(self):
        a = Summary(10, 1.0, 0.1, 0.03, 0.94, 1.06)
        b = Summary(10, 2.0, 0.1, 0.03, 1.94, 2.06)
        assert not a.overlaps(b)
        assert not b.overlaps(a)

    def test_overlapping_intervals(self):
        a = Summary(10, 1.0, 1.0, 0.3, 0.4, 1.6)
        b = Summary(10, 1.5, 1.0, 0.3, 0.9, 2.1)
        assert a.overlaps(b)


class TestStrictRunner:
    def test_strict_run_rejects_bad_config(self):
        from repro.adversary import FailureSchedule
        from repro.analysis import run_protocol
        from repro.graphs import grid_graph

        topo = grid_graph(4, 4)
        schedule = FailureSchedule({0: 1})
        with pytest.raises(ValueError, match="root-safe"):
            run_protocol(
                "bruteforce",
                topo,
                {u: 1 for u in topo.nodes()},
                schedule=schedule,
                strict=True,
            )

    def test_strict_run_accepts_clean_config(self):
        from repro.analysis import run_protocol
        from repro.graphs import grid_graph

        topo = grid_graph(4, 4)
        rec = run_protocol(
            "bruteforce", topo, {u: 1 for u in topo.nodes()}, strict=True
        )
        assert rec.correct

"""The Section 2 result-correctness oracle."""

import pytest

from repro.adversary import FailureSchedule
from repro.core.caaf import MAX, MIN, SUM, XOR, bounded_min
from repro.core.correctness import (
    achievable_results_exhaustive,
    correctness_interval,
    exact_aggregate,
    is_correct_result,
    surviving_nodes,
)
from repro.graphs import path_graph, star_graph


class TestSurvivors:
    def test_no_failures_everyone_survives(self):
        topo = path_graph(5)
        assert surviving_nodes(topo, FailureSchedule(), 100) == set(range(5))

    def test_crashed_nodes_excluded(self):
        topo = path_graph(5)
        s = FailureSchedule({4: 10})
        assert surviving_nodes(topo, s, 10) == {0, 1, 2, 3}

    def test_crash_after_end_does_not_count(self):
        topo = path_graph(5)
        s = FailureSchedule({4: 50})
        assert surviving_nodes(topo, s, 10) == set(range(5))

    def test_partitioned_nodes_count_as_failed(self):
        # The model: disconnected-from-root == failed.
        topo = path_graph(5)
        s = FailureSchedule({2: 5})
        assert surviving_nodes(topo, s, 10) == {0, 1}


class TestInterval:
    def test_sum_interval(self):
        inputs = {0: 1, 1: 2, 2: 3}
        assert correctness_interval(SUM, inputs, {0, 1}) == (3, 6)

    def test_max_interval(self):
        inputs = {0: 1, 1: 9, 2: 3}
        assert correctness_interval(MAX, inputs, {0, 2}) == (3, 9)

    def test_min_interval_order_agnostic(self):
        caaf = bounded_min(100)
        inputs = {0: 5, 1: 2}
        lo, hi = correctness_interval(caaf, inputs, {0})
        assert (lo, hi) == (2, 5)

    def test_interval_degenerate_when_all_survive(self):
        inputs = {0: 1, 1: 2}
        assert correctness_interval(SUM, inputs, {0, 1}) == (3, 3)


class TestExhaustive:
    def test_enumerates_all_subsets(self):
        inputs = {0: 1, 1: 2, 2: 4}
        results = achievable_results_exhaustive(SUM, inputs, survivors={0})
        assert results == {1, 3, 5, 7}

    def test_non_monotone_xor(self):
        inputs = {0: 1, 1: 1, 2: 1}
        results = achievable_results_exhaustive(XOR, inputs, survivors={0})
        assert results == {0, 1}

    def test_caps_optional_count(self):
        inputs = {u: 1 for u in range(30)}
        with pytest.raises(ValueError, match="exhaustive"):
            achievable_results_exhaustive(SUM, inputs, survivors=set())


class TestIsCorrect:
    def _setup(self):
        topo = path_graph(4)
        inputs = {0: 10, 1: 20, 2: 30, 3: 40}
        schedule = FailureSchedule({3: 5})
        return topo, inputs, schedule

    def test_none_is_never_correct(self):
        topo, inputs, schedule = self._setup()
        assert not is_correct_result(None, SUM, topo, inputs, schedule, 10)

    def test_interval_endpoints_correct(self):
        topo, inputs, schedule = self._setup()
        assert is_correct_result(60, SUM, topo, inputs, schedule, 10)
        assert is_correct_result(100, SUM, topo, inputs, schedule, 10)

    def test_inside_but_unachievable_sum_fails_exhaustive_check(self):
        # Footnote 6's strict definition: 75 is inside [60, 100] but equals
        # no subset aggregate.
        topo, inputs, schedule = self._setup()
        assert is_correct_result(75, SUM, topo, inputs, schedule, 10)
        assert not is_correct_result(
            75, SUM, topo, inputs, schedule, 10, exhaustive=True
        )

    def test_outside_interval_incorrect(self):
        topo, inputs, schedule = self._setup()
        assert not is_correct_result(59, SUM, topo, inputs, schedule, 10)
        assert not is_correct_result(101, SUM, topo, inputs, schedule, 10)

    def test_non_monotone_uses_exhaustive_automatically(self):
        topo = path_graph(3)
        inputs = {0: 1, 1: 1, 2: 1}
        schedule = FailureSchedule({2: 2})
        # XOR of survivors {0,1} = 0; including node 2 gives 1.
        assert is_correct_result(0, XOR, topo, inputs, schedule, 10)
        assert is_correct_result(1, XOR, topo, inputs, schedule, 10)
        assert not is_correct_result(2, XOR, topo, inputs, schedule, 10)

    def test_exact_helpers(self):
        inputs = {0: 3, 1: 4}
        assert exact_aggregate(SUM, inputs) == 7
        assert exact_aggregate(MAX, inputs) == 4

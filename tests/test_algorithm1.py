"""Algorithm 1: plan arithmetic, interval selection, and Theorem 1.

Also here: the plan contract :class:`repro.core.algorithm1.IntervalNode`
relies on, for both interval protocols (Algorithm 1 and unknown-``f``).
"""

import math
import random

import pytest

from repro.adversary import (
    FailureSchedule,
    concentrated_failures,
    random_failures,
    spread_failures,
)
from repro.core.algorithm1 import IntervalNode, TradeoffPlan, run_algorithm1
from repro.core.caaf import MAX, SUM
from repro.core.correctness import is_correct_result
from repro.core.params import params_for
from repro.core.unknown_f import DoublingPlan, run_unknown_f
from repro.graphs import cycle_graph, grid_graph, path_graph
from tests.conftest import indexed_inputs, unit_inputs


def make_plan(topo, b, f, c=2):
    return TradeoffPlan(params=params_for(topo, c=c), b=b, f=f)


class TestPlanArithmetic:
    def test_x_formula(self, grid44):
        plan = make_plan(grid44, b=100, f=10)
        assert plan.x == (100 - 4) // 38

    def test_t_formula(self, grid44):
        plan = make_plan(grid44, b=100, f=10)
        assert plan.t == (2 * 10) // plan.x

    def test_minimum_b_accepted(self, grid44):
        plan = make_plan(grid44, b=42, f=1)
        assert plan.x == 1

    def test_b_below_21c_rejected(self, grid44):
        with pytest.raises(ValueError, match="21c"):
            make_plan(grid44, b=41, f=1)

    def test_f_zero_rejected(self, grid44):
        with pytest.raises(ValueError, match="f >= 1"):
            make_plan(grid44, b=50, f=0)

    def test_intervals_fit_before_bruteforce(self, grid44):
        plan = make_plan(grid44, b=120, f=5)
        last_end = plan.interval_start(plan.x) + plan.interval_rounds - 1
        assert last_end <= plan.bruteforce_start - 1

    def test_interval_out_of_range_rejected(self, grid44):
        plan = make_plan(grid44, b=120, f=5)
        with pytest.raises(ValueError):
            plan.interval_start(plan.x + 1)

    def test_total_rounds_is_bd(self, grid44):
        plan = make_plan(grid44, b=120, f=5)
        assert plan.total_rounds == 120 * grid44.diameter

    def test_selection_draws_logN_values(self, grid44):
        plan = make_plan(grid44, b=800, f=5)
        selected = plan.select_intervals(random.Random(0))
        assert 1 <= len(selected) <= math.ceil(math.log2(16))
        assert selected == sorted(set(selected))
        assert all(1 <= i <= plan.x for i in selected)

    def test_selection_varies_with_coins(self, grid44):
        plan = make_plan(grid44, b=800, f=5)
        picks = {tuple(plan.select_intervals(random.Random(s))) for s in range(20)}
        assert len(picks) > 1


class TestFailureFreeRuns:
    def test_exact_sum(self, grid44):
        inputs = indexed_inputs(grid44)
        out = run_algorithm1(grid44, inputs, f=3, b=50, rng=random.Random(0))
        assert out.result == sum(inputs.values())
        assert not out.used_bruteforce

    def test_terminates_at_first_selected_interval(self, grid44):
        out = run_algorithm1(
            grid44, unit_inputs(grid44), f=3, b=200, rng=random.Random(1)
        )
        assert out.winning_interval == out.selected_intervals[0]
        assert out.pairs_run == 1

    def test_tc_within_budget(self, grid44):
        for b in (42, 90, 200):
            out = run_algorithm1(
                grid44, unit_inputs(grid44), f=2, b=b, rng=random.Random(2)
            )
            assert out.rounds <= b * grid44.diameter
            assert out.flooding_rounds <= b

    def test_works_on_path_and_cycle(self):
        for topo in (path_graph(8), cycle_graph(9)):
            inputs = indexed_inputs(topo)
            out = run_algorithm1(topo, inputs, f=2, b=45, rng=random.Random(3))
            assert out.result == sum(inputs.values()), topo.name

    def test_max_caaf_supported(self, grid44):
        inputs = {u: (u * 13) % 31 for u in grid44.nodes()}
        out = run_algorithm1(
            grid44, inputs, f=2, b=50, caaf=MAX, rng=random.Random(4)
        )
        assert out.result == max(inputs.values())


class TestAlwaysCorrect:
    """Theorem 1's correctness claim: the output is always correct."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_adversaries(self, seed):
        topo = grid_graph(5, 5)
        rng = random.Random(seed)
        f = 8
        b = 80
        schedule = random_failures(
            topo, f=f, rng=rng, first_round=1, last_round=b * topo.diameter
        )
        inputs = {u: rng.randint(0, 9) for u in topo.nodes()}
        out = run_algorithm1(
            topo, inputs, f=f, b=b, schedule=schedule, rng=random.Random(seed + 99)
        )
        assert is_correct_result(out.result, SUM, topo, inputs, schedule, out.rounds)

    @pytest.mark.parametrize("seed", range(5))
    def test_concentrated_adversaries(self, seed):
        # All failures inside one early interval: the random interval
        # selection must still find a clean interval or fall back.
        topo = grid_graph(5, 5)
        rng = random.Random(1000 + seed)
        b = 80
        plan_probe = make_plan(topo, b=b, f=10)
        window = (1, plan_probe.interval_rounds)
        schedule = concentrated_failures(topo, 10, rng, window=window)
        inputs = {u: rng.randint(0, 9) for u in topo.nodes()}
        out = run_algorithm1(
            topo, inputs, f=10, b=b, schedule=schedule, rng=random.Random(seed)
        )
        assert is_correct_result(out.result, SUM, topo, inputs, schedule, out.rounds)

    @pytest.mark.parametrize("seed", range(5))
    def test_spread_adversaries(self, seed):
        topo = grid_graph(5, 5)
        rng = random.Random(2000 + seed)
        b = 120
        schedule = spread_failures(topo, 8, rng, horizon=b * topo.diameter)
        inputs = {u: rng.randint(0, 9) for u in topo.nodes()}
        out = run_algorithm1(
            topo, inputs, f=8, b=b, schedule=schedule, rng=random.Random(seed)
        )
        assert is_correct_result(out.result, SUM, topo, inputs, schedule, out.rounds)


class TestCommunicationShape:
    def test_cc_decreases_with_b(self):
        # Theorem 1: CC ~ f/b log^2 N + log^2 N falls as b grows (until the
        # log^2 N floor).  Compare the extreme budgets.
        topo = grid_graph(5, 5)
        f = 10
        inputs = unit_inputs(topo)
        small_b = run_algorithm1(topo, inputs, f=f, b=42, rng=random.Random(0))
        large_b = run_algorithm1(topo, inputs, f=f, b=800, rng=random.Random(0))
        assert large_b.stats.max_bits < small_b.stats.max_bits

    def test_pairs_bounded_by_selection(self, grid55):
        out = run_algorithm1(
            grid55, unit_inputs(grid55), f=4, b=400, rng=random.Random(7)
        )
        assert out.pairs_run <= math.ceil(math.log2(grid55.n_nodes))

    def test_unselected_intervals_cost_nothing(self, grid44):
        # With a huge b, the first selected interval may be late; before it,
        # no node sends anything, so CC only reflects one pair.
        out = run_algorithm1(
            grid44, unit_inputs(grid44), f=1, b=500, rng=random.Random(3)
        )
        plan = out.plan
        pair_budget = (
            params_for(grid44, t=plan.t).agg_bit_budget
            + params_for(grid44, t=plan.t).veri_bit_budget
        )
        assert out.stats.max_bits <= pair_budget * out.pairs_run + 32


class TestBruteforceFallback:
    def test_fallback_produces_correct_result(self):
        # Force the fallback by concentrating failures into EVERY interval:
        # use f large and windows covering the whole horizon densely, plus a
        # deterministic rng seed whose selected intervals all contain
        # failures.  Simpler: make all AGG pairs fail by crashing many nodes
        # early, exceeding every interval's tolerance.
        topo = grid_graph(5, 5)
        b = 42  # x = 1, t = 2f
        f = 16
        rng = random.Random(5)
        schedule = concentrated_failures(
            topo, f, rng, window=(1, 7 * 2 * topo.diameter)
        )
        inputs = {u: 1 for u in topo.nodes()}
        out = run_algorithm1(
            topo, inputs, f=f, b=b, schedule=schedule, rng=random.Random(5)
        )
        assert is_correct_result(out.result, SUM, topo, inputs, schedule, out.rounds)

    def test_no_fallback_without_failures(self, grid44):
        out = run_algorithm1(
            grid44, unit_inputs(grid44), f=2, b=50, rng=random.Random(0)
        )
        assert not out.used_bruteforce


class TestIntervalContract:
    """What the shared interval handler needs from either plan."""

    @pytest.mark.parametrize("protocol", ["algorithm1", "unknown_f"])
    def test_plan_contract(self, protocol):
        topo = grid_graph(5, 5)
        accepted = 0
        for seed in range(4):
            rng = random.Random(seed)
            schedule = random_failures(
                topo, f=6, rng=rng, first_round=1, last_round=200
            )
            inputs = {u: rng.randint(0, 9) for u in topo.nodes()}
            if protocol == "algorithm1":
                out = run_algorithm1(
                    topo, inputs, f=6, b=100, schedule=schedule, rng=rng
                )
            else:
                out = run_unknown_f(topo, inputs, schedule=schedule)
            plan = out.plan
            assert plan.name == protocol
            # The last interval ends before the brute-force window, which
            # is exactly the last 2c flooding rounds.
            assert plan.n_intervals * plan.interval_rounds < plan.bruteforce_start
            assert plan.total_rounds - plan.bruteforce_start + 1 == 2 * plan.params.cd
            assert set(out.selected_intervals) <= set(range(1, plan.n_intervals + 1))
            assert is_correct_result(
                out.result, SUM, topo, inputs, schedule, out.rounds
            )
            if out.winning_interval is None:
                assert out.accepted_guess is None
                continue
            accepted += 1
            assert out.winning_interval in out.selected_intervals
            assert out.accepted_guess == plan.tolerance(out.winning_interval)
        assert accepted

    @pytest.mark.parametrize("protocol", ["algorithm1", "unknown_f"])
    def test_interval_params_shared_by_every_node(self, protocol):
        """Every node armed at an interval holds the plan's one params
        object for it, equal to ``params.with_t(tolerance)``."""
        topo = grid_graph(4, 4)
        params = params_for(topo)
        plan = (
            make_plan(topo, b=100, f=6)
            if protocol == "algorithm1"
            else DoublingPlan(params=params)
        )
        nodes = [
            IntervalNode(plan, u, 1, rng=random.Random(0))
            for u in topo.nodes()
        ]
        root = nodes[topo.root]
        for interval in root.selected:
            start = (interval - 1) * plan.interval_rounds + 1
            for node in nodes:
                node._maybe_arm(start)
            held = {id(node._agg.p) for node in nodes}
            assert held == {id(plan.interval_params(interval))}
            assert root._agg.p == params.with_t(plan.tolerance(interval))


class TestModelValidation:
    def test_schedule_over_budget_rejected(self, grid44):
        schedule = FailureSchedule({5: 1, 6: 1, 9: 1, 10: 1})
        with pytest.raises(ValueError, match="budget"):
            run_algorithm1(grid44, unit_inputs(grid44), f=1, b=50, schedule=schedule)

    def test_root_failure_rejected(self, grid44):
        schedule = FailureSchedule({0: 5})
        with pytest.raises(ValueError, match="root"):
            run_algorithm1(grid44, unit_inputs(grid44), f=5, b=50, schedule=schedule)

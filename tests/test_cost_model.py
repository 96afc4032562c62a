"""The analytic AGG/VERI cost model vs measured traffic."""

import pytest

from repro.adversary import FailureSchedule
from repro.analysis.cost_model import predict_agg_costs, predict_veri_costs
from repro.core.agg import AggNode
from repro.core.params import AGG_PHASES, ProtocolParams, params_for
from repro.graphs import grid_graph
from repro.sim import Network, SendTracer
from tests.conftest import within_paper_budget


def phase_breakdown_from_trace(tracer, p):
    """Measured network-wide bits per AGG phase of a standalone AGG run
    (start round 1), split at the phase boundaries."""
    keys = ("construction", "aggregation", "flooding", "selection")
    per_round = tracer.bits_per_round()
    return {
        name: sum(bits for rnd, bits in per_round.items() if lo <= rnd <= hi)
        for name, (lo, hi) in zip(keys, p.phase_spans(AGG_PHASES))
    }


def make_params(t=2):
    return params_for(grid_graph(4, 4), t=t)


class TestPredictions:
    def test_phases_present(self):
        costs = predict_agg_costs(make_params(), failures=0)
        assert set(costs.per_phase) == {
            "construction",
            "aggregation",
            "flooding",
            "selection",
        }
        assert costs.total == sum(costs.per_phase.values())

    def test_monotone_in_failures(self):
        p = make_params()
        totals = [predict_agg_costs(p, f).total for f in (0, 2, 5)]
        assert totals == sorted(totals)

    def test_monotone_in_t(self):
        totals = [
            predict_agg_costs(make_params(t), 0).total for t in (0, 3, 8)
        ]
        assert totals == sorted(totals)

    def test_veri_phases_present(self):
        costs = predict_veri_costs(make_params(), failures=1)
        assert set(costs.per_phase) == {
            "parent_detection",
            "child_detection",
            "lfc_detection",
        }

    def test_rejects_negative_failures(self):
        with pytest.raises(ValueError):
            predict_agg_costs(make_params(), -1)
        with pytest.raises(ValueError):
            predict_veri_costs(make_params(), -1)


class TestBudgetConsistency:
    @pytest.mark.parametrize("t", [0, 1, 2, 4, 8, 16])
    def test_tolerable_executions_fit_the_paper_budgets(self, t):
        # The paper's abort thresholds must dominate the white-box model at
        # failures <= t — otherwise AGG would abort on tolerable runs.
        p = params_for(grid_graph(5, 5), t=t)
        assert within_paper_budget(p, failures=t)

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_budget_consistency_across_n(self, n):
        p = ProtocolParams(n_nodes=n, root=0, diameter=6, c=2, t=4)
        assert within_paper_budget(p, failures=4)


class TestAgainstMeasurements:
    def _run_traced(self, schedule=None, t=2):
        topo = grid_graph(4, 4)
        params = params_for(topo, t=t)
        nodes = {u: AggNode(params, u, 1) for u in topo.nodes()}
        tracer = SendTracer()
        net = Network(
            topo.adjacency,
            nodes,
            (schedule or FailureSchedule()).crash_rounds,
            injectors=[tracer],
        )
        net.run(params.agg_rounds, stop_on_output=False)
        return topo, params, tracer, net

    def test_model_upper_bounds_measured_per_node_failure_free(self):
        topo, params, tracer, net = self._run_traced()
        predicted = predict_agg_costs(params, failures=0).total
        assert net.stats.max_bits <= predicted

    def test_model_upper_bounds_measured_with_failures(self):
        topo = grid_graph(4, 4)
        cd = 2 * topo.diameter
        schedule = FailureSchedule({5: 2 * cd + 2})
        failures = topo.edges_incident({5})
        _t, params, _tr, net = self._run_traced(schedule=schedule, t=failures)
        predicted = predict_agg_costs(params, failures=failures).total
        assert net.stats.max_bits <= predicted

    def test_phase_breakdown_sums_to_total(self):
        topo, params, tracer, net = self._run_traced()
        breakdown = phase_breakdown_from_trace(tracer, params)
        assert sum(breakdown.values()) == net.stats.total_bits

    def test_failure_free_flooding_phase_is_light(self):
        # Without failures only the root's single flood circulates; the
        # construction phase (with its 2t-ancestor beacons) dominates.
        topo, params, tracer, net = self._run_traced()
        breakdown = phase_breakdown_from_trace(tracer, params)
        assert breakdown["construction"] > breakdown["flooding"]

    def test_failures_shift_cost_into_flooding_phase(self):
        topo = grid_graph(4, 4)
        cd = 2 * topo.diameter
        schedule = FailureSchedule({5: 2 * cd + 2, 10: 2 * cd + 2})
        _t, params, tracer_fail, _n = self._run_traced(schedule=schedule, t=8)
        _t2, _p2, tracer_clean, _n2 = self._run_traced(t=8)
        fail_flood = phase_breakdown_from_trace(tracer_fail, params)["flooding"]
        clean_flood = phase_breakdown_from_trace(tracer_clean, params)["flooding"]
        assert fail_flood > clean_flood

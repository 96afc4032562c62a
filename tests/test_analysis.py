"""The analysis harness: runner, sweeps, tables, Figure 1 generation."""

import random

import pytest

from repro.adversary import FailureSchedule
from repro.analysis import (
    aggregate,
    figure1_data,
    figure1_measured,
    format_series,
    format_table,
    make_inputs,
    random_schedule_spec,
    run_point,
    run_protocol,
    sweep_b,
    sweep_f,
)
from repro.core.caaf import MAX
from repro.exec.scheduler import WorkUnit, build_schedule
from repro.graphs import grid_graph
from tests.conftest import unit_inputs


class TestRunner:
    def test_algorithm1_record(self, grid44):
        rec = run_protocol(
            "algorithm1",
            grid44,
            unit_inputs(grid44),
            f=2,
            b=50,
            rng=random.Random(0),
        )
        assert rec.protocol == "algorithm1"
        assert rec.correct
        assert rec.result == 16
        assert rec.cc_bits > 0
        assert rec.flooding_rounds <= 50
        assert "pairs_run" in rec.extra

    def test_bruteforce_record(self, grid44):
        rec = run_protocol("bruteforce", grid44, unit_inputs(grid44))
        assert rec.correct and rec.result == 16

    def test_folklore_requires_f(self, grid44):
        with pytest.raises(ValueError, match="needs f"):
            run_protocol("folklore", grid44, unit_inputs(grid44))

    def test_agg_veri_record(self, grid44):
        rec = run_protocol(
            "agg_veri", grid44, unit_inputs(grid44), t=2
        )
        assert rec.extra["accepted"]
        assert rec.correct

    def test_agg_veri_requires_t(self, grid44):
        with pytest.raises(ValueError, match="needs t"):
            run_protocol("agg_veri", grid44, unit_inputs(grid44))

    def test_unknown_protocol_rejected(self, grid44):
        with pytest.raises(ValueError, match="unknown protocol"):
            run_protocol("gossip", grid44, unit_inputs(grid44))

    def test_caaf_passthrough(self, grid44):
        inputs = {u: u for u in grid44.nodes()}
        rec = run_protocol("bruteforce", grid44, inputs, caaf=MAX)
        assert rec.result == 15

    def test_f_actual_recorded(self, grid44):
        schedule = FailureSchedule({5: 3})
        rec = run_protocol(
            "bruteforce", grid44, unit_inputs(grid44), schedule=schedule
        )
        assert rec.f_actual == grid44.edges_incident({5})

    def test_make_inputs_in_domain(self, grid44):
        inputs = make_inputs(grid44, random.Random(0), max_input=7)
        assert set(inputs) == set(grid44.nodes())
        assert all(0 <= v <= 7 for v in inputs.values())

    def test_record_as_dict_flattens_extra(self, grid44):
        rec = run_protocol(
            "algorithm1", grid44, unit_inputs(grid44), f=1, b=50,
            rng=random.Random(1),
        )
        row = rec.as_dict()
        assert "pairs_run" in row and "extra" not in row


class TestSweeps:
    def test_run_point_aggregates_seeds(self, grid44):
        pt = run_point(
            "bruteforce", grid44, seeds=range(3), coords={"case": "x"}
        )
        assert pt.runs == 3
        assert pt.correct_rate == 1.0
        assert pt.coords["case"] == "x"
        assert pt.cc_max >= pt.cc_mean

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate({}, [])

    def test_schedule_factory_budget(self, grid44):
        unit = WorkUnit(
            "algorithm1", grid44, 0, schedule=random_schedule_spec(4, horizon=50)
        )
        for seed in range(5):
            s = build_schedule(unit, grid44, random.Random(seed))
            assert s.edge_failures(grid44) <= 4

    def test_schedule_factory_zero_budget(self, grid44):
        unit = WorkUnit(
            "algorithm1", grid44, 0, schedule=random_schedule_spec(0, horizon=50)
        )
        assert len(build_schedule(unit, grid44, random.Random(0))) == 0

    def test_sweep_b_grid(self, grid44):
        points = sweep_b(grid44, f=2, bs=[42, 84], seeds=range(2))
        assert [p.coords["b"] for p in points] == [42, 84]
        assert all(p.correct_rate == 1.0 for p in points)

    def test_sweep_f_grid(self, grid44):
        points = sweep_f(grid44, fs=[1, 4], b=60, seeds=range(2))
        assert [p.coords["f"] for p in points] == [1, 4]
        assert all(p.correct_rate == 1.0 for p in points)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            [{"a": 1, "bb": "x"}, {"a": 22, "bb": "yy"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_series(self):
        text = format_series([1, 2], {"y": [10.0, 20.0]}, x_label="b")
        assert "b" in text and "y" in text
        assert "10.00" in text

    def test_float_formatting(self):
        text = format_table([{"v": 123456.7}])
        assert "123,457" in text


class TestFigure1:
    def test_analytic_curves_complete(self):
        data = figure1_data(256, 32, [42, 84, 168])
        assert set(data.curves) >= {
            "upper_bound_new",
            "lower_bound_new",
            "lower_bound_old",
            "bruteforce",
            "folklore",
            "gap_ratio",
            "polylog_ceiling",
        }
        assert all(len(v) == 3 for v in data.curves.values())

    def test_measured_overlay(self, grid44):
        measured = figure1_measured(grid44, f=2, bs=[42], seeds=range(2))
        assert len(measured.tradeoff) == 1
        assert measured.tradeoff[0].correct_rate == 1.0
        assert measured.bruteforce.cc_mean > 0
        assert measured.folklore.cc_mean > 0

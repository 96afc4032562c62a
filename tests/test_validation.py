"""Model-assumption validation diagnostics."""

import pytest

from repro.adversary import FailureSchedule
from repro.graphs import cycle_graph, grid_graph
from repro.sim.validation import Violation, assert_model, validate_model


class TestCleanConfigurations:
    def test_minimal_clean(self, grid44):
        assert validate_model(grid44) == []

    def test_full_clean(self, grid44):
        schedule = FailureSchedule({5: 10})
        inputs = {u: u for u in grid44.nodes()}
        violations = validate_model(
            grid44, inputs=inputs, schedule=schedule, f=4, b=50, c=2
        )
        assert violations == []

    def test_assert_model_silent_when_clean(self, grid44):
        assert_model(grid44, inputs={u: 1 for u in grid44.nodes()})


class TestViolations:
    def test_root_crash(self, grid44):
        violations = validate_model(grid44, schedule=FailureSchedule({0: 5}))
        assert any(v.rule == "root-safe" for v in violations)

    def test_unknown_nodes(self, grid44):
        violations = validate_model(grid44, schedule=FailureSchedule({99: 5}))
        assert any(v.rule == "known-nodes" for v in violations)

    def test_f_budget_overrun(self, grid44):
        schedule = FailureSchedule({5: 1, 6: 1, 9: 1})
        violations = validate_model(grid44, schedule=schedule, f=2)
        assert any(v.rule == "f-budget" for v in violations)

    def test_c_stretch(self):
        topo = cycle_graph(12)
        schedule = FailureSchedule({6: 2})
        violations = validate_model(topo, schedule=schedule, c=1)
        assert any(v.rule == "c-stretch" for v in violations)
        assert validate_model(topo, schedule=schedule, c=2) == []

    def test_missing_inputs(self, grid44):
        violations = validate_model(grid44, inputs={0: 1})
        assert any(v.rule == "input-domain" for v in violations)

    def test_negative_input(self, grid44):
        inputs = {u: 1 for u in grid44.nodes()}
        inputs[3] = -2
        violations = validate_model(grid44, inputs=inputs)
        assert any("negative" in v.message for v in violations)

    def test_superpolynomial_input(self, grid44):
        inputs = {u: 1 for u in grid44.nodes()}
        inputs[3] = 16**4  # N^4 > N^3 default bound
        violations = validate_model(grid44, inputs=inputs)
        assert any("polynomial" in v.message for v in violations)

    def test_b_too_small(self, grid44):
        violations = validate_model(grid44, b=41, c=2)
        assert any(v.rule == "b-feasible" for v in violations)

    def test_assert_model_raises_with_all_diagnostics(self, grid44):
        schedule = FailureSchedule({0: 1, 99: 1})
        with pytest.raises(ValueError) as err:
            assert_model(grid44, schedule=schedule, b=10)
        text = str(err.value)
        assert "root-safe" in text
        assert "known-nodes" in text
        assert "b-feasible" in text

    def test_violation_str(self):
        v = Violation("rule-x", "something broke")
        assert str(v) == "[rule-x] something broke"


class TestStrictRunner:
    def test_strict_run_rejects_bad_config(self):
        from repro.analysis import run_protocol

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

        topo = grid_graph(4, 4)
        rec = run_protocol(
            "bruteforce", topo, {u: 1 for u in topo.nodes()}, strict=True
        )
        assert rec.correct

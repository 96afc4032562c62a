"""Periodic aggregation over a shared failure timeline."""

import random

import pytest

from repro.adversary import FailureSchedule, random_failures
from repro.core.caaf import MAX
from repro.extensions.monitoring import drifting_inputs, run_monitoring
from repro.graphs import grid_graph


def constant_inputs(inputs):
    """Every epoch reads the same values."""
    return lambda _epoch: inputs


class TestBasics:
    def test_constant_inputs_failure_free(self, grid44):
        inputs = {u: 2 for u in grid44.nodes()}
        outcome = run_monitoring(
            grid44,
            constant_inputs(inputs),
            epochs=3,
            f=1,
            b=45,
            rng=random.Random(0),
        )
        assert outcome.results == [32, 32, 32]
        assert outcome.all_correct
        assert len(outcome.epochs) == 3

    def test_epoch_clocks_advance(self, grid44):
        outcome = run_monitoring(
            grid44,
            constant_inputs({u: 1 for u in grid44.nodes()}),
            epochs=2,
            f=1,
            b=45,
            rng=random.Random(1),
        )
        first, second = outcome.epochs
        assert second.start_round == first.rounds + 1
        assert outcome.total_rounds == first.rounds + second.rounds

    def test_drifting_inputs_change_results(self, grid44):
        base = {u: 10 for u in grid44.nodes()}
        fn = drifting_inputs(base, random.Random(2), jitter=3)
        outcome = run_monitoring(
            grid44, fn, epochs=3, f=1, b=45, rng=random.Random(3)
        )
        assert outcome.all_correct
        assert len(set(outcome.results)) > 1  # readings actually drift

    def test_bruteforce_substrate(self, grid44):
        outcome = run_monitoring(
            grid44,
            constant_inputs({u: 1 for u in grid44.nodes()}),
            epochs=2,
            f=2,
            protocol="bruteforce",
        )
        assert outcome.results == [16, 16]

    def test_max_caaf(self, grid44):
        inputs = {u: u for u in grid44.nodes()}
        outcome = run_monitoring(
            grid44,
            constant_inputs(inputs),
            epochs=2,
            f=1,
            b=45,
            caaf=MAX,
            rng=random.Random(4),
        )
        assert outcome.results == [15, 15]


class TestFailuresAcrossEpochs:
    def test_crashes_persist_between_epochs(self):
        topo = grid_graph(5, 5)
        inputs = {u: 1 for u in topo.nodes()}
        # One crash early in epoch 1; every later epoch sees it dead.
        schedule = FailureSchedule({24: 5})
        outcome = run_monitoring(
            topo,
            constant_inputs(inputs),
            epochs=3,
            f=4,
            b=45,
            schedule=schedule,
            rng=random.Random(5),
        )
        assert outcome.all_correct
        assert outcome.epochs[1].result == 24
        assert outcome.epochs[2].result == 24
        assert outcome.epochs[-1].survivors == 24

    @pytest.mark.parametrize("seed", range(4))
    def test_every_epoch_correct_under_random_failures(self, seed):
        topo = grid_graph(5, 5)
        rng = random.Random(seed)
        schedule = random_failures(
            topo, f=8, rng=rng, first_round=1, last_round=3 * 45 * topo.diameter
        )
        fn = drifting_inputs(
            {u: rng.randint(0, 9) for u in topo.nodes()}, rng
        )
        outcome = run_monitoring(
            topo,
            fn,
            epochs=3,
            f=8,
            b=45,
            schedule=schedule,
            rng=random.Random(seed + 50),
        )
        assert outcome.all_correct

    def test_survivor_count_monotonically_decreases(self):
        topo = grid_graph(5, 5)
        rng = random.Random(9)
        schedule = random_failures(
            topo, f=10, rng=rng, first_round=1, last_round=2000
        )
        outcome = run_monitoring(
            topo,
            constant_inputs({u: 1 for u in topo.nodes()}),
            epochs=4,
            f=10,
            b=45,
            schedule=schedule,
            rng=random.Random(10),
        )
        survivors = [e.survivors for e in outcome.epochs]
        assert survivors == sorted(survivors, reverse=True)


class TestValidation:
    def test_rejects_zero_epochs(self, grid44):
        with pytest.raises(ValueError):
            run_monitoring(
                grid44, constant_inputs({u: 1 for u in grid44.nodes()}),
                epochs=0, f=1, b=45,
            )

    def test_rejects_missing_budget(self, grid44):
        with pytest.raises(ValueError, match="budget"):
            run_monitoring(
                grid44, constant_inputs({u: 1 for u in grid44.nodes()}),
                epochs=1, f=1,
            )

    def test_rejects_unknown_protocol(self, grid44):
        with pytest.raises(ValueError, match="protocol"):
            run_monitoring(
                grid44, constant_inputs({u: 1 for u in grid44.nodes()}),
                epochs=1, f=1, b=45, protocol="gossip",
            )

    def test_rejects_over_budget_schedule(self, grid44):
        schedule = FailureSchedule({5: 1, 6: 1, 9: 1, 10: 1})
        with pytest.raises(ValueError, match="budget"):
            run_monitoring(
                grid44, constant_inputs({u: 1 for u in grid44.nodes()}),
                epochs=1, f=1, b=45, schedule=schedule,
            )

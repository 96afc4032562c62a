"""Additional hypothesis property tests across the substrate modules."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.schedule import FailureSchedule
from repro.analysis.cost_model import predict_agg_costs, within_paper_budget
from repro.core.caaf import COUNT, MAX, OR, SUM
from repro.core.correctness import (
    achievable_results_exhaustive,
    correctness_interval,
)
from repro.core.params import ProtocolParams
from repro.graphs import Topology, path_graph
from repro.lowerbound.timing_encoding import (
    beacons_needed,
    decode_by_timing,
    encode_by_timing,
)
from repro.sim.flooding import FloodManager
from repro.sim.message import Envelope, Part

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestFloodManagerProperties:
    @settings(**SETTINGS)
    @given(
        events=st.lists(
            st.tuples(
                st.booleans(),  # True = initiate, False = absorb
                st.integers(0, 5),  # content id
                st.integers(0, 9),  # sender
            ),
            max_size=40,
        )
    )
    def test_each_content_emitted_at_most_once(self, events):
        fm = FloodManager({"f"})
        emitted = []
        for initiate, content, sender in events:
            part = Part("f", (content,), 3)
            if initiate:
                fm.initiate(part)
            else:
                fm.absorb([Envelope(sender, (part,))])
            emitted.extend(fm.emit())
        keys = [p.content_key for p in emitted]
        assert len(keys) == len(set(keys))

    @settings(**SETTINGS)
    @given(
        contents=st.lists(st.integers(0, 10), min_size=1, max_size=30)
    )
    def test_everything_seen_is_known(self, contents):
        fm = FloodManager({"f"})
        for content in contents:
            fm.absorb([Envelope(0, (Part("f", (content,), 1),))])
        fm.emit()
        for content in set(contents):
            assert fm.has_seen("f", (content,))
        assert not fm.has_seen("f", (11,))  # contents are drawn from 0..10


class TestCorrectnessProperties:
    @settings(**SETTINGS)
    @given(
        values=st.lists(st.integers(0, 100), min_size=1, max_size=8),
        survivor_mask=st.lists(st.booleans(), min_size=1, max_size=8),
    )
    def test_interval_endpoints_are_achievable(self, values, survivor_mask):
        inputs = {i: v for i, v in enumerate(values)}
        survivors = {
            i for i, keep in enumerate(survivor_mask[: len(values)]) if keep
        }
        survivors &= set(inputs)
        lo, hi = correctness_interval(SUM, inputs, survivors)
        achievable = achievable_results_exhaustive(SUM, inputs, survivors)
        assert lo in achievable
        assert hi in achievable
        assert all(lo <= r <= hi for r in achievable)

    @settings(**SETTINGS)
    @given(
        values=st.lists(st.integers(0, 50), min_size=1, max_size=8),
        survivor_mask=st.lists(st.booleans(), min_size=1, max_size=8),
    )
    def test_monotone_caafs_have_endpoint_intervals(self, values, survivor_mask):
        inputs = {i: v for i, v in enumerate(values)}
        survivors = {
            i for i, keep in enumerate(survivor_mask[: len(values)]) if keep
        }
        survivors &= set(inputs)
        for caaf in (SUM, COUNT, MAX, OR):
            lo, hi = correctness_interval(caaf, inputs, survivors)
            achievable = achievable_results_exhaustive(caaf, inputs, survivors)
            assert min(achievable) == lo
            assert max(achievable) == hi


class TestScheduleProperties:
    @settings(**SETTINGS)
    @given(
        crashes=st.dictionaries(
            st.integers(1, 7), st.integers(1, 200), max_size=6
        ),
        split=st.integers(1, 199),
    )
    def test_window_partition_totals(self, crashes, split):
        topo = path_graph(8)
        schedule = FailureSchedule(crashes)
        first = schedule.edge_failures_in_window(topo, 1, split)
        second = schedule.edge_failures_in_window(topo, split + 1, 10**9)
        assert first + second == schedule.edge_failures(topo)

    @settings(**SETTINGS)
    @given(
        crashes=st.dictionaries(
            st.integers(1, 7), st.integers(1, 200), max_size=6
        )
    )
    def test_failed_by_is_monotone(self, crashes):
        schedule = FailureSchedule(crashes)
        prev = set()
        for rnd in range(0, 201, 20):
            current = schedule.failed_by(rnd)
            assert prev <= current
            prev = current


class TestTimingEncodingProperties:
    @settings(**SETTINGS)
    @given(
        k=st.integers(1, 48),
        b=st.integers(2, 2048),
        data=st.data(),
    )
    def test_round_trip_everywhere(self, k, b, data):
        value = data.draw(st.integers(0, (1 << k) - 1))
        rounds = encode_by_timing(value, k, b)
        assert decode_by_timing(rounds, k, b) == value
        assert len(rounds) == beacons_needed(k, b)
        # Beacon rounds are strictly increasing across windows.
        assert rounds == sorted(rounds)


class TestCostModelProperties:
    @settings(**SETTINGS)
    @given(
        n=st.integers(2, 4096),
        d=st.integers(1, 30),
        t=st.integers(0, 40),
    )
    def test_paper_budgets_dominate_model_at_tolerable_failures(self, n, d, t):
        params = ProtocolParams(n_nodes=n, root=0, diameter=d, c=2, t=t)
        assert within_paper_budget(params, failures=t)

    @settings(**SETTINGS)
    @given(
        n=st.integers(2, 1024),
        t=st.integers(0, 16),
        f1=st.integers(0, 10),
        f2=st.integers(0, 10),
    )
    def test_model_monotone_in_failures(self, n, t, f1, f2):
        params = ProtocolParams(n_nodes=n, root=0, diameter=4, c=2, t=t)
        lo, hi = sorted((f1, f2))
        assert (
            predict_agg_costs(params, lo).total
            <= predict_agg_costs(params, hi).total
        )

"""Shared fixtures for the test suite."""

import json
import os
import random

import pytest

try:
    from hypothesis import HealthCheck, settings

    # Pinned profiles so property tests behave identically across runs and
    # machines.  CI selects "ci" via HYPOTHESIS_PROFILE: derandomized (the
    # same examples every run — no flaky-only-on-main surprises) with a
    # bounded example budget and no deadline (shared runners are slow).
    settings.register_profile(
        "ci",
        derandomize=True,
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", max_examples=50, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # property tests simply skip without hypothesis
    pass

from repro.graphs import (
    balanced_tree,
    caterpillar_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.analysis.cost_model import predict_agg_costs, predict_veri_costs
from repro.exec.scheduler import execute_unit
from repro.sim.node import NodeHandler


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def grid44():
    return grid_graph(4, 4)


@pytest.fixture
def grid55():
    return grid_graph(5, 5)


@pytest.fixture
def path8():
    return path_graph(8)


@pytest.fixture
def star10():
    return star_graph(10)


@pytest.fixture
def tree15():
    return balanced_tree(2, 15)


@pytest.fixture
def small_topologies():
    return [
        path_graph(6),
        cycle_graph(8),
        star_graph(9),
        grid_graph(3, 4),
        balanced_tree(3, 13),
        caterpillar_graph(5, 2),
    ]


def unit_inputs(topology):
    """Every node holds 1 — SUM equals the number of contributing nodes."""
    return {u: 1 for u in topology.nodes()}


def indexed_inputs(topology):
    """Node u holds u + 1 — distinct contributions for double-count checks."""
    return {u: u + 1 for u in topology.nodes()}


class RelayNode(NodeHandler):
    """Re-broadcasts every distinct part it receives, once.

    The simplest flooding participant, for tests of the delivery
    semantics; ``received`` keeps every envelope delivered to it.
    """

    def __init__(self):
        self._seen = set()
        self.received = []

    def on_round(self, rnd, inbox):
        out = []
        for env in inbox:
            self.received.append(env)
            for part in env.parts:
                if part.content_key not in self._seen:
                    self._seen.add(part.content_key)
                    out.append(part)
        return out


class SilentNode(NodeHandler):
    """A node that never sends anything."""

    def on_round(self, rnd, inbox):
        return []


def cached_records(root):
    """Every stored record in the result cache at ``root``, keyed by entry
    file name (the unit's content hash) — equal for two caches exactly
    when they hold the same records for the same units."""
    records = {}
    for shard in sorted(os.listdir(root)):
        for name in sorted(os.listdir(os.path.join(root, shard))):
            with open(os.path.join(root, shard, name), encoding="utf-8") as fh:
                records[name] = json.load(fh)["record"]
    return records


class ShuffledBackend:
    """In-process engine backend that releases completions in shuffled
    order.

    Units execute eagerly at submit time (still one at a time, still
    self-seeded); ``next_completed`` then hands results back in an order
    chosen by ``rng``.  This simulates arbitrary parallel completion
    order without processes.
    """

    def __init__(self, rng=None):
        self.rng = rng or random.Random(0)
        self._buffer = []

    def submit(self, index, unit, hard_timeout_s=None):
        self._buffer.append((index, execute_unit(unit)))

    def inflight(self):
        return len(self._buffer)

    def next_completed(self):
        pick = self.rng.randrange(len(self._buffer))
        index, record = self._buffer.pop(pick)
        return index, record, None

    def drain(self):
        drained, self._buffer = list(self._buffer), []
        return drained

    def shutdown(self, cancel=False):
        self._buffer.clear()


def within_paper_budget(p, failures):
    """Whether the cost model's prediction at ``failures <= t`` stays under
    the paper's abort thresholds, i.e. tolerable executions never abort."""
    failures = min(failures, p.t)
    agg_ok = predict_agg_costs(p, failures).total <= p.agg_bit_budget
    veri_ok = predict_veri_costs(p, failures).total <= p.veri_bit_budget
    return agg_ok and veri_ok

"""Protocol parameters: phase arithmetic, budgets, and wire sizes."""

import pytest

from repro.core import wire
from repro.core.caaf import MAX, SUM
from repro.core.params import (
    AGG_PHASES,
    VERI_PHASES,
    ProtocolParams,
    params_for,
)
from repro.graphs import grid_graph
from repro.sim.message import TAG_BITS


def make_params(n=16, d=4, c=2, t=3, max_input=15):
    return ProtocolParams(
        n_nodes=n, root=0, diameter=d, c=c, t=t, max_input=max_input
    )


class TestPhaseArithmetic:
    def test_agg_total_is_7cd_plus_4(self):
        p = make_params()
        assert p.agg_rounds == 7 * p.cd + 4

    def test_veri_total_is_5cd_plus_3(self):
        p = make_params()
        assert p.veri_rounds == 5 * p.cd + 3

    def test_agg_phases_partition_the_execution(self):
        p = make_params()
        spans = p.phase_spans(AGG_PHASES)
        assert len(spans) == 4
        assert spans[0][0] == 1
        for (a, b), (c_, d_) in zip(spans, spans[1:]):
            assert c_ == b + 1
        assert spans[-1][1] == p.agg_rounds

    def test_veri_phases_partition_the_execution(self):
        p = make_params()
        spans = p.phase_spans(VERI_PHASES)
        assert len(spans) == 3
        assert spans[0][0] == 1
        for (a, b), (c_, d_) in zip(spans, spans[1:]):
            assert c_ == b + 1
        assert spans[-1][1] == p.veri_rounds

    def test_pair_fits_in_19c_flooding_rounds(self):
        # Algorithm 1's interval must hold one AGG + VERI pair.
        for d in (1, 3, 10):
            p = ProtocolParams(n_nodes=8, root=0, diameter=d, c=2, t=1)
            assert p.pair_rounds <= 19 * p.cd

    def test_agg_within_11c_flooding_rounds(self):
        # Theorem 3.
        p = make_params()
        assert p.agg_rounds <= 11 * p.c * p.diameter

    def test_veri_within_8c_flooding_rounds(self):
        # Theorem 6.
        p = make_params()
        assert p.veri_rounds <= 8 * p.c * p.diameter


class TestBudgets:
    def test_agg_budget_formula(self):
        p = make_params(n=16, t=3)
        assert p.agg_bit_budget == (11 * 3 + 14) * (4 + 5)

    def test_veri_budget_formula(self):
        p = make_params(n=16, t=3)
        assert p.veri_bit_budget == (5 * 3 + 7) * (3 * 4 + 10)

    def test_budgets_linear_in_t(self):
        p0, p1 = make_params(t=0), make_params(t=10)
        assert p1.agg_bit_budget > p0.agg_bit_budget
        # Linearity: difference per unit t is constant.
        p2 = make_params(t=20)
        assert (
            p2.agg_bit_budget - p1.agg_bit_budget
            == p1.agg_bit_budget - p0.agg_bit_budget + 110 * 0
        )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_nodes=1, root=0, diameter=1),
            dict(n_nodes=4, root=0, diameter=0),
            dict(n_nodes=4, root=0, diameter=1, c=0),
            dict(n_nodes=4, root=0, diameter=1, t=-1),
            dict(n_nodes=4, root=0, diameter=1, max_input=-2),
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolParams(**kwargs)

    def test_with_t_copies(self):
        p = make_params(t=1)
        q = p.with_t(5)
        assert q.t == 5 and p.t == 1
        assert q.n_nodes == p.n_nodes

    def test_params_for_topology(self):
        topo = grid_graph(4, 4)
        p = params_for(topo, t=2, c=3)
        assert p.n_nodes == 16
        assert p.diameter == topo.diameter
        assert p.cd == 3 * topo.diameter
        assert p.max_input == 16  # defaults to N

    def test_params_for_caaf_bits(self):
        topo = grid_graph(4, 4)
        p_sum = params_for(topo, caaf=SUM, max_input=255)
        p_max = params_for(topo, caaf=MAX, max_input=255)
        assert p_sum.psum_bits > p_max.psum_bits  # sums outgrow maxima


class TestWireSizes:
    def test_tree_construct_carries_2t_ancestors(self):
        p = make_params(t=4)
        part = wire.tree_construct(p, 1, (0,))
        expected = TAG_BITS + p.id_bits + p.level_bits + 2 * 4 * p.id_bits
        assert part.bits == expected

    def test_flooded_psum_size(self):
        p = make_params()
        part = wire.flooded_psum(p, 3, 99)
        assert part.bits == TAG_BITS + 2 * p.id_bits + p.psum_bits

    def test_failed_parent_has_three_id_scale_fields(self):
        # VERI's budget multiplies by 3 logN + 10; the heaviest message must
        # stay within ~3 id-sized fields.
        p = make_params()
        part = wire.failed_parent(p, 2, 5, 9)
        assert part.bits <= 3 * p.id_bits + p.level_bits + TAG_BITS + p.id_bits

    def test_determination_labels(self):
        p = make_params()
        keep = wire.determination(p, wire.KEEP, 3)
        dom = wire.determination(p, wire.DOMINATED, 3)
        assert keep.bits == dom.bits
        with pytest.raises(ValueError):
            wire.determination(p, "bogus", 3)

    def test_abort_symbols_are_tiny(self):
        p = make_params()
        assert wire.agg_abort(p).bits <= TAG_BITS + p.id_bits
        assert wire.veri_overflow(p).bits <= TAG_BITS + p.id_bits

    def test_flood_kind_registries_disjoint_from_direct_kinds(self):
        assert "tree_construct" not in wire.AGG_FLOOD_KINDS
        assert "aggregation" not in wire.AGG_FLOOD_KINDS
        assert "flooded_psum" in wire.AGG_FLOOD_KINDS
        assert "failed_parent" in wire.VERI_FLOOD_KINDS

"""Unit tests for the message/bit-accounting layer."""

import pytest

from repro.sim.flooding import ContentIndex
from repro.sim.message import (
    TAG_BITS,
    Envelope,
    Part,
    id_bits,
    total_bits,
    value_bits,
)


class TestIdBits:
    def test_two_nodes_need_one_bit(self):
        assert id_bits(2) == 1

    def test_power_of_two(self):
        assert id_bits(16) == 4

    def test_non_power_rounds_up(self):
        assert id_bits(17) == 5

    def test_single_node(self):
        assert id_bits(1) == 1

    def test_large_system(self):
        assert id_bits(1 << 20) == 20

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            id_bits(0)

    def test_monotone_in_n(self):
        sizes = [id_bits(n) for n in range(2, 200)]
        assert sizes == sorted(sizes)


class TestValueBits:
    def test_zero_max_needs_one_bit(self):
        assert value_bits(0) == 1

    def test_boundary_values(self):
        assert value_bits(1) == 1
        assert value_bits(2) == 2
        assert value_bits(3) == 2
        assert value_bits(4) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            value_bits(-1)

    def test_large_domain(self):
        assert value_bits((1 << 30) - 1) == 30


class TestPart:
    def test_content_key_ignores_bits(self):
        a = Part("k", (1, 2), 10)
        b = Part("k", (1, 2), 99)
        assert a.content_key == b.content_key

    def test_content_key_distinguishes_kind(self):
        assert Part("a", (1,), 5).content_key != Part("b", (1,), 5).content_key

    def test_content_key_distinguishes_payload(self):
        assert Part("a", (1,), 5).content_key != Part("a", (2,), 5).content_key

    def test_parts_are_hashable(self):
        assert len({Part("a", (), 1), Part("a", (), 1)}) == 1

    def test_envelope_fields(self):
        part = Part("x", (3,), 7)
        env = Envelope(4, (part,))
        assert env.sender == 4
        assert env.parts[0] is part
        index = ContentIndex()
        assert env.content_bits(index) == (index, frozenset(), 0, (0,))
        index.register({"x"})  # only flood kinds get bits
        assert env.content_bits(index) == (index, index.kinds, 1, (1,))
        assert index == {part.content_key: 1}
        # The cached bits stay out of the envelope's text and equality.
        assert repr(env) == f"Envelope(sender=4, parts=({part!r},))"
        assert env == Envelope(4, (part,))


class TestTotalBits:
    def test_empty(self):
        assert total_bits([]) == 0

    def test_sums(self):
        parts = [Part("a", (), 3), Part("b", (), 4)]
        assert total_bits(parts) == 7

    def test_tag_bits_constant_is_small(self):
        # The paper's budgets use +5-style constants; the tag must match.
        assert TAG_BITS == 5

"""Poset family generators and spec parsing."""

from __future__ import annotations

import random

import pytest

from closurecount import Poset, TooLargeError, family, generators, mask_of
from closurecount.generators import (antichain, bottomless_diamond, chain, diamond,
                                     powerset_lattice, random_connected_poset,
                                     random_submask, stacked)
from closurecount.poset import ShapeKind


class TestFamilies:
    def test_chain_layout(self):
        p = chain(4)
        assert p.covers == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_antichain(self):
        p = antichain(3)
        assert p.covers == frozenset() and p.n == 3

    def test_diamond_layout(self):
        p = diamond(3)
        assert p.least_element() == 0 and p.greatest_element() == 4
        assert p.is_antichain(mask_of([1, 2, 3]))
        assert p.detect_shape().kind is ShapeKind.DIAMOND

    def test_bottomless_layout(self):
        p = bottomless_diamond(3)
        assert p.greatest_element() == 3 and p.least_element() is None
        assert p.detect_shape().kind is ShapeKind.BOTTOMLESS_DIAMOND

    def test_powerset_ids_are_subset_masks(self):
        p = powerset_lattice(3)
        assert p.n == 8
        assert p.leq(0b001, 0b011) and not p.leq(0b011, 0b001)
        assert not p.leq(0b001, 0b010)
        assert p.least_element() == 0 and p.greatest_element() == 0b111

    def test_powerset_zero(self):
        assert powerset_lattice(0).n == 1

    def test_stacked_levels(self):
        base = powerset_lattice(2)
        p = stacked(base, 2)
        assert p.n == 8
        # everything in level 0 is below everything in level 1
        for u in range(4):
            for v in range(4, 8):
                assert p.lt(u, v)
        # within a level the base order survives
        assert p.leq(0, 3) and not p.leq(1, 2)
        # covers across levels connect level-0 maxima to level-1 minima only
        assert (3, 4) in p.covers and (0, 4) not in p.covers

    @pytest.mark.parametrize("base", [diamond(2), bottomless_diamond(3), antichain(3),
                                      powerset_lattice(3), chain(1)])
    def test_stacked_equals_all_pairs_between_levels(self, base):
        m = base.n
        edges = list(base.covers) + [(u + m, v + m) for u, v in base.covers]
        edges += [(u, v + m) for u in range(m) for v in range(m)]
        assert stacked(base, 2) == Poset(2 * m, edges)

    def test_stacked_one_level_is_base(self):
        base = diamond(2)
        assert stacked(base, 1) == base

    @pytest.mark.parametrize("bad", [lambda: diamond(0), lambda: bottomless_diamond(0),
                                     lambda: stacked(chain(2), 0), lambda: powerset_lattice(-1)])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestRandom:
    def test_deterministic_for_a_seed(self):
        a = random_connected_poset(random.Random(42), 8)
        b = random_connected_poset(random.Random(42), 8)
        assert a == b

    def test_connected_and_reduced(self):
        rng = random.Random(5)
        for _ in range(25):
            p = random_connected_poset(rng, rng.randint(1, 9))
            assert len(p.connected_components()) == 1
            assert Poset(p.n, p.covers) == p

    def test_draw_budget_refuses_naming_n(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_EDGE_DRAWS", 0)
        with pytest.raises(TooLargeError, match="on 5 elements"):
            random_connected_poset(random.Random(0), 5)

    def test_submask(self):
        rng = random.Random(0)
        universe = mask_of([1, 4, 6])
        for _ in range(50):
            s = random_submask(rng, universe, 2)
            assert s & ~universe == 0
            assert bin(s).count("1") <= 2


class TestFamilySpecs:
    @pytest.mark.parametrize("spec,n", [
        ("chain:5", 5), ("antichain:4", 4), ("diamond:2", 4),
        ("bottomless:3", 4), ("powerset:3", 8), ("stacked:2", 8),
        ("stacked:2:diamond:2", 8), ("stacked:3:chain:2", 6),
    ])
    def test_sizes(self, spec, n):
        assert family(spec).n == n

    def test_stacked_default_base_is_powerset_two(self):
        assert family("stacked:2") == family("stacked:2:powerset:2")

    def test_random_spec_is_seeded(self):
        p = family("random:7:3")
        assert p.n == 7 and p == family("random:7:3")
        assert p != family("random:7:4")
        assert family("random:7") == family("random:7:0")
        assert len(p.connected_components()) == 1

    @pytest.mark.parametrize("spec", [
        "pentagon:3", "chain", "chain:x", "chain:3:4", "stacked", "diamond:0",
        "random:3:4:5", "random:zz",
    ])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            family(spec)

    @pytest.mark.parametrize("spec", [
        "chain:1000000000", "antichain:1000000000", "diamond:1000000000",
        "bottomless:1000000000", "powerset:1000000000", "random:1000000000",
        "stacked:1000000000", "stacked:1000000000:chain:2",
    ])
    def test_specs_above_the_element_limit(self, spec):
        with pytest.raises(ValueError, match="limit"):
            family(spec)

    def test_spec_above_the_edge_limit(self):
        # within the element limit, but 2^26 pairs between the two levels:
        # refused before any list of them is built
        with pytest.raises(ValueError, match="limit"):
            family("stacked:2:antichain:8192")

"""Poset construction, order queries and shape detection."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from closurecount import Poset, bits, mask_of
from closurecount.errors import CycleError, EmptySetError
from closurecount.poset import ShapeKind
from conftest import is_convex, posets, random_posets, relabel


class TestConstruction:
    def test_transitive_reduction_drops_shortcuts(self):
        p = Poset(3, [(0, 1), (1, 2), (0, 2)])
        assert p.covers == frozenset({(0, 1), (1, 2)})

    def test_relation_edges_reconstruct_order(self):
        # only long-range relations given; covers must still come out right
        p = Poset(4, [(0, 3), (0, 1), (1, 3), (1, 2), (2, 3), (0, 2)])
        assert p.covers == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_duplicate_and_reflexive_edges_tolerated(self):
        p = Poset(2, [(0, 1), (0, 1), (1, 1)])
        assert p.covers == frozenset({(0, 1)})

    def test_cycle_raises_and_names_the_cycle(self):
        with pytest.raises(CycleError) as exc:
            Poset(2, [(0, 1), (1, 0)])
        cyc = exc.value.cycle
        assert cyc[0] == cyc[-1] and set(cyc) == {0, 1}
        assert "->" in str(exc.value)

    def test_longer_cycle_detected(self):
        with pytest.raises(CycleError):
            Poset(4, [(0, 1), (1, 2), (2, 3), (3, 1)])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Poset(2, [(0, 2)])
        with pytest.raises(ValueError) as exc:
            Poset(2, [(0, 10 ** 4000)])
        assert len(str(exc.value)) < 100

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            Poset(2, [(0, 1)], labels=["a"])

    def test_rebuilding_from_covers_is_identity(self):
        p = Poset(5, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (0, 4)])
        assert Poset(p.n, p.covers) == p

    def test_topo_is_a_linear_extension(self):
        p = Poset(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        position = {x: i for i, x in enumerate(p.topo)}
        for u, v in p.covers:
            assert position[u] < position[v]


class TestOrderQueries:
    def setup_method(self):
        # bottom 0, belt 1/2, top 3, extra 4 above 3
        self.p = Poset(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])

    def test_leq(self):
        p = self.p
        assert p.leq(0, 4) and p.leq(1, 3) and p.leq(2, 2)
        assert not p.leq(1, 2) and not p.leq(3, 0)

    def test_up_and_down_sets(self):
        p = self.p
        assert p.up_incl[1] == mask_of([1, 3, 4])
        assert p.up_incl[1] & mask_of([0, 3]) == mask_of([3])
        assert p.down_incl[3] == mask_of([0, 1, 2, 3])

    def test_interval(self):
        p = self.p
        assert p.interval(0, 3) == mask_of([0, 1, 2, 3])
        assert p.interval(1, 4) == mask_of([1, 3, 4])
        assert p.interval(1, 2) == 0

    def test_extremes(self):
        p = self.p
        assert p.maximal_mask == mask_of([4])
        assert p.minimal_mask == mask_of([0])
        assert p.least_element() == 0
        assert p.greatest_element() == 4
        assert p.least_element_of(mask_of([1, 2, 3])) is None
        assert p.greatest_element_of(mask_of([1, 3])) == 3

    def test_no_extremes_when_ambiguous(self):
        fork = Poset(3, [(0, 1), (0, 2)])
        assert fork.greatest_element() is None
        assert fork.least_element() == 0

    def test_chain_and_antichain_predicates(self):
        p = self.p
        assert p.is_chain(mask_of([0, 1, 3, 4]))
        assert not p.is_chain(mask_of([1, 2]))
        assert p.is_chain(0) and p.is_antichain(0)
        assert p.is_antichain(mask_of([1, 2]))
        assert not p.is_antichain(mask_of([0, 1]))

    def test_convexity(self):
        p = self.p
        assert is_convex(p, mask_of([0, 1, 2, 3]))
        assert not is_convex(p, mask_of([0, 3]))  # misses the belt between
        assert is_convex(p, mask_of([1, 3]))
        assert is_convex(p, 0)


def scan_least(p: Poset, s: int):
    """The member below every member, by definition; None if there is none."""
    found = [x for x in bits(s) if all(p.leq(x, y) for y in bits(s))]
    return found[0] if found else None


def scan_greatest(p: Poset, s: int):
    found = [x for x in bits(s) if all(p.leq(y, x) for y in bits(s))]
    return found[0] if found else None


def cover_bfs_components(p: Poset) -> list:
    """Components by a search over covers in both directions, in the order
    of their smallest member."""
    seen, out = 0, []
    for root in range(p.n):
        if not (seen >> root) & 1:
            comp, stack = 0, [root]
            while stack:
                x = stack.pop()
                if not (comp >> x) & 1:
                    comp |= 1 << x
                    stack += p.cover_succ[x] + p.cover_pred[x]
            seen |= comp
            out.append(comp)
    return out


def seeded_posets(seed: int):
    """Random posets, most of them disconnected, each also with a top added
    and with a bottom added, relabelled so that ids do not follow the order."""
    rng = random.Random(seed)
    for _, p in random_posets(seed=seed, count=150, max_n=12):
        n = p.n
        yield p
        yield relabel(Poset(n + 1, list(p.covers) + [(x, n) for x in range(n)]), rng)
        yield relabel(Poset(n + 1, list(p.covers) + [(n, x) for x in range(n)]), rng)


class TestExtremalWalks:
    # the descent walks against the definition, on random masks and on the
    # masks the enumerator oracle's least_majorizer asks about
    def test_least_and_greatest_match_the_definition(self):
        rng = random.Random(47)
        checked = 0
        for p in seeded_posets(seed=43):
            masks = [0, p.full_mask]
            for _ in range(8):
                r = rng.getrandbits(p.n)
                x, y = rng.randrange(p.n), rng.randrange(p.n)
                masks += [r, p.up_incl[x] & r, p.down_incl[x] & r, p.interval(x, y)]
            for s in masks:
                assert p.least_element_of(s) == scan_least(p, s)
                assert p.greatest_element_of(s) == scan_greatest(p, s)
                checked += scan_least(p, s) is not None
        assert checked > 1000

    def test_the_empty_poset_has_no_extremes(self):
        p = Poset(0, [])
        assert p.least_element() is None and p.greatest_element() is None

    def test_components_match_the_cover_search(self):
        for p in seeded_posets(seed=53):
            assert p.connected_components() == cover_bfs_components(p)
        assert Poset(0, []).connected_components() == []
        assert Poset(1, []).connected_components() == [1]


class TestStructure:
    def test_components(self):
        p = Poset(5, [(0, 1), (3, 2)])
        assert p.connected_components() == [mask_of([0, 1]), mask_of([2, 3]), mask_of([4])]

    def test_restrict_inherits_order_through_gaps(self):
        p = Poset(4, [(0, 1), (1, 2), (2, 3)])
        sub, idmap = p.restrict(mask_of([0, 2]))
        assert idmap == (0, 2)
        assert sub.covers == frozenset({(0, 1)})  # 0 < 2 survives as a cover

    def test_restrict_empty_raises(self):
        with pytest.raises(EmptySetError):
            Poset(2, [(0, 1)]).restrict(0)

    def test_restrict_keeps_labels(self):
        p = Poset(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
        sub, _ = p.restrict(mask_of([0, 2]))
        assert sub.labels == ("a", "c")

    def test_augment(self):
        p = Poset(3, [(0, 1), (0, 2)])
        aug = p.augment()
        assert aug.succ[aug.bot] == (0,)
        assert aug.succ[1] == (aug.top,) and aug.succ[2] == (aug.top,)
        assert aug.reachable_avoiding(aug.bot, aug.top, removed=1)
        assert not aug.reachable_avoiding(aug.bot, aug.top, removed=0)

    def test_equality_ignores_labels(self):
        assert Poset(2, [(0, 1)], labels=["x", "y"]) == Poset(2, [(0, 1)])
        assert Poset(2, [(0, 1)]) != Poset(2, [])


class TestShapes:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_chain(self, n):
        p = Poset(n, [(i, i + 1) for i in range(n - 1)])
        assert p.detect_shape().kind is ShapeKind.CHAIN
        assert p.detect_shape().size == n

    def test_diamond(self):
        p = Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert p.detect_shape() == p.detect_shape()
        assert p.detect_shape().kind is ShapeKind.DIAMOND
        assert p.detect_shape().size == 2

    def test_width_one_diamond_is_a_chain(self):
        p = Poset(3, [(0, 1), (1, 2)])
        assert p.detect_shape().kind is ShapeKind.CHAIN

    def test_bottomless_diamond(self):
        p = Poset(3, [(0, 2), (1, 2)])
        shape = p.detect_shape()
        assert shape.kind is ShapeKind.BOTTOMLESS_DIAMOND and shape.size == 2

    def test_other(self):
        p = Poset(4, [(0, 1), (0, 2), (1, 3)])
        assert p.detect_shape().kind is ShapeKind.OTHER

    def test_shuffled_ids_still_recognized(self):
        # diamond with bottom 3, top 0, belt {1, 2}
        p = Poset(4, [(3, 1), (3, 2), (1, 0), (2, 0)])
        shape = p.detect_shape()
        assert shape.kind is ShapeKind.DIAMOND and shape.size == 2

    def test_empty_mask_has_no_shape(self):
        # as restrict(0) refuses, so does the shape of an empty mask, the
        # whole of the empty poset included
        with pytest.raises(EmptySetError):
            Poset(2, [(0, 1)]).detect_shape(0)
        with pytest.raises(EmptySetError):
            Poset(0, []).detect_shape()

    def test_labels_roundtrip(self):
        p = Poset(2, [(0, 1)], labels=["lo", "hi"])
        assert p.labels == ("lo", "hi")


class TestRandomizedInvariants:
    @settings(max_examples=120, deadline=None)
    @given(posets())
    def test_leq_is_a_partial_order(self, p):
        for x in range(p.n):
            assert p.leq(x, x)
            for y in bits(p.reach[x]):
                assert not p.leq(y, x)  # antisymmetry
                for z in bits(p.reach[y]):
                    assert p.leq(x, z)  # transitivity

    @settings(max_examples=120, deadline=None)
    @given(posets())
    def test_reach_matches_cover_paths(self, p):
        # recompute reachability naively from the cover graph
        for x in range(p.n):
            seen = set()
            stack = [x]
            while stack:
                u = stack.pop()
                for v in p.cover_succ[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert p.reach[x] == mask_of(seen)

    @settings(max_examples=100, deadline=None)
    @given(posets())
    def test_rebuild_from_covers_is_identity(self, p):
        assert Poset(p.n, p.covers) == p

    @settings(max_examples=80, deadline=None)
    @given(posets(max_n=7))
    def test_restrict_agrees_with_order(self, p):
        rng = random.Random(p.n * 1_000_003 + len(p.covers))
        s = mask_of(x for x in range(p.n) if rng.random() < 0.6) or 1
        sub, idmap = p.restrict(s)
        for i, x in enumerate(idmap):
            for j, y in enumerate(idmap):
                assert sub.leq(i, j) == p.leq(x, y)

    @seed(4011)
    @settings(max_examples=150, deadline=None)
    @given(posets(max_n=10), st.data())
    def test_restrict_equals_all_pairs_induced_order(self, p, data):
        # any s, convex or not: the cover climb yields the poset built from
        # every induced pair
        s = data.draw(st.integers(min_value=1, max_value=p.full_mask))
        sub, idmap = p.restrict(s)
        want = Poset(len(idmap), [(i, j) for i, x in enumerate(idmap)
                                  for j, y in enumerate(idmap) if p.lt(x, y)])
        assert idmap == tuple(bits(s))
        assert sub == want

    @settings(max_examples=80, deadline=None)
    @given(posets(max_n=7))
    def test_interval_definition(self, p):
        for a in range(p.n):
            for b in range(p.n):
                want = mask_of(z for z in range(p.n) if p.leq(a, z) and p.leq(z, b))
                assert p.interval(a, b) == want

"""Poset construction, order queries and shape detection."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from closurecount import Poset, bits, mask_of
from closurecount.errors import CycleError, EmptySetError
from closurecount.generators import chain, family
from closurecount.poset import MAX_ELEMENTS, ShapeKind
from conftest import is_convex, posets, random_posets, relabel


def noisy_pairs(rng: random.Random, p: Poset) -> list:
    """p's order as a shuffled pair list that also holds transitive,
    duplicate and reflexive pairs."""
    pairs = list(p.covers)
    pairs += [(x, y) for x in range(p.n) for y in bits(p.up_incl[x]) if rng.random() < 0.2]
    pairs += rng.choices(pairs, k=len(pairs) // 4)
    rng.shuffle(pairs)
    return pairs


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

    def test_rebuilding_from_covers_is_identity(self):
        p = Poset(5, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (0, 4)])
        assert Poset(p.n, p.covers) == p

    def test_each_relation_is_stored_once(self):
        # the order as inclusive masks, the Hasse diagram as cover lists;
        # the covers set is derived from the lists
        p = chain(5)
        assert sorted(vars(p)) == ["cover_pred", "cover_succ", "down_incl", "full_mask",
                                   "maximal_mask", "minimal_mask", "n", "topo", "up_incl"]
        assert p.covers == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})

    def test_topo_is_a_linear_extension(self):
        p = Poset(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        position = {x: i for i, x in enumerate(p.topo)}
        for u, v in p.covers:
            assert position[u] < position[v]

    def test_topo_is_the_smallest_linear_extension(self):
        # the reference takes, at each step, the smallest element whose
        # predecessors in the pair list are all placed
        rng = random.Random(24)
        for _, p in random_posets(24, 300, 40):
            pairs = noisy_pairs(rng, p)
            below = [set() for _ in range(p.n)]
            for u, v in pairs:
                if u != v:
                    below[v].add(u)
            placed, want = set(), []
            while len(want) < p.n:
                x = min(x for x in range(p.n) if x not in placed and below[x] <= placed)
                placed.add(x)
                want.append(x)
            q = Poset(p.n, pairs)
            assert q == p and q.topo == tuple(want)

    def test_a_cycle_error_names_a_cycle_of_the_input(self):
        def named_cycle(n, pairs):
            with pytest.raises(CycleError) as exc:
                Poset(n, pairs)
            cyc = exc.value.cycle
            assert len(cyc) >= 3 and cyc[0] == cyc[-1]
            assert len(set(cyc[:-1])) == len(cyc) - 1
            assert set(zip(cyc, cyc[1:])) <= set(pairs)
            return cyc

        # a ring of k elements, and random pairs that hang other elements
        # above and below it or close further cycles
        rng = random.Random(24)
        for _ in range(1000):
            n = rng.randint(2, 30)
            ring = rng.sample(range(n), rng.randint(2, n))
            pairs = list(zip(ring, ring[1:] + ring[:1]))
            pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
            rng.shuffle(pairs)
            named_cycle(n, pairs)
        n = MAX_ELEMENTS
        assert len(named_cycle(n, [(x, (x + 1) % n) for x in range(n)])) == n + 1


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

    def test_augment(self):
        p = Poset(3, [(0, 1), (0, 2)])
        aug = p.augment()
        assert aug.succ[aug.bot] == (0,)
        assert aug.succ[1] == (aug.top,) and aug.succ[2] == (aug.top,)
        assert aug.reachable_avoiding(aug.bot, aug.top, removed=1)
        assert not aug.reachable_avoiding(aug.bot, aug.top, removed=0)


class TestMemory:
    @staticmethod
    def retained(build):
        # bytes still allocated once build() has returned, its result alive
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p = build()
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before, p
        finally:
            tracemalloc.stop()

    def test_a_chain_keeps_two_mask_tables(self):
        # a chain's up_incl[x] has n bits and its down_incl[x] x + 1, so the
        # two tables hold 1.5 n^2/8 bytes of bits
        n = 4096
        kept, p = self.retained(lambda: chain(n))
        assert p.n == n and kept < 3 * n * n / 8

    def test_covers_are_not_kept_as_pairs(self):
        # 2^14 covers between two antichains of 128
        kept, p = self.retained(lambda: family("stacked:2:antichain:128"))
        assert len(p.covers) == 1 << 14 and kept < 1 << 20

    def test_construction_holds_each_pair_once(self):
        # 2^14 pairs, all covers: one successor set per element holds a pair
        # in about 64 bytes and the cover lists in 16 more; a second set
        # per pair would take the peak past 128 bytes a pair
        pairs = [(u, v + 128) for u in range(128) for v in range(128)]
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            Poset(256, pairs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 128 * len(pairs)


class TestEqualityAndRepr:
    def test_equal_covers_are_equal_posets(self):
        p = Poset(3, [(0, 1), (1, 2), (0, 2)])
        q = Poset(3, [(1, 2), (0, 1)])
        assert p == q and hash(p) == hash(q)
        assert p != Poset(3, [(0, 1)]) and p != Poset(4, [(0, 1), (1, 2)])

    def test_a_non_poset_is_never_equal(self):
        p = Poset(2, [(0, 1)])
        assert p.__eq__((2, frozenset({(0, 1)}))) is NotImplemented
        assert p != (2, frozenset({(0, 1)})) and p != "Poset(n=2, covers=[(0, 1)])"

    def test_repr_lists_sorted_covers(self):
        p = Poset(4, [(2, 3), (0, 1), (0, 2)])
        assert repr(p) == "Poset(n=4, covers=[(0, 1), (0, 2), (2, 3)])"


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


class TestRandomizedInvariants:
    @settings(max_examples=120, deadline=None)
    @given(posets())
    def test_leq_is_a_partial_order(self, p):
        for x in range(p.n):
            assert p.leq(x, x)
            for y in bits(p.up_incl[x] ^ (1 << x)):
                assert not p.leq(y, x)  # antisymmetry
                for z in bits(p.up_incl[y] ^ (1 << y)):
                    assert p.leq(x, z)  # transitivity

    @settings(max_examples=120, deadline=None)
    @given(posets())
    def test_reach_matches_cover_paths(self, p):
        # recompute reachability naively from the cover graph
        for x in range(p.n):
            seen = {x}
            stack = [x]
            while stack:
                u = stack.pop()
                for v in p.cover_succ[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert p.up_incl[x] == mask_of(seen)

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

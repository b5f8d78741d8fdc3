"""Isolated suborder detection, separators, and quotients.

The detection pipeline is cross-checked two independent ways: separator
tests against the raw definition for every interval, and the returned
maximal suborders against an exhaustive scan over all intervals.
"""

from __future__ import annotations

import random

import pytest

from closurecount import (Poset, bits, family, find_max_bottleneck_isos,
                          find_max_summit_isos, is_isolated_suborder, mask_of,
                          quotient_by)
from closurecount.errors import NotIsolatedError, SameNodeError
from closurecount.generators import chain, diamond, powerset_lattice
from closurecount.isolated import IsoKind, IsolatedSuborder, is_separator
from conftest import (broom, glued_posets, is_convex, isolated_by_definition,
                      least_bottleneck, random_poset, random_posets, relabel)

DIAMOND_TOP = Poset(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
SHARED_DIAMONDS = Poset(7, [(0, 1), (0, 2), (1, 3), (2, 3),
                            (3, 4), (3, 5), (4, 6), (5, 6)])
CHAIN_TWO_TOPS = Poset(5, [(0, 1), (1, 2), (2, 3), (2, 4)])


class TestDefinition:
    def test_chain_interval(self):
        assert is_isolated_suborder(chain(5), mask_of([0, 1, 2, 3]))
        assert is_isolated_suborder(chain(5), mask_of([1, 2]))

    def test_whole_poset_and_singletons_qualify(self):
        p = chain(3)
        assert is_isolated_suborder(p, p.full_mask)
        assert is_isolated_suborder(p, mask_of([1]))

    def test_rejections(self):
        p = diamond(2)
        assert not is_isolated_suborder(p, 0)
        assert not is_isolated_suborder(p, mask_of([1, 2]))     # no least/greatest
        assert not is_isolated_suborder(p, mask_of([1, 3]))     # 0 < 3 bypasses bottom 1
        assert not is_isolated_suborder(p, mask_of([0, 1, 3]))  # 2 above 0, not above top 3
        assert is_isolated_suborder(p, p.full_mask)

    def test_suborders_are_convex_intervals(self):
        for _, p in random_posets(seed=17, count=40, max_n=8):
            for a in range(p.n):
                for b in range(p.n):
                    if not p.lt(a, b):
                        continue
                    m = p.interval(a, b)
                    if is_isolated_suborder(p, m):
                        assert is_convex(p, m)
                        assert p.least_element_of(m) == a
                        assert p.greatest_element_of(m) == b

    def test_the_two_ends_decide_as_the_definition(self):
        # every mask of small posets, so the empty mask, masks without a
        # least or a greatest member and non-convex masks all occur, and
        # every interval of glued posets, where most isolated ones lie
        seen = dict.fromkeys(["empty", "no least", "no greatest", "not convex", "isolated"], 0)
        for _, p in random_posets(seed=23, count=300, max_n=7):
            for s in range(p.full_mask + 1):
                assert is_isolated_suborder(p, s) == isolated_by_definition(p, s)
                seen["empty"] += not s
                seen["no least"] += bool(s) and p.least_element_of(s) is None
                seen["no greatest"] += bool(s) and p.greatest_element_of(s) is None
                seen["not convex"] += not is_convex(p, s)
                seen["isolated"] += isolated_by_definition(p, s)
        for _, p in glued_posets(seed=23, count=300, max_n=14):
            for a in range(p.n):
                for b in range(p.n):
                    s = p.interval(a, b)
                    assert is_isolated_suborder(p, s) == isolated_by_definition(p, s)
        assert min(seen.values()) >= 300  # one empty mask per poset

    def test_reads_the_masks_at_the_two_ends_only(self):
        # the members' up-sets union to up[bot] and their down-sets to
        # down[top]: the whole of a long chain costs a few mask reads, not
        # one per member
        reads = []

        class Counted(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return tuple.__getitem__(self, i)

        p = chain(1000)
        p.up_incl, p.down_incl = Counted(p.up_incl), Counted(p.down_incl)
        assert is_isolated_suborder(p, p.full_mask)
        assert len(reads) <= 8


class TestSeparators:
    def test_endpoint_raises(self):
        aug = chain(3).augment()
        with pytest.raises(SameNodeError):
            is_separator(aug, 1, 1, aug.top)
        with pytest.raises(SameNodeError):
            is_separator(aug, 1, aug.bot, 1)

    def test_chain_separators(self):
        aug = chain(3).augment()
        assert is_separator(aug, 1, 0, 2)
        assert is_separator(aug, 1, aug.bot, aug.top)

    def test_diamond_belt_is_no_separator(self):
        aug = diamond(2).augment()
        assert not is_separator(aug, 1, 0, 3)

    def test_equivalence_with_definition(self):
        # interval [a, b] is an isolated suborder iff a separates bottom
        # from b and b separates a from top
        mismatches = 0
        for _, p in random_posets(seed=29, count=40, max_n=8):
            aug = p.augment()
            for a in range(p.n):
                for b in range(p.n):
                    if not p.lt(a, b):
                        continue
                    by_def = is_isolated_suborder(p, p.interval(a, b))
                    by_sep = (is_separator(aug, a, aug.bot, b)
                              and is_separator(aug, b, a, aug.top))
                    mismatches += by_def != by_sep
        assert mismatches == 0


class TestLeastBottleneck:
    def test_chain(self):
        p = chain(3)
        assert least_bottleneck(p, 0) == 1
        assert least_bottleneck(p, 1) == 2
        assert least_bottleneck(p, 2) is None

    def test_diamond(self):
        p = diamond(2)
        assert least_bottleneck(p, 0) is None  # two covers
        assert least_bottleneck(p, 1) == 3
        assert least_bottleneck(p, 3) is None  # maximal

    def test_matches_direct_definition(self):
        # b is a bottleneck of x iff x < b, [x, b] is a chain, and anything
        # above x sits in [x, b] or above b; the least such b must agree
        for _, p in random_posets(seed=41, count=40, max_n=8):
            for x in range(p.n):
                found = [b for b in bits(p.up_incl[x] ^ (1 << x))
                         if p.is_chain(p.interval(x, b))
                         and not p.up_incl[x] & ~(p.interval(x, b) | p.up_incl[b])]
                least = None
                for b in found:
                    if all(p.leq(b, other) for other in found):
                        least = b
                assert least_bottleneck(p, x) == least


def _kinds(isos):
    return [(iso.bottom, iso.top, iso.kind) for iso in isos]


class TestDetection:
    def test_five_chain(self):
        assert _kinds(find_max_bottleneck_isos(chain(5))) == [(0, 3, IsoKind.BOTTLENECK)]
        assert _kinds(find_max_summit_isos(chain(5))) == [(1, 4, IsoKind.SUMMIT)]

    def test_three_chain_summit_keeps_the_useful_candidate(self):
        # [0, 2] is the whole poset and is dropped; nested [1, 2] survives
        assert _kinds(find_max_summit_isos(chain(3))) == [(1, 2, IsoKind.SUMMIT)]

    def test_tiny_posets(self):
        assert find_max_bottleneck_isos(chain(1)) == []
        assert find_max_summit_isos(chain(2)) == []
        assert _kinds(find_max_bottleneck_isos(chain(3))) == [(0, 1, IsoKind.BOTTLENECK)]

    def test_diamond_has_no_useful_isos(self):
        assert find_max_bottleneck_isos(diamond(2)) == []
        assert find_max_summit_isos(diamond(2)) == []

    def test_diamond_with_extra_top(self):
        # the diamond part [0, 3] has the extra element as its bottleneck
        isos = find_max_bottleneck_isos(DIAMOND_TOP)
        assert _kinds(isos) == [(0, 3, IsoKind.BOTTLENECK)]
        assert least_bottleneck(DIAMOND_TOP, isos[0].top) == 4
        assert _kinds(find_max_summit_isos(DIAMOND_TOP)) == [(3, 4, IsoKind.SUMMIT)]

    def test_shared_diamonds_summit_is_the_upper_diamond(self):
        isos = find_max_summit_isos(SHARED_DIAMONDS)
        assert _kinds(isos) == [(3, 6, IsoKind.SUMMIT)]
        assert isos[0].members == mask_of([3, 4, 5, 6])

    def test_chain_under_two_tops_is_bottleneck_kind_only(self):
        assert find_max_summit_isos(CHAIN_TWO_TOPS) == []
        assert _kinds(find_max_bottleneck_isos(CHAIN_TWO_TOPS)) == [(0, 1, IsoKind.BOTTLENECK)]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_powerset_has_none(self, k):
        p = powerset_lattice(k)
        assert find_max_bottleneck_isos(p) == []
        assert find_max_summit_isos(p) == []

    def test_results_satisfy_their_contracts(self):
        for _, p in random_posets(seed=53, count=60, max_n=9):
            for kind, isos in ((IsoKind.SUMMIT, find_max_summit_isos(p)),
                               (IsoKind.BOTTLENECK, find_max_bottleneck_isos(p))):
                for i, iso in enumerate(isos):
                    assert is_isolated_suborder(p, iso.members)
                    assert iso.members != p.full_mask and iso.n >= 2
                    assert iso.members == p.interval(iso.bottom, iso.top)
                    if kind is IsoKind.SUMMIT:
                        assert (p.maximal_mask >> iso.top) & 1
                    else:
                        assert least_bottleneck(p, iso.top) is not None
                    for other in isos[i + 1:]:
                        assert iso.members & other.members == 0

    def test_exactly_the_maximal_useful_suborders(self):
        # exhaustive cross-check: scan every interval for useful isolated
        # suborders of each kind, keep the inclusion-maximal ones, and
        # demand detection returns exactly that collection; inputs are
        # random posets up to 14 elements (connected or not), relabelled
        # small towers, disjoint unions and brooms of sibling diamonds
        rng = random.Random(59)
        inputs = [p for _, p in random_posets(seed=59, count=60, max_n=8)]
        inputs += [p for _, p in random_posets(seed=79, count=60, max_n=14)]
        inputs += [relabel(family(spec), rng)
                   for spec in ("stacked:2", "stacked:3", "stacked:3:diamond:2",
                                "stacked:4:chain:2", "stacked:2:bottomless:3",
                                "stacked:3:bottomless:2")]
        for _ in range(20):
            a, b = (random_poset(rng, rng.randint(1, 7)) for _ in range(2))
            union = Poset(a.n + b.n, list(a.covers)
                          + [(u + a.n, v + a.n) for u, v in b.covers])
            inputs.append(relabel(union, rng))
        inputs += [relabel(broom(k, reverse), rng) for k in (1, 2, 3) for reverse in (False, True)]
        for p in inputs:
            for kind, finder in ((IsoKind.SUMMIT, find_max_summit_isos),
                                 (IsoKind.BOTTLENECK, find_max_bottleneck_isos)):
                kind_ok = {
                    IsoKind.SUMMIT: lambda b: bool((p.maximal_mask >> b) & 1),
                    IsoKind.BOTTLENECK: lambda b: least_bottleneck(p, b) is not None,
                }[kind]
                pool = []
                for a in range(p.n):
                    for b in range(p.n):
                        if p.lt(a, b) and kind_ok(b):
                            m = p.interval(a, b)
                            if m != p.full_mask and is_isolated_suborder(p, m):
                                pool.append(m)
                maximal = {m for m in pool
                           if not any(m != o and m | o == o for o in pool)}
                assert {iso.members for iso in finder(p)} == maximal

    def test_overlapping_isos_union_and_endpoint_chains(self):
        # two overlapping isolated suborders have an isolated union, and
        # their bottoms and tops are comparable
        for _, p in random_posets(seed=61, count=30, max_n=7):
            pool = [(a, b, p.interval(a, b))
                    for a in range(p.n) for b in range(p.n)
                    if p.lt(a, b) and is_isolated_suborder(p, p.interval(a, b))]
            for i, (a1, b1, m1) in enumerate(pool):
                for a2, b2, m2 in pool[i + 1:]:
                    if m1 & m2:
                        assert is_isolated_suborder(p, m1 | m2)
                        assert p.leq(a1, a2) or p.leq(a2, a1)
                        assert p.leq(b1, b2) or p.leq(b2, b1)


class TestNestedSummits:
    def test_tower_chain_alternates_bottoms_and_tops(self):
        p = family("stacked:4")  # level j: bottom 4j, belt 4j+1 and 4j+2, top 4j+3
        (iso,) = find_max_summit_isos(p)
        assert (iso.bottom, iso.top) == (3, 15)
        assert iso.cuts == (3, 4, 7, 8, 11, 12, 15)

    def test_equals_detection_repeated_on_each_inside(self):
        # the cut points of S strictly inside it are what find_max_summit_isos
        # finds on P|S, then on the inside of that, and so on; the ends of
        # iso.cuts are its bottom and top
        rng = random.Random(5150)
        cases = [p for _, p in random_posets(77, 150, 12)]
        cases += [relabel(family(f"stacked:{k}:random:{m}:{k}"), rng)
                  for k in range(2, 6) for m in range(2, 5)]
        checked = 0
        for p in cases:
            for iso in find_max_summit_isos(p) + find_max_bottleneck_isos(p):
                want = []
                sub, idmap = p.restrict(iso.members)
                while True:
                    inner = find_max_summit_isos(sub)
                    if not inner:
                        break
                    (nxt,) = inner
                    assert idmap[nxt.top] == iso.top
                    want.append(idmap[nxt.bottom])
                    sub, ids = sub.restrict(nxt.members)
                    idmap = tuple(idmap[i] for i in ids)
                assert (iso.cuts[0], iso.cuts[-1]) == (iso.bottom, iso.top)
                got = list(iso.cuts[1:-1])
                assert got == want
                assert all(p.leq(w, x) or p.leq(x, w)
                           for w in got for x in bits(iso.members))
                assert all(is_isolated_suborder(p, p.interval(w, iso.top)) for w in got)
                checked += len(got)
        assert checked > 100


def classes(iso, idmap):
    """Original members of each quotient element: the bottom stands for
    the whole suborder, every other kept element for itself."""
    return tuple(iso.members if x == iso.bottom else 1 << x for x in idmap)


class TestQuotient:
    def test_collapse_diamond_under_top(self):
        iso = find_max_bottleneck_isos(DIAMOND_TOP)[0]
        rest = quotient_by(DIAMOND_TOP, iso)  # a mask: the outside plus the bottom
        assert rest == mask_of([0, 4])
        q, idmap = DIAMOND_TOP.restrict(rest)
        assert q == Poset(2, [(0, 1)])
        assert idmap == (0, 4)
        assert classes(iso, idmap) == (mask_of([0, 1, 2, 3]), mask_of([4]))

    def test_not_isolated_raises(self):
        p = diamond(2)
        bogus = IsolatedSuborder(1, 3, mask_of([1, 3]), IsoKind.SUMMIT, (1, 3))
        with pytest.raises(NotIsolatedError):
            quotient_by(p, bogus)

    def test_class_is_named_by_its_bottom(self):
        # chain 2 < 1 < 0: the class of [2, 1] is named by its bottom 2,
        # not by its smallest id
        p = Poset(3, [(2, 1), (1, 0)])
        iso = find_max_bottleneck_isos(p)[0]
        assert (iso.bottom, iso.top) == (2, 1)
        q, idmap = p.restrict(quotient_by(p, iso))
        assert idmap == (0, 2) and q.covers == frozenset({(1, 0)})

    def test_equals_the_quotient_by_projected_covers(self):
        # the suborder on the outside plus the bottom is the poset the
        # projected cover edges generate, with the same linear extension
        for _, p in random_posets(seed=61, count=60, max_n=9):
            for iso in find_max_summit_isos(p) + find_max_bottleneck_isos(p):
                q, idmap = p.restrict(quotient_by(p, iso))
                new_id = {x: i for i, x in enumerate(idmap)}
                rep = [iso.bottom if (iso.members >> x) & 1 else x for x in range(p.n)]
                projected = Poset(q.n, {(new_id[rep[u]], new_id[rep[v]])
                                        for u, v in p.covers if rep[u] != rep[v]})
                assert q == projected
                assert q.topo == projected.topo

    def test_quotient_order_matches_projected_order(self):
        # [x] <= [y] in the quotient iff some members x' <= y' in the original
        for _, p in random_posets(seed=67, count=40, max_n=8):
            for iso in find_max_summit_isos(p) + find_max_bottleneck_isos(p):
                q, idmap = p.restrict(quotient_by(p, iso))
                members = classes(iso, idmap)
                for qx in range(q.n):
                    for qy in range(q.n):
                        original = any(p.leq(x, y)
                                       for x in bits(members[qx])
                                       for y in bits(members[qy]))
                        assert q.leq(qx, qy) == original

    def test_isos_found_in_the_quotient_lift(self):
        for _, p in random_posets(seed=71, count=40, max_n=8):
            for iso in find_max_summit_isos(p) + find_max_bottleneck_isos(p):
                q, idmap = p.restrict(quotient_by(p, iso))
                members = classes(iso, idmap)
                for kind, finder in ((IsoKind.SUMMIT, find_max_summit_isos),
                                     (IsoKind.BOTTLENECK, find_max_bottleneck_isos)):
                    for inner in finder(q):
                        flat = 0
                        for qx in bits(inner.members):
                            flat |= members[qx]
                        assert is_isolated_suborder(p, flat)
                        top = p.greatest_element_of(flat)
                        if kind is IsoKind.SUMMIT:
                            assert (p.maximal_mask >> top) & 1
                        else:
                            assert least_bottleneck(p, top) is not None

    def test_quotient_shrinks(self):
        for _, p in random_posets(seed=73, count=30, max_n=8):
            for iso in find_max_summit_isos(p) + find_max_bottleneck_isos(p):
                q, idmap = p.restrict(quotient_by(p, iso))
                assert q.n == p.n - iso.n + 1
                assert mask_of(idmap) & iso.members == 1 << iso.bottom

    def test_several_disjoint_suborders_equal_the_iterated_quotient(self):
        # collapsing a and b at once is collapsing a, then b's image in P/a
        cases = [p for _, p in random_posets(seed=79, count=60, max_n=10)]
        cases += [p for _, p in glued_posets(seed=83, count=60, max_n=16)]
        cases += [broom(3), broom(3, reverse=True)]
        checked = 0
        for p in cases:
            isos = find_max_summit_isos(p) + find_max_bottleneck_isos(p)
            for a in isos:
                for b in isos:
                    if a is b or a.members & b.members:
                        continue
                    q, idmap = p.restrict(quotient_by(p, a, b))
                    q1, map1 = p.restrict(quotient_by(p, a))
                    new_id = {x: i for i, x in enumerate(map1)}
                    b1 = IsolatedSuborder(new_id[b.bottom], new_id[b.top],
                                          mask_of(new_id[x] for x in bits(b.members)),
                                          b.kind, tuple(new_id[x] for x in b.cuts))
                    q2, map2 = q1.restrict(quotient_by(q1, b1))
                    assert q == q2
                    assert idmap == tuple(map1[i] for i in map2)
                    checked += 1
        assert checked > 50

    def test_overlapping_or_repeated_suborders_raise(self):
        p = family("stacked:3")
        (iso,) = find_max_summit_isos(p)
        inner = IsolatedSuborder(iso.cuts[1], iso.top, p.interval(iso.cuts[1], iso.top),
                                 IsoKind.SUMMIT, iso.cuts[1:])
        assert is_isolated_suborder(p, inner.members)
        for isos in ((iso, iso), (iso, inner), (inner, iso)):
            with pytest.raises(NotIsolatedError, match="disjoint"):
                quotient_by(p, *isos)

"""The decomposition counter against enumeration, plus trace structure.

Counts here were frozen from the brute-force oracle before the counter
existed; the counter must reproduce them through whatever split path it
picks. The live oracle is conftest.oracle_count, the definitional
enumerator, never the leaf counter that the decomposition itself uses.
"""

from __future__ import annotations

import importlib.util
import inspect
import random
import re
import time
from decimal import Decimal
from functools import reduce
from itertools import permutations
from math import prod
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from closurecount import (Poset, TooLargeError, bits, bruteforce_search_space,
                          count_closure_systems_bruteforce, count_closures,
                          enumerate_closure_systems, explain, family,
                          find_max_bottleneck_isos, find_max_summit_isos,
                          is_isolated_suborder, mask_of, quotient_by, trace_nodes)
from closurecount.bitset import size
from closurecount import counting, isolated
from closurecount.counting import _Count, _count, _structure, bruteforce_candidates, digits
from closurecount.errors import EmptyPosetError, excerpt
from closurecount.formulas import count_special
from closurecount.generators import (antichain, chain, diamond, powerset_lattice,
                                     random_connected_poset, random_submask, stacked)
from closurecount.isolated import IsoKind, _family
from closurecount.poset import AugmentedPoset
from closurecount.selfcheck import disjointness_violations
from conftest import (broom, glued_poset, nested, oracle_count, posets, random_poset,
                      random_posets, relabel)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PATH3 = Poset(3, [(0, 1), (1, 2)])
GLUED = Poset(6, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)])
SHARED_DIAMONDS = Poset(7, [(0, 1), (0, 2), (1, 3), (2, 3),
                            (3, 4), (3, 5), (4, 6), (5, 6)])
CHAIN_TWO_TOPS = Poset(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
DIAMOND_TOP = Poset(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
# 0 < 1, then a diamond 1 < {2, 3} < 4, then the chain 4 < 5 < 6 < 7
CHAIN_ABOVE_DIAMOND = Poset(8, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4),
                                (4, 5), (5, 6), (6, 7)])


class TestFrozenInstances:
    @pytest.mark.parametrize("p,want", [
        (chain(1), 1), (chain(5), 16), (chain(12), 2048),
        (diamond(2), 7), (diamond(5), 38),
        (powerset_lattice(2), 7), (powerset_lattice(3), 61),
        (stacked(powerset_lattice(2), 2), 98),
        (stacked(powerset_lattice(2), 3), 1372),
        (SHARED_DIAMONDS, 49), (GLUED, 28), (CHAIN_TWO_TOPS, 4),
        (DIAMOND_TOP, 14), (antichain(3), 1),
    ])
    def test_unconstrained(self, p, want):
        result = count_closures(p)
        assert result.value == want
        assert result.trace.value == want

    @pytest.mark.parametrize("p,t,want", [
        (diamond(2), mask_of([0]), 4),
        (diamond(2), mask_of([1]), 3),
        (diamond(3), mask_of([0, 2]), 4),
        (GLUED, mask_of([0]), 14),
        (GLUED, mask_of([3]), 12),
        (CHAIN_TWO_TOPS, mask_of([1]), 2),
    ])
    def test_constrained(self, p, t, want):
        assert oracle_count(p, t) == want
        assert count_closures(p, t).value == want


class TestKnownValues:
    """Pinned values; powerset:5 and the constrained six-level stacks are
    single leaves that an element cap of 22 used to refuse."""

    @pytest.mark.parametrize("k,want", [(4, 2480), (5, 1_385_552)])
    def test_moore_families(self, k, want):
        # closure systems of a powerset lattice are the Moore families on a
        # k-set (Habib and Nourine 2005); powerset:5 is one 32-element leaf
        assert count_closures(powerset_lattice(k)).value == want

    @pytest.mark.parametrize("required,want", [
        ([8, 18, 23], 921_984), ([19], 1_882_384), ([3, 10, 12], 460_992),
    ])
    def test_constrained_six_level_stack(self, required, want):
        p = stacked(powerset_lattice(2), 6)
        assert count_closures(p, mask_of(required)).value == want

    @pytest.mark.parametrize("reverse,base", [(False, 7), (True, 14)])
    def test_brooms_multiply_their_diamonds(self, reverse, base):
        # diamonds over one common bottom are summit siblings, diamonds
        # under one common top bottleneck siblings
        assert oracle_count(broom(3, reverse)) == base ** 3
        assert count_closures(broom(3, reverse)).value == base ** 3

    def test_broom_of_300_summit_siblings(self):
        assert count_closures(broom(300)).value == 7 ** 300

    def test_broom_of_1000_summit_siblings_in_one_quotient(self):
        # the 1000 diamonds are collapsed together: one quotient, one
        # recursive call, so neither the depth nor the time grows with k
        start = time.process_time()
        trace = count_closures(broom(1000)).trace
        assert time.process_time() - start < 1.0
        assert trace.value == 7 ** 1000
        assert trace.kind == "summit" and len(trace.isos) == 1000


class TestDispatch:
    def test_chain_is_a_formula_leaf(self):
        trace = count_closures(chain(5)).trace
        assert trace.kind == "special" and trace.children == ()

    def test_antichain_is_a_component_product(self):
        trace = count_closures(antichain(3)).trace
        assert trace.kind == "components" and len(trace.children) == 3
        assert all(c.kind == "special" for c in trace.children)

    def test_stack_splits_at_a_summit(self):
        trace = count_closures(stacked(powerset_lattice(2), 2)).trace
        assert trace.kind == "summit"
        (iso,) = trace.isos
        assert iso.kind is IsoKind.SUMMIT
        quot, inside = trace.children
        assert trace.value == quot.value * inside.value

    def test_two_tops_split_at_a_bottleneck(self):
        trace = count_closures(CHAIN_TWO_TOPS).trace
        assert trace.kind == "bottleneck"
        assert [(iso.bottom, iso.top) for iso in trace.isos] == [(0, 1)]
        meeting, inside, whole = trace.children
        assert trace.value == meeting.value * 2 * (inside.value - 1) + whole.value

    def test_last_bottleneck_child_counts_every_quotient_system(self):
        # C(P) = C(Q, t) + 2 (|C(S')| - 1) C(Q, t + {c}): the last child is
        # C(Q), 28, not the 14 quotient systems that avoid the class c
        p = broom(2, reverse=True)
        trace = count_closures(p).trace
        (iso,) = trace.isos
        q, idmap = p.restrict(quotient_by(p, iso))
        c = 1 << idmap.index(iso.bottom)
        assert [child.value for child in trace.children] == [14, 7, 28]
        assert (oracle_count(q), oracle_count(q, c)) == (28, 14)
        assert trace.value == 14 * (2 * 7 - 1) + (28 - 14) == oracle_count(p)

    def test_powerset_falls_back_to_brute_force(self):
        trace = count_closures(powerset_lattice(3)).trace
        assert trace.kind == "brute"
        assert trace.search_space == 128  # 8 elements minus the forced top

    def test_summit_is_preferred_over_bottleneck(self):
        # GLUED has both a summit suborder and a bottleneck suborder
        assert find_max_summit_isos(GLUED) and find_max_bottleneck_isos(GLUED)
        assert count_closures(GLUED).trace.kind == "summit"

    def test_constrained_suborders_are_skipped(self):
        # the only summit suborder of the stack contains element 7; with it
        # constrained the counter must take a different route, same value
        p = stacked(powerset_lattice(2), 2)
        iso = find_max_summit_isos(p)[0]
        t = mask_of([iso.bottom])
        assert iso.members & t
        result = count_closures(p, t)
        assert not any(iso.members & t for iso in result.trace.isos)
        assert result.value == oracle_count(p, t)

    def test_maximal_constraints_are_free(self):
        p = CHAIN_TWO_TOPS
        top_mask = p.maximal_mask
        result = count_closures(p, top_mask)
        assert result.value == count_closures(p).value
        assert result.trace.t_original == 0

    @pytest.mark.parametrize("part", [mask_of([0, 2, 4]), mask_of(range(5))])
    def test_constraints_maximal_in_a_part_are_free(self, part):
        # a part is counted on the masks of the poset it lies in; its top 4
        # is not maximal there, yet every system of the part contains it.
        # [0, 2, 4] is a chain, read off the masks; the N under 4 is not a
        # shape and has no suborder to split, so it is restricted as a leaf
        p = Poset(6, [(0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
        tops = tuple(range(p.n))  # nothing collapsed: each element is its own class
        shared = _Count(p, _family(p), None, {}, [p.full_mask, p, tuple(range(p.n))])
        node = _count(shared, part, mask_of([0, 4]), tops)
        assert node.kind == ("special" if size(part) == 3 else "brute")
        assert node.t_original == mask_of([0]) and node.n == size(part)
        sub, idmap = p.restrict(part)
        assert node.value == oracle_count(sub, 1 << idmap.index(0))

    def test_equal_suborders_tie_break_on_low_bottom(self):
        # two independent bottleneck 2-chains feed a fork with two tops, so
        # no summit suborder exists and the bottleneck choice is a pure tie
        p = Poset(7, [(0, 1), (2, 3), (1, 4), (3, 4), (4, 5), (4, 6)])
        assert not find_max_summit_isos(p)
        isos = find_max_bottleneck_isos(p)
        assert {(i.bottom, i.top) for i in isos} == {(0, 1), (2, 3)}
        trace = count_closures(p).trace
        assert trace.kind == "bottleneck"
        assert [iso.bottom for iso in trace.isos] == [0]
        assert trace.value == 16 == oracle_count(p)


class TestSummitSiblings:
    def test_a_summit_quotient_never_splits_on_a_summit(self):
        # all usable summit suborders are collapsed at once, and one of the
        # quotient holding a class would lift to a larger one of P
        rng = random.Random(113)
        cases = [(broom(3), 0)]
        for i in range(400):
            p = random_poset(rng, rng.randint(1, 12)) if i < 100 else glued_poset(rng, 24)[0]
            cases.append((p, random_submask(rng, p.full_mask, 3)))
        summits = siblings = 0
        for p, t in cases:
            for node in trace_nodes(count_closures(p, t).trace):
                if node.kind == "summit":
                    assert node.children[0].kind != "summit"
                    summits += 1
                    siblings += len(node.isos) > 1
        assert summits > 150 and siblings > 15

    def test_siblings_collapse_in_one_node(self):
        trace = count_closures(broom(3)).trace
        assert [(iso.bottom, iso.top) for iso in trace.isos] == [(1, 4), (5, 8), (9, 12)]
        assert trace.iso_original == mask_of(range(1, 13))
        assert explain(trace).splitlines()[0] == (
            "summit suborders [1,4], [5,8], [9,12] of 4, 4, 4 elements:"
            " 343 = 1 * 7 * 7 * 7")


class TestAgainstOracle:
    def test_random_equivalence(self):
        rng = random.Random(101)
        for _ in range(80):
            p = random_poset(rng, rng.randint(1, 9))
            t = random_submask(rng, p.full_mask, 3)
            assert count_closures(p, t).value == oracle_count(p, t)

    def test_trace_values_are_internally_consistent(self):
        for _, p in random_posets(seed=103, count=40, max_n=9):
            trace = count_closures(p).trace
            for node in trace_nodes(trace):
                if node.kind in ("components", "cuts"):
                    assert node.value == prod(c.value for c in node.children)
                elif node.kind == "summit":
                    q, *insides = node.children
                    assert len(insides) == len(node.isos)
                    assert node.value == q.value * prod(s.value for s in insides)
                elif node.kind == "bottleneck":
                    a, b, c = node.children
                    assert node.value == a.value * 2 * (b.value - 1) + c.value

    def test_split_identities_by_enumeration(self):
        # the two split rules, checked directly against enumeration over
        # every closure system of the original and of the quotient
        rng = random.Random(107)
        checked = 0
        for _, p in random_posets(seed=107, count=60, max_n=8):
            for iso in find_max_summit_isos(p) + find_max_bottleneck_isos(p):
                t = random_submask(rng, p.full_mask & ~iso.members, 2)
                systems = [c.members for c in enumerate_closure_systems(p, required=t)]
                meeting = sum(1 for c in systems if c & iso.members)
                q, idmap = p.restrict(quotient_by(p, iso))
                # the bottom's id stands for the class of all of iso.members
                qt = mask_of(i for i, x in enumerate(idmap) if (t >> x) & 1)
                qsystems = [c.members
                            for c in enumerate_closure_systems(q, required=qt)]
                cls = 1 << idmap.index(iso.bottom)
                q_with = sum(1 for c in qsystems if c & cls)
                sub, _ = p.restrict(iso.members)
                inner = oracle_count(sub)
                if iso.kind is IsoKind.SUMMIT:
                    assert len(systems) == len(qsystems) * inner
                else:
                    assert meeting == q_with * (2 * inner - 1)
                    assert len(systems) - meeting == len(qsystems) - q_with
                checked += 1
        assert checked >= 30  # the sample actually exercised the identities

    def test_no_disjointness_violations(self):
        rng = random.Random(109)
        for _ in range(60):
            p = random_poset(rng, rng.randint(1, 9))
            t = random_submask(rng, p.full_mask, 3)
            assert disjointness_violations(count_closures(p, t).trace) == 0


class TestMetamorphic:
    @seed(2302)
    @settings(max_examples=80, deadline=None)
    @given(posets(max_n=9), st.data())
    def test_relabelling_invariance(self, p, data):
        # the leaf decides elements in a label-dependent linear extension
        perm = data.draw(st.permutations(range(p.n)))
        t = data.draw(st.integers(min_value=0, max_value=p.full_mask))
        q = Poset(p.n, [(perm[u], perm[v]) for u, v in p.covers])
        qt = mask_of(perm[x] for x in bits(t))
        want = count_closures(p, t).value
        assert count_closures(q, qt).value == want
        assert count_closure_systems_bruteforce(q, qt) == want
        assert count_closure_systems_bruteforce(p, t) == want

    @seed(13)
    @settings(max_examples=60, deadline=None)
    @given(posets(max_n=7), posets(max_n=7), st.data())
    def test_product_law_on_disjoint_unions(self, p, q, data):
        tp = data.draw(st.integers(min_value=0, max_value=p.full_mask))
        tq = data.draw(st.integers(min_value=0, max_value=q.full_mask))
        union = Poset(p.n + q.n, list(p.covers)
                      + [(u + p.n, v + p.n) for u, v in q.covers])
        t = tp | tq << p.n
        want = oracle_count(p, tp) * oracle_count(q, tq)
        assert count_closures(union, t).value == want
        assert count_closure_systems_bruteforce(union, t) == want


def leafy_tower(rng: random.Random) -> tuple:
    """A relabelled tower of 3 to 5 copies of a random base with a bottom
    and a top that is itself a leaf (no shape, no usable suborder), and a
    constraint of at most 3 elements of the lowest copy below its top, so
    that the copies above it are isomorphic leaves."""
    while True:
        m = rng.randint(2, 5)
        inner = [(u + 1, v + 1) for u, v in random_poset(rng, m).covers]
        base = Poset(m + 2, inner + [(0, x) for x in range(1, m + 1)]
                     + [(x, m + 1) for x in range(1, m + 1)])
        if count_closures(base).trace.kind == "brute":
            break
    tower = stacked(base, rng.randint(3, 5))
    t = random_submask(rng, base.full_mask >> 1, 3)
    perm = rng.sample(range(tower.n), tower.n)
    return (Poset(tower.n, [(perm[u], perm[v]) for u, v in tower.covers]),
            mask_of(perm[x] for x in bits(t)))


def leaf_dp_calls(monkeypatch) -> list:
    """Element counts of the leaves the frontier DP counts from now on."""
    calls = []
    dp = counting.count_closure_systems_bruteforce
    monkeypatch.setattr(counting, "count_closure_systems_bruteforce",
                        lambda p, *args, **kwargs: calls.append(p.n) or dp(p, *args, **kwargs))
    return calls


class TestAgainstTheWholePosetDP:
    # Above the enumerator's reach: the whole-poset DP runs no detector,
    # quotient or formula, and the decomposition runs the same leaf kernel
    # only on other, smaller posets, so the two routes share little but
    # Poset. Most of these instances split at a summit or a bottleneck;
    # the towers reuse the count of a leaf for the copies isomorphic to it.
    @seed(1307)
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["connected", "glued", "broom", "tower"]), st.integers(0, 2 ** 32))
    def test_decomposition_agrees_with_the_whole_poset_dp(self, source, rng_seed):
        rng = random.Random(rng_seed)
        if source == "tower":
            p, t = leafy_tower(rng)
        else:
            if source == "connected":
                p = random_connected_poset(rng, rng.randint(13, 40))
            elif source == "glued":
                p = glued_poset(rng, rng.randint(13, 40))[0]
            else:
                p = relabel(broom(rng.randint(3, 7), reverse=rng.random() < 0.5), rng)
            t = random_submask(rng, p.full_mask, 3)
        try:
            want = count_closure_systems_bruteforce(p, t, cap=1 << 18)
            got = count_closures(p, t, cap=1 << 18).value
        except TooLargeError:
            return
        assert got == want


    def test_towers_count_each_leaf_class_once(self, monkeypatch):
        calls = leaf_dp_calls(monkeypatch)
        reused = 0
        for i in range(40):
            p, t = leafy_tower(random.Random(i))
            del calls[:]
            trace = count_closures(p, t, cap=1 << 18).trace
            leaves = sum(node.kind == "brute" for node in trace_nodes(trace))
            assert len(calls) <= leaves
            reused += len(calls) < leaves
            assert trace.value == count_closure_systems_bruteforce(p, t, cap=1 << 18)
        assert reused >= 30

    @pytest.mark.parametrize("levels,want", [
        (5, 13_513_540_816), (12, 5_436_106_699_361_456_452_241_408)])
    @pytest.mark.parametrize("rng_seed", [1, 2, 3])
    def test_cube_towers_call_the_leaf_dp_once(self, monkeypatch, levels, want, rng_seed):
        # the values are the whole-poset DP's; every level is an 8-element
        # cube with 61 closure systems, a leaf, and only the first is counted
        p = relabel(family(f"stacked:{levels}:powerset:3"), random.Random(rng_seed))
        calls = leaf_dp_calls(monkeypatch)
        trace = count_closures(p).trace
        assert trace.value == want
        assert calls == [8]
        leaves = [node for node in trace_nodes(trace) if node.kind == "brute"]
        assert [(node.value, node.search_space) for node in leaves] == [(61, 128)] * levels


def isomorphic(p: Poset, q: Poset) -> bool:
    """Does some bijection map p's covers onto q's? By a search over all
    permutations, for small posets."""
    if (p.n, len(p.covers)) != (q.n, len(q.covers)):
        return False
    return any({(perm[a], perm[b]) for a, b in p.covers} == q.covers
               for perm in permutations(range(p.n)))


class TestLeafKey:
    # _structure(p, s) files an unconstrained leaf's count within one
    # count_closures call: equal keys must be an isomorphism of the orders
    def test_equal_keys_are_isomorphisms(self):
        rng = random.Random(4099)
        groups = {}
        for _ in range(200):
            p = random_poset(rng, rng.randint(1, 7))
            perm = rng.sample(range(p.n), p.n)
            copy = Poset(p.n, [(perm[u], perm[v]) for u, v in p.covers])
            for q in (p, copy):
                groups.setdefault(_structure(q, q.full_mask), []).append(q)
        shared = [members for members in groups.values() if len(members) > 1]
        assert len(shared) >= 50  # the check below is not vacuous
        for p, *others in shared:
            for q in others:
                assert isomorphic(p, q)

    @pytest.mark.parametrize("first,second", [
        # two elements under one, or two over one
        (Poset(3, [(0, 2), (1, 2)]), Poset(3, [(0, 1), (0, 2)])),
        # a crown and a fork with the same heights and up-degrees
        (Poset(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)]),
         Poset(6, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 5), (2, 3)])),
        # an N and a chain with a pendant
        (Poset(4, [(0, 2), (1, 2), (1, 3)]), Poset(4, [(0, 1), (1, 2), (0, 3)])),
    ])
    def test_near_misses_get_different_keys(self, first, second):
        assert (first.n, len(first.covers)) == (second.n, len(second.covers))
        assert not isomorphic(first, second)
        assert _structure(first, first.full_mask) != _structure(second, second.full_mask)

    def test_the_key_read_off_the_masks_is_the_restricted_key(self):
        # _structure(p, s) reads the order on s off p's masks, s convex or
        # not, and must key it exactly as the Poset restrict builds on s
        rng = random.Random(6007)
        checked = 0
        for i in range(300):
            p = glued_poset(rng, 30)[0] if i % 2 else random_poset(rng, rng.randint(1, 30))
            masks = [p.full_mask] + [rng.randint(1, p.full_mask) for _ in range(4)]
            masks += [random_submask(rng, p.full_mask, rng.randint(1, p.n)) for _ in range(3)]
            for a in rng.sample(range(p.n), min(p.n, 3)):
                masks.append(p.interval(a, rng.choice(list(bits(p.up_incl[a])))))
            isos = find_max_summit_isos(p) or find_max_bottleneck_isos(p)[:1]
            if isos:
                masks.append(quotient_by(p, *isos))
            for s in filter(None, masks):
                q = p.restrict(s)[0]
                assert _structure(p, s) == _structure(q, q.full_mask)
                checked += 1
        assert checked > 3000

    def test_every_leaf_of_the_benchmark_towers_keys_as_restricted(self, monkeypatch):
        leaves = []
        count = counting._count

        def recorded(c, s, t, tops):
            node = count(c, s, t, tops)
            if getattr(node, "kind", None) == "brute":
                leaves.append((c.p, s))
            return node

        monkeypatch.setattr(counting, "_count", recorded)
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for inst in workloads.seeded_pool(workloads.load_reference(), "towers", 1):
            count_closures(Poset(inst["n"], inst["edges"]), inst["mask"])
        assert len(leaves) == 48
        for p, s in leaves:
            q = p.restrict(s)[0]
            assert _structure(p, s) == _structure(q, q.full_mask)

    def test_reused_levels_are_neither_built_nor_swept(self, monkeypatch):
        # the 12 cubes of the tower, the lowest counted as the quotient, are
        # one leaf: the first is restricted, swept and counted, and every
        # other one is found in the leaf store, keyed off the tower's masks
        p = relabel(stacked(powerset_lattice(3), 12), random.Random(12))
        swept, restricted = [], []
        sweep, restrict = counting._sweep, Poset.restrict
        monkeypatch.setattr(counting, "_sweep", lambda p, family, kind, s, tops:
                            swept.append(size(s)) or sweep(p, family, kind, s, tops))
        monkeypatch.setattr(Poset, "restrict",
                            lambda self, s: restricted.append(size(s)) or restrict(self, s))
        built, counted = record_builds(monkeypatch), leaf_dp_calls(monkeypatch)
        trace = count_closures(p).trace
        assert trace.value == 61 ** 12 * 2 ** 11
        assert sum(node.kind == "brute" for node in trace_nodes(trace)) == 12
        assert (restricted, built, counted) == ([8], [8], [8])
        assert swept == [p.n, 8, 8]  # the root's summit sweep, the first cube's two

    def test_constrained_leaves_compute_no_key(self, monkeypatch):
        # two cubes, each a leaf with a required atom: the second is
        # isomorphic to the first, t onto t, yet it is counted, not keyed
        keys = []
        structure = counting._structure
        monkeypatch.setattr(counting, "_structure",
                            lambda p, s: keys.append(size(s)) or structure(p, s))
        calls = leaf_dp_calls(monkeypatch)
        cube = powerset_lattice(3)
        p = Poset(16, list(cube.covers) + [(u + 8, v + 8) for u, v in cube.covers])
        trace = count_closures(p, 0b10 | 0b10 << 8).trace
        assert trace.value == oracle_count(cube, 0b10) ** 2
        assert [c.kind for c in trace.children] == ["brute", "brute"]
        assert (keys, calls) == ([], [8, 8])


class TestLimitsAndErrors:
    def test_empty_poset(self):
        with pytest.raises(EmptyPosetError):
            count_closures(Poset(0, []))

    def test_constraint_outside_poset(self):
        with pytest.raises(ValueError):
            count_closures(chain(2), mask_of([5]))

    def test_cap_refusal_reaches_the_caller(self):
        with pytest.raises(TooLargeError):
            count_closures(powerset_lattice(3), cap=7)

    def test_force_overrides_the_cap(self):
        assert count_closures(powerset_lattice(3), cap=None).value == 61

    def test_formula_paths_ignore_the_cap(self):
        assert count_closures(chain(30), cap=5).value == 2 ** 29

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: PATH3.restrict(1 << 5), id="restrict"),
        pytest.param(lambda: PATH3.detect_shape(0b1000), id="detect_shape"),
        pytest.param(lambda: count_special(PATH3, 0, 0b1001), id="count_special s outside p"),
        pytest.param(lambda: count_special(chain(3), 0b1000), id="count_special t outside p"),
        pytest.param(lambda: count_special(PATH3, 0b1, 0b110), id="count_special t outside s"),
        pytest.param(lambda: is_isolated_suborder(PATH3, 0b1000), id="is_isolated_suborder"),
        pytest.param(lambda: next(enumerate_closure_systems(PATH3, cap=-1)),
                     id="enumerator cap"),
        pytest.param(lambda: count_closures(PATH3, 0b1000), id="count_closures"),
    ])
    def test_out_of_range_arguments_are_value_errors(self, call):
        with pytest.raises(ValueError):
            call()

    def test_negative_cap_is_an_input_error(self):
        for p in (chain(3), powerset_lattice(3)):
            with pytest.raises(ValueError, match="nonnegative"):
                count_closures(p, cap=-1)
        assert count_closures(chain(3), cap=0).value == 4
        assert count_closures(chain(3), cap=None).value == 4


def three_towers():
    """Disjoint union of three relabelled towers, relabelled as a whole."""
    rng = random.Random(3)
    edges, offset = [], 0
    for k in (2, 3, 4):
        tower = relabel(stacked(diamond(k), k), rng)
        edges += [(u + offset, v + offset) for u, v in tower.covers]
        offset += tower.n
    return relabel(Poset(offset, edges), rng)


def record_builds(monkeypatch) -> list:
    """Element counts of the posets built from now on, in build order."""
    built = []
    init = Poset.__init__

    def counting_init(self, n, *args, **kwargs):
        built.append(n)
        init(self, n, *args, **kwargs)

    monkeypatch.setattr(Poset, "__init__", counting_init)
    return built


class TestComponentsAtTheRoot:
    # every sub-problem of a connected poset (an interval, a quotient, a
    # part between cut points) is connected, so only the root is split
    @pytest.mark.parametrize("name", ["stacked:12", "three towers"])
    def test_components_found_once_per_count(self, monkeypatch, name):
        p = three_towers() if name == "three towers" else family(name)
        calls = []
        found = Poset.connected_components
        monkeypatch.setattr(Poset, "connected_components",
                            lambda self: calls.append(self.n) or found(self))
        trace = count_closures(p).trace
        assert calls == [p.n]
        assert trace.kind == ("components" if name == "three towers" else "summit")


# a summit split whose quotient splits at a bottleneck; that quotient's
# quotient is a leaf, counted with and without the collapsed class
BOTTLENECK_UNDER_A_SUMMIT = Poset(11, [(0, 8), (1, 4), (2, 1), (2, 3), (3, 4), (5, 8),
                                       (6, 5), (7, 6), (8, 2), (9, 0), (9, 5), (10, 9)])


class TestDetectionOncePerCount:
    """A count finds the isolated suborders once, on its input
    (isolated._family); every split reads its own off that pass in input
    ids (isolated._sweep), and only a leaf becomes a Poset of its own."""

    def test_one_detection_pass_per_count(self, monkeypatch):
        # the pass runs at the count's first sweep, so an input with a
        # shape, which no sweep reads, runs none
        calls = []
        detect = counting._family
        monkeypatch.setattr(counting, "_family", lambda p: calls.append(p.n) or detect(p))
        for p in (nested(20), broom(4, reverse=True), three_towers(), family("stacked:12"),
                  BOTTLENECK_UNDER_A_SUMMIT, powerset_lattice(3), chain(4)):
            del calls[:]
            count_closures(p)
            assert calls == ([] if count_special(p) else [p.n])

    def test_the_counter_calls_no_public_finder(self, monkeypatch):
        def refuse(p):
            raise AssertionError("a public finder was called")

        for module in (counting, isolated):
            monkeypatch.setattr(module, "find_max_summit_isos", refuse)
            monkeypatch.setattr(module, "find_max_bottleneck_isos", refuse)
        rng = random.Random(211)
        splits = 0
        for _ in range(150):
            p = glued_poset(rng, 24)[0]
            trace = count_closures(p, random_submask(rng, p.full_mask, 3)).trace
            splits += sum(node.kind in ("summit", "bottleneck") for node in trace_nodes(trace))
        assert splits > 150

    @pytest.mark.parametrize("k", [2, 30, 100])
    def test_nested_levels_build_no_poset(self, monkeypatch, k):
        # each level is a part of the last, a mask of the input
        p = nested(k)
        built = record_builds(monkeypatch)
        assert count_closures(p).value == (6 ** (k + 1) - 1) // 5
        assert built == []

    def test_a_bottleneck_quotient_leaf_is_restricted_once(self, monkeypatch):
        # the two counts of the bottleneck's quotient share one Poset, and
        # no sub-problem above it is built for detection
        calls = []
        restrict = Poset.restrict
        monkeypatch.setattr(Poset, "restrict",
                            lambda self, s: calls.append(s) or restrict(self, s))
        trace = count_closures(BOTTLENECK_UNDER_A_SUMMIT).trace
        assert trace.kind == "summit" and trace.value == 784
        split = trace.children[0]
        assert split.kind == "bottleneck"
        meeting, _, whole = split.children
        assert meeting.kind == whole.kind == "brute" and meeting.n == whole.n
        assert [size(s) for s in calls] == [meeting.n]


def reference_sweep(p: Poset, kind: IsoKind, s: int, tops: tuple) -> list:
    """The suborders a sub-problem split on before a count shared one
    detection pass: restrict the sub-problem, run the public finder of the
    kind on it, and name each suborder in input ids, as (bottom, class,
    members, cuts), its class being the union of its members' classes,
    each expanded to its mask p.interval(x, tops[x]) of the input."""
    classes = {x: p.interval(x, tops[x]) for x in bits(s)}
    sub, idmap = p.restrict(s)
    finder = find_max_summit_isos if kind is IsoKind.SUMMIT else find_max_bottleneck_isos
    found = []
    for iso in finder(sub):
        members = mask_of(idmap[x] for x in bits(iso.members))
        found.append((idmap[iso.bottom], reduce(or_, (classes[x] for x in bits(members))),
                      members, tuple(idmap[x] for x in iso.cuts)))
    return found


class TestSweepAgainstTheRestrictedFinders:
    def test_every_sub_problem_of_a_count(self, monkeypatch):
        seen = []
        sweep = counting._sweep

        def checked(p, detection, kind, s, tops):
            found = sweep(p, detection, kind, s, tops)
            assert [(iso.bottom, p.interval(iso.bottom, iso.top), iso.members, iso.cuts)
                    for iso in found] == reference_sweep(p, kind, s, tops)
            assert all(iso.kind is kind for iso in found)
            seen.append((s != p.full_mask, len(found)))
            return found

        monkeypatch.setattr(counting, "_sweep", checked)
        rng = random.Random(2203)
        cases = []
        for i in range(1000):
            p = glued_poset(rng, 40)[0] if i % 2 else random_poset(rng, rng.randint(1, 40))
            cases.append((p, random_submask(rng, p.full_mask, 3)))
        cases += [(nested(k), 0) for k in range(12)]
        cases += [(relabel(broom(k, reverse), rng), 0) for k in (2, 5) for reverse in (False, True)]
        cases += [(family("stacked:12"), 0), (relabel(stacked(diamond(3), 6), rng), 0),
                  leafy_tower(rng), (three_towers(), 0)]
        for p, t in cases:
            try:
                count_closures(p, t)
            except TooLargeError:
                pass
        below_the_root = [found for below, found in seen if below]
        assert len(below_the_root) > 5000 and sum(below_the_root) > 2000


class TestExplainNamesInputIds:
    def test_printed_suborders_are_isolated_in_the_input(self):
        # each [bottom,top] an explain line prints, at any depth, bounds an
        # isolated suborder of the input; its top is maximal there iff the
        # split is a summit split
        split = re.compile(r" *(summit|bottleneck) suborders? (.*) of [0-9, ]+ elements:")
        rng = random.Random(4721)
        named = nested_names = 0
        for i in range(300):
            p = glued_poset(rng, 30)[0] if i % 2 else random_poset(rng, rng.randint(4, 30))
            try:
                trace = count_closures(p, random_submask(rng, p.full_mask, 3)).trace
            except TooLargeError:
                continue
            for line in explain(trace).splitlines():
                match = split.match(line)
                if match is None:
                    continue
                for bottom, top in re.findall(r"\[(\d+),(\d+)\]", match.group(2)):
                    bottom, top = int(bottom), int(top)
                    assert is_isolated_suborder(p, p.interval(bottom, top))
                    assert (match.group(1) == "summit") == bool((p.maximal_mask >> top) & 1)
                    named += 1
                    nested_names += line.startswith(" ")
        assert named > 300 and nested_names > 200


class TestQuadraticPathsStayOff:
    def test_tower_count_without_separator_search_or_all_pairs(self, monkeypatch):
        # detection tests order masks along post-dominator chains and
        # restrict climbs covers, so a count never runs a separator search,
        # augments the Hasse graph or asks lt for every pair of members
        p = relabel(stacked(diamond(3), 12), random.Random(12))

        def refuse(*args, **kwargs):
            raise AssertionError("quadratic path taken")

        monkeypatch.setattr(AugmentedPoset, "reachable_avoiding", refuse)
        monkeypatch.setattr(Poset, "augment", refuse)
        monkeypatch.setattr(Poset, "lt", refuse)
        assert count_closures(p).value == 18_260_173_718_028_288


class TestNestedSuborders:
    """The inside of a suborder is counted as one product over the intervals
    between its cut points, each built at most once: a part with a shape
    is counted on the masks of the poset it lies in, and not built."""

    def test_deep_tower_under_the_default_recursion_limit(self, default_recursion_limit):
        assert count_closures(family("stacked:600")).value == 7 * 14 ** 599

    @pytest.mark.parametrize("k", range(6))
    def test_nested_levels_agree_with_enumeration(self, k):
        p = nested(k)
        assert count_closures(p).value == oracle_count(p) == (6 ** (k + 1) - 1) // 5

    def test_hundred_nested_levels(self):
        assert count_closures(nested(100)).value == (6 ** 101 - 1) // 5

    @pytest.mark.parametrize("k", [100, 400])
    def test_nested_levels_build_few_intervals(self, monkeypatch, k):
        # a collapsed class is carried as its top and checked at its two
        # ends, so no level expands the classes inside it member by member:
        # the work grows linearly in k, not as k^2 / 2
        calls = []
        interval = Poset.interval
        monkeypatch.setattr(Poset, "interval",
                            lambda self, a, b: calls.append(a) or interval(self, a, b))
        assert count_closures(nested(k)).value == (6 ** (k + 1) - 1) // 5
        assert len(calls) <= 8 * k

    def test_nesting_past_the_recursion_limit_counts(self, default_recursion_limit):
        # each level is one more suborder inside the last, and one more
        # level of the decomposition: 250 of them, on the decomposition's
        # own stack, not the interpreter's
        assert count_closures(nested(250)).value == (6 ** 251 - 1) // 5

    def test_count_from_deep_in_the_callers_stack(self, default_recursion_limit):
        # the caller's depth leaves the count about 100 frames, fewer than
        # its 60 levels of nesting once took
        p = nested(60)

        def at_depth(k):
            return at_depth(k - 1) if k else count_closures(p).value

        assert at_depth(900 - len(inspect.stack(0))) == (6 ** 61 - 1) // 5

    def test_repr_of_a_trace_nested_past_the_recursion_limit(self,
                                                             default_recursion_limit):
        assert repr(count_closures(nested(250))).startswith("CountResult(value=")

    def test_tower_builds_at_most_twice_its_elements(self, monkeypatch):
        p = family("stacked:40")
        built = record_builds(monkeypatch)
        assert count_closures(p).value == 7 * 14 ** 39
        assert sum(built) <= 2 * p.n

    @pytest.mark.parametrize("name", ["stacked:40", "relabelled stacked:12:diamond:3"])
    def test_shaped_parts_build_nothing(self, monkeypatch, name):
        # every part between cut points is a diamond or a chain, and so is
        # the quotient; each shape is read off the tower's own masks
        p = (relabel(family("stacked:12:diamond:3"), random.Random(9))
             if name.startswith("relabelled") else family(name))
        built = record_builds(monkeypatch)
        trace = count_closures(p).trace
        assert trace.kind == "summit" and trace.children[0].kind == "special"
        assert built == []

    def test_levels_carry_the_original_ids_of_their_suborders(self):
        # the inside of the split is one product over the intervals between
        # consecutive cut points of S (the members comparable to all of S);
        # each part keeps its lower end, the last also the top, and those
        # originals partition S
        p = relabel(stacked(diamond(2), 6), random.Random(6))
        root = count_closures(p).trace
        assert root.kind == "summit"
        s = root.iso_original
        (iso,) = root.isos
        assert is_isolated_suborder(p, s) and size(s) == iso.n
        cuts = sorted((w for w in bits(s)
                       if all(p.leq(w, x) or p.leq(x, w) for x in bits(s))),
                      key=lambda w: size(p.down_incl[w]))
        assert len(cuts) > 5
        parts = [p.interval(v, w) for v, w in zip(cuts, cuts[1:])]
        inside = root.children[1]
        assert inside.kind == "cuts" and inside.n == size(s)
        assert [c.n for c in inside.children] == [size(m) for m in parts]
        assert [c.value for c in inside.children] == [
            count_closures(p.restrict(m)[0]).value for m in parts]
        covered = 1 << cuts[-1]
        for m, w in zip(parts, cuts[1:]):
            kept = m & ~(1 << w)
            assert not covered & kept
            covered |= kept
        assert covered == s

    def test_chain_levels_merge_into_one_chain(self):
        # cut points 1, 4, 5, 6, 7: the diamond [1, 4], then three 2-chains
        result = count_closures(CHAIN_ABOVE_DIAMOND)
        assert result.value == oracle_count(CHAIN_ABOVE_DIAMOND) == 112
        assert explain(result.trace).splitlines() == [
            "summit suborder [1,7] of 7 elements: 112 = 2 * 56",
            "  chain n=2 -> 2",
            "  product over 4 parts between cut points -> 56",
            "    diamond width 2 -> 7",
            "    chain n=2 -> 2",
            "    chain n=2 -> 2",
            "    chain n=2 -> 2",
        ]

    @seed(4417)
    @settings(max_examples=40, deadline=None)
    @given(posets(max_n=3), st.integers(min_value=2, max_value=4), st.data())
    def test_relabelled_towers_agree_with_enumeration(self, base, levels, data):
        tower = stacked(base, levels)
        perm = data.draw(st.permutations(range(tower.n)))
        p = Poset(tower.n, [(perm[u], perm[v]) for u, v in tower.covers])
        t = data.draw(st.integers(min_value=0, max_value=p.full_mask))
        assert count_closures(p, t).value == oracle_count(p, t)


class TestSearchSpace:
    @pytest.mark.parametrize("levels,direct", [(2, 128), (3, 2048)])
    def test_decomposition_examines_fewer_subsets(self, levels, direct):
        p = stacked(powerset_lattice(2), levels)
        assert bruteforce_search_space(p) == direct
        trace = count_closures(p).trace
        assert bruteforce_candidates(trace) < direct

    def test_brute_leaf_space_is_recorded(self):
        trace = count_closures(powerset_lattice(3)).trace
        assert bruteforce_candidates(trace) == 128


class TestExplain:
    def test_chain_line(self):
        assert explain(count_closures(chain(5)).trace) == "chain n=5 -> 16"

    def test_stack_tree_is_indented(self):
        text = explain(count_closures(stacked(powerset_lattice(2), 2)).trace)
        lines = text.splitlines()
        assert lines[0].startswith("summit suborder [3,7] of 5 elements: 98 = 7 * 14")
        assert lines[1] == "  diamond width 2 -> 7"
        assert all(line.startswith("  ") for line in lines[1:])

    def test_bottleneck_line_shows_the_combination(self):
        text = explain(count_closures(CHAIN_TWO_TOPS).trace)
        assert "bottleneck suborder [0,1]" in text
        assert "* 2*(" in text and "-1) +" in text
        # an inside without cut points strictly inside is no product node
        assert text.splitlines()[2] == "  chain n=2 -> 2"

    def test_components_line(self):
        # 1 is maximal, so T = {1} is free and carries no note
        p = Poset(5, [(0, 1), (2, 3), (2, 4)])
        assert explain(count_closures(p, mask_of([1])).trace).splitlines() == [
            "product over 2 components -> 2",
            "  chain n=2 -> 2",
            "  leaf count, search space 2 -> 1",
        ]

    def test_brute_line(self):
        text = explain(count_closures(powerset_lattice(3)).trace)
        assert text == "leaf count, search space 128 -> 61"

    def test_constraint_note(self):
        text = explain(count_closures(chain(5), mask_of([1])).trace)
        assert "[|T|=1]" in text

    def test_values_past_the_int_to_str_digit_limit(self):
        # 2^14999 has 4,516 digits, past CPython's default str() limit
        text = explain(count_closures(chain(15000)).trace)
        head, value = text.rsplit(" ", 1)
        assert head == "chain n=15000 ->" and len(value) == 4516
        assert Decimal(value) == Decimal(2 ** 14999)

    def test_excerpt_past_the_int_to_str_digit_limit(self):
        # a quote of a 5,000-digit int reads its two ends through digits
        value = 7 ** 5916
        assert excerpt(value) == "3981115012675544...9698446870109601 (5000 characters)"
        assert excerpt(-value, 20) == "-398111501...6870109601 (5001 characters)"

    def test_repr_reads_like_the_named_tuple_default(self):
        assert repr(count_closures(chain(2))) == (
            "CountResult(value=2, trace=DecompositionTrace(kind='special', value=2,"
            " n=2, children=(), shape=Shape(kind=<ShapeKind.CHAIN: 'chain'>, size=2),"
            " isos=(), iso_original=0, t_original=0, search_space=0))")
        text = repr(count_closures(stacked(powerset_lattice(2), 2)))
        assert ("isos=(IsolatedSuborder(bottom=3, top=7, members=248, kind="
                "<IsoKind.SUMMIT: 'summit'>, cuts=(3, 4, 7)),), iso_original=248") in text

    def test_repr_past_the_int_to_str_digit_limit(self):
        # a bottomless diamond glued under a diamond of width 15,000: the
        # count, the suborder's members and their original mask each have
        # over 4,300 digits, which the named tuple default repr refuses
        w = 15000
        n = w + 4
        p = Poset(n, [(0, 2), (1, 2)] + [(2, x) for x in range(3, n - 1)]
                  + [(x, n - 1) for x in range(3, n - 1)])
        result = count_closures(p)
        assert result.value == 4 * (2 ** w + w + 1)
        (iso,) = result.trace.isos
        text = repr(result)
        assert text.startswith(f"CountResult(value={digits(result.value)}, trace="
                               "DecompositionTrace(kind='summit'")
        assert f"members={digits(iso.members)}, kind=" in text
        assert text.endswith(f"iso_original={digits(iso.members)}, t_original=0,"
                             " search_space=0))")

"""Closed-form shape counts against exhaustive enumeration.

count_special is checked for EVERY constraint set T over small instances:
the systems are enumerated once per shape and the count must match the
number of enumerated systems containing T exactly. This is the adjudication
that fixed the bottom-in-T diamond case and the bottomless-diamond exponent.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from closurecount import Poset, bits, count_closures, enumerate_closure_systems, mask_of
from closurecount.formulas import count_special
from closurecount.generators import bottomless_diamond, chain, diamond
from closurecount.poset import Shape, ShapeKind
from conftest import glued_poset, oracle_count, random_poset


def _counts_by_superset(p):
    """Map each T to the number of enumerated systems containing it."""
    systems = list(enumerate_closure_systems(p))
    return {t: sum(1 for c in systems if c & t == t) for t in range(1 << p.n)}


def _value(p, t=0):
    return count_special(p, t).value


class TestChain:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_constraint_set(self, n):
        p = chain(n)
        oracle = _counts_by_superset(p)
        for t in range(1 << n):
            assert _value(p, t) == oracle[t]

    def test_law(self):
        for n in range(1, 13):
            assert _value(chain(n)) == 2 ** (n - 1)


class TestDiamond:
    @pytest.mark.parametrize("w", range(1, 5))
    def test_every_constraint_set(self, w):
        p = diamond(w)
        oracle = _counts_by_superset(p)
        for t in range(1 << (w + 2)):
            assert _value(p, t) == oracle[t]

    def test_case_values(self):
        d2, d3, d4 = diamond(2), diamond(3), diamond(4)
        # bottom constrained: 2^(width - belt hits); the bottom itself is
        # free in the exponent since it comes along with any two belt picks
        assert _value(d2, mask_of([0])) == 4
        assert _value(d2, mask_of([0, 1])) == 2
        assert _value(d3, mask_of([0])) == 8
        # two belt hits force the bottom
        assert _value(d2, mask_of([1, 2])) == 1
        assert _value(d3, mask_of([1, 3])) == 2
        # one belt hit
        assert _value(d2, mask_of([1])) == 3
        assert _value(d4, mask_of([2])) == 9
        # unconstrained law, top membership free
        assert _value(d2) == 7
        assert _value(d2, mask_of([3])) == 7
        for w in range(1, 11):
            assert _value(diamond(w)) == 2 ** w + w + 1


class TestBottomlessDiamond:
    @pytest.mark.parametrize("w", range(1, 6))
    def test_every_constraint_set(self, w):
        p = bottomless_diamond(w)
        oracle = _counts_by_superset(p)
        for t in range(1 << (w + 1)):
            assert _value(p, t) == oracle[t]

    def test_law(self):
        # 2^(width - |T minus top|); the top contributes nothing
        for w in range(1, 9):
            p = bottomless_diamond(w)
            assert _value(p) == 2 ** w
            assert _value(p, mask_of([w])) == 2 ** w
            assert _value(p, mask_of([0])) == 2 ** (w - 1)


class TestCountSpecial:
    def test_chain_with_shuffled_ids(self):
        p = Poset(4, [(2, 0), (0, 3), (3, 1)])  # chain 2 < 0 < 3 < 1
        oracle = _counts_by_superset(p)
        for t in range(1 << 4):
            got = count_special(p, t)
            assert got is not None and got.shape.kind is ShapeKind.CHAIN
            assert got.value == oracle[t]

    def test_diamond_with_shuffled_ids(self):
        p = Poset(5, [(4, 0), (4, 2), (4, 3), (0, 1), (2, 1), (3, 1)])
        oracle = _counts_by_superset(p)
        for t in range(1 << 5):
            got = count_special(p, t)
            assert got is not None and got.shape.kind is ShapeKind.DIAMOND
            assert got.value == oracle[t]

    def test_bottomless_with_shuffled_ids(self):
        p = Poset(4, [(3, 1), (0, 1), (2, 1)])
        oracle = _counts_by_superset(p)
        for t in range(1 << 4):
            got = count_special(p, t)
            assert got is not None and got.shape.kind is ShapeKind.BOTTOMLESS_DIAMOND
            assert got.value == oracle[t]

    def test_constraint_summary(self):
        p = diamond(3)
        cc = count_special(p, mask_of([0, 2, 3, 4]))
        assert cc.value == 2
        assert cc.shape == Shape(ShapeKind.DIAMOND, 3)

    def test_unrecognized_shape(self):
        p = Poset(4, [(0, 1), (0, 2), (1, 3)])
        assert count_special(p) is None


class TestShapesOnMasks:
    """A suborder's shape and count, read off the masks of the poset it
    lies in, equal those of the suborder built as a Poset of its own."""

    @seed(9091)
    @settings(max_examples=1000, deadline=None)
    @given(st.randoms(use_true_random=True))
    def test_agrees_with_the_restrict(self, rng):
        # p is a random poset or one with diamonds, bottomless diamonds
        # and brooms glued on; s is any nonempty mask, convex or not, an
        # interval, a glued piece, or built to have a shape: an antichain
        # below b whose members share a lower bound, with b above it and
        # that bound below it or not; t is any subset of s
        if rng.random() < 0.5:
            p, pieces = random_poset(rng, rng.randint(1, 10)), []
        else:
            p, pieces = glued_poset(rng, rng.randint(6, 10))
        a, b = rng.randrange(p.n), rng.randrange(p.n)
        drawn = rng.getrandbits(p.n)
        belt, lower = 0, p.full_mask
        for x in bits(p.down_incl[b] ^ (1 << b)):
            below = p.down_incl[x] ^ (1 << x)
            if not (p.up_incl[x] | below) & belt and lower & below:
                belt |= 1 << x
                lower &= below
        s = rng.choice([drawn, p.interval(a, b), belt | 1 << b,
                        belt | 1 << b | lower & -lower, *pieces]) or 1 << a
        t = rng.getrandbits(p.n) & s
        sub, idmap = p.restrict(s)
        sub_t = mask_of(i for i, x in enumerate(idmap) if (t >> x) & 1)
        assert p.detect_shape(s) == sub.detect_shape()
        assert count_special(p, t, s) == count_special(sub, sub_t)


class TestDisconnected:
    """A disconnected poset counts as the product over its components."""

    def test_product(self):
        # 2-chain next to a diamond: 2 * 7
        p = Poset(6, [(0, 1), (2, 3), (2, 4), (3, 5), (4, 5)])
        trace = count_closures(p).trace
        assert trace.kind == "components"
        assert [(c.n, c.value) for c in trace.children] == [(2, 2), (4, 7)]
        assert trace.value == 14 == oracle_count(p)

    def test_constraints_land_in_the_right_component(self):
        # components: the chain 0 < 2 < 4 and the diamond 1 < {3, 5} < 6;
        # each constraint set must reach its own component, in original ids
        p = Poset(7, [(0, 2), (2, 4), (1, 3), (1, 5), (3, 6), (5, 6)])
        for required in ([0], [3], [0, 3], [2, 1], [0, 2, 3, 5]):
            t = mask_of(required)
            trace = count_closures(p, t).trace
            assert trace.value == oracle_count(p, t)
            chain_part, diamond_part = trace.children
            assert chain_part.t_original == t & mask_of([0, 2, 4])
            assert diamond_part.t_original == t & mask_of([1, 3, 5, 6])

    def test_connected_is_refused(self):
        # a connected poset is never split as a product over components
        for p in (chain(2), diamond(2), Poset(4, [(0, 1), (0, 2), (1, 3)])):
            trace = count_closures(p, mask_of([0])).trace
            assert trace.kind != "components"
            assert trace.value == oracle_count(p, mask_of([0]))

    def test_antichain_counts_one(self):
        assert count_closures(Poset(3, [])).value == 1

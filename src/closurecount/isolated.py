"""Isolated suborders: detection, separator tests, and quotients.

An isolated suborder is a nonempty S' with a least element bot and greatest
element top such that the rest of the poset interacts with S' only through
its endpoints: anything above some member is above top or below nothing of
S', and dually anything below some member is below bot. Such an S' is
automatically the interval [bot, top].

Two kinds support closed counting formulas: summit suborders (top is maximal
in the whole poset) and bottleneck suborders (top has a bottleneck, which in
a finite poset means exactly one upper cover). On the order masks, [v, b]
is an isolated suborder iff v <= b, everything above v is in [v, b] or
above b, and everything below b is in [v, b] or below v. In the Hasse graph
augmented with artificial endpoints these say that b post-dominates v and v
dominates b, a single-entry single-exit region (Johnson, Pearson and
Pingali, PLDI 1994). Detection walks each v's chain of post-dominators and
tests the masks along it, once per poset (_family); the maximal suborders
of a part of the poset, or of a quotient of one, are read off that pass
(_sweep), so a count detects once, on its input, and the finders below
are that sweep over the whole poset. Two definitional checks remain:
is_isolated_suborder tests the definition itself, and is_separator tests
the separator characterization by a path search. The cut points of [v, b]
(the members comparable to all members, so on every path from v to b),
where the suborders nested in it under b start, are v's post-dominator
chain up to b (cuts). Since S' is entered only at its bottom and left only
at its top, the quotient by disjoint ones is the suborder on the rest plus
their bottoms, so quotient_by returns it as that mask of the poset.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .bitset import ElementSet, bits, mask_of, size
from .errors import NotIsolatedError, SameNodeError
from .poset import AugmentedPoset, Poset


class IsoKind(Enum):
    BOTTLENECK = "bottleneck"
    SUMMIT = "summit"


class IsolatedSuborder(NamedTuple):
    bottom: int
    top: int
    members: ElementSet
    kind: IsoKind
    cuts: tuple  # bottom, ..., top: the members comparable to every member

    @property
    def n(self) -> int:
        return size(self.members)


def is_isolated_suborder(p: Poset, s: ElementSet) -> bool:
    """Direct definitional check (used as the oracle for separator-based
    detection): s has a least and a greatest member, any comparability from
    inside to the outside factors through them. Raises ValueError when s
    has bits outside p."""
    if s & ~p.full_mask:
        raise ValueError(f"element mask {s:#x} has bits outside the poset")
    if not s:
        return False
    bot = p.least_element_of(s)
    top = p.greatest_element_of(s)
    if bot is None or top is None:
        return False
    outside = p.full_mask & ~s
    for y in bits(s):
        if p.up_incl[y] & outside & ~p.up_incl[top]:
            return False  # something above y escapes without passing top
        if p.down_incl[y] & outside & ~p.down_incl[bot]:
            return False
    return True


def is_separator(aug: AugmentedPoset, u: int, s: int, t: int) -> bool:
    """True iff every directed path s -> t in the augmented Hasse graph
    passes through u (vacuously true when t is unreachable)."""
    if u == s or u == t:
        raise SameNodeError(f"separator candidate {u} equals an endpoint")
    return not aug.reachable_avoiding(s, t, removed=u)


def _family(p: Poset) -> tuple:
    """The detection pass over p, once per poset: (ipdom, rank, {kind:
    (bottoms, best)}). ipdom[v] is v's immediate post-dominator (p.n for
    none), rank[v] v's place in p.topo, best[v] the highest top b > v of
    the kind with [v, b] isolated, or None, and bottoms the mask of the v
    that have one. A summit top is maximal in p, a bottleneck top has
    exactly one upper cover.

    [v, b] is isolated iff everything above v is in it or above b (b
    post-dominates v: every path up from v meets b) and everything below b
    is in it or below v (v dominates b), [v, b] being up[v] & down[b]. The
    b that post-dominate v form a chain, ipdom[v], ipdom[ipdom[v]], ...:
    each lies above v's upper covers, so on the chain of the first one, and
    once one passes the test every later one does. Down-sets only grow up
    the chain, so the walk up it stops at the first node v does not
    dominate.
    """
    n = p.n
    up, down = p.up_incl, p.down_incl
    # Walking up from v may jump from a chain node b straight to stop[b],
    # the first node of b's chain that b does not dominate: v dominates b,
    # so it dominates everything b does. last[b] is the highest bottleneck
    # top from b itself up to below stop[b], best[v] the highest above v.
    # A summit top ends its chain, at end[v]: the best one is end[v] when
    # the walk reaches it.
    ipdom, stop, end, last = [n] * n, [n] * n, [n] * n, [None] * n
    best_s, best_b, has_s, has_b = [None] * n, [None] * n, 0, 0
    for v in reversed(p.topo):
        covers = p.cover_succ[v]
        # a single upper cover is the immediate post-dominator; of several,
        # the first is not, and the immediate post-dominator is on its chain
        b = covers[0] if covers else n
        while len(covers) > 1 and b != n and up[v] & down[b] | up[b] != up[v]:
            b = ipdom[b]
        ipdom[v] = b
        while b != n and up[v] & down[b] | down[v] == down[b]:
            if last[b] is not None:
                best_b[v] = last[b]
            b = stop[b]
        stop[v] = b
        end[v] = v if ipdom[v] == n else end[ipdom[v]]
        if b == n and end[v] != v and not p.cover_succ[end[v]]:
            best_s[v] = end[v]
            has_s |= 1 << v
        if best_b[v] is not None:
            has_b |= 1 << v
        last[v] = v if best_b[v] is None and len(covers) == 1 else best_b[v]
    rank = {v: i for i, v in enumerate(p.topo)}
    return ipdom, rank, {IsoKind.SUMMIT: (has_s, best_s), IsoKind.BOTTLENECK: (has_b, best_b)}


def _sweep(p: Poset, family: tuple, kind: IsoKind, s: ElementSet, origin: tuple) -> list:
    """The inclusion-maximal isolated suborders of `kind` of the suborder
    on the mask s of p, read off p's detection pass (_family). Each member
    x of s stands for its class origin[x], an isolated suborder of p with
    bottom x, and the classes together make up a convex set of p.

    They are the intervals [v, best[v]] of p with v in s that lie in the
    classes and cut none of them, holding two or more members of s, s
    itself excluded, kept where maximal; an iso's members and cuts are
    those in s, so p.interval(bottom, top) is its class. The intervals
    nest or are disjoint (overlapping ones would make a longer one
    isolated from the lower bottom), so a sweep in topological order drops
    exactly those whose bottom a kept one covers. The cut points of
    [v, b], the members comparable to every member, are v's chain up to
    b; since a class is entered only at its bottom and left only at its
    top, [v, b] lies in the classes and cuts none iff b is the top of the
    class of its last cut point in s.
    """
    ipdom, rank, (bottoms, best) = family[0], family[1], family[2][kind]
    kept, covered = [], 0
    for v in sorted(bits(s & bottoms), key=rank.__getitem__):
        b = best[v]
        members = p.interval(v, b) & s
        if (covered >> v) & 1 or members == s or size(members) < 2:
            continue
        cuts, x = [v], v
        while x != b:
            x = ipdom[x]
            if (s >> x) & 1:
                cuts.append(x)
        if origin[cuts[-1]] & p.up_incl[b] == 1 << b:
            kept.append(IsolatedSuborder(v, b, members, kind, tuple(cuts)))
            covered |= members
    return sorted(kept)  # by bottom, the first field and distinct


def find_max_bottleneck_isos(p: Poset) -> list:
    """Inclusion-maximal useful isolated suborders whose top has a
    bottleneck. Candidate tops are the nodes with exactly one upper cover."""
    return _sweep(p, _family(p), IsoKind.BOTTLENECK, p.full_mask,
                  tuple(1 << x for x in range(p.n)))


def find_max_summit_isos(p: Poset) -> list:
    """Inclusion-maximal useful isolated suborders whose top is maximal in
    the whole poset."""
    return _sweep(p, _family(p), IsoKind.SUMMIT, p.full_mask,
                  tuple(1 << x for x in range(p.n)))


def quotient_by(p: Poset, *isos: IsolatedSuborder) -> ElementSet:
    """P/S'_1/.../S'_k for pairwise disjoint isolated suborders S'_i, as the
    mask of p on the rest plus every bottom, which stands for its S'_i: an
    element outside S'_i is above (below) some member iff it is above
    (below) the bottom. p.restrict of the mask builds the quotient poset."""
    rest = p.full_mask
    for iso in isos:
        if iso.members & ~rest or not is_isolated_suborder(p, iso.members):
            raise NotIsolatedError(f"mask {iso.members:#x} is not an isolated"
                                   " suborder disjoint from the others")
        rest &= ~iso.members
    return rest | mask_of(iso.bottom for iso in isos)

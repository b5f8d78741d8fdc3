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
tests the masks along it. Two definitional checks remain:
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


def _max_isos(p: Poset, candidate_tops, kind: IsoKind) -> list:
    """Shared search: for each bottom v keep the highest candidate top b > v
    such that [v, b] is isolated, drop the whole poset, then drop results
    contained in another. The intervals [v, best[v]] nest or are disjoint
    (overlapping ones would make a longer one isolated from the lower
    bottom), so a sweep in topological order drops exactly the intervals
    whose bottom an interval kept before it covers.

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
    ipdom = [n] * n
    for v in reversed(p.topo):
        covers = p.cover_succ[v]
        if len(covers) == 1:
            ipdom[v] = covers[0]
        elif covers:
            b = ipdom[covers[0]]
            while b != n and up[v] & down[b] | up[b] != up[v]:
                b = ipdom[b]
            ipdom[v] = b
    tops = set(candidate_tops)
    # Walking from v may jump from a chain node b straight to stop[b], the
    # first node of b's chain that b does not dominate: v dominates b, so
    # it dominates everything b does. last[b] is the highest candidate top
    # from b itself up to below stop[b], best[v] the highest above v.
    best = [None] * n
    stop = [n] * n
    last = [None] * n
    for v in reversed(p.topo):
        b = ipdom[v]
        while b != n and up[v] & down[b] | down[v] == down[b]:
            if last[b] is not None:
                best[v] = last[b]
            b = stop[b]
        stop[v] = b
        last[v] = v if best[v] is None and v in tops else best[v]
    kept, covered = [], 0
    for v in p.topo:
        b = best[v]
        if b is None or (covered >> v) & 1:
            continue
        members = p.interval(v, b)
        if members != p.full_mask:
            # the members comparable to every member: v's chain up to b
            cuts = [v]
            while cuts[-1] != b:
                cuts.append(ipdom[cuts[-1]])
            kept.append(IsolatedSuborder(v, b, members, kind, tuple(cuts)))
            covered |= members
    kept.sort(key=lambda iso: iso.bottom)
    return kept


def find_max_bottleneck_isos(p: Poset) -> list:
    """Inclusion-maximal useful isolated suborders whose top has a
    bottleneck. Candidate tops are the nodes with exactly one upper cover,
    in topological order."""
    tops = [b for b in p.topo if len(p.cover_succ[b]) == 1]
    return _max_isos(p, tops, IsoKind.BOTTLENECK)


def find_max_summit_isos(p: Poset) -> list:
    """Inclusion-maximal useful isolated suborders whose top is maximal in
    the whole poset."""
    tops = [b for b in p.topo if (p.maximal_mask >> b) & 1]
    return _max_isos(p, tops, IsoKind.SUMMIT)


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

"""Recursive counting of constrained closure systems.

count_closures(p, t) returns |{closure systems C of p with t inside C}| by
preferring structure over enumeration, in this order:

  1. disconnected posets: product over components;
  2. recognized shapes (chain, diamond, bottomless diamond): closed formula;
  3. a useful summit suborder S' disjoint from t: the systems factor as
     (systems of the quotient) x (systems of S'), since C must meet S';
     the inside S' (here and in step 4) is counted along its chain of
     nested summit suborders, read off the dominator tree of S' built
     within p, one small ring poset per level, instead of being rebuilt
     and searched again at every level;
  4. a useful bottleneck suborder S' disjoint from t: systems that meet S'
     contribute (quotient systems containing the collapsed class) x
     (2 |C(S')| - 1), where the factor counts the nonempty preclosure
     systems of S' (C may meet S' without containing its top, and the
     bottleneck above rescues least majorizers); systems avoiding S'
     entirely are in bijection with quotient systems avoiding the class;
  5. the exact leaf counter (count_closure_systems_bruteforce, a frontier
     DP over a reverse linear extension), refused once it has visited more
     than `cap` states unless forced.

Every path is validated against enumerate_closure_systems in the test
suite; neither the decomposition nor the leaf counter is trusted on its
own.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from typing import Iterator, NamedTuple, Optional

from .bitset import ElementSet, bits, size
from .closures import (DEFAULT_BRUTE_CAP, bruteforce_search_space,
                       count_closure_systems_bruteforce)
from .errors import EmptyPosetError
from .formulas import count_chain, count_disconnected, count_special
from .isolated import (IsolatedSuborder, IsoKind, find_max_bottleneck_isos,
                       find_max_summit_isos, nested_summit_bottoms,
                       project_set, quotient_by)
from .poset import Poset, Shape, ShapeKind


class DecompositionTrace(NamedTuple):
    """One node of the decomposition tree.

    kind is one of "special", "components", "summit", "bottleneck", "brute".
    iso_original and t_original are masks in the ids of the original poset
    the count was asked about, so disjointness is auditable after nested
    quotients renumber everything; search_space is 2^(free elements) of a
    "brute" leaf, the subsets the enumerator would examine there.
    """

    kind: str
    value: int
    n: int
    children: tuple = ()
    shape: Optional[Shape] = None
    iso: Optional[IsolatedSuborder] = None
    iso_original: ElementSet = 0
    t_original: ElementSet = 0
    search_space: int = 0


class CountResult(NamedTuple):
    value: int
    trace: DecompositionTrace


def count_closures(p: Poset, t: ElementSet = 0, *,
                   cap: Optional[int] = DEFAULT_BRUTE_CAP,
                   force: bool = False) -> CountResult:
    """Count the closure systems of p containing t (an element mask).

    Exact arbitrary-precision result. Raises EmptyPosetError for n = 0 and
    TooLargeError when a leaf count would visit more than `cap` states and
    `force` is not set.
    """
    if p.n == 0:
        raise EmptyPosetError("closure systems live on a nonempty poset")
    if t & ~p.full_mask:
        raise ValueError(f"constraint mask {t:#x} has bits outside the poset")
    origin = tuple(1 << x for x in range(p.n))
    trace = _count(p, t, origin, None if force else cap)
    return CountResult(trace.value, trace)


def _originals(origin: tuple, mask: ElementSet) -> ElementSet:
    return reduce(lambda acc, x: acc | origin[x], bits(mask), 0)


def _count(p: Poset, t: ElementSet, origin: tuple, cap: Optional[int]) -> DecompositionTrace:
    t &= ~p.maximal_mask  # every system contains every maximal element
    t_orig = _originals(origin, t)

    comps = p.connected_components()
    if len(comps) > 1:
        sub_origins = deque(tuple(origin[x] for x in bits(comp)) for comp in comps)
        children = []

        def counter(sub: Poset, sub_t: ElementSet) -> int:
            node = _count(sub, sub_t, sub_origins.popleft(), cap)
            children.append(node)
            return node.value

        value = count_disconnected(p, t, counter)
        return DecompositionTrace("components", value, p.n,
                                  children=tuple(children), t_original=t_orig)

    special = count_special(p, t)
    if special is not None:
        return DecompositionTrace("special", special.value, p.n,
                                  shape=special.shape, t_original=t_orig)

    for finder, kind in ((find_max_summit_isos, "summit"),
                         (find_max_bottleneck_isos, "bottleneck")):
        usable = [iso for iso in finder(p) if not iso.members & t]
        if not usable:
            continue
        iso = max(usable, key=lambda c: (c.n, -c.bottom))
        assert not iso.members & t
        qr = quotient_by(p, iso)
        assert qr.quotient.n < p.n and iso.n < p.n
        q_origin = tuple(_originals(origin, m) for m in qr.members)
        qt = project_set(qr, t)
        assert not (qt >> qr.collapsed) & 1
        inside, iso_orig = _count_inside(p, iso, origin, cap)
        if kind == "summit":
            quot = _count(qr.quotient, qt, q_origin, cap)
            value = quot.value * inside.value
            children = (quot, inside)
        else:
            meeting = _count(qr.quotient, qt | (1 << qr.collapsed), q_origin, cap)
            avoiding = _count(qr.quotient, qt, q_origin, cap)
            value = meeting.value * 2 * (inside.value - 1) + avoiding.value
            children = (meeting, inside, avoiding)
        return DecompositionTrace(kind, value, p.n, children=children, iso=iso,
                                  iso_original=iso_orig, t_original=t_orig)

    space = bruteforce_search_space(p, t)
    value = count_closure_systems_bruteforce(p, t, cap=cap)
    return DecompositionTrace("brute", value, p.n,
                              t_original=t_orig, search_space=space)


def _count_inside(p: Poset, iso: IsolatedSuborder, origin: tuple,
                  cap: Optional[int]) -> tuple:
    """(_count(P|S, 0) for S = iso.members, the originals of S), without
    building P|S.

    Counting P|S_i collapses S_{i+1}, the next suborder of the chain
    S = S_0 > S_1 > ... > S_r from nested_summit_bottoms, so the walk goes
    up that chain from the innermost S_r, which alone is built and counted
    as it is. The quotient P|S_i / S_{i+1} is the ring [w_i, w_{i+1}] of p
    with w_{i+1} standing for the class: a convex set, numbered as
    quotient_by numbers it. Level i is a summit node over (ring, S_{i+1}),
    or the chain P|S_i is when the ring and S_{i+1} both are. Each level
    reads only its ring, plus O(n/64) big-int work per ring member.
    """
    top = iso.top
    bottoms = [iso.bottom] + nested_summit_bottoms(p, iso)
    inner = p.interval(bottoms[-1], top)
    sub, idmap = p.restrict(inner)
    node = _count(sub, 0, tuple(origin[x] for x in idmap), cap)
    inner_orig = _originals(origin, inner)
    for i in range(len(bottoms) - 2, -1, -1):
        v, w = bottoms[i], bottoms[i + 1]
        outer = p.interval(v, top)
        ring, ring_ids = p.restrict(p.interval(v, w))
        ring_node = _count(ring, 0, tuple(inner_orig if x == w else origin[x]
                                          for x in ring_ids), cap)
        n = node.n + ring.n - 1
        outer_orig = inner_orig
        ring_local = 0  # local ids in P|S_i of the ring minus w
        for x in ring_ids:
            if x != w:
                outer_orig |= origin[x]
                ring_local |= 1 << (outer & ((1 << x) - 1)).bit_count()
        if _is_chain(ring_node) and _is_chain(node):
            node = DecompositionTrace("special", count_chain(n), n,
                                      shape=Shape(ShapeKind.CHAIN, n))
        else:
            local_iso = IsolatedSuborder((outer & ((1 << w) - 1)).bit_count(),
                                         (outer & ((1 << top) - 1)).bit_count(),
                                         ((1 << n) - 1) & ~ring_local, IsoKind.SUMMIT)
            node = DecompositionTrace("summit", ring_node.value * node.value, n,
                                      children=(ring_node, node), iso=local_iso,
                                      iso_original=inner_orig)
        inner_orig = outer_orig
    return node, inner_orig


def _is_chain(node: DecompositionTrace) -> bool:
    return node.kind == "special" and node.shape.kind is ShapeKind.CHAIN


def trace_nodes(trace: DecompositionTrace) -> Iterator[DecompositionTrace]:
    """All nodes of the tree, preorder."""
    stack = [trace]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def bruteforce_candidates(trace: DecompositionTrace) -> int:
    """Total leaf search space under this node: the sum of 2^(free
    elements) over its "brute" leaves."""
    return sum(n.search_space for n in trace_nodes(trace) if n.kind == "brute")


def explain(trace: DecompositionTrace) -> str:
    """Human-readable rendering of the decomposition tree, one node per
    line, children indented under their parent."""
    out = []
    stack = [(trace, 0)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        t_note = f" [|T|={size(node.t_original)}]" if node.t_original else ""
        if node.kind == "special":
            out.append(f"{pad}{node.shape.label} -> {node.value}{t_note}")
        elif node.kind == "components":
            out.append(f"{pad}product over {len(node.children)} components"
                       f" -> {node.value}{t_note}")
        elif node.kind == "summit":
            q, s = node.children
            out.append(f"{pad}summit suborder [{node.iso.bottom},{node.iso.top}]"
                       f" of {node.iso.n} elements: {node.value}"
                       f" = {q.value} * {s.value}{t_note}")
        elif node.kind == "bottleneck":
            a, b, c = node.children
            out.append(f"{pad}bottleneck suborder [{node.iso.bottom},{node.iso.top}]"
                       f" of {node.iso.n} elements: {node.value}"
                       f" = {a.value} * 2*({b.value}-1) + {c.value}{t_note}")
        else:
            out.append(f"{pad}leaf count, search space {node.search_space}"
                       f" -> {node.value}{t_note}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(out)

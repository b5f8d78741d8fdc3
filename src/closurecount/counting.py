"""Recursive counting of constrained closure systems.

count_closures(p, t) returns |{closure systems C of p with t inside C}| by
preferring structure over enumeration, in this order:

  1. disconnected posets: product over components, only ever at the root,
     since every sub-problem of a connected poset is connected;
  2. recognized shapes (chain, diamond, bottomless diamond): closed formula;
     a sub-problem is a mask of the poset it came from (a component, a
     part between cut points or a summit quotient) and its shape is read
     off that poset's masks, so it is restricted to a Poset of its own
     only when no formula applies, for the detection and the leaf below;
  3. every useful maximal summit suborder S'_i disjoint from t, at once:
     C(P) = C(Q) x C(S'_1) x ... x C(S'_k), since C must meet each S'_i;
     the quotient Q is the mask of P on the rest plus each bottom, which
     stands for its collapsed class (quotient_by), and has no summit
     suborder left to split; the inside of a suborder (here and in step 4)
     is a product over the intervals between its consecutive cut points
     (iso.cuts), the summit formula applied down its nested summit suborders;
  4. a useful bottleneck suborder S' disjoint from t, its class c in the
     quotient Q: C(P) = C(Q, t) + 2 (|C(S')| - 1) x C(Q, t + {c}), the
     children being C(Q, t + {c}), C(S') and C(Q, t): systems meeting S'
     number C(Q, t + {c}) x (2 |C(S')| - 1), the nonempty preclosure
     systems of S' (the bottleneck above rescues least majorizers), and
     those avoiding it C(Q, t) - C(Q, t + {c}); one S' per node, so
     bottleneck siblings still split one per level;
  5. the exact leaf counter (count_closure_systems_bruteforce, a frontier
     DP over a reverse linear extension), refused once it has visited more
     than `cap` states (cap=None lifts the budget); an unconstrained leaf
     isomorphic to one already counted in this count reuses its node, from
     a per-call cache keyed by the leaf's order relabelled structurally.

Every path is validated against enumerate_closure_systems in the test
suite; neither the decomposition nor the leaf counter is trusted on its
own.
"""

from __future__ import annotations

from functools import reduce
from math import prod
from operator import or_
from typing import Iterator, NamedTuple, Optional

from .bitset import ElementSet, bits, mask_of, size
from .closures import (DEFAULT_BRUTE_CAP, bruteforce_search_space,
                       count_closure_systems_bruteforce)
from .errors import EmptyPosetError, digits
from .formulas import count_special
from .isolated import (IsoKind, find_max_bottleneck_isos, find_max_summit_isos,
                       quotient_by)
from .poset import Poset, Shape


def _run(root):
    """The value root returns, root being a generator that yields the
    generator of each sub-problem and is sent back its value. One list
    drives the whole tree, so its depth is bounded by memory, not by the
    interpreter's recursion limit."""
    stack, value = [root], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def _repr(value) -> str:
    """repr with every int formatted by digits, down through tuples and
    named tuples, since a count or a mask can pass the int/str digit limit."""
    return _run(_render(value))


def _render(value):
    if not isinstance(value, tuple):
        return digits(value) if type(value) is int else repr(value)
    items = []
    for v in value:
        items.append((yield _render(v)))
    if hasattr(value, "_fields"):  # a named tuple
        fields = map("{}={}".format, value._fields, items)
        return f"{type(value).__name__}({', '.join(fields)})"
    return f"({', '.join(items)}{',' * (len(items) == 1)})"


class DecompositionTrace(NamedTuple):
    """One node of the decomposition tree.

    kind is one of "special", "components", "cuts" (the product over the
    parts between a suborder's cut points), "summit", "bottleneck", "brute".
    isos are the suborders a split collapses, each counted in a child
    after the first; a "bottleneck" node on S' has the children
    C(Q, t + {c}), C(S'), C(Q, t) and the value C(Q, t) + 2 (|C(S')| - 1)
    x C(Q, t + {c}) (module docstring, step 4). iso_original, their union,
    and t_original are masks in the ids of the original poset the count
    was asked about, so disjointness is auditable after nested quotients
    renumber everything; search_space is 2^(free elements) of a "brute"
    leaf, the subsets the enumerator would examine there.
    """

    kind: str
    value: int
    n: int
    children: tuple = ()
    shape: Optional[Shape] = None
    isos: tuple = ()
    iso_original: ElementSet = 0
    t_original: ElementSet = 0
    search_space: int = 0
    __repr__ = _repr


class CountResult(NamedTuple):
    value: int
    trace: DecompositionTrace
    __repr__ = _repr


def count_closures(p: Poset, t: ElementSet = 0, *,
                   cap: Optional[int] = DEFAULT_BRUTE_CAP) -> CountResult:
    """Count the closure systems of p containing t (an element mask).

    Exact arbitrary-precision result. Raises EmptyPosetError for n = 0,
    ValueError for a negative `cap`, and TooLargeError for a leaf past `cap`
    states (cap=None lifts it).
    """
    if p.n == 0:
        raise EmptyPosetError("closure systems live on a nonempty poset")
    if t & ~p.full_mask:
        raise ValueError(f"constraint mask {t:#x} has bits outside the poset")
    if cap is not None and cap < 0:
        raise ValueError(f"state budget must be nonnegative, got {cap}")
    origin = tuple(1 << x for x in range(p.n))
    leaves = {}  # the unconstrained "brute" leaves of this count, see _count
    # every system contains every maximal element
    trace = _run(_product("components", p, p.connected_components(),
                          t & ~p.maximal_mask, origin, cap, leaves))
    return CountResult(trace.value, trace)


def _originals(origin: tuple, mask: ElementSet) -> ElementSet:
    return reduce(lambda acc, x: acc | origin[x], bits(mask), 0)


def _mapped(idmap: tuple, t: ElementSet, origin: tuple) -> tuple:
    """t and origin taken through a restrict's idmap."""
    return (mask_of(i for i, x in enumerate(idmap) if (t >> x) & 1),
            tuple(origin[x] for x in idmap))


def _structure(p: Poset) -> tuple:
    """n and p's covers relabelled in a structural order: by height, then
    the sorted new labels of the lower covers and up-degree, ties broken by
    id (one pass of colour refinement). The labels are a bijection, so
    equal values are an isomorphism."""
    pred = p.cover_pred
    height = [0] * p.n
    for x in p.topo:
        if pred[x]:
            height[x] = max(map(height.__getitem__, pred[x])) + 1
    label = {}
    for h in range(max(height) + 1):
        level = [x for x in range(p.n) if height[x] == h]  # ties stay in id order
        level.sort(key=lambda x: (sorted(map(label.__getitem__, pred[x])),
                                  len(p.cover_succ[x])))
        label.update(zip(level, range(len(label), p.n)))
    return p.n, frozenset([(label[u], label[v])
                           for u, ups in enumerate(p.cover_succ) for v in ups])


def _count(p: Poset, s: ElementSet, t: ElementSet, origin: tuple,
           cap: Optional[int], leaves: dict):
    """Count the connected suborder of p on the mask s, t within s; t and
    origin are in p's ids. A generator for _run: it yields each
    sub-problem and returns its DecompositionTrace. A shape is read off
    p's masks; only a part that has none becomes a Poset of its own, for
    detection and the leaf. Every sub-problem below is connected too.

    leaves files this count's unconstrained "brute" nodes under the gate
    (n, number of covers) as ({_structure: node}, [the first (p, node),
    until a second part of its gate keys it]). An unconstrained part
    isomorphic to a leaf shares its value, search space and lack of usable
    suborders (they are structural): it reuses the node, visiting no
    states, so `cap` bounds counted leaves. Constrained parts skip this."""
    # every system contains every element maximal in s
    t &= ~mask_of(x for x in bits(t) if not (p.up_incl[x] ^ (1 << x)) & s)
    t_orig = _originals(origin, t)
    special = count_special(p, t, s)
    if special is not None:
        return DecompositionTrace("special", special.value, size(s),
                                  shape=special.shape, t_original=t_orig)
    if s != p.full_mask:
        p, idmap = p.restrict(s)
        t, origin = _mapped(idmap, t, origin)
    gate, key = (p.n, sum(map(len, p.cover_succ))), None
    if not t and gate in leaves:
        keyed, unkeyed = leaves[gate]
        keyed.update((_structure(q), node) for q, node in unkeyed)
        unkeyed.clear()
        key = _structure(p)
        if key in keyed:
            return keyed[key]

    for finder in (find_max_summit_isos, find_max_bottleneck_isos):
        isos = tuple(iso for iso in finder(p) if not iso.members & t)
        if not isos:
            continue
        kind = isos[0].kind
        if kind is IsoKind.BOTTLENECK:
            isos = (max(isos, key=lambda c: (c.n, -c.bottom)),)
        q = quotient_by(p, *isos)
        assert q != p.full_mask
        # a bottom stands for its class, so its origin is all of its S'
        classes, iso_orig = list(origin), 0
        for iso in isos:
            classes[iso.bottom] = _originals(origin, iso.members)
            iso_orig |= classes[iso.bottom]
        # each inside is a product over the parts between its cut points
        # (step 3); a part's top stands for the class and keeps its origin
        insides = []
        for iso in isos:
            parts = [p.interval(v, w) for v, w in zip(iso.cuts, iso.cuts[1:])]
            insides.append((yield _product("cuts", p, parts, 0, origin, cap, leaves)))
        if kind is IsoKind.SUMMIT:
            quot = yield _count(p, q, t, tuple(classes), cap, leaves)
            value = quot.value * prod(c.value for c in insides)
            children = (quot, *insides)
        else:  # both children count the quotient: restrict it once
            q, idmap = p.restrict(q)
            q_t, q_origin = _mapped(idmap, t, classes)
            meeting = yield _count(q, q.full_mask, q_t | 1 << idmap.index(isos[0].bottom),
                                   q_origin, cap, leaves)
            whole = yield _count(q, q.full_mask, q_t, q_origin, cap, leaves)
            value = meeting.value * 2 * (insides[0].value - 1) + whole.value
            children = (meeting, *insides, whole)
        return DecompositionTrace(kind.value, value, p.n, children, isos=isos,
                                  iso_original=iso_orig, t_original=t_orig)

    space = bruteforce_search_space(p, t)
    value = count_closure_systems_bruteforce(p, t, cap=cap)
    node = DecompositionTrace("brute", value, p.n,
                              t_original=t_orig, search_space=space)
    if key is not None:
        keyed[key] = node
    elif not t:  # the first unconstrained leaf of its gate
        leaves[gate] = ({}, [(p, node)])
    return node


def _product(kind: str, p: Poset, parts: list, t: ElementSet, origin: tuple,
             cap: Optional[int], leaves: dict):
    """Product of the counts of p's suborders on each part, t restricted
    with it, as a generator for _run; a single part's own node. The parts
    are the components of p, whose systems combine independently, or the
    intervals between a suborder's cut points (_count)."""
    children = []
    for part in parts:
        children.append((yield _count(p, part, t & part, origin, cap, leaves)))
    if len(children) == 1:
        return children[0]
    return DecompositionTrace(kind, prod(c.value for c in children),
                              size(reduce(or_, parts)), children=tuple(children),
                              t_original=_originals(origin, t))


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
        value = digits(node.value)
        if node.kind == "special":
            out.append(f"{pad}{node.shape.label} -> {value}{t_note}")
        elif node.kind == "components":
            out.append(f"{pad}product over {len(node.children)} components"
                       f" -> {value}{t_note}")
        elif node.kind == "cuts":
            out.append(f"{pad}product over {len(node.children)} parts between"
                       f" cut points -> {value}{t_note}")
        elif node.kind == "summit":
            isos = node.isos
            out.append(f"{pad}summit suborder{'s' if len(isos) > 1 else ''}"
                       f" {', '.join(f'[{i.bottom},{i.top}]' for i in isos)}"
                       f" of {', '.join(str(i.n) for i in isos)} elements: {value}"
                       f" = {' * '.join(digits(c.value) for c in node.children)}{t_note}")
        elif node.kind == "bottleneck":
            (iso,) = node.isos
            a, b, c = node.children
            out.append(f"{pad}bottleneck suborder [{iso.bottom},{iso.top}]"
                       f" of {iso.n} elements: {value} = {digits(a.value)}"
                       f" * 2*({digits(b.value)}-1) + {digits(c.value)}{t_note}")
        else:
            out.append(f"{pad}leaf count, search space {digits(node.search_space)}"
                       f" -> {value}{t_note}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(out)

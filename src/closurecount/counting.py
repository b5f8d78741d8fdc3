"""Recursive counting of constrained closure systems.

count_closures(p, t) returns |{closure systems C of p with t inside C}| by
preferring structure over enumeration, in this order:

  1. disconnected posets: product over components, only ever at the root,
     since every sub-problem of a connected poset is connected;
  2. recognized shapes (chain, diamond, bottomless diamond): closed formula;
     every sub-problem is a mask of the input (a component, a part between
     cut points or a quotient, each collapsed suborder kept as its bottom)
     and its shape is read off the input's masks;
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
     the suborders of steps 3 and 4 are found once per count, by one
     detection pass over the input (isolated._family), and each
     sub-problem reads its own off that pass (isolated._sweep), in input
     ids; each is checked against the definition on the input, expanded
     to its class, as quotient_by collapses it;
  5. the exact leaf counter (count_closure_systems_bruteforce, a frontier
     DP over a reverse linear extension), refused once it has visited more
     than `cap` states (cap=None lifts the budget); only a leaf becomes a
     Poset of its own (restrict), and an unconstrained leaf isomorphic to
     one already counted in this count reuses its node, from a per-call
     cache keyed by the leaf's order relabelled structurally.

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
# the public finders stay importable here, where perfbench/layers.py wraps them
from .isolated import (IsoKind, _family, _sweep, find_max_bottleneck_isos,  # noqa: F401
                       find_max_summit_isos, quotient_by)
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
    x C(Q, t + {c}) (module docstring, step 4). Every id is one of the
    poset the count was asked about: an iso's p.interval(bottom, top) is
    the isolated suborder of that poset it collapses, and its members and
    cuts are the sub-problem's elements in it, a collapsed class counted
    once, by its bottom. iso_original, the union of their classes, and
    t_original, t with each class expanded, are masks of that poset, so
    disjointness is auditable; search_space is 2^(free elements) of a
    "brute" leaf, the subsets the enumerator would examine there.
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


class _Count(NamedTuple):
    """What the sub-problems of one count share: the input poset p, its
    detection pass (isolated._family), the state budget, the store of
    unconstrained leaves (_count) and the last leaf built, as [its mask,
    the Poset, the idmap]."""

    p: Poset
    family: tuple
    cap: Optional[int]
    leaves: dict
    built: list


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
    c = _Count(p, _family(p), cap, {}, [p.full_mask, p, tuple(range(p.n))])
    # every system contains every maximal element
    trace = _run(_product(c, "components", p.connected_components(),
                          t & ~p.maximal_mask, tuple(1 << x for x in range(p.n))))
    return CountResult(trace.value, trace)


def _originals(origin: tuple, mask: ElementSet) -> ElementSet:
    return reduce(lambda acc, x: acc | origin[x], bits(mask), 0)


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


def _count(c: _Count, s: ElementSet, t: ElementSet, origin: tuple):
    """Count the connected suborder of the input c.p on the mask s, t
    within s. Each member x stands for its class origin[x], a collapsed
    isolated suborder of the input with bottom x. A generator for _run: it
    yields each sub-problem and returns its DecompositionTrace. Shapes and
    suborders are read off the input's masks and its detection pass; only
    a leaf becomes a Poset of its own, restricted once however often it is
    counted in a row. Every sub-problem below is connected too.

    leaves files this count's unconstrained "brute" nodes under the gate
    (n, number of covers) as ({_structure: node}, [the first (p, node),
    until a second part of its gate keys it]). An unconstrained leaf
    isomorphic to one already counted shares its value and search space
    (they are structural): it reuses the node, visiting no states, so
    `cap` bounds counted leaves. Constrained leaves skip this."""
    p = c.p
    # every system contains every element maximal in s
    t &= ~mask_of(x for x in bits(t) if not (p.up_incl[x] ^ (1 << x)) & s)
    t_orig = _originals(origin, t)
    special = count_special(p, t, s)
    if special is not None:
        return DecompositionTrace("special", special.value, size(s),
                                  shape=special.shape, t_original=t_orig)
    for kind in IsoKind.SUMMIT, IsoKind.BOTTLENECK:
        isos = tuple(iso for iso in _sweep(p, c.family, kind, s, origin) if not iso.members & t)
        if not isos:
            continue
        if kind is IsoKind.BOTTLENECK:
            isos = (max(isos, key=lambda iso: (iso.n, -iso.bottom)),)
        classes = list(origin)  # a bottom stands for its class, all of its S'
        for iso in isos:
            classes[iso.bottom] = p.interval(iso.bottom, iso.top)
        iso_orig = _originals(classes, mask_of(iso.bottom for iso in isos))
        # each class, in input ids, is checked against the definition
        q = quotient_by(p, *(iso._replace(members=classes[iso.bottom]) for iso in isos)) & s
        assert q != s
        # each inside is a product over the parts between its cut points
        # (step 3); a part's top stands for the class and keeps its origin
        insides = []
        for iso in isos:
            parts = [p.interval(v, w) & s for v, w in zip(iso.cuts, iso.cuts[1:])]
            insides.append((yield _product(c, "cuts", parts, 0, origin)))
        if kind is IsoKind.SUMMIT:
            quot = yield _count(c, q, t, tuple(classes))
            value = quot.value * prod(inside.value for inside in insides)
            children = (quot, *insides)
        else:
            meeting = yield _count(c, q, t | 1 << isos[0].bottom, tuple(classes))
            whole = yield _count(c, q, t, tuple(classes))
            value = meeting.value * 2 * (insides[0].value - 1) + whole.value
            children = (meeting, *insides, whole)
        return DecompositionTrace(kind.value, value, size(s), children, isos=isos,
                                  iso_original=iso_orig, t_original=t_orig)

    if c.built[0] != s:
        c.built[:] = s, *p.restrict(s)
    _, p, idmap = c.built
    t = t and mask_of(i for i, x in enumerate(idmap) if (t >> x) & 1)
    gate, key = (p.n, sum(map(len, p.cover_succ))), None
    if not t and gate in c.leaves:
        keyed, unkeyed = c.leaves[gate]
        keyed.update((_structure(q), node) for q, node in unkeyed)
        unkeyed.clear()
        key = _structure(p)
        if key in keyed:
            return keyed[key]
    space = bruteforce_search_space(p, t)
    value = count_closure_systems_bruteforce(p, t, cap=c.cap)
    node = DecompositionTrace("brute", value, p.n,
                              t_original=t_orig, search_space=space)
    if key is not None:
        keyed[key] = node
    elif not t:  # the first unconstrained leaf of its gate
        c.leaves[gate] = ({}, [(p, node)])
    return node


def _product(c: _Count, kind: str, parts: list, t: ElementSet, origin: tuple):
    """Product of the counts of the input's suborders on each part, t
    restricted with it, as a generator for _run; a single part's own node.
    The parts are the components of the input, whose systems combine
    independently, or the intervals between a suborder's cut points
    (_count)."""
    children = []
    for part in parts:
        children.append((yield _count(c, part, t & part, origin)))
    if len(children) == 1:
        return children[0]
    return DecompositionTrace(kind, prod(child.value for child in children),
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

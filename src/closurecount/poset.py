"""Finite partially ordered sets stored as Hasse diagrams.

A poset on elements 0..n-1 is built from arbitrary order relations (u, v)
meaning u < v. The constructor holds them as one successor set per element.
Kahn's sort over those sets (A. B. Kahn, "Topological sorting of large
networks", CACM 5(11), 1962) checks acyclicity; one pass in reverse
topological order then computes each element's up-set (itself included) as
a bitmask and its upper covers, and the down-sets follow from the lower
covers. The cover relation (the transitive reduction, which is unique for
finite orders) is kept as lists of upper and lower covers. All set-valued
queries speak bitmasks; see bitset.ElementSet.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

from .bitset import ElementSet, bits, mask_of, size
from .errors import CycleError, EmptySetError, excerpt


# Largest element count accepted: up_incl and down_incl each hold n masks of
# up to n bits, n^2/8 bytes apiece, 32 MiB each here. A chain fills one and
# half the other: chain:16384 keeps 55 MiB (tracemalloc), and counting it
# peaks at 77 MiB of resident memory (CPython 3.11, ru_maxrss).
MAX_ELEMENTS = 1 << 14


# Largest number of relation pairs accepted; the element limit does not bound
# them (stacked:2:antichain:8192 has 2^26). The constructor holds each pair in
# one successor set while it runs and keeps no cover pairs, only the cover
# lists: given its 2^18 pairs, all covers, stacked:2:antichain:512 peaks
# 91 bytes a pair above its start (tracemalloc); generated and built, it peaks
# 51 MiB above its start and keeps 12 MiB, and counting it peaks at 68 MiB of
# resident memory, 15 MiB of them the interpreter's (CPython 3.11).
MAX_EDGES = 1 << 18


def check_size(n: int) -> int:
    """Return n, or raise ValueError if it is negative or above MAX_ELEMENTS."""
    if n < 0:
        raise ValueError(f"element count must be nonnegative, got {excerpt(n)}")
    if n > MAX_ELEMENTS:
        raise ValueError(f"element count {excerpt(n)} is above the limit of {MAX_ELEMENTS}")
    return n


class ShapeKind(Enum):
    CHAIN = "chain"
    DIAMOND = "diamond"
    BOTTOMLESS_DIAMOND = "bottomless diamond"
    OTHER = "other"


class Shape(NamedTuple):
    """Recognized closed-form shape. `size` is n for chains, belt width for
    diamonds and bottomless diamonds, and n for OTHER."""

    kind: ShapeKind
    size: int

    @property
    def label(self) -> str:
        if self.kind is ShapeKind.CHAIN:
            return f"chain n={self.size}"
        if self.kind is ShapeKind.OTHER:
            return f"other n={self.size}"
        return f"{self.kind.value} width {self.size}"


def _find_cycle(succ: Sequence[set], indeg: Sequence[int]) -> list:
    """Recover one directed cycle from the nodes Kahn's algorithm left over,
    those whose in-degree never fell to 0.

    Every leftover node has a leftover predecessor, so walking backwards must
    revisit a node; the slice between the visits is a cycle.
    """
    preds = {v: [] for v, d in enumerate(indeg) if d}
    for u in preds:
        for w in succ[u]:
            if w in preds:
                preds[w].append(u)
    cur = next(iter(preds))
    path, index = [], {}
    while cur not in index:
        index[cur] = len(path)
        path.append(cur)
        cur = preds[cur][0]
    # path[i+1] -> path[i] are edges, and cur -> path[-1] closes the loop
    return [cur] + path[index[cur]:][::-1]


class Poset:
    """Immutable finite poset.

    Attributes (treat all as read-only):
      n            element count
      topo         one fixed linear extension (lexicographically smallest)
      up_incl      up_incl[x]: bitmask of y with x <= y
      down_incl    down_incl[x]: bitmask of y with y <= x
      cover_succ   upper covers of x, ascending tuple
      cover_pred   lower covers of x, ascending tuple
      full_mask, maximal_mask, minimal_mask   all, maximal, minimal elements

    The strict up-set of x is up_incl[x] ^ (1 << x). `covers`, the frozenset
    of cover pairs, is derived from cover_succ on each read.

    Construction holds the input pairs once, as one successor set per
    element, next to the tables it builds: on pairs that are all covers it
    peaks about 96 bytes a pair above the input (tracemalloc, CPython 3.10
    to 3.13). Raises CycleError naming one cycle of the input, and
    ValueError on an element count or a pair out of range or on more than
    MAX_EDGES pairs.
    """

    def __init__(self, n: int, edges: Iterable[tuple]):
        self.n = check_size(n)
        self.full_mask = (1 << n) - 1

        succ = [set() for _ in range(n)]
        for count, (u, v) in enumerate(edges, 1):
            if count > MAX_EDGES:
                raise ValueError(f"more than {MAX_EDGES} relation pairs")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({excerpt(u)}, {excerpt(v)}) out of range for n={n}")
            if u == v:
                continue  # reflexive pair, carries no information
            succ[u].add(v)

        # Kahn's sort, smallest ready element first; the ready list starts
        # ascending, so it is already a heap
        indeg = [0] * n
        for ws in succ:
            for w in ws:
                indeg[w] += 1
        ready = [v for v in range(n) if not indeg[v]]
        order = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for w in succ[u]:
                indeg[w] -= 1
                if not indeg[w]:
                    heapq.heappush(ready, w)
        if len(order) < n:
            raise CycleError(_find_cycle(succ, indeg))
        self.topo = tuple(order)

        # each element after its successors: a successor is an upper cover
        # unless it lies above another successor
        up = [0] * n
        cover_succ = [()] * n
        for u in reversed(order):
            acc = 1 << u
            implied = 0
            for w in succ[u]:
                acc |= up[w]
                implied |= up[w] ^ (1 << w)
            up[u] = acc
            cover_succ[u] = tuple(sorted([w for w in succ[u] if not (implied >> w) & 1]))
        self.up_incl = tuple(up)
        self.cover_succ = tuple(cover_succ)

        pred = [[] for _ in range(n)]  # ascending, since u ascends
        for u, ups in enumerate(cover_succ):
            for v in ups:
                pred[v].append(u)
        self.cover_pred = tuple(map(tuple, pred))

        down = [0] * n
        for v in order:
            acc = 1 << v
            for u in pred[v]:
                acc |= down[u]
            down[v] = acc
        self.down_incl = tuple(down)

        self.maximal_mask = mask_of(x for x in range(n) if not cover_succ[x])
        self.minimal_mask = mask_of(x for x in range(n) if not pred[x])

    @property
    def covers(self) -> frozenset:
        """Cover pairs (u, v), u covered by v."""
        return frozenset([(u, v) for u, ups in enumerate(self.cover_succ) for v in ups])

    # --- order queries ---

    def leq(self, x: int, y: int) -> bool:
        return bool((self.up_incl[x] >> y) & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and bool((self.up_incl[x] >> y) & 1)

    def interval(self, a: int, b: int) -> ElementSet:
        """All x with a <= x <= b; empty when a <= b fails."""
        return self.up_incl[a] & self.down_incl[b]

    def least_element_of(self, s: ElementSet) -> Optional[int]:
        """Least element of the subset s, or None: from the smallest id,
        step to a member below until none is, in at most height steps. The
        member reached is minimal, so least iff below every member."""
        x, below = None, s
        while below:
            x = (below & -below).bit_length() - 1
            below = (self.down_incl[x] ^ (1 << x)) & s
        return x if s and self.up_incl[x] & s == s else None

    def greatest_element_of(self, s: ElementSet) -> Optional[int]:
        """Greatest element of the subset s, or None: the dual walk, up from
        the largest id."""
        x, above = None, s
        while above:
            x = above.bit_length() - 1
            above = (self.up_incl[x] ^ (1 << x)) & s
        return x if s and self.down_incl[x] & s == s else None

    def least_element(self) -> Optional[int]:
        return self.least_element_of(self.full_mask)

    def greatest_element(self) -> Optional[int]:
        return self.greatest_element_of(self.full_mask)

    def is_chain(self, s: ElementSet) -> bool:
        """True iff the members of s are pairwise comparable."""
        for x in bits(s):
            if s & ~(self.up_incl[x] | self.down_incl[x]):
                return False
        return True

    def is_antichain(self, s: ElementSet) -> bool:
        """True iff the members of s are pairwise incomparable."""
        for x in bits(s):
            if s & (self.up_incl[x] | self.down_incl[x]) != 1 << x:
                return False
        return True

    # --- structure ---

    def connected_components(self) -> list:
        """Masks of the components of the comparability graph, ordered by
        smallest member. A poset with a top or a bottom is connected."""
        if size(self.maximal_mask) == 1 or size(self.minimal_mask) == 1:
            return [self.full_mask]
        seen = 0
        out = []
        for root in range(self.n):
            if (seen >> root) & 1:
                continue
            comp = 0
            stack = [root]
            while stack:
                x = stack.pop()
                if (comp >> x) & 1:
                    continue
                comp |= 1 << x
                for y in self.cover_succ[x]:
                    stack.append(y)
                for y in self.cover_pred[x]:
                    stack.append(y)
            seen |= comp
            out.append(comp)
        return out

    def restrict(self, s: ElementSet) -> tuple:
        """Suborder induced on s. Returns (poset, idmap) where idmap[i] is the
        original id of new element i; order is inherited, so elements kept
        from a chain stay a chain even if middles were dropped.

        From each member a search climbs covers through non-members that
        still have a member above them, and stops at every member it meets;
        the edges to those members generate the induced order, and the
        constructor reduces them. On a convex s no climb leaves s, so only
        the covers inside s are read. Raises EmptySetError on an empty s and
        ValueError on one with bits outside the poset.
        """
        if not s:
            raise EmptySetError("cannot restrict to the empty set")
        if s & ~self.full_mask:
            raise ValueError(f"element mask {s:#x} has bits outside the poset")
        idmap = tuple(bits(s))
        new_id = {x: i for i, x in enumerate(idmap)}
        cover_succ = self.cover_succ
        up_incl = self.up_incl
        edges = []
        for i, x in enumerate(idmap):
            seen = 0
            stack = [x]
            while stack:
                for y in cover_succ[stack.pop()]:
                    if (s >> y) & 1:
                        edges.append((i, new_id[y]))
                    elif up_incl[y] & s and not (seen >> y) & 1:
                        seen |= 1 << y
                        stack.append(y)
        return Poset(len(idmap), edges), idmap

    def augment(self) -> "AugmentedPoset":
        """Hasse graph with an artificial bottom below every minimal element
        and an artificial top above every maximal element."""
        bot = self.n
        top = self.n + 1
        succ = [self.cover_succ[x] + ((top,) if (self.maximal_mask >> x) & 1 else ())
                for x in range(self.n)]
        succ.append(tuple(bits(self.minimal_mask)) or (top,))
        succ.append(())
        return AugmentedPoset(self, bot, top, tuple(succ))

    def detect_shape(self, s: Optional[ElementSet] = None) -> Shape:
        """Classify the suborder on the nonempty mask s (default: the whole
        poset) as chain, diamond, bottomless diamond or other, with that
        precedence (a width-1 diamond is reported as the 3-chain it is).

        The order on s is read off this poset's masks, so a part of it is
        classified without becoming a Poset of its own; the answer is the
        one restrict(s) would give. Raises EmptySetError on an empty mask,
        as restrict does, the whole of an empty poset included, and
        ValueError on a mask with bits outside the poset."""
        s = self.full_mask if s is None else s
        if not s:
            raise EmptySetError("an empty set has no shape")
        if s & ~self.full_mask:
            raise ValueError(f"element mask {s:#x} has bits outside the poset")
        if self.is_chain(s):
            return Shape(ShapeKind.CHAIN, size(s))
        least = self.least_element_of(s)
        greatest = self.greatest_element_of(s)
        if least is not None and greatest is not None:
            belt = s & ~(1 << least) & ~(1 << greatest)
            if self.is_antichain(belt):
                return Shape(ShapeKind.DIAMOND, size(belt))
        if greatest is not None:
            belt = s & ~(1 << greatest)
            if size(belt) >= 2 and self.is_antichain(belt):
                return Shape(ShapeKind.BOTTOMLESS_DIAMOND, size(belt))
        return Shape(ShapeKind.OTHER, size(s))

    # --- dunder ---

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self.cover_succ == other.cover_succ

    def __hash__(self) -> int:
        return hash((self.n, self.cover_succ))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={sorted(self.covers)})"


class AugmentedPoset(NamedTuple):
    """Hasse digraph of a poset plus artificial endpoints bot and top."""

    base: Poset
    bot: int
    top: int
    succ: tuple

    def reachable_avoiding(self, s: int, t: int, removed: int) -> bool:
        """Is there a directed path s -> t that never visits `removed`?"""
        if s == removed or t == removed:
            return False
        seen = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            if x == t:
                return True
            for y in self.succ[x]:
                if y != removed and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

"""Finite partially ordered sets stored as Hasse diagrams.

A poset on elements 0..n-1 is built from arbitrary order relations (u, v)
meaning u < v. The constructor checks acyclicity, computes each element's
up-set and down-set (itself included) as one bitmask apiece, and keeps the
cover relation (the transitive reduction, which is unique for finite orders)
as lists of upper and lower covers. All set-valued queries speak bitmasks;
see bitset.ElementSet.
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
# peaks at 92 MiB of resident memory (CPython 3.11, ru_maxrss).
MAX_ELEMENTS = 1 << 14


# Largest number of relation pairs accepted; the element limit does not bound
# them (stacked:2:antichain:8192 has 2^26). The constructor holds each pair in
# two sets while it runs and keeps no cover pairs, only the cover lists:
# stacked:2:antichain:512 (2^18 pairs, all covers) peaks 67 MiB above its
# start and keeps 12 MiB (tracemalloc); counting it peaks at 84 MiB of
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


def _find_cycle(preds: Sequence[Sequence[int]], unprocessed: set) -> list:
    """Recover one directed cycle from the nodes Kahn's algorithm left over.

    Every leftover node has a leftover predecessor, so walking backwards must
    revisit a node; the slice between the visits is a cycle.
    """
    start = next(iter(unprocessed))
    path = [start]
    index = {start: 0}
    cur = start
    while True:
        nxt = next(p for p in preds[cur] if p in unprocessed)
        if nxt in index:
            j = index[nxt]
            # path[i+1] -> path[i] are edges, plus nxt -> cur closes the loop
            loop = list(reversed(path[j:]))
            return [loop[-1]] + loop
        index[nxt] = len(path)
        path.append(nxt)
        cur = nxt


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
    """

    def __init__(self, n: int, edges: Iterable[tuple]):
        self.n = check_size(n)
        self.full_mask = (1 << n) - 1

        succ_in = [set() for _ in range(n)]
        pred_in = [set() for _ in range(n)]
        for count, (u, v) in enumerate(edges, 1):
            if count > MAX_EDGES:
                raise ValueError(f"more than {MAX_EDGES} relation pairs")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({excerpt(u)}, {excerpt(v)}) out of range for n={n}")
            if u == v:
                continue  # reflexive pair, carries no information
            succ_in[u].add(v)
            pred_in[v].add(u)

        self.topo = self._toposort(succ_in, pred_in)

        up = [0] * n
        for u in reversed(self.topo):
            acc = 1 << u
            for w in succ_in[u]:
                acc |= up[w]
            up[u] = acc
        self.up_incl = tuple(up)

        down = [0] * n
        for v in self.topo:
            acc = 1 << v
            for u in pred_in[v]:
                acc |= down[u]
            down[v] = acc
        self.down_incl = tuple(down)

        cover_succ = []
        pred = [[] for _ in range(n)]  # ascending, since u ascends
        for u in range(n):
            succ = succ_in[u]
            implied = 0
            for w in succ:
                implied |= up[w] ^ (1 << w)
            ups = tuple(sorted([v for v in succ if not (implied >> v) & 1]))
            cover_succ.append(ups)
            for v in ups:
                pred[v].append(u)
        self.cover_succ = tuple(cover_succ)
        self.cover_pred = tuple(map(tuple, pred))

        self.maximal_mask = mask_of(x for x in range(n) if not cover_succ[x])
        self.minimal_mask = mask_of(x for x in range(n) if not pred[x])

    def _toposort(self, succ_in, pred_in) -> tuple:
        n = self.n
        indeg = [len(pred_in[v]) for v in range(n)]
        ready = [v for v in range(n) if indeg[v] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for w in succ_in[u]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) < n:
            leftover = set(range(n)) - set(order)
            raise CycleError(_find_cycle(pred_in, leftover))
        return tuple(order)

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

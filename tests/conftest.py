"""Shared test helpers: random poset sources, definitional oracles and
the serializers the file round trips use.

Seeded random.Random drives the instance-count checks (reproducible exact
counts); a hypothesis strategy drives the structural invariants.
"""

from __future__ import annotations

import random
import sys
from typing import Optional

import pytest
from hypothesis import strategies as st

from closurecount import Poset, bits, enumerate_closure_systems, mask_of
from closurecount.errors import CycleError


def oracle_count(p: Poset, t: int = 0) -> int:
    """Closure systems of p containing t, by definitional enumeration: the
    independent reference for count_closures and for the leaf counter."""
    return sum(1 for _ in enumerate_closure_systems(p, required=t))


def isolated_by_definition(p: Poset, s: int) -> bool:
    """The definition of an isolated suborder, member by member: s has a
    least member bot and a greatest member top, and whatever lies outside
    s above (below) some member lies above top (below bot). The reference
    for is_isolated_suborder, which tests the same at the two ends."""
    members = list(bits(s))
    least = [x for x in members if all(p.leq(x, y) for y in members)]
    greatest = [x for x in members if all(p.leq(y, x) for y in members)]
    if not least or not greatest:
        return False
    bot, top = least[0], greatest[0]
    outside = p.full_mask & ~s
    for y in members:
        if p.up_incl[y] & outside & ~p.up_incl[top]:
            return False  # something above y escapes without passing top
        if p.down_incl[y] & outside & ~p.down_incl[bot]:
            return False
    return True


def is_convex(p: Poset, s: int) -> bool:
    """True iff x <= z <= y with x, y in s forces z in s: the set of such z,
    (union of up-sets of s) & (union of down-sets of s), is s itself."""
    ups = downs = 0
    for x in bits(s):
        ups |= p.up_incl[x]
        downs |= p.down_incl[x]
    return ups & downs == s


def least_bottleneck(p: Poset, x: int) -> Optional[int]:
    """Least bottleneck of x, or None.

    b is a bottleneck of x when b > x, [x, b] is a chain, and everything
    above x is in [x, b] or above b. Every upper cover of x lies in the
    chain [x, b] of any bottleneck b, so then x has exactly one upper
    cover, below every bottleneck: it is the only candidate for the least
    one, and the three clauses are checked on it.
    """
    ups = p.cover_succ[x]
    if len(ups) != 1:
        return None
    b = ups[0]
    span = p.interval(x, b)
    if p.is_chain(span) and not p.up_incl[x] & ~(span | p.up_incl[b]):
        return b
    return None


def broom(k: int, reverse: bool = False) -> Poset:
    """k diamonds, each above the common bottom 0: summit siblings, with
    7^k closure systems. reverse=True takes the dual order, k diamonds
    below the common top 0: bottleneck siblings, with 14^k."""
    edges = []
    for i in range(k):
        b, left, right, t = range(4 * i + 1, 4 * i + 5)
        edges += [(0, b), (b, left), (b, right), (left, t), (right, t)]
    return Poset(4 * k + 1, [(v, u) for u, v in edges] if reverse else edges)


def to_edge_text(p: Poset) -> str:
    """Edge-text serialization (cover edges only): the writer the parser's
    round trips read."""
    lines = [str(p.n)]
    lines += [f"{u} {v}" for u, v in sorted(p.covers)]
    return "\n".join(lines) + "\n"


def to_structured(p: Poset, labels=None) -> dict:
    """Structured serialization as a plain dict, ready for json.dumps; the
    labels, if given, go in as the file's "labels" array."""
    out = {"n": p.n, "edges": [[u, v] for u, v in sorted(p.covers)]}
    if labels is not None:
        out["labels"] = list(labels)
    return out


def random_poset(rng: random.Random, n: int) -> Poset:
    """Random poset, not necessarily connected: DAG over a random linear
    order with edge probability 3/n, transitively reduced."""
    order = rng.sample(range(n), n)
    p_edge = 3.0 / n
    edges = [(order[i], order[j])
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < p_edge]
    return Poset(n, edges)


def relabel(p: Poset, rng: random.Random) -> Poset:
    """Isomorphic copy of p under a random permutation of the ids."""
    perm = rng.sample(range(p.n), p.n)
    return Poset(p.n, [(perm[u], perm[v]) for u, v in p.covers])


def random_posets(seed: int, count: int, max_n: int):
    """Deterministic stream of (index, poset) pairs."""
    rng = random.Random(seed)
    for i in range(count):
        yield i, random_poset(rng, rng.randint(1, max_n))


# Pieces for glued_poset, as (size, cover edges): diamonds and bottomless
# diamonds of belt width 2 and 3, a one-diamond broom over a common bottom
# and its dual under a common top.
_PIECES = (
    (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    (3, [(0, 2), (1, 2)]),
    (4, [(0, 3), (1, 3), (2, 3)]),
    (5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]),
    (5, [(1, 0), (2, 1), (3, 1), (4, 2), (4, 3)]),
)


def glued_poset(rng: random.Random, max_n: int = 10) -> tuple:
    """Random poset with diamonds, bottomless diamonds and brooms glued on,
    relabelled; returns the poset and the masks of the glued pieces.

    random_poset rarely holds a diamond. Here each piece gets edges into
    random members of it from random earlier elements outside the earlier
    pieces or at their tops, and from its top to random earlier elements,
    unless those make a cycle. Every piece has one top, and no edge leaves
    a piece but from its top, so each keeps its own order inside the
    whole. A diamond's bottom has one upper cover per belt element, and a
    piece entered at its belt is not isolated, so the leaf counter sees
    several upper covers.
    """
    n = rng.randint(1, max(1, max_n - 3))
    edges = list(random_poset(rng, n).covers)
    exits = list(range(n))
    pieces = []
    while True:
        size, inner = rng.choice(_PIECES)
        if n + size > max_n:
            break
        top = n + next(x for x in range(size) if all(u != x for u, _ in inner))
        ins = [(rng.choice(exits), n + rng.randrange(size)) for _ in range(rng.randint(0, 2))]
        outs = [(top, rng.randrange(n)) for _ in range(rng.randint(0, 1))]
        glued = edges + [(n + u, n + v) for u, v in inner] + ins
        try:
            Poset(n + size, glued + outs)
            glued += outs
        except CycleError:
            pass
        edges = glued
        pieces.append(((1 << size) - 1) << n)
        exits.append(top)
        n += size
    perm = rng.sample(range(n), n)
    moved = [mask_of(perm[x] for x in bits(s)) for s in pieces]
    return Poset(n, [(perm[u], perm[v]) for u, v in edges]), moved


def glued_posets(seed: int, count: int, max_n: int):
    """Deterministic stream of (index, poset) pairs from glued_poset."""
    rng = random.Random(seed)
    for i in range(count):
        yield i, glued_poset(rng, max_n)[0]


@st.composite
def posets(draw, max_n: int = 8) -> Poset:
    """Arbitrary poset: edges drawn over a linear order, ids shuffled."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    perm = draw(st.permutations(range(n)))
    return Poset(n, [(perm[u], perm[v]) for u, v in chosen])


@pytest.fixture
def default_recursion_limit():
    """The interpreter's default recursion limit of 1,000, for one test."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def nested(k: int) -> Poset:
    """One element inside k levels, each adding a bottom b below the last
    bottom, a top u above the last top and a side element s, b < s < u:
    every level's inside is an isolated suborder of the next, so the
    decomposition nests k deep. It has 3k + 1 elements and
    (6^(k+1) - 1)/5 closure systems."""
    edges, bottom, top = [], 0, 0
    for b in range(1, 3 * k + 1, 3):
        s, u = b + 1, b + 2
        edges += [(b, bottom), (top, u), (b, s), (s, u)]
        bottom, top = b, u
    return Poset(3 * k + 1, edges)

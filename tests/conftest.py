"""Shared test helpers: random poset sources and the counting oracle.

Seeded random.Random drives the instance-count checks (reproducible exact
counts); a hypothesis strategy drives the structural invariants.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from closurecount import Poset, enumerate_closure_systems


def oracle_count(p: Poset, t: int = 0) -> int:
    """Closure systems of p containing t, by definitional enumeration: the
    independent reference for count_closures and for the leaf counter."""
    return sum(1 for _ in enumerate_closure_systems(p, required=t))


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


@st.composite
def posets(draw, max_n: int = 8) -> Poset:
    """Arbitrary poset: edges drawn over a linear order, ids shuffled."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    perm = draw(st.permutations(range(n)))
    return Poset(n, [(perm[u], perm[v]) for u, v in chosen])

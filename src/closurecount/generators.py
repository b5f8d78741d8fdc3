"""Poset families used by tests, demos and the command line.

Canonical element layouts (tests rely on these ids):
  chain(n)               0 < 1 < ... < n-1
  diamond(w)             bottom 0, belt 1..w, top w+1
  bottomless_diamond(w)  belt 0..w-1, top w
  antichain(n)           0..n-1, no relations
  powerset_lattice(k)    element ids are the subset bitmasks 0..2^k-1
  stacked(base, k)       level j occupies ids j*base.n..(j+1)*base.n-1,
                         everything in level j below everything in level j+1
                         (emitted as maximal(j) x minimal(j+1) pairs)
"""

from __future__ import annotations

import random
from functools import reduce

from .bitset import bits, mask_of
from .errors import TooLargeError
from .poset import MAX_EDGES, MAX_ELEMENTS, Poset, check_size

# Most edge draws random_connected_poset makes; every n <= 12 stays far below
# it (726 at most over 3,000 seeds), while n = 300 all but never connects.
MAX_EDGE_DRAWS = 2_000_000


def chain(n: int) -> Poset:
    check_size(n)
    return Poset(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return Poset(n, [])


def diamond(width: int) -> Poset:
    """Bottom, `width` pairwise incomparable belt elements, top."""
    if width < 1:
        raise ValueError("diamond width must be at least 1")
    check_size(width + 2)
    top = width + 1
    edges = [(0, b) for b in range(1, width + 1)]
    edges += [(b, top) for b in range(1, width + 1)]
    return Poset(width + 2, edges)


def bottomless_diamond(width: int) -> Poset:
    """`width` pairwise incomparable belt elements under a single top."""
    if width < 1:
        raise ValueError("bottomless diamond width must be at least 1")
    check_size(width + 1)
    return Poset(width + 1, [(b, width) for b in range(width)])


def powerset_lattice(k: int) -> Poset:
    """Subsets of a k-element set ordered by inclusion."""
    if k < 0:
        raise ValueError("powerset exponent must be nonnegative")
    if k >= MAX_ELEMENTS.bit_length():
        raise ValueError(f"2^{k} subsets is above the element limit of {MAX_ELEMENTS}")
    n = 1 << k
    edges = [(s, s | (1 << i)) for s in range(n) for i in range(k) if not (s >> i) & 1]
    return Poset(n, edges)


def stacked(base: Poset, levels: int) -> Poset:
    """`levels` copies of `base`, each level entirely below the next."""
    if levels < 1:
        raise ValueError("need at least one level")
    check_size(base.n * levels)
    m = base.n
    tops = list(bits(base.maximal_mask))
    bottoms = list(bits(base.minimal_mask))
    pairs = levels * len(base.covers) + (levels - 1) * len(tops) * len(bottoms)
    if pairs > MAX_EDGES:
        raise ValueError(f"{pairs} relation pairs is above the limit of {MAX_EDGES}")
    edges = []
    for j in range(levels):
        off = j * m
        edges += [(u + off, v + off) for (u, v) in base.covers]
        if j + 1 < levels:
            edges += [(u + off, v + off + m) for u in tops for v in bottoms]
    return Poset(m * levels, edges)


def random_connected_poset(rng: random.Random, n: int) -> Poset:
    """Random connected poset: a DAG over a random linear order with edge
    probability 3/n, transitively reduced; resampled until connected, within
    MAX_EDGE_DRAWS edge draws in all (TooLargeError past them)."""
    if n < 1:
        raise ValueError("need at least one element")
    check_size(n)
    p_edge = 3.0 / n
    for _ in range(MAX_EDGE_DRAWS // max(1, n * (n - 1) // 2)):
        order = rng.sample(range(n), n)
        edges = [(order[i], order[j])
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p_edge]
        poset = Poset(n, edges)
        if len(poset.connected_components()) == 1:
            return poset
    raise TooLargeError(f"no connected random poset on {n} elements "
                        f"within {MAX_EDGE_DRAWS:,} edge draws")


def random_submask(rng: random.Random, universe: int, max_size: int) -> int:
    """Random subset of `universe` with at most max_size members."""
    pool = list(bits(universe))
    k = rng.randint(0, min(max_size, len(pool)))
    return mask_of(rng.sample(pool, k))


def family(spec: str) -> Poset:
    """Parse a generator spec like 'chain:7' or 'stacked:3:diamond:2'.

    Families: chain:n, antichain:n, diamond:w, bottomless:w, powerset:k,
    random:n (optionally random:n:seed, seed 0 otherwise),
    stacked:k (k levels of powerset:2), stacked:k:FAMILY:ARG.
    """
    parts = spec.split(":")
    makers = {
        "chain": chain,
        "antichain": antichain,
        "diamond": diamond,
        "bottomless": bottomless_diamond,
        "powerset": powerset_lattice,
        "stacked": lambda k: stacked(powerset_lattice(2), k),
    }
    try:
        levels = []  # stacked:K: prefixes, peeled in a loop however deep they nest
        while parts[0] == "stacked" and len(parts) >= 3:
            levels.append(int(parts[1]))
            parts = parts[2:]
        name = parts[0]
        if name in makers:
            if len(parts) != 2:
                raise ValueError(f"expected {name}:N")
            p = makers[name](int(parts[1]))
        elif name == "random":
            if len(parts) not in (2, 3):
                raise ValueError("expected random:N or random:N:SEED")
            seed = int(parts[2]) if len(parts) == 3 else 0
            p = random_connected_poset(random.Random(seed), int(parts[1]))
        else:
            raise ValueError(f"unknown generator family {name!r}")
        return reduce(stacked, reversed(levels), p)
    except ValueError as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from None

"""Inputs of the closurecount benchmark.

The benchmark hands the package nothing but ``(n, edges, required)``, so it
builds its posets with its own generators rather than the package's. Every
workload is a fixed pool of instances kept in ``reference.json`` together
with the count pinned for each (``pin.py`` writes that file). A run's seed
fixes the order in which the pool is visited and, for each pass over the
pool, relabels every instance by a random permutation of its elements and
shuffles the edge lists; counts are invariant under relabelling, so the
pinned values hold for every seed and pass while the package sees different
inputs.

``reference.json`` holds four pools. The ``constrained`` workload runs the
``constrained`` pool and, mixed into it, the ``cli`` pool of command-line
invocations, which go through ``cli.main`` on files or generator specs.

An instance is a dict with ``id``, ``n``, ``edges`` (list of ``(u, v)``,
meaning u < v), ``required`` (element ids) and ``value`` (pinned count, or
None where the package refused the instance when it was pinned). Instances
of regular families carry a ``spec`` instead of ``edges``. Command-line
instances also name their ``op``; those generated by the package itself
carry its generator spec as ``gen`` and no elements at all.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("towers", "leaves", "constrained")
POOLS = {"towers": ("towers",), "leaves": ("leaves",), "constrained": ("constrained", "cli")}


# --- generators (element layouts match the package's) ---

def diamond(w):
    top = w + 1
    return w + 2, [(0, b) for b in range(1, top)] + [(b, top) for b in range(1, top)]


def bottomless(w):
    return w + 1, [(b, w) for b in range(w)]


def powerset(k):
    n = 1 << k
    return n, [(s, s | (1 << i)) for s in range(n) for i in range(k) if not (s >> i) & 1]


def stacked(base, levels):
    """`levels` copies of the poset `base` = (m, covers), each level below
    the next. Only cover edges are emitted: the covers inside each level
    plus maximal elements of level j below minimal elements of level j+1."""
    m, covers = base
    has_up = {u for u, _ in covers}
    has_down = {v for _, v in covers}
    maximal = [x for x in range(m) if x not in has_up]
    minimal = [x for x in range(m) if x not in has_down]
    edges = []
    for j in range(levels):
        off = j * m
        edges += [(u + off, v + off) for u, v in covers]
        if j + 1 < levels:
            edges += [(u + off, v + off + m) for u in maximal for v in minimal]
    return m * levels, edges


def from_spec(spec):
    """`diamond:w`, `bottomless:w`, `powerset:k`, or `stacked:k:FAMILY:ARG`
    -> (n, covers)."""
    name, *rest = spec.split(":")
    if name == "stacked":
        return stacked(from_spec(":".join(rest[1:])), int(rest[0]))
    makers = {"diamond": diamond, "bottomless": bottomless, "powerset": powerset}
    return makers[name](int(rest[0]))


def random_connected(rng, n):
    """Random connected poset as relation edges: a DAG over a random linear
    order with edge probability 3/n, resampled until connected. Edges are
    not reduced; the package reduces them to covers."""
    p_edge = 3.0 / n
    while True:
        order = rng.sample(range(n), n)
        edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p_edge]
        root = list(range(n))

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for u, v in edges:
            root[find(u)] = find(v)
        if len({find(x) for x in range(n)}) == 1:
            return n, edges


def random_required(rng, n, max_size, min_size=0):
    """Random set of between min_size and max_size element ids."""
    return sorted(rng.sample(range(n), rng.randint(min_size, min(max_size, n))))


# --- pool access ---

def load_reference(path=REFERENCE):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def materialize(inst):
    """Instance with explicit edges (specs expanded)."""
    if "spec" not in inst:
        return inst
    n, edges = from_spec(inst["spec"])
    return dict(inst, n=n, edges=edges)


def relabel(rng, inst):
    """Copy of `inst` with elements renamed by a random permutation and the
    edge list shuffled; the pinned value carries over unchanged."""
    n = inst["n"]
    perm = rng.sample(range(n), n)
    edges = [(perm[u], perm[v]) for u, v in inst["edges"]]
    rng.shuffle(edges)
    return dict(inst, edges=edges, required=sorted(perm[x] for x in inst["required"]),
                perm=perm)


def mask(ids):
    out = 0
    for x in ids:
        out |= 1 << x
    return out


def seeded_pool(reference, workload, seed, labelling=0):
    """The workload's instances as the run with this seed sees them: in an
    order set by the seed, relabelled as its labelling number `labelling`,
    each with a `mask` of its required set."""
    instances = [inst for name in POOLS[workload] for inst in reference["workloads"][name]]
    order = list(range(len(instances)))
    random.Random(f"{workload}:{seed}").shuffle(order)
    rng = random.Random(f"{workload}:{seed}:{labelling}")
    pool = []
    for k in order:
        inst = instances[k]
        inst = (relabel(rng, materialize(inst)) if "n" in inst or "spec" in inst
                else dict(inst, required=[]))
        inst["mask"] = mask(inst["required"])
        pool.append(inst)
    return pool

"""Write reference.json: the workloads' instance pools with pinned counts.

Run from the repository root:

    python3 perfbench/pin.py

The pools are generated from fixed seeds by the benchmark's own generators;
the pinned count of each instance is the package's answer, checked once
here by an independent route:

  enumerator   the definitional enumerate_closure_systems, wherever the
               instance has at most 2^16 candidate subsets
  bruteforce   count_closure_systems_bruteforce, up to 2^22 candidates
  relabelling  above that, a randomly relabelled copy gives the same count
  refused      the package raised TooLargeError; no value is pinned

Powerset lattices are also checked against the Moore-family values 61 and
2480. Decompositions pinned for the command-line workload are checked with
is_isolated_suborder and must map onto themselves under relabelling.
"""

from __future__ import annotations

import json
import os
import random
import sys
from collections import Counter

import workloads as wl
from run import load_package

ENUMERATOR_LIMIT = 1 << 16
BRUTEFORCE_LIMIT = 1 << 22
MOORE_FAMILIES = {"powerset:3": 61, "powerset:4": 2480}

TOWER_BASES = (("powerset:2", 4), ("diamond:3", 5), ("diamond:4", 6),
               ("bottomless:3", 4), ("powerset:3", 8))
TOWER_SIZES = (40, 48, 56, 64, 80, 96)
TOWER_LARGEST = ("stacked:40:powerset:2",)

LEAF_FREE = range(14, 18)  # free elements of the largest brute leaf
LEAVES_PER_SIZE = 10
PYTHON_LEAF_FREE = 10
CONSTRAINED_SIZES = range(6, 15)
CONSTRAINED_PER_SIZE = 24
CONSTRAINED_TOWERS = range(3, 13)
CONSTRAINED_TOWER_SETS = 3


def check(ok, what):
    if not ok:
        raise SystemExit(f"pin check failed: {what}")


def tower_pool():
    specs = [f"stacked:{round(n / per)}:{base}"
             for base, per in TOWER_BASES for n in TOWER_SIZES]
    return [{"id": s, "spec": s, "required": []} for s in specs + list(TOWER_LARGEST)]


def leaf_pool(pkg):
    """Random connected posets whose largest brute-force leaf has 14 to 17
    free elements (the numpy kernel), LEAVES_PER_SIZE of each size, with no
    pure-Python leaf above 2^PYTHON_LEAF_FREE candidates; plus powerset:4."""
    rng = random.Random("pool:leaves")
    wanted = {free: LEAVES_PER_SIZE for free in LEAF_FREE}
    pool = []
    while any(wanted.values()):
        n = rng.randint(16, 22)
        _, edges = wl.random_connected(rng, n)
        trace = pkg.count_closures(pkg.Poset(n, edges)).trace
        free = sorted(x.search_space.bit_length() - 1
                      for x in pkg.trace_nodes(trace) if x.kind == "brute")
        small = [f for f in free if f < min(LEAF_FREE)]
        if free and wanted.get(free[-1]) and max(small, default=0) <= PYTHON_LEAF_FREE:
            wanted[free[-1]] -= 1
            pool.append({"id": f"leaf{free[-1]}-{LEAVES_PER_SIZE - wanted[free[-1]] - 1}",
                         "n": n, "edges": edges, "required": []})
    pool.append({"id": "powerset:4", "spec": "powerset:4", "required": []})
    return pool


def constrained_pool():
    """Selfcheck-shaped stream: random connected posets with |T| <= 3, and
    one stacked tower with 1 to 3 required elements per eight instances."""
    rng = random.Random("pool:constrained")
    pool = []
    for n in CONSTRAINED_SIZES:
        for i in range(CONSTRAINED_PER_SIZE):
            _, edges = wl.random_connected(rng, n)
            pool.append({"id": f"random-{n}-{i:02d}", "n": n, "edges": edges,
                         "required": wl.random_required(rng, n, 3)})
    for k in CONSTRAINED_TOWERS:
        for i in range(CONSTRAINED_TOWER_SETS):
            spec = f"stacked:{k}:powerset:2"
            pool.append({"id": f"{spec}-T{i}", "spec": spec,
                         "required": wl.random_required(rng, 4 * k, 3, min_size=1)})
    return pool


def cli_pool():
    """One pass of command-line invocations: package-generated inputs,
    constrained counts from edge-text and JSON files, and decompositions."""
    rng = random.Random("pool:cli")
    pool = [{"id": f"gen {g}", "op": "count", "gen": g}
            for g in ("stacked:3", "powerset:3", "diamond:5", "random:10:7")]
    for i, (n, fmt) in enumerate(((10, "edges"), (12, "edges"), (11, "json"))):
        _, edges = wl.random_connected(rng, n)
        pool.append({"id": f"count-random-{i}", "op": "count", "format": fmt, "n": n,
                     "edges": edges, "required": wl.random_required(rng, n, 3, 1)})
    pool.append({"id": "count-stacked:3:diamond:2", "op": "count", "format": "json",
                 "spec": "stacked:3:diamond:2", "required": [1, 5]})
    for spec, fmt in (("stacked:2:powerset:2", "edges"), ("stacked:3:diamond:2", "json")):
        pool.append({"id": f"decompose-{spec}", "op": "decompose", "format": fmt,
                     "spec": spec, "required": []})
    for i, (n, fmt) in enumerate(((12, "edges"), (9, "json"))):
        _, edges = wl.random_connected(rng, n)
        pool.append({"id": f"decompose-random-{i}", "op": "decompose", "format": fmt,
                     "n": n, "edges": edges, "required": []})
    return pool


def decomposition(pkg, p, perm=None):
    """Set of (kind, bottom, top, members) the package reports, with every
    element renamed through perm when given."""
    name = (lambda x: x) if perm is None else perm.__getitem__
    return {(iso.kind.value, name(iso.bottom), name(iso.top),
             tuple(sorted(name(x) for x in pkg.bits(iso.members))))
            for find in (pkg.find_max_summit_isos, pkg.find_max_bottleneck_isos)
            for iso in find(p)}


def pin_count(pkg, inst, rng):
    """Pinned value and how it was verified."""
    p = pkg.Poset(inst["n"], inst["edges"])
    t = wl.mask(inst["required"])
    try:
        value = pkg.count_closures(p, t).value
    except pkg.TooLargeError:
        return None, "refused"
    if inst.get("spec") in MOORE_FAMILIES:
        check(value == MOORE_FAMILIES[inst["spec"]], (inst["id"], value))
    space = pkg.bruteforce_search_space(p, t)
    if space <= ENUMERATOR_LIMIT:
        want = sum(1 for _ in pkg.enumerate_closure_systems(p, t, cap=None))
        how = "enumerator"
    elif space <= BRUTEFORCE_LIMIT:
        want = pkg.count_closure_systems_bruteforce(p, t, cap=None)
        how = "bruteforce"
    else:
        copy = wl.relabel(rng, inst)
        want = pkg.count_closures(pkg.Poset(copy["n"], copy["edges"]),
                                  wl.mask(copy["required"])).value
        how = "relabelling"
    check(want == value, (inst["id"], value, want, how))
    return value, how


def pin_cli(pkg, inst, rng):
    if "gen" in inst:
        p = pkg.family(inst["gen"])
        value = pkg.count_closures(p).value
        want = sum(1 for _ in pkg.enumerate_closure_systems(p, cap=None))
        check(want == value, (inst["id"], value, want))
        if inst["gen"] in MOORE_FAMILIES:
            check(value == MOORE_FAMILIES[inst["gen"]], inst["id"])
        return dict(inst, value=value, verified="enumerator")
    inst = wl.materialize(inst)
    if inst["op"] == "count":
        value, how = pin_count(pkg, inst, rng)
        return dict(inst, value=value, verified=how)
    p = pkg.Poset(inst["n"], inst["edges"])
    found = decomposition(pkg, p)
    for _, _, _, members in found:
        check(pkg.is_isolated_suborder(p, wl.mask(members)), inst["id"])
    for _ in range(5):
        copy = wl.relabel(rng, inst)
        seen = decomposition(pkg, pkg.Poset(copy["n"], copy["edges"]))
        check(seen == decomposition(pkg, p, copy["perm"]), inst["id"])
    expected = sorted([kind, bottom, top, list(members)]
                      for kind, bottom, top, members in found)
    return dict(inst, value=expected, verified="is_isolated_suborder")


def main() -> int:
    pkg = load_package(os.getcwd())
    rng = random.Random("pin")
    pools = {"towers": tower_pool(), "leaves": leaf_pool(pkg),
             "constrained": constrained_pool(), "cli": cli_pool()}
    out = {}
    for name, pool in pools.items():
        pinned = []
        for inst in pool:
            if name == "cli":
                entry = pin_cli(pkg, inst, rng)
            else:
                value, how = pin_count(pkg, wl.materialize(inst), rng)
                entry = dict(inst, value=value, verified=how)
            if "spec" in inst:  # regenerated at run time
                entry.pop("n", None)
                entry.pop("edges", None)
            pinned.append(entry)
        tally = Counter(entry["verified"] for entry in pinned)
        print(f"{name}: {len(pinned)} instances, verified by {dict(tally)}", flush=True)
        out[name] = pinned
    with open(wl.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write('{"external": %s,\n "workloads": {' % json.dumps(MOORE_FAMILIES))
        for i, (name, pinned) in enumerate(out.items()):
            rows = ",\n  ".join(json.dumps(e, separators=(",", ":")) for e in pinned)
            fh.write('%s\n "%s": [\n  %s]' % ("," if i else "", name, rows))
        fh.write("}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

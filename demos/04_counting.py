#!/usr/bin/env python3
"""Counting closure systems with the decomposition pipeline.

count_closures prefers structure over enumeration: disconnected posets
factor over components, recognized shapes use closed formulas, isolated
suborders split the problem into quotient times inside, and only the
irreducible leftovers go to the exact leaf counter. The trace records which
route was taken; every number shown here is also validated against direct
enumeration.

Run: python demos/04_counting.py
"""

from closurecount import (Poset, count_closures, enumerate_closure_systems,
                          explain, mask_of)
from closurecount.generators import powerset_lattice, stacked


def show(p: Poset, title: str, t: int = 0) -> None:
    result = count_closures(p, t)
    check = sum(1 for _ in enumerate_closure_systems(p, t))
    status = "ok" if result.value == check else "MISMATCH"
    print(f"\n{title}: {result.value} closure systems "
          f"(enumeration says {check}, {status})")
    for line in explain(result.trace).splitlines():
        print(f"    {line}")


def main() -> None:
    show(stacked(powerset_lattice(2), 3), "three stacked powerset:2 levels")

    shared = Poset(7, [(0, 1), (0, 2), (1, 3), (2, 3),
                       (3, 4), (3, 5), (4, 6), (5, 6)])
    show(shared, "two diamonds sharing element 3")

    fork = Poset(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    show(fork, "chain into a two-top fork (bottleneck split)")

    show(shared, "shared diamonds, systems forced to contain element 1",
         t=mask_of([1]))

    print()
    print("the fork example combines its three children, M = quotient systems")
    print("with the class, S = inside systems, Q = all quotient systems, as")
    print("M x 2 x (S - 1) + Q:")
    print("  systems meeting the suborder   -> M x (2 x S - 1), the nonempty")
    print("     preclosure systems inside")
    print("  systems avoiding it entirely   -> Q - M, the quotient systems")
    print("     avoiding the class")


if __name__ == "__main__":
    main()

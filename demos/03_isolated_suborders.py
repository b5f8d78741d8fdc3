#!/usr/bin/env python3
"""Isolated suborders: where a poset can be cut for divide and conquer.

An isolated suborder is an interval [a, b] that the rest of the poset can
only enter at a and leave at b. Collapsing it onto a gives a quotient
poset, the suborder on the rest plus a (quotient_by returns that mask);
counting problems factor across the cut. Two kinds are detected:
bottleneck (b has exactly one upper cover) and summit (b is a maximal
element).

Run: python demos/03_isolated_suborders.py
"""

from closurecount import (Poset, bits, find_max_bottleneck_isos,
                          find_max_summit_isos, quotient_by)
from closurecount.generators import powerset_lattice, stacked


def report(p: Poset, title: str) -> None:
    print(f"\n{title}: covers {sorted(p.covers)}")
    for kind, finder in (("summit", find_max_summit_isos),
                         ("bottleneck", find_max_bottleneck_isos)):
        isos = finder(p)
        if not isos:
            print(f"  {kind:10} none")
        for iso in isos:
            print(f"  {kind:10} [{iso.bottom},{iso.top}] "
                  f"members={list(bits(iso.members))}")


def main() -> None:
    # two diamonds glued at a shared middle point
    shared = Poset(7, [(0, 1), (0, 2), (1, 3), (2, 3),
                       (3, 4), (3, 5), (4, 6), (5, 6)])
    report(shared, "two diamonds sharing element 3")

    two_level = stacked(powerset_lattice(2), 2)
    report(two_level, "powerset:2 stacked twice")

    report(powerset_lattice(3), "powerset:3 (no useful suborders)")

    print()
    print("collapsing the summit suborder of the shared-diamond poset:")
    iso = find_max_summit_isos(shared)[0]
    rest = quotient_by(shared, iso)  # a mask: the outside plus the bottom
    print(f"  the quotient is the suborder on {list(bits(rest))}, "
          f"shape {shared.detect_shape(rest).label}")
    q, idmap = shared.restrict(rest)
    print(f"  collapsed [{iso.bottom},{iso.top}] onto its bottom, "
          f"quotient element {idmap.index(iso.bottom)}")
    print(f"  quotient covers: {sorted(q.covers)}")
    print(f"  quotient elements are the original ids {list(idmap)}")
    print("  counting now factors: (systems of the quotient) x (systems")
    print("  of the collapsed interval)")


if __name__ == "__main__":
    main()

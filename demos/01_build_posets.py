#!/usr/bin/env python3
"""Build finite posets three ways and poke at the order structure.

Run: python demos/01_build_posets.py
"""

from closurecount import Poset, bits, family
from closurecount.fileio import build_poset, parse_poset_text

LINE = "-" * 60


def show(p: Poset, title: str) -> None:
    print(f"\n{title}")
    print(f"  n={p.n}  covers={sorted(p.covers)}")
    print(f"  shape: {p.detect_shape().label}")
    print(f"  minimal={list(bits(p.minimal_mask))}  "
          f"maximal={list(bits(p.maximal_mask))}")


def main() -> None:
    print(LINE)
    print("1. From explicit relation edges (reduced to covers automatically)")
    print(LINE)
    # 0 < 3 is implied by 0 < 1 < 3 and disappears from the Hasse diagram
    p = Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
    show(p, "diamond, built with a redundant transitive edge")
    print(f"  interval [0,3] = {list(bits(p.interval(0, 3)))}")
    print(f"  0 <= 3? {p.leq(0, 3)}   1 <= 2? {p.leq(1, 2)}")

    print()
    print(LINE)
    print("2. From a text file (element count, then one 'u v' line per edge)")
    print(LINE)
    text = "# three-element chain with an extra incomparable point\n4\n0 1\n1 2\n"
    q = build_poset(parse_poset_text(text))
    show(q, "parsed from edge text")
    comps = q.connected_components()
    print(f"  {len(comps)} connected components: "
          f"{[list(bits(m)) for m in comps]}")

    print()
    print(LINE)
    print("3. From the built-in generator families")
    print(LINE)
    for spec in ("chain:5", "diamond:3", "bottomless:3", "powerset:3",
                 "stacked:2"):
        show(family(spec), spec)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Closure systems by enumeration, and the matching closure operators.

A closure system is a subset C in which every element x has a least
majorizer: a least element of {y in C : y >= x}. Each such C determines
exactly one closure operator (extensive, isotone, idempotent) whose
fixpoints are C, and vice versa. The enumerator yields each C as its member
mask, and an operator is its image tuple, image[x] the closure of x. This
script lists both sides for a small example and confirms the correspondence.

Run: python demos/02_closure_systems.py
"""

from closurecount import bits, enumerate_closure_systems
from closurecount.closures import operator_from_system, system_from_operator
from closurecount.generators import diamond


def main() -> None:
    p = diamond(2)  # 0 < {1, 2} < 3
    print(f"poset: {sorted(p.covers)}  ({p.detect_shape().label})")
    print()
    print("all closure systems and their operators (x -> least majorizer):")
    for i, c in enumerate(enumerate_closure_systems(p), start=1):
        image = operator_from_system(p, c)
        arrows = " ".join(f"{x}->{y}" for x, y in enumerate(image))
        members = str(list(bits(c)))
        print(f"  {i}. C={members:<13} {arrows}")
        assert system_from_operator(p, image) == c

    print()
    print("notes:")
    print("  - every system contains the maximal element 3, the least")
    print("    majorizer of last resort")
    print("  - the round trip system -> operator -> fixpoints is the")
    print("    identity on every line above (asserted)")

    required = 1 << 1
    constrained = list(enumerate_closure_systems(p, required=required))
    print()
    print(f"systems forced to contain element 1: {len(constrained)}")
    for c in constrained:
        print(f"  C={list(bits(c))}")


if __name__ == "__main__":
    main()

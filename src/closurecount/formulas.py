"""Closed-form counts of closure systems for recognized shapes.

Each formula counts the closure systems containing a constraint set T. The
greatest element belongs to every closure system, so membership of the top
in T never changes a count; the formulas discount it up front.

Every formula here was frozen against brute-force enumeration over the full
constraint lattice of small instances, not transcribed on trust; the
diamond bottom-in-T case and the bottomless-diamond exponent in circulating
write-ups disagree with enumeration, and enumeration wins.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bitset import ElementSet, mask_of, size
from .poset import Poset, Shape, ShapeKind


def count_chain(n: int, t: ElementSet = 0) -> int:
    """Chain 0 < 1 < ... < n-1: each element below the top is free, so
    2^(n-1) systems, halved once per constrained non-top element."""
    if n < 1:
        raise ValueError("chain must have at least one element")
    assert t & ~((1 << n) - 1) == 0
    constrained = size(t & ~(1 << (n - 1)))
    return 1 << (n - 1 - constrained)


def count_diamond(width: int, t: ElementSet = 0) -> int:
    """Diamond with bottom 0, belt 1..width, top width+1.

    A subset containing the top is a closure system iff it contains the
    bottom whenever it contains two or more belt elements. With b = belt
    elements in T and n = width:
      bottom in T, or b >= 2:  2^(n-b)   (bottom forced or free-with-bottom)
      b == 1:                  2^(n-1) + 1
      T empty below the top:   2^n + n + 1
    """
    if width < 1:
        raise ValueError("diamond width must be at least 1")
    n = width
    belt = mask_of(range(1, width + 1))
    assert t & ~((1 << (width + 2)) - 1) == 0
    b = size(t & belt)
    if t & 1 or b >= 2:
        return 1 << (n - b)
    if b == 1:
        return (1 << (n - 1)) + 1
    return (1 << n) + n + 1


def count_bottomless_diamond(width: int, t: ElementSet = 0) -> int:
    """Belt 0..width-1 under top width: every belt subset together with the
    top is a closure system, so 2^width, halved per constrained belt
    element."""
    if width < 1:
        raise ValueError("bottomless diamond width must be at least 1")
    assert t & ~((1 << (width + 1)) - 1) == 0
    constrained = size(t & ~(1 << width))
    return 1 << (width - constrained)


class ConstrainedCount(NamedTuple):
    """A closed-form count and the shape it came from."""

    value: int
    shape: Shape


def count_special(p: Poset, t: ElementSet = 0,
                  s: Optional[ElementSet] = None) -> Optional[ConstrainedCount]:
    """Dispatch the suborder on the nonempty mask s (default: the whole
    poset), constrained by t within s, to a shape formula. The shape is
    read off p's masks (Poset.detect_shape), so s need not be a Poset of
    its own. The formulas read only counts of constrained elements, so t
    becomes a canonical mask with the same counts. None when the suborder
    has no recognized shape."""
    s = p.full_mask if s is None else s
    shape = p.detect_shape(s)
    formula = {ShapeKind.CHAIN: count_chain, ShapeKind.DIAMOND: count_diamond,
               ShapeKind.BOTTOMLESS_DIAMOND: count_bottomless_diamond}.get(shape.kind)
    if formula is None:
        return None
    below = size(t & ~(1 << p.greatest_element_of(s)))
    canonical = (1 << below) - 1  # chain 0..n-2, bottomless belt 0..width-1
    if shape.kind is ShapeKind.DIAMOND:  # bottom 0, belt 1..width
        bottom = (t >> p.least_element_of(s)) & 1
        canonical = bottom | ((1 << (below - bottom)) - 1) << 1
    return ConstrainedCount(formula(shape.size, canonical), shape)

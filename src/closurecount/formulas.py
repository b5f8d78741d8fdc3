"""Closed-form counts of closure systems for the shapes the recursion cannot
split: chains, diamonds and bottomless diamonds (count_special)."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bitset import ElementSet, size
from .poset import Poset, Shape, ShapeKind


class ConstrainedCount(NamedTuple):
    """A closed-form count and the shape it came from."""

    value: int
    shape: Shape


def count_special(p: Poset, t: ElementSet = 0,
                  s: Optional[ElementSet] = None) -> Optional[ConstrainedCount]:
    """Count the closure systems of the suborder on the nonempty mask s
    (default: the whole poset) that contain t, t within s, when that
    suborder is a chain, a diamond or a bottomless diamond; None for any
    other shape. The shape is read off p's masks (Poset.detect_shape), so s
    need not be a Poset of its own. Raises ValueError when s has bits
    outside p or t has bits outside s.

    The top belongs to every closure system, so its membership in t never
    changes a count. With k = the elements of t below the top:
      chain, bottomless diamond: each subset of the elements below the top,
        with the top, is a closure system: 2^(elements below the top - k);
      diamond of belt width n, b = belt elements in t: a subset holding the
        top is a closure system iff it holds the bottom whenever it holds
        two or more belt elements, so
          bottom in t, or b >= 2:  2^(n - b)   (bottom forced or free)
          b == 1:                  2^(n - 1) + 1
          k == 0:                  2^n + n + 1
    Each law was frozen against brute-force enumeration over every t of
    small instances, not transcribed on trust: the diamond bottom-in-t case
    and the bottomless-diamond exponent in circulating write-ups disagree
    with enumeration, and enumeration wins."""
    s = p.full_mask if s is None else s
    if t & ~s:
        raise ValueError(f"constraint mask {t:#x} has bits outside the suborder")
    shape = p.detect_shape(s)
    if shape.kind is ShapeKind.OTHER:
        return None
    k = size(t & ~(1 << p.greatest_element_of(s)))
    if shape.kind is not ShapeKind.DIAMOND:
        return ConstrainedCount(1 << (size(s) - 1 - k), shape)
    n = shape.size
    bottom = (t >> p.least_element_of(s)) & 1
    b = k - bottom
    if bottom or b >= 2:
        return ConstrainedCount(1 << (n - b), shape)
    return ConstrainedCount((1 << (n - 1)) + 1 if b else (1 << n) + n + 1, shape)

"""Closure operators and closure systems on a finite poset.

A closure operator is an extensive, isotone, idempotent self-map; a closure
system is a subset C such that every element has a least majorizer inside C.
The two determine each other: the systems are exactly the fixpoint sets of
the operators. This module holds the definitional checks, the conversion in
both directions, enumeration over subsets, and the exact leaf counter the
decomposition falls back on. The enumerator checks the definition on every
candidate subset; it is the oracle that the leaf counter and the
decomposition are both validated against.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional

from .bitset import ElementSet, bits, mask_of
from .errors import InvalidOperatorError, NoGreatestElementError, TooLargeError
from .poset import Poset

DEFAULT_BRUTE_CAP = 1 << 20  # leaf states; powerset:5 visits about 694k
DEFAULT_ENUM_CAP = 22  # elements, for the 2^free subset enumeration


class ClosureSystem(NamedTuple):
    """A closure system as a member bitmask of its poset."""

    poset: Poset
    members: ElementSet


class ClosureOperator(NamedTuple):
    """A closure operator as an image tuple: image[x] is the closure of x."""

    poset: Poset
    image: tuple


def least_majorizer(p: Poset, x: int, c: ElementSet) -> Optional[int]:
    """Least element of {y in c : y >= x}, or None."""
    return p.least_element_of(p.up_incl[x] & c)


def is_closure_system(p: Poset, c: ElementSet) -> bool:
    """True iff every element has a least majorizer inside c."""
    for x in range(p.n):
        if least_majorizer(p, x, c) is None:
            return False
    return True


def is_preclosure_system(p: Poset, c: ElementSet) -> bool:
    """True iff c together with the greatest element is a closure system.

    Only defined when the poset has a greatest element.
    """
    top = p.greatest_element()
    if top is None:
        raise NoGreatestElementError("preclosure systems need a greatest element")
    return is_closure_system(p, c | (1 << top))


def operator_from_system(p: Poset, c: ElementSet) -> ClosureOperator:
    """The closure operator whose fixpoints are c: x maps to its least
    majorizer in c. Requires c to be a closure system."""
    image = []
    for x in range(p.n):
        m = least_majorizer(p, x, c)
        assert m is not None, "not a closure system"
        image.append(m)
    return ClosureOperator(p, tuple(image))


def system_from_operator(op: ClosureOperator) -> ClosureSystem:
    """Fixpoint set of a closure operator; validates the operator laws."""
    validate_operator(op)
    return ClosureSystem(op.poset, mask_of(x for x, y in enumerate(op.image) if x == y))


def validate_operator(op: ClosureOperator) -> None:
    """Raise InvalidOperatorError unless op is extensive, isotone, idempotent."""
    p = op.poset
    f = op.image
    if len(f) != p.n:
        raise InvalidOperatorError(f"image has {len(f)} entries for n={p.n}")
    for x in range(p.n):
        if not 0 <= f[x] < p.n:
            raise InvalidOperatorError(f"image of {x} is out of range")
        if not p.leq(x, f[x]):
            raise InvalidOperatorError(f"not extensive at {x}")
        if f[f[x]] != f[x]:
            raise InvalidOperatorError(f"not idempotent at {x}")
    for x, y in p.covers:
        if not p.leq(f[x], f[y]):
            raise InvalidOperatorError(f"not isotone on cover ({x}, {y})")


def _free_elements(p: Poset, required: ElementSet) -> tuple:
    """Forced mask and the list of undetermined element positions.

    Every closure system contains every maximal element (its up-set is just
    itself), so maximal elements join the required ones.
    """
    assert required & ~p.full_mask == 0, "required set outside the poset"
    forced = required | p.maximal_mask
    return forced, list(bits(p.full_mask & ~forced))


def enumerate_closure_systems(p: Poset, required: ElementSet = 0,
                              cap: Optional[int] = DEFAULT_ENUM_CAP) -> Iterator[ClosureSystem]:
    """Yield every closure system containing `required`, ascending by subset
    bitmask over the free elements. An unsatisfiable `required` simply yields
    nothing."""
    if cap is not None and p.n > cap:
        raise TooLargeError(f"n={p.n} exceeds the enumeration cap {cap}")
    forced, free = _free_elements(p, required)
    for k in range(1 << len(free)):
        c = forced
        for i, pos in enumerate(free):
            c |= ((k >> i) & 1) << pos
        if is_closure_system(p, c):
            yield ClosureSystem(p, c)


def bruteforce_search_space(p: Poset, required: ElementSet = 0) -> int:
    """Number of candidate subsets the enumerator examines for this
    instance: 2^(free elements), the leaf's nominal search space."""
    _, free = _free_elements(p, required)
    return 1 << len(free)


def count_closure_systems_bruteforce(p: Poset, required: ElementSet = 0,
                                     cap: Optional[int] = DEFAULT_BRUTE_CAP) -> int:
    """Count closure systems containing `required` exactly, by a frontier DP.

    Elements are decided in reverse linear extension, so the decided set is
    always an up-set, and each decided z carries cl(z), the least member of
    the system that is >= z. Putting x in is always legal, with cl(x) = x.
    Leaving x out is legal iff x is not forced (maximal or required) and the
    cl values of its upper covers have a least one m; then cl(x) = m, since
    the members above x are the union of the members above those covers.
    Later decisions read cl only on the frontier, the decided elements with
    an undecided lower cover, so a state is the tuple of frontier cl values
    and equal states merge. Raises TooLargeError as soon as more than `cap`
    states have been visited in total, checked after every state expanded,
    so no step grows past the budget (pass cap=None to lift it), and
    ValueError for a negative cap.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"state budget must be nonnegative, got {cap}")
    forced, _ = _free_elements(p, required)
    undecided_below = [len(p.cover_pred[x]) for x in range(p.n)]
    frontier = ()  # element at each position of a state tuple
    layer = {(): 1}
    visited = 0
    for x in reversed(p.topo):
        slots = [frontier.index(z) for z in p.cover_succ[x]]
        for z in p.cover_succ[x]:
            undecided_below[z] -= 1
        keep = [i for i, z in enumerate(frontier) if undecided_below[z]]
        joins = undecided_below[x] > 0
        may_leave = not (forced >> x) & 1
        nxt = {}
        least = {}  # cl values of x's upper covers -> their least, or None
        room = math.inf if cap is None else cap - visited
        for state, ways in layer.items():
            kept = tuple([state[i] for i in keep])
            key = kept + (x,) if joins else kept
            nxt[key] = nxt.get(key, 0) + ways
            if may_leave:
                above = tuple([state[i] for i in slots])
                if above not in least:
                    least[above] = p.least_element_of(mask_of(above))
                m = least[above]
                if m is not None:
                    key = kept + (m,) if joins else kept
                    nxt[key] = nxt.get(key, 0) + ways
            if len(nxt) > room:
                raise TooLargeError(
                    f"leaf count refused: more than {cap} states (n={p.n})")
        visited += len(nxt)
        layer = nxt
        frontier = tuple(frontier[i] for i in keep) + ((x,) if joins else ())
    return sum(layer.values())


def count_preclosure_systems(p: Poset, cap: Optional[int] = DEFAULT_BRUTE_CAP) -> int:
    """Number of preclosure systems: exactly twice the closure system count,
    by pairing each closure system C with C minus the greatest element."""
    if p.greatest_element() is None:
        raise NoGreatestElementError("preclosure systems need a greatest element")
    from .counting import count_closures  # local import, counting uses this module

    return 2 * count_closures(p, cap=cap).value

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
from functools import reduce
from itertools import islice
from operator import itemgetter, or_
from typing import Iterator, NamedTuple, Optional

from .bitset import ElementSet, bits, mask_of, size
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
    majorizer in c. Raises ValueError if c is not a closure system."""
    image = []
    for x in range(p.n):
        m = least_majorizer(p, x, c)
        if m is None:
            raise ValueError(f"not a closure system: {x} has no least majorizer in it")
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


def _forced(p: Poset, required: ElementSet) -> ElementSet:
    """Mask of the elements every counted system contains: the required ones
    and every maximal element, whose up-set is just itself.

    Raises ValueError when `required` has bits outside the poset.
    """
    if required & ~p.full_mask:
        raise ValueError(f"constraint mask {required:#x} has bits outside the poset")
    return required | p.maximal_mask


def enumerate_closure_systems(p: Poset, required: ElementSet = 0,
                              cap: Optional[int] = DEFAULT_ENUM_CAP) -> Iterator[ClosureSystem]:
    """Yield every closure system containing `required`, ascending by subset
    bitmask over the free elements. An unsatisfiable `required` simply yields
    nothing. Raises TooLargeError when p has more than `cap` elements
    (cap=None lifts the cap) and ValueError for a negative cap."""
    if cap is not None and cap < 0:
        raise ValueError(f"element cap must be nonnegative, got {cap}")
    if cap is not None and p.n > cap:
        raise TooLargeError(f"n={p.n} exceeds the enumeration cap {cap}")
    forced = _forced(p, required)
    free = list(bits(p.full_mask & ~forced))
    for k in range(1 << len(free)):
        c = forced
        for i, pos in enumerate(free):
            c |= ((k >> i) & 1) << pos
        if is_closure_system(p, c):
            yield ClosureSystem(p, c)


def bruteforce_search_space(p: Poset, required: ElementSet = 0) -> int:
    """Number of candidate subsets the enumerator examines for this
    instance: 2^(free elements), the leaf's nominal search space."""
    return 1 << size(p.full_mask & ~_forced(p, required))


def _projection(positions: list) -> itemgetter:
    """Map a state tuple to the tuple of its entries at `positions`. An
    itemgetter of one index returns the bare entry, so none or one position
    is read as a slice instead: the result is a tuple whatever the count."""
    if len(positions) > 1:
        return itemgetter(*positions)
    first = positions[0] if positions else 0
    return itemgetter(slice(first, first + len(positions)))


def _batches(layer: dict, nxt: dict, room: int, growth: int) -> Iterator:
    """The items of `layer` in runs that cannot take `nxt` past `room`
    states, each sized when the one before has been expanded into it; near
    the budget that is one state at a time."""
    todo = iter(layer.items())
    left = len(layer)
    while left:
        take = min(left, max((room - len(nxt)) // growth, 1))
        left -= take
        yield islice(todo, take)


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
    and equal states merge.

    Each step builds its projections once, as itemgetters, and takes one of
    three forms:
      - x forced: only the "in" transition, the kept frontier plus x;
      - one upper cover: leaving x out copies that cover's cl, so the "out"
        key is one projection of the state, kept slots plus that slot;
      - several upper covers: their least cl value is the v whose up-set is
        the union of theirs (none if no up_incl[v] is), memoised per step.

    Raises TooLargeError as soon as more than `cap` states have been
    visited in total (pass cap=None to lift it), and ValueError for a
    negative cap or a `required` mask outside the poset. A step adds at
    most two states per state it expands (one when x is forced), so a step
    that cannot cross the budget is checked once, when it ends; one that
    can expands its states in runs that cannot, down to one state at a
    time, and is checked after each, so it refuses before it completes.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"state budget must be nonnegative, got {cap}")
    forced = _forced(p, required)
    up_of = p.up_incl.__getitem__
    bottom_of = None  # up_incl[v] -> v, built for the first several-cover step
    undecided_below = [len(p.cover_pred[x]) for x in range(p.n)]
    frontier = ()  # element at each position of a state tuple
    layer = {(): 1}
    visited = 0
    for x in reversed(p.topo):
        ups = p.cover_succ[x]
        slots = [frontier.index(z) for z in ups]
        for z in ups:
            undecided_below[z] -= 1
        keep = [i for i, z in enumerate(frontier) if undecided_below[z]]
        tail = (x,) if undecided_below[x] else ()  # x joins the frontier
        kept = _projection(keep)
        stays = (forced >> x) & 1
        if not stays and len(slots) == 1:
            copied = _projection(keep + slots) if tail else kept
        elif not stays:
            above_of = _projection(slots)
            if bottom_of is None:
                bottom_of = {u: v for v, u in enumerate(p.up_incl)}
            least = {}  # cl values of the covers -> key tail for their least, or None
        nxt = {}
        get = nxt.get
        room = math.inf if cap is None else cap - visited
        growth = 1 if stays else 2
        if growth * len(layer) <= room:
            batches = (layer.items(),)
        else:
            batches = _batches(layer, nxt, room, growth)
        for batch in batches:
            if stays:
                for state, ways in batch:
                    key = kept(state) + tail
                    nxt[key] = get(key, 0) + ways
            elif len(slots) == 1:
                for state, ways in batch:
                    key = kept(state) + tail
                    nxt[key] = get(key, 0) + ways
                    key = copied(state)
                    nxt[key] = get(key, 0) + ways
            else:
                for state, ways in batch:
                    key = kept(state)
                    into = key + tail
                    nxt[into] = get(into, 0) + ways
                    above = above_of(state)
                    m = least.get(above, False)
                    if m is False:
                        v = bottom_of.get(reduce(or_, map(up_of, above)))
                        m = least[above] = None if v is None else (v,) if tail else ()
                    if m is not None:
                        key += m
                        nxt[key] = get(key, 0) + ways
            if len(nxt) > room:
                raise TooLargeError(
                    f"leaf count refused: more than {cap} states (n={p.n})")
        visited += len(nxt)
        layer = nxt
        frontier = kept(frontier) + tail
    return sum(layer.values())


def count_preclosure_systems(p: Poset, cap: Optional[int] = DEFAULT_BRUTE_CAP) -> int:
    """Number of preclosure systems: exactly twice the closure system count,
    by pairing each closure system C with C minus the greatest element."""
    if p.greatest_element() is None:
        raise NoGreatestElementError("preclosure systems need a greatest element")
    from .counting import count_closures  # local import, counting uses this module

    return 2 * count_closures(p, cap=cap).value

"""Counting closure operators on finite ordered sets.

A closure operator on a poset is an extensive, isotone, idempotent
self-map; equivalently a closure system, the set of its fixpoints. This
package counts them exactly: it detects isolated suborders (intervals the
rest of the poset can only enter at the bottom and leave at the top),
collapses them, counts quotient and suborder independently, and falls back
to closed formulas for recognized shapes or to an exact frontier-DP leaf
counter. Every path is validated against the definitional enumerator.
The root exports the entry points; import the rest from its module.
"""

from .bitset import bits, mask_of
from .closures import (bruteforce_search_space, count_closure_systems_bruteforce,
                       enumerate_closure_systems)
from .counting import count_closures, explain, trace_nodes
from .errors import ClosureCountError, TooLargeError
from .generators import family
from .isolated import (find_max_bottleneck_isos, find_max_summit_isos,
                       is_isolated_suborder, quotient_by)
from .poset import Poset
from .selfcheck import run_selfcheck

__version__ = "0.1.0"

__all__ = [
    "ClosureCountError", "Poset", "TooLargeError", "bits",
    "bruteforce_search_space", "count_closure_systems_bruteforce",
    "count_closures", "enumerate_closure_systems", "explain", "family",
    "find_max_bottleneck_isos", "find_max_summit_isos", "is_isolated_suborder",
    "mask_of", "quotient_by", "run_selfcheck", "trace_nodes",
]

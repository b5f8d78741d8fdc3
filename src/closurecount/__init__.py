"""Counting closure operators on finite ordered sets.

A closure operator on a poset is an extensive, isotone, idempotent
self-map; equivalently a closure system, the set of its fixpoints. This
package counts them exactly: it detects isolated suborders (intervals the
rest of the poset can only enter at the bottom and leave at the top),
collapses them, counts quotient and suborder independently, and falls back
to closed formulas for recognized shapes or to an exact frontier-DP leaf
counter. Every path is validated against the definitional enumerator.
"""

from .bitset import ElementSet, bits, mask_of, size
from .closures import (DEFAULT_BRUTE_CAP, ClosureOperator, ClosureSystem,
                       bruteforce_search_space, count_closure_systems_bruteforce,
                       count_preclosure_systems, enumerate_closure_systems,
                       is_closure_system, is_preclosure_system, least_majorizer,
                       operator_from_system, system_from_operator,
                       validate_operator)
from .counting import (CountResult, DecompositionTrace, bruteforce_candidates,
                       count_closures, explain, trace_nodes)
from .errors import (ClosureCountError, CycleError, EmptyPosetError,
                     EmptySetError, InvalidOperatorError, NoGreatestElementError,
                     NotIsolatedError, ParseError, SameNodeError, TooLargeError)
from .fileio import (PosetFileData, build_poset, load_poset, parse_poset_text,
                     read_poset_file, to_edge_text, to_structured)
from .formulas import (ConstrainedCount, count_bottomless_diamond, count_chain,
                       count_diamond, count_special)
from .generators import (antichain, bottomless_diamond, chain, diamond, family,
                         powerset_lattice, random_connected_poset,
                         random_submask, stacked)
from .isolated import (IsoKind, IsolatedSuborder, find_max_bottleneck_isos,
                       find_max_summit_isos, is_isolated_suborder, is_separator,
                       least_bottleneck, quotient_by)
from .poset import AugmentedPoset, Poset, Shape, ShapeKind
from .selfcheck import SelfCheckReport, run_selfcheck

__version__ = "0.1.0"

__all__ = [
    "AugmentedPoset", "ClosureCountError", "ClosureOperator", "ClosureSystem",
    "ConstrainedCount", "CountResult", "CycleError", "DEFAULT_BRUTE_CAP",
    "DecompositionTrace", "ElementSet", "EmptyPosetError", "EmptySetError",
    "InvalidOperatorError", "IsoKind", "IsolatedSuborder",
    "NoGreatestElementError", "NotIsolatedError", "ParseError", "Poset",
    "PosetFileData", "SameNodeError", "SelfCheckReport",
    "Shape", "ShapeKind", "TooLargeError", "antichain", "bits",
    "bottomless_diamond", "bruteforce_candidates", "bruteforce_search_space",
    "build_poset", "chain", "count_bottomless_diamond", "count_chain",
    "count_closure_systems_bruteforce", "count_closures", "count_diamond",
    "count_preclosure_systems", "count_special",
    "diamond", "enumerate_closure_systems", "explain", "family",
    "find_max_bottleneck_isos", "find_max_summit_isos", "is_closure_system",
    "is_isolated_suborder", "is_preclosure_system", "is_separator",
    "least_bottleneck", "least_majorizer", "load_poset", "mask_of",
    "operator_from_system", "parse_poset_text", "powerset_lattice",
    "quotient_by", "random_connected_poset", "random_submask",
    "read_poset_file", "run_selfcheck", "size", "stacked",
    "system_from_operator", "to_edge_text", "to_structured", "trace_nodes",
    "validate_operator",
]

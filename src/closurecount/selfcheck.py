"""Randomized agreement check between the counter and the enumerator.

The counter (decomposition plus leaf DP) is never trusted on its own: this
module grinds random connected posets with random constraint sets through
count_closures and through the definitional enumerator, and reports any
disagreement, along with audit figures from the decomposition traces (a
suborder used for a split must never intersect the active constraint set).
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from .closures import DEFAULT_ENUM_CAP, enumerate_closure_systems
from .counting import count_closures, trace_nodes
from .errors import TooLargeError
from .generators import random_connected_poset, random_submask
from .poset import Poset

MAX_T = 3  # most elements a random constraint set holds


class Failure(NamedTuple):
    index: int
    poset: Poset
    t: int
    got: int
    want: int


class SelfCheckReport(NamedTuple):
    instances: int
    seed: int
    max_size: int
    failures: list
    disjointness_violations: int
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures and self.disjointness_violations == 0


def disjointness_violations(trace) -> int:
    """Number of split nodes whose suborder intersects the active
    constraint set (in original-element coordinates); always 0, re-checked
    here so self-checks report an auditable figure instead of trusting the
    counter's own assertions."""
    return sum(1 for node in trace_nodes(trace)
               if node.iso_original and node.iso_original & node.t_original)


def run_selfcheck(instances: int = 200, max_size: int = 9, seed: int = 0) -> SelfCheckReport:
    """Compare count_closures against enumerate_closure_systems on random
    instances, each constrained to contain up to MAX_T random elements.

    The RNG is fully determined by `seed`, so a failing instance can be
    regenerated from its report. Raises ValueError unless instances and
    max_size are both at least 1, so a check of nothing never reports OK,
    and TooLargeError for a max_size above the enumerator's element cap.
    Both come before any instance is drawn.
    """
    if instances < 1 or max_size < 1:
        raise ValueError(f"selfcheck needs instances and max size of at least 1, "
                         f"got {instances} and {max_size}")
    if max_size > DEFAULT_ENUM_CAP:
        raise TooLargeError(f"max size {max_size} exceeds the enumeration cap "
                            f"{DEFAULT_ENUM_CAP}")
    rng = random.Random(seed)
    failures = []
    violations = 0
    t0 = time.perf_counter()
    for i in range(instances):
        n = rng.randint(1, max_size)
        p = random_connected_poset(rng, n)
        t = random_submask(rng, p.full_mask, MAX_T)
        want = sum(1 for _ in enumerate_closure_systems(p, t))
        result = count_closures(p, t)
        if result.value != want:
            failures.append(Failure(i, p, t, result.value, want))
        violations += disjointness_violations(result.trace)
    return SelfCheckReport(instances, seed, max_size, failures, violations,
                           time.perf_counter() - t0)

#!/usr/bin/env python3
"""How much work the decomposition avoids, measured two ways.

Stacked posets (k copies of a base, every element of one level below every
element of the next) decompose completely, so the counter never sends
more than one level at a time to its leaf counter. Direct enumeration
examines 2^(free elements) candidate subsets; the search spaces of the
decomposition's leaves add up to far fewer. Subset counts are the honest
metric here; wall clock is reported alongside for flavor.

Run: python demos/05_speedup.py [--levels N]
"""

import argparse
import time

from closurecount import (bruteforce_search_space, count_closures,
                          enumerate_closure_systems)
from closurecount.counting import bruteforce_candidates
from closurecount.generators import powerset_lattice, stacked


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=4,
                    help="largest stack height to try (default 4)")
    args = ap.parse_args()

    base = powerset_lattice(2)
    print(f"{'levels':>6} {'n':>4} {'count':>12} {'direct checks':>14} "
          f"{'decomp checks':>14} {'direct s':>9} {'decomp s':>9}")
    for k in range(1, args.levels + 1):
        p = stacked(base, k)
        t0 = time.perf_counter()
        # cap=None lifts the enumerator's element cap; fine at these sizes
        enumerated = sum(1 for _ in enumerate_closure_systems(p, cap=None))
        enum_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = count_closures(p)
        decomp_s = time.perf_counter() - t0
        assert result.value == enumerated
        print(f"{k:>6} {p.n:>4} {result.value:>12,} "
              f"{bruteforce_search_space(p):>14,} "
              f"{bruteforce_candidates(result.trace):>14,} "
              f"{enum_s:>9.4f} {decomp_s:>9.4f}")

    print()
    print("every row is cross-checked: decomposition == enumeration.")
    print("direct checks grow like 2^n; the decomposition's stay flat")
    print("because each level collapses before the next is considered.")


if __name__ == "__main__":
    main()

"""Acceptance suite: one test per advertised guarantee.

Each test ends by printing a single "PASS: criterion N ..." line with the
measured numbers; run `pytest tests/test_acceptance.py -v -s` to see them.
A failed assertion surfaces as the usual pytest FAILED line instead.
"""

from __future__ import annotations

import random
import time

import pytest

from closurecount import (Poset, bits, bruteforce_search_space, count_closures,
                          enumerate_closure_systems, is_isolated_suborder, mask_of)
from closurecount.bitset import size
from closurecount.cli import main as cli_main
from closurecount.closures import (is_closure_system, is_preclosure_system,
                                   operator_from_system, system_from_operator,
                                   validate_operator)
from closurecount.counting import bruteforce_candidates
from closurecount.generators import (bottomless_diamond, diamond, powerset_lattice,
                                     stacked)
from closurecount.isolated import is_separator
from closurecount.selfcheck import run_selfcheck
from conftest import oracle_count, random_poset, random_posets


def _report(num: int, text: str) -> None:
    print(f"PASS: criterion {num} - {text}")


@pytest.fixture(scope="module")
def selfcheck_report():
    return run_selfcheck(instances=200, max_size=9, seed=0)


def _all_constraint_counts(p: Poset) -> dict:
    """Map every T to |{closure systems containing T}| via one enumeration."""
    counts = {t: 0 for t in range(1 << p.n)}
    for c in enumerate_closure_systems(p):
        counts[c] += 1
    out = {}
    for t in range(1 << p.n):
        out[t] = sum(v for c, v in counts.items() if t & ~c == 0)
    return out


def test_criterion_01_chain_law(capsys):
    t0 = time.perf_counter()
    for n in range(1, 13):
        rc = cli_main(["count", "--gen", f"chain:{n}"])
        out = capsys.readouterr().out
        assert rc == 0 and int(out) == 2 ** (n - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"chain law 2^(n-1) for n=1..12 via the CLI in {elapsed:.2f}s")


def test_criterion_02_diamond_law():
    t0 = time.perf_counter()
    for w in range(1, 11):
        assert count_closures(diamond(w)).value == 2 ** w + w + 1
    checked = 0
    for w in range(1, 8):
        p = diamond(w)
        belt = p.full_mask & ~mask_of([0, w + 1])
        oracle = _all_constraint_counts(p)
        for t in range(1 << p.n):
            hits = size(t & belt)
            if t & 1 or hits >= 2:
                law = 2 ** (w - hits)
            elif hits == 1:
                law = 2 ** (w - 1) + 1
            else:
                law = 2 ** w + w + 1
            assert oracle[t] == law == count_closures(p, t).value
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"diamond law 2^n+n+1 for n=1..10 and all {checked} "
               f"constrained cases vs enumeration for n<=7 in {elapsed:.2f}s")


def test_criterion_03_bottomless_diamond_resolution():
    # the oracle adjudicates: no "+1" term, plain 2^(n - |T minus top|)
    checked = 0
    for w in range(1, 9):
        p = bottomless_diamond(w)
        top_mask = 1 << w
        oracle = _all_constraint_counts(p)
        for t in range(1 << p.n):
            want = 2 ** (w - size(t & ~top_mask))
            assert oracle[t] == want == count_closures(p, t).value
            checked += 1
    _report(3, f"bottomless diamond count is exactly 2^(n-|T\\{{top}}|) "
               f"on all {checked} (n, T) pairs for n=1..8")


def test_criterion_04_powerset_spot_check(capsys):
    p = powerset_lattice(3)
    assert count_closures(p).value == 61 == oracle_count(p)
    for k in (2, 3, 4):
        rc = cli_main(["decompose", "--gen", f"powerset:{k}"])
        out = capsys.readouterr().out
        assert rc == 0 and out == "none\n"
    _report(4, "powerset of a 3-set has 61 closure systems; decompose finds "
               "no useful isolated suborders for k=2,3,4")


def test_criterion_05_oracle_equivalence(selfcheck_report):
    r = selfcheck_report
    assert r.instances == 200 and r.max_size == 9
    assert r.ok and not r.failures
    assert r.seconds < 120.0
    _report(5, f"decomposition equals enumeration on {r.instances} random "
               f"posets up to size {r.max_size} in {r.seconds:.1f}s")


def test_criterion_06_separator_equivalence():
    mismatches = 0
    intervals = 0
    for _, p in random_posets(seed=313, count=50, max_n=8):
        aug = p.augment()
        for a in range(p.n):
            assert is_isolated_suborder(p, p.interval(a, a))
            for b in range(p.n):
                if a == b or not p.leq(a, b):
                    continue
                by_def = is_isolated_suborder(p, p.interval(a, b))
                by_sep = (is_separator(aug, a, aug.bot, b)
                          and is_separator(aug, b, a, aug.top))
                mismatches += by_def != by_sep
                intervals += 1
    assert mismatches == 0
    _report(6, f"separator test agrees with the direct definition on all "
               f"{intervals} intervals of 50 random posets, 0 mismatches")


def test_criterion_07_cryptomorphism():
    systems_seen = 0
    for _, p in random_posets(seed=317, count=50, max_n=7):
        for c in enumerate_closure_systems(p):
            image = operator_from_system(p, c)
            validate_operator(p, image)
            back = system_from_operator(p, image)
            assert back == c
            assert operator_from_system(p, back) == image
            systems_seen += 1
    _report(7, f"system->operator->system and operator->system->operator are "
               f"identities on all {systems_seen} systems of 50 random posets")


def test_criterion_08_preclosure_doubling():
    rng = random.Random(331)
    done = 0
    while done < 50:
        p = random_poset(rng, rng.randint(1, 8))
        if p.greatest_element_of(p.full_mask) is None:
            lift = list(p.covers) + [(i, p.n) for i in bits(p.maximal_mask)]
            p = Poset(p.n + 1, lift)
        assert p.greatest_element_of(p.full_mask) is not None and p.n <= 9
        pre = sum(1 for s in range(1 << p.n) if is_preclosure_system(p, s))
        clo = sum(1 for s in range(1 << p.n) if is_closure_system(p, s))
        assert pre == 2 * clo == 2 * count_closures(p).value
        done += 1
    _report(8, "preclosure systems = 2 x closure systems on 50 random posets "
               "with a greatest element, sizes up to 9")


def test_criterion_09_disjointness(selfcheck_report):
    assert selfcheck_report.disjointness_violations == 0
    _report(9, "suborders used in a decomposition never overlap each other "
               "or the active constraint across all selfcheck traces")


def test_criterion_10_speedup():
    details = []
    for levels in (2, 3):
        p = stacked(powerset_lattice(2), levels)
        direct = bruteforce_search_space(p)
        result = count_closures(p)
        assert result.value == oracle_count(p)
        used = bruteforce_candidates(result.trace)
        assert used < direct
        details.append(f"|S|={p.n}: {used} < {direct}")
    _report(10, "decomposition counts the stacked construction exactly with "
                "a strictly smaller leaf search space (" + "; ".join(details) + ")")

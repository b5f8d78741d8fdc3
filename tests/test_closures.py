"""Closure systems, closure operators, enumeration and the leaf counter.

Expected counts in this file were produced by running the definitional
enumeration itself (and, where a published value exists, agree with it:
powerset of a 3-element set has 61 closure systems).
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import closurecount
from closurecount import (Poset, TooLargeError, bits, bruteforce_search_space,
                          count_closure_systems_bruteforce,
                          enumerate_closure_systems, mask_of)
from closurecount.closures import (is_closure_system, is_preclosure_system,
                                   least_majorizer, operator_from_system,
                                   system_from_operator, validate_operator)
from closurecount.errors import InvalidOperatorError, NoGreatestElementError
from closurecount.generators import chain, diamond, powerset_lattice
from conftest import glued_posets, oracle_count, random_posets


class TestIsClosureSystem:
    def test_diamond_examples(self):
        p = diamond(2)
        assert is_closure_system(p, mask_of([0, 1, 3]))
        assert is_closure_system(p, mask_of([3]))
        # bottom has two minimal majorizers, no least one
        assert not is_closure_system(p, mask_of([1, 2, 3]))
        # missing every maximal element
        assert not is_closure_system(p, mask_of([0, 1]))

    def test_least_majorizer(self):
        p = diamond(2)
        assert least_majorizer(p, 0, mask_of([1, 3])) == 1
        assert least_majorizer(p, 2, mask_of([1, 3])) == 3
        assert least_majorizer(p, 0, mask_of([1, 2, 3])) is None

    def test_every_system_contains_all_maximal_elements(self):
        p = Poset(4, [(0, 1), (0, 2), (0, 3)])
        for c in range(1 << p.n):
            if is_closure_system(p, c):
                assert c & p.maximal_mask == p.maximal_mask


class TestEnumeration:
    def test_two_chain(self):
        systems = list(enumerate_closure_systems(chain(2)))
        assert systems == [mask_of([1]), mask_of([0, 1])]

    def test_required_belt_element(self):
        got = list(enumerate_closure_systems(diamond(2), required=mask_of([1])))
        assert got == [mask_of([1, 3]), mask_of([0, 1, 3]), mask_of([0, 1, 2, 3])]

    def test_ascending_bitmask_order(self):
        members = list(enumerate_closure_systems(powerset_lattice(2)))
        assert members == sorted(members)

    def test_required_filters_the_stream(self):
        p = Poset(3, [(0, 1), (0, 2)])
        got = list(enumerate_closure_systems(p, required=mask_of([0])))
        want = [c for c in enumerate_closure_systems(p) if c & mask_of([0]) == mask_of([0])]
        assert got == want == [mask_of([0, 1, 2])]

    def test_cap(self):
        with pytest.raises(TooLargeError):
            list(enumerate_closure_systems(chain(5), cap=4))


class TestBruteForceCounts:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_chain_law(self, n):
        assert count_closure_systems_bruteforce(chain(n)) == 2 ** (n - 1)

    @pytest.mark.parametrize("w,want", [(1, 4), (2, 7), (3, 12), (4, 21), (5, 38)])
    def test_diamond_counts(self, w, want):
        assert count_closure_systems_bruteforce(diamond(w)) == want

    def test_powerset_three(self):
        assert count_closure_systems_bruteforce(powerset_lattice(3)) == 61

    def test_required_subsets(self):
        p = diamond(2)
        assert count_closure_systems_bruteforce(p, required=mask_of([0])) == 4
        assert count_closure_systems_bruteforce(p, required=mask_of([1])) == 3
        assert count_closure_systems_bruteforce(p, required=mask_of([1, 2])) == 1

    def test_count_matches_enumeration(self):
        for _, p in random_posets(seed=11, count=40, max_n=8):
            want = sum(1 for _ in enumerate_closure_systems(p))
            assert count_closure_systems_bruteforce(p) == want

    def test_cap_refusal_and_lift(self):
        with pytest.raises(TooLargeError):
            count_closure_systems_bruteforce(chain(8), cap=7)
        assert count_closure_systems_bruteforce(chain(8), cap=None) == 128

    @pytest.mark.parametrize("p,required,states,value", [
        (chain(8), (1 << 8) - 1, 8, 1),
        (powerset_lattice(4), 0, 2639, 2480),
        (diamond(12), 0, 8192, 4109),
    ], ids=["chain8-all-required", "powerset4", "diamond12"])
    def test_state_count_pinned_through_the_budget(self, p, required, states, value):
        # the budget counts exactly the states visited: a cap one below
        # refuses, the count itself counts; with every element forced,
        # each chain step keeps its one state, and is still checked
        with pytest.raises(TooLargeError):
            count_closure_systems_bruteforce(p, required, cap=states - 1)
        assert count_closure_systems_bruteforce(p, required, cap=states) == value

    def test_negative_cap_is_an_input_error(self):
        with pytest.raises(ValueError, match="nonnegative"):
            count_closure_systems_bruteforce(chain(3), cap=-1)
        with pytest.raises(TooLargeError):  # 0 is a legal, empty budget
            count_closure_systems_bruteforce(chain(3), cap=0)

    def test_refusal_comes_within_the_step(self):
        # every belt element of diamond(12) doubles the layer, and a budget
        # of 2^12 + 8 states runs out early in the last belt step; checked
        # state by state, the refusal never builds that step's 4096 states
        # and peaks at about 0.4 of the completed count's memory, where one
        # that let the step finish would peak near 0.8
        p = diamond(12)

        def peak(cap):
            gc.collect()  # also empties the free lists, so every tuple is traced
            tracemalloc.start()
            try:
                count_closure_systems_bruteforce(p, cap=cap)
            except TooLargeError:
                pass
            finally:
                out = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            return out

        with pytest.raises(TooLargeError):
            count_closure_systems_bruteforce(p, cap=(1 << 12) + 8)
        assert peak((1 << 12) + 8) < 0.6 * peak(None)

    def test_frontier_dp_agrees_with_enumerator(self):
        # the leaf counter, a DP over frontier states, against the
        # enumerator's subset loop, also on posets with diamonds glued on,
        # whose bottoms take the DP's several-cover step, with and without
        # required elements
        rng = random.Random(6)
        for seed in (3, 4, 5):
            for _, p in [*random_posets(seed=seed, count=12, max_n=9),
                         *glued_posets(seed=seed, count=12, max_n=10)]:
                t = rng.getrandbits(p.n) & rng.getrandbits(p.n)
                assert count_closure_systems_bruteforce(p) == oracle_count(p)
                assert count_closure_systems_bruteforce(p, t) == oracle_count(p, t)

    def test_frontier_dp_long_chain(self):
        # 15 free elements, 2^15 subsets, all counted while the frontier DP
        # keeps one slot throughout
        assert count_closure_systems_bruteforce(chain(16)) == 2 ** 15

    def test_import_leaves_numpy_out(self):
        # the package, its command line and its file reader import nothing
        # outside the standard library, numpy included; modules loaded at
        # startup, such as an editable install's path hook, are set aside
        src = os.path.dirname(os.path.dirname(closurecount.__file__))
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import closurecount, closurecount.cli, closurecount.fileio\n"
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names)))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['closurecount']\n"


class TestRequiredOutsideThePoset:
    """A required mask with bits past the poset is an input error, not an
    assertion, so it holds under python -O too."""

    @pytest.mark.parametrize("call", [
        count_closure_systems_bruteforce,
        lambda p, t: list(enumerate_closure_systems(p, t)),
        bruteforce_search_space,
    ], ids=["bruteforce", "enumerate", "search_space"])
    def test_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="constraint mask 0x20 has bits outside the poset"):
            call(chain(3), 1 << 5)

    def test_holds_under_optimization(self):
        src = os.path.dirname(os.path.dirname(closurecount.__file__))
        script = (
            "import closurecount as cc\n"
            "from closurecount.generators import chain\n"
            "for call in (cc.count_closure_systems_bruteforce,\n"
            "             lambda p, t: list(cc.enumerate_closure_systems(p, t)),\n"
            "             cc.bruteforce_search_space):\n"
            "    try:\n"
            "        call(chain(3), 1 << 5)\n"
            "        print('answered')\n"
            "    except ValueError:\n"
            "        print('refused')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "refused\n" * 3


class TestCryptomorphism:
    def test_operator_from_system_example(self):
        p = diamond(2)
        assert operator_from_system(p, mask_of([1, 3])) == (1, 1, 3, 3)

    @pytest.mark.parametrize("p,c,first", [
        (Poset(2, []), 0, 0),                 # nothing at all above 0
        (diamond(2), mask_of([1, 2, 3]), 0),  # 1 and 2 both minimal above 0
        (diamond(2), mask_of([0, 1]), 2),     # 0 and 1 have their own
    ], ids=["empty", "two minimal", "first missing"])
    def test_non_closure_system_is_a_value_error(self, p, c, first):
        with pytest.raises(ValueError, match=f"^not a closure system: {first} has no "):
            operator_from_system(p, c)

    def test_non_closure_system_is_refused_under_optimization(self):
        src = os.path.dirname(os.path.dirname(closurecount.__file__))
        script = (
            "from closurecount import Poset\n"
            "from closurecount.closures import operator_from_system\n"
            "try:\n"
            "    print(operator_from_system(Poset(2, []), 0))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "not a closure system: 0 has no least majorizer in it\n"

    def test_round_trips_on_random_posets(self):
        for _, p in random_posets(seed=23, count=30, max_n=7):
            for c in enumerate_closure_systems(p):
                # a system is its member mask, an operator its image tuple
                assert type(c) is int and is_closure_system(p, c)
                image = operator_from_system(p, c)
                assert type(image) is tuple and all(type(y) is int for y in image)
                validate_operator(p, image)
                assert system_from_operator(p, image) == c
                # extensivity corollary: anything above the closure is above x
                for x in range(p.n):
                    for y in bits(p.up_incl[image[x]]):
                        assert p.leq(x, y)

    def test_not_extensive(self):
        p = chain(2)
        with pytest.raises(InvalidOperatorError):
            validate_operator(p, (0, 0))

    def test_not_idempotent(self):
        p = chain(3)
        with pytest.raises(InvalidOperatorError):
            validate_operator(p, (1, 2, 2))

    def test_not_isotone(self):
        p = Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        # fix everything but send the bottom to belt 1 and belt 2 to itself:
        # 0 <= 2 but f(0) = 1 is incomparable to f(2) = 2
        with pytest.raises(InvalidOperatorError):
            validate_operator(p, (1, 1, 2, 3))

    def test_wrong_length(self):
        with pytest.raises(InvalidOperatorError):
            validate_operator(chain(2), (0,))

    @pytest.mark.parametrize("image", [(2, 1), (-1, 1)])
    def test_image_out_of_range(self, image):
        with pytest.raises(InvalidOperatorError, match="out of range"):
            validate_operator(chain(2), image)


class TestPreclosure:
    def test_definition_examples(self):
        assert is_preclosure_system(chain(3), mask_of([0]))
        assert is_preclosure_system(chain(3), 0)  # the empty set qualifies
        assert not is_preclosure_system(diamond(2), mask_of([1, 2]))

    def test_needs_greatest_element(self):
        p = Poset(3, [(0, 1), (0, 2)])
        with pytest.raises(NoGreatestElementError):
            is_preclosure_system(p, 0)

    @pytest.mark.parametrize("p,want", [(chain(2), 4), (diamond(2), 14)])
    def test_counts(self, p, want):
        assert sum(1 for c in range(1 << p.n) if is_preclosure_system(p, c)) == want

    def test_doubling_by_enumeration(self):
        for _, p in random_posets(seed=31, count=25, max_n=8):
            if p.greatest_element_of(p.full_mask) is None:
                continue
            direct = sum(1 for c in range(1 << p.n) if is_preclosure_system(p, c))
            assert direct == 2 * count_closure_systems_bruteforce(p)

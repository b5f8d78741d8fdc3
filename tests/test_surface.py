"""The package root exports exactly its entry points, and every name the
benchmark under perfbench/ looks up in the package resolves.

The benchmark's tracer wraps functions by (module, attribute) and its
pinning script reads names off the package root; a rename or a deletion
would otherwise surface only when the traced benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import closurecount

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ROOT_NAMES = {
    # entry points the README documents
    "Poset", "count_closures", "explain", "mask_of", "enumerate_closure_systems",
    "count_closure_systems_bruteforce", "find_max_summit_isos",
    "find_max_bottleneck_isos", "quotient_by", "run_selfcheck",
    # names perfbench/ reads from the package root
    "bits", "trace_nodes", "TooLargeError", "family", "is_isolated_suborder",
    "bruteforce_search_space",
    # the base of every error the package raises
    "ClosureCountError",
}


def test_root_exports_exactly_the_entry_points():
    assert sorted(closurecount.__all__) == sorted(ROOT_NAMES)
    for name in closurecount.__all__:
        assert getattr(closurecount, name) is not None


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for _, owner_path, attr in layers.WRAPS:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(".".join(filter(None, ("closurecount", module))))
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), (owner_path, attr)


def test_every_root_name_the_benchmark_reads_exists():
    names = {name for path in PERFBENCH.glob("*.py")
             for name in re.findall(r"\bpkg\.(\w+)", path.read_text(encoding="utf-8"))}
    assert names
    missing = sorted(name for name in names if not hasattr(closurecount, name))
    assert missing == []

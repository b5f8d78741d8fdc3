"""Per-layer tracing of the closurecount package, from outside.

A Tracer replaces the public functions each layer exposes with wrappers
that record one span per call: name, start, end, parent span and the
operation it belongs to. Spans stay in memory and are written out when the
benchmark ends. A span's self time is its duration minus the durations of
its direct children; summed over all spans, self times account for the
traced operations exactly, and whatever wall time is left belongs to the
benchmark loop itself.

Layers are the package modules. Where counting.py imported a function by
name, the wrapper replaces that name in counting's namespace, so the span
is recorded "as counting calls it".
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import Counter, defaultdict

# (span name, "module[.Class]" within the package, function attribute)
WRAPS = (
    ("poset.build", "poset.Poset", "__init__"),
    ("poset.restrict", "poset.Poset", "restrict"),
    ("poset.augment", "poset.Poset", "augment"),
    ("poset.shape", "poset.Poset", "detect_shape"),
    ("poset.components", "poset.Poset", "connected_components"),
    ("isolated.find", "counting", "find_max_summit_isos"),
    ("isolated.find", "counting", "find_max_bottleneck_isos"),
    ("isolated.find", "cli", "find_max_summit_isos"),
    ("isolated.find", "cli", "find_max_bottleneck_isos"),
    ("isolated.separator", "isolated", "is_separator"),
    ("isolated.quotient", "counting", "quotient_by"),
    ("formulas.special", "counting", "count_special"),
    ("closures.brute", "counting", "count_closure_systems_bruteforce"),
    ("counting", "", "count_closures"),
    ("counting", "cli", "count_closures"),
    ("fileio.parse", "cli", "read_poset_file"),
    ("fileio.parse", "cli", "build_poset"),
    ("cli", "cli", "main"),
)

# exact work counters: must repeat between passes over the same inputs
EXACT = ("poset.build_calls", "poset.elements_built", "isolated.separator_tests",
         "closures.candidates", "counting.nodes")


class Tracer:
    """Span recorder plus counters gathered at the same boundaries."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []  # [name, start_ns, end_ns, parent index, op]
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self.active = True
        self._saved = []

    # --- recording ---

    def enter(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(idx)
        return idx

    def exit(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def begin_op(self):
        self.op += 1
        return self.enter("op")

    def _wrapper(self, name, orig, on_result):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            idx = tracer.enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _on_result(self, name):
        counts = self.counts
        if name == "poset.build":
            def built(args, _):
                counts["poset.elements_built"] += args[0].n
            return built
        if name == "formulas.special":
            def special(_, result):
                counts["formulas.hits"] += result is not None
            return special
        if name == "counting":
            return lambda _, result: self._count_trace(result.trace)
        return None

    def _count_trace(self, trace):
        """Counters read off a returned DecompositionTrace."""
        c = self.counts
        stack = [(trace, 1)]
        while stack:
            node, depth = stack.pop()
            c["counting.nodes"] += 1
            c["counting.split_nodes"] += node.kind in ("summit", "bottleneck")
            c["counting.bottleneck_nodes"] += node.kind == "bottleneck"
            c["counting.max_depth"] = max(c["counting.max_depth"], depth)
            if node.kind == "brute":
                c["closures.leaves"] += 1
                c["closures.candidates"] += node.search_space
                c["closures.accepted"] += node.value
            stack.extend((child, depth + 1) for child in node.children)

    # --- installation ---

    def install(self):
        for name, owner_path, attr in WRAPS:
            module, _, cls = owner_path.partition(".")
            owner = importlib.import_module(".".join(filter(None, (self.pkg.__name__, module))))
            if cls:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrapper(name, orig, self._on_result(name)))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # --- aggregation ---

    def mark(self):
        """Position to aggregate from: spans and counters recorded later."""
        return len(self.spans), Counter(self.counts)

    def totals(self, since):
        """Calls, self seconds and counters of everything after `since`."""
        first, base = since
        spans = self.spans
        child = defaultdict(int)
        for name, start, end, parent, _ in spans[first:]:
            if parent >= first:
                child[parent] += end - start
        calls = Counter()
        self_ns = Counter()
        for i in range(first, len(spans)):
            name, start, end, _, _ = spans[i]
            calls[name] += 1
            self_ns[name] += end - start - child[i]
        counts = Counter(self.counts)
        counts.subtract(base)
        counts["counting.max_depth"] = self.counts["counting.max_depth"]
        counts["poset.build_calls"] = calls["poset.build"]
        counts["isolated.separator_tests"] = calls["isolated.separator"]
        return calls, {k: v / 1e9 for k, v in self_ns.items()}, counts

    def write(self, path):
        """All spans as gzip'd tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def layer_metrics(calls, self_s, counts, wall_s, passes):
    """Per-layer metrics of one traced pass (totals divided by passes)."""
    def per(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    def s(name):
        return per(self_s.get(name, 0.0))

    def n(name):
        return per(calls.get(name, 0))

    layer_s = sum(v for k, v in self_s.items() if k != "op")
    return {
        "poset.build_calls": (per(counts["poset.build_calls"]), "count"),
        "poset.build_self_s": (s("poset.build"), "s"),
        "poset.elements_built": (per(counts["poset.elements_built"]), "count"),
        "poset.restrict_calls": (n("poset.restrict"), "count"),
        "poset.restrict_self_s": (s("poset.restrict"), "s"),
        "poset.augment_self_s": (s("poset.augment"), "s"),
        "poset.shape_self_s": (s("poset.shape"), "s"),
        "poset.components_self_s": (s("poset.components"), "s"),
        "isolated.find_calls": (n("isolated.find"), "count"),
        "isolated.find_self_s": (s("isolated.find"), "s"),
        "isolated.separator_tests": (per(counts["isolated.separator_tests"]), "count"),
        "isolated.separator_self_s": (s("isolated.separator"), "s"),
        "isolated.quotient_calls": (n("isolated.quotient"), "count"),
        "isolated.quotient_self_s": (s("isolated.quotient"), "s"),
        "isolated.useful_ratio": (ratio(counts["counting.split_nodes"],
                                        calls.get("isolated.find", 0)), "ratio"),
        "formulas.special_calls": (n("formulas.special"), "count"),
        "formulas.hit_ratio": (ratio(counts["formulas.hits"],
                                     calls.get("formulas.special", 0)), "ratio"),
        "formulas.self_s": (s("formulas.special"), "s"),
        "closures.leaves": (per(counts["closures.leaves"]), "count"),
        "closures.candidates": (per(counts["closures.candidates"]), "count"),
        "closures.self_s": (s("closures.brute"), "s"),
        "closures.candidates_per_s": (ratio(counts["closures.candidates"],
                                            self_s.get("closures.brute", 0.0)), "1/s"),
        "closures.accepted_ratio": (ratio(counts["closures.accepted"],
                                          counts["closures.candidates"]), "ratio"),
        "counting.nodes": (per(counts["counting.nodes"]), "count"),
        "counting.split_nodes": (per(counts["counting.split_nodes"]), "count"),
        "counting.bottleneck_nodes": (per(counts["counting.bottleneck_nodes"]), "count"),
        "counting.max_depth": (counts["counting.max_depth"], "count"),
        "counting.self_s": (s("counting"), "s"),
        "fileio.parse_self_s": (s("fileio.parse"), "s"),
        "cli.self_s": (s("cli"), "s"),
        "trace.wall_s": (per(wall_s), "s"),
        "trace.untraced_s": (per(wall_s - layer_s), "s"),
    }

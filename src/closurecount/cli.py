"""Command line interface.

Subcommands:
  count      count closure systems of a poset, optionally constrained
  decompose  report maximal useful isolated suborders of both kinds
  validate   parse a poset file and describe what was read
  selfcheck  the counter vs the definitional enumerator on random instances
  bench      time the counter against the definitional enumerator, CSV output

Exit codes: 0 success, 1 a check or agreement failed, 2 bad input or usage
(a negative --cap, an element count above poset.MAX_ELEMENTS or more relation
pairs than poset.MAX_EDGES among them), 3 refused as too large: a leaf count
past its --cap state budget without --force, the enumerator above its element
cap, a random:N spec not connected within the sampler's draw budget, or a
decomposition nested deeper than the interpreter's recursion limit (summit
siblings collapse at once, bottleneck siblings still split one per level).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Optional

from .bitset import bits, mask_of
from .closures import (DEFAULT_BRUTE_CAP, DEFAULT_ENUM_CAP,
                       bruteforce_search_space, enumerate_closure_systems)
from .counting import bruteforce_candidates, count_closures, digits, explain
from .errors import ClosureCountError, TooLargeError, excerpt
from .fileio import build_poset, read_poset_file
from .generators import family
from .isolated import find_max_bottleneck_isos, find_max_summit_isos
from .poset import Poset
from .selfcheck import run_selfcheck


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", nargs="?", default=None,
                     help="poset file (edge text or JSON); '-' for stdin")
    sub.add_argument("--gen", metavar="SPEC", default=None,
                     help="generate the input instead, e.g. chain:7, diamond:2, "
                          "bottomless:3, powerset:3, antichain:4, stacked:2, "
                          "random:8:seed")


def _input_poset(args: argparse.Namespace) -> Poset:
    if (args.file is None) == (args.gen is None):
        raise ValueError("provide exactly one input: a FILE or --gen SPEC")
    if args.gen is not None:
        return family(args.gen)
    return build_poset(read_poset_file(args.file))


def _required_mask(text: str, p: Poset) -> int:
    if not text:
        return 0
    try:
        ids = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"--required wants comma-separated ids,"
                         f" got {excerpt(text)}") from None
    for i in ids:
        if not 0 <= i < p.n:
            raise ValueError(f"required element {excerpt(i)} out of range for n={p.n}")
    return mask_of(ids)


def _cap(args: argparse.Namespace) -> Optional[int]:
    """--cap, lifted by --force; a negative one is refused before any work."""
    if args.cap < 0:
        raise ValueError(f"state budget must be nonnegative, got {args.cap}")
    return None if args.force else args.cap


def cmd_count(args: argparse.Namespace) -> int:
    p = _input_poset(args)
    t = _required_mask(args.required, p)
    result = count_closures(p, t, cap=_cap(args))
    if args.trace:
        print(explain(result.trace), file=sys.stderr)
    print(digits(result.value, "," if args.pretty else ""))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    p = _input_poset(args)
    summits = find_max_summit_isos(p)
    bottlenecks = find_max_bottleneck_isos(p)
    if args.json:
        payload = {
            kind: [{"bottom": iso.bottom, "top": iso.top, "size": iso.n,
                    "members": list(bits(iso.members))} for iso in isos]
            for kind, isos in (("summit", summits), ("bottleneck", bottlenecks))
        }
        print(json.dumps(payload, indent=2))
        return 0
    if not summits and not bottlenecks:
        print("none")
        return 0
    for iso in summits + bottlenecks:
        print(f"({iso.bottom}, {iso.top}, {iso.n}, {iso.kind.value})")
    return 0


def _plural(k: int, word: str) -> str:
    return f"{k} {word}" + ("" if k == 1 else "s")


def cmd_validate(args: argparse.Namespace) -> int:
    data = read_poset_file(args.file)
    p = build_poset(data)
    relations = {(u, v) for u, v in data.edges if u != v}
    dropped = len(data.edges) - len(relations)
    reduced = len(relations) - len(p.covers)
    if p.n:
        components = len(p.connected_components())
        print(f"OK: {p.detect_shape().label}, {_plural(components, 'component')}")
    else:
        print("OK: empty poset")
    if reduced:
        print(f"reduced {_plural(reduced, 'transitive edge')}")
    if dropped:
        print(f"dropped {_plural(dropped, 'duplicate or reflexive edge')}")
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    report = run_selfcheck(instances=args.instances, max_size=args.max_size,
                           seed=args.seed)
    passed = report.instances - len(report.failures)
    print(f"{passed}/{report.instances} OK in {report.seconds:.1f}s "
          f"(seed {report.seed}, sizes up to {report.max_size})")
    if report.disjointness_violations:
        print(f"suborder/constraint disjointness violations: "
              f"{report.disjointness_violations}")
    for f in report.failures[:1]:
        print(f"MISMATCH on instance #{f.index}: n={f.poset.n}, "
              f"covers={sorted(f.poset.covers)}, required={sorted(bits(f.t))}, "
              f"decomposition={f.got}, enumeration={f.want}")
    return 0 if report.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    specs = [("family", s) for s in args.family or []]
    specs += [("file", f) for f in args.files]
    if not specs:
        raise ValueError("nothing to benchmark: pass --family SPEC or files")
    cap = _cap(args)
    rows = []
    all_agree = True
    for kind, name in specs:
        p = family(name) if kind == "family" else build_poset(read_poset_file(name))
        t0 = time.perf_counter()
        enumerated = sum(1 for _ in enumerate_closure_systems(
            p, cap=None if args.force else DEFAULT_ENUM_CAP))
        enum_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = count_closures(p, cap=cap)
        decomp_s = time.perf_counter() - t0
        agree = enumerated == result.value
        all_agree &= agree
        rows.append({
            "name": name, "size": p.n,
            "brute_seconds": f"{enum_s:.6f}",
            "decomp_seconds": f"{decomp_s:.6f}",
            "count": result.value, "agree": agree,
            "brute_checks": bruteforce_search_space(p),
            "decomp_checks": bruteforce_candidates(result.trace),
        })
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0 if all_agree else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closurecount",
        description="Count closure operators on finite ordered sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count closure systems")
    _add_input_args(p_count)
    p_count.add_argument("--required", default="",
                         help="comma-separated element ids every system must contain")
    p_count.add_argument("--trace", action="store_true",
                         help="print the decomposition tree to stderr")
    p_count.add_argument("--pretty", action="store_true",
                         help="thousands separators in the result")
    p_count.add_argument("--force", action="store_true",
                         help="run leaf counts even past the cap")
    p_count.add_argument("--cap", type=int, default=DEFAULT_BRUTE_CAP,
                         help="most states the leaf counter may visit "
                              "(default %(default)s)")
    p_count.set_defaults(func=cmd_count)

    p_dec = sub.add_parser("decompose",
                           help="report maximal useful isolated suborders")
    _add_input_args(p_dec)
    p_dec.add_argument("--json", action="store_true", help="machine-readable output")
    p_dec.set_defaults(func=cmd_decompose)

    p_val = sub.add_parser("validate", help="parse a poset file and describe it")
    p_val.add_argument("file", help="poset file; '-' for stdin")
    p_val.set_defaults(func=cmd_validate)

    p_self = sub.add_parser("selfcheck",
                            help="compare the counter against the enumerator "
                                 "on random posets")
    p_self.add_argument("--instances", type=int, default=200)
    p_self.add_argument("--max-size", type=int, default=9)
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selfcheck)

    p_bench = sub.add_parser("bench",
                             help="time the counter vs the enumerator")
    p_bench.add_argument("files", nargs="*", help="poset files to benchmark")
    p_bench.add_argument("--family", action="append", metavar="SPEC",
                         help="generated instance, repeatable")
    p_bench.add_argument("--csv", metavar="PATH", help="write the report here")
    p_bench.add_argument("--force", action="store_true",
                         help="lift the enumerator's element cap and the "
                              "leaf state budget")
    p_bench.add_argument("--cap", type=int, default=DEFAULT_BRUTE_CAP,
                         help="leaf state budget of the counter")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print(f"error: decomposition nested deeper than the recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return 3
    except (ClosureCountError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Subcommands:
  count      count closure systems of a poset, optionally constrained
  decompose  report maximal useful isolated suborders of both kinds
  validate   parse a poset file and describe what was read
  selfcheck  the counter vs the definitional enumerator on random instances

Exit codes: 0 success, 1 a selfcheck mismatch, 2 bad input or usage (a
negative --cap, an element count above poset.MAX_ELEMENTS or more relation
pairs than poset.MAX_EDGES among them), 3 a TooLargeError: a leaf count past
its --cap state budget without --force, a selfcheck --max-size above the
enumerator's element cap, or a random:N spec not connected within the
sampler's draw budget.
A refusal by the argument parser itself (an unknown subcommand or option, a
non-integer --cap) also exits 2, its message cut short like any quote of
outside input.

main builds the argument parser on its first call and reuses it for the
rest of the process; parsing leaves the parser as it was.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .bitset import bits, mask_of
from .closures import DEFAULT_BRUTE_CAP
from .counting import count_closures, digits, explain
from .errors import ClosureCountError, TooLargeError, excerpt, shorten
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusal quotes the command line cut down to
    its two ends, as errors.excerpt quotes a value. Its subparsers are built
    from this class too, and each refuses the arguments it does not know
    itself, so the usage printed is the subcommand's, not the top level's."""

    def error(self, message):
        super().error(shorten(message, 128))

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ClosureCountError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, TooLargeError) else 2


if __name__ == "__main__":
    sys.exit(main())

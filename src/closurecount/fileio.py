"""Reading poset files.

Two formats are accepted and distinguished by sniffing the first
non-whitespace character:

  edge text      first meaningful line is the element count n, every further
                 line is "u v" for one relation u < v; '#' starts a comment
                 that runs to the end of the line, and blank lines are ignored
  structured     a JSON object {"n": int, "edges": [[u, v], ...]} with an
                 optional "labels" array of n strings

Input edges may be any order relations; the constructor reduces them to
covers. Duplicate and reflexive pairs are tolerated.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple, Optional

from .errors import ParseError, excerpt
from .poset import MAX_EDGES, MAX_ELEMENTS, Poset


class PosetFileData(NamedTuple):
    n: int
    edges: list
    labels: Optional[list]


def parse_poset_text(text: str) -> PosetFileData:
    """Parse either format from a string."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_edge_text(text)


def _parse_edge_text(text: str) -> PosetFileData:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError("expected the element count alone on the first line", lineno)
            count = fields[0]
            if count.isdecimal():  # refused by length, not echoed digit by digit
                count = count.lstrip("0") or "0"
                if len(count) > len(str(MAX_ELEMENTS)):
                    raise ParseError(f"element count of {len(count)} digits is above"
                                     f" the limit of {MAX_ELEMENTS}", lineno)
            try:
                n = int(count)
            except ValueError:
                raise ParseError(f"element count is not an integer: {excerpt(count)}",
                                 lineno) from None
            if n < 0:
                raise ParseError(f"element count must be nonnegative, got {excerpt(n)}",
                                 lineno)
            if n > MAX_ELEMENTS:
                raise ParseError(f"element count {n} is above the limit of {MAX_ELEMENTS}",
                                 lineno)
            continue
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {excerpt(line)}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"edge endpoints are not integers: {excerpt(line)}",
                             lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(_out_of_range(u, v, n), lineno)
        if len(edges) == MAX_EDGES:
            raise ParseError(f"more than {MAX_EDGES} edges", lineno)
        edges.append((u, v))
    if n is None:
        raise ParseError("empty input: no element count found")
    return PosetFileData(n, edges, None)


def _parse_json(text: str) -> PosetFileData:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested deeper than the recursion limit") from None
    except ValueError as exc:  # an integer past the int/str digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    if not isinstance(obj.get("n"), int) or isinstance(obj.get("n"), bool):
        raise ParseError('"n" must be an integer')
    n = obj["n"]
    if n < 0:
        raise ParseError(f'"n" must be nonnegative, got {excerpt(n)}')
    if n > MAX_ELEMENTS:
        raise ParseError(f'"n" = {excerpt(n)} is above the limit of {MAX_ELEMENTS}')
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be an array of [u, v] pairs')
    if len(raw_edges) > MAX_EDGES:
        raise ParseError(f"{len(raw_edges)} edges is above the limit of {MAX_EDGES}")
    edges = []
    for i, pair in enumerate(raw_edges):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
            raise ParseError(f'edge #{i} is not a pair of integers: {excerpt(pair)}')
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(_out_of_range(u, v, n))
        edges.append((u, v))
    labels = obj.get("labels")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != n
                or not all(isinstance(x, str) for x in labels)):
            raise ParseError(f'"labels" must be an array of {n} strings')
    return PosetFileData(n, edges, labels)


def _out_of_range(u: int, v: int, n: int) -> str:
    return f"edge ({excerpt(u)}, {excerpt(v)}) out of range for n={n}"


def read_poset_file(path: str) -> PosetFileData:
    """Read and parse a file; '-' reads standard input."""
    if path == "-":
        return parse_poset_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_poset_text(fh.read())


def build_poset(data: PosetFileData) -> Poset:
    return Poset(data.n, data.edges)


"""Text formats: digraphs as edge lists, CSV or JSON; labelings, partitions, contact CSV.

The three digraph readers share one assembly.  Every arc value goes through
its semiring's ``parse_value``; duplicate arcs are semiring-added, which is
how multigraphs are written, and zero sums are dropped.  A loop, or an arc
outside a declared vertex set, is a ``ParseError`` naming its line, row or
arc.  With no declared set the vertices are 1..max over every endpoint
named, zero-valued arcs included.

- Edge list: '#' starts a comment.  An optional first line is "n <count>"
  (declares 1..count) or "vertices <id...>" (declares that set, as after
  deletions); every other line is "u v" (value one) or "u v weight".
- CSV: the header "from,to,value", then arc rows "u,v,value".  A row "v,,"
  declares vertex v; a file with such rows has exactly those vertices.
- JSON: an object with "semiring", "vertices" (declared), "arcs" (a list of
  {"from", "to", "value"}) and optional "blocks".  Each field is read as its
  JSON literal, so a value is a number that the semiring accepts.  "blocks"
  maps a vertex to the original vertices merged into it, as contractions
  leave them: the vertex is its block's smallest member, no other member is
  a vertex, and blocks are disjoint.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import chain

import numpy as np

from .digraph import Digraph, DigraphError, _normalized
from .partitions import Coloring, PartialPartition, PartitionError
from .semirings import BOOLEAN, SemiringSpec, SemiringError, get_semiring
from .temporal import DTCN, Contact, TemporalError


class ParseError(ValueError):
    pass


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _vertex(token: str, unit: str, index, allow_zero: bool = False) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"{unit} {index}: malformed vertex id {token!r}") from None
    if value < (0 if allow_zero else 1):
        raise ParseError(f"{unit} {index}: vertex ids are positive, got {value}")
    if value > 2**63 - 1:  # the abstractions hold vertex ids in int64 arrays
        raise ParseError(f"{unit} {index}: vertex ids are at most {2**63 - 1}, got {value}")
    return value


def _assemble(
    rows, semiring: SemiringSpec, unit: str, declared=None, top: int = 0, merged=None
) -> Digraph:
    """The one route from arc rows to a ``Digraph``.

    ``rows`` yields ``(index, u, v, value)`` tokens, where a ``value`` of
    None means the semiring's one; errors name the row as "<unit> <index>".
    With no ``declared`` vertex set the vertices are 1..max over ``top`` and
    every endpoint named.
    """
    parse, add = semiring.parse_value, semiring.add
    acc: dict[tuple[int, int], object] = {}
    for index, a, b, token in rows:
        u, v = _vertex(a, unit, index), _vertex(b, unit, index)
        if u == v:
            raise ParseError(f"{unit} {index}: self-loop at {u} (digraphs are loopless)")
        if declared is None:
            top = max(top, u, v)
        elif u not in declared or v not in declared:
            raise ParseError(f"{unit} {index}: arc ({u}, {v}) outside the declared vertex set")
        try:
            value = semiring.one if token is None else parse(token)
        except ValueError as exc:
            raise ParseError(f"{unit} {index}: bad value {token!r}: {exc}") from None
        key = (u, v)
        acc[key] = add(acc[key], value) if key in acc else value
    if declared is None:
        declared = frozenset(range(1, top + 1))
    try:
        return Digraph(declared, _normalized(acc, semiring), semiring, merged or {})
    except DigraphError as exc:
        raise ParseError(str(exc)) from None


def parse_digraph(text: str, semiring: SemiringSpec = BOOLEAN) -> Digraph:
    lines = _content_lines(text)
    declared = None
    first = next(lines, None)
    if first is not None:
        lineno, line = first
        tokens = line.split()
        if tokens[0] == "n" and len(tokens) == 2:
            declared = frozenset(range(1, _vertex(tokens[1], "line", lineno, allow_zero=True) + 1))
        elif tokens[0] == "vertices":
            declared = frozenset(_vertex(t, "line", lineno) for t in tokens[1:])
        else:
            lines = chain([first], lines)
    return _assemble(_edge_rows(lines), semiring, "line", declared)


def _edge_rows(lines):
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v' or 'u v weight'")
        yield lineno, tokens[0], tokens[1], tokens[2] if len(tokens) == 3 else None


def parse_digraph_csv(text: str, semiring: SemiringSpec = BOOLEAN, n: int | None = None) -> Digraph:
    """Rows "from,to,value" are arcs; a row "v,," (empty to and value) declares vertex v.

    A file with vertex rows has exactly those vertices, and ``n`` is not
    used.  Otherwise the vertices are 1..max over the endpoints named and
    ``n``, as in files written before vertex rows existed.
    """
    rows = [(i, *row) for i, row in _csv_rows(text, "from,to,value")]
    listed = frozenset(_vertex(u, "row", i) for i, u, v, w in rows if not (v.strip() or w.strip()))
    arcs = [row for row in rows if row[2].strip() or row[3].strip()]
    return _assemble(arcs, semiring, "row", listed or None, n or 0)


def parse_digraph_json(text: str) -> Digraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    # Fields are read as their JSON literals: 3 reaches the semiring's parser
    # as "3", and "3" or true arrive quoted or spelled out and are refused.
    literal = json.dumps
    try:
        semiring = get_semiring(payload["semiring"])
        vertices = frozenset(
            _vertex(literal(v), "vertices entry", i) for i, v in enumerate(payload["vertices"])
        )
        rows = [
            (i, literal(arc["from"]), literal(arc["to"]), literal(arc["value"]))
            for i, arc in enumerate(payload["arcs"])
        ]
        blocks = [(key, list(map(literal, ms))) for key, ms in payload.get("blocks", {}).items()]
    except (KeyError, TypeError, AttributeError, SemiringError) as exc:
        raise ParseError(f"malformed digraph JSON: {exc!r}") from None
    merged: dict[int, frozenset[int]] = {}
    for key, tokens in blocks:
        rep = _vertex(key, "block", key)
        members = frozenset(_vertex(t, "block", key) for t in tokens)
        if rep not in vertices or min(members, default=0) != rep:
            raise ParseError(f"block {key}: a block is named by its smallest member, a vertex")
        if len(members & vertices) > 1 or any(members & m for m in merged.values()):
            raise ParseError(f"block {key}: {sorted(members)} meets another block or vertex")
        merged[rep] = members
    return _assemble(rows, semiring, "arc", vertices, merged=merged)


def _csv_rows(text: str, header: str) -> list[tuple[int, list[str]]]:
    """The three-cell rows after the header, each with its file line; blank rows are skipped."""
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows or [c.strip() for c in rows[0][1]] != header.split(","):
        raise ParseError(f"CSV needs the header {header}")
    for i, row in rows[1:]:
        if len(row) != 3:
            raise ParseError(f"row {i}: expected three columns")
    return rows[1:]


def _maybe_compact(d: Digraph, compact_ids: bool) -> Digraph:
    """Renumber the vertices 1..k; merged blocks name the old ids, so they go."""
    order = sorted(d.vertices)
    if not compact_ids or order == list(range(1, len(order) + 1)):
        return d
    remap = {v: i + 1 for i, v in enumerate(order)}
    arcs = {(remap[x], remap[y]): val for (x, y), val in d.arcs.items()}
    return Digraph(frozenset(remap.values()), arcs, d.semiring)


def serialize_digraph(d: Digraph, fmt: str = "edgelist", compact_ids: bool = False) -> str:
    writers = {"edgelist": _to_edgelist, "json": _to_json, "csv": _to_csv}
    if fmt not in writers:
        raise ParseError(f"unknown output format {fmt!r}")
    return writers[fmt](_maybe_compact(d, compact_ids))


def _to_edgelist(d: Digraph) -> str:
    order = sorted(d.vertices)
    dense = order == list(range(1, len(order) + 1))
    lines = [f"n {len(order)}" if dense else "vertices " + " ".join(map(str, order))]
    value = None if d.semiring.name == "boolean" else d.semiring.format_value
    for x, y in sorted(d.arcs):
        lines.append(f"{x} {y}" if value is None else f"{x} {y} {value(d.arcs[(x, y)])}")
    return "\n".join(lines) + "\n"


def _to_json(d: Digraph) -> str:
    payload = {
        "n": len(d.vertices),
        "vertices": sorted(d.vertices),
        "semiring": d.semiring.name,
        "arcs": [{"from": x, "to": y, "value": d.arcs[(x, y)]} for (x, y) in sorted(d.arcs)],
        "blocks": {str(v): sorted(m) for v, m in sorted(d.merged.items())},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _to_csv(d: Digraph) -> str:
    """Arc rows, preceded by a vertex row per vertex unless the arcs imply the set.

    The arcs imply 1..max over their endpoints; isolated top vertices and
    gaps left by deletions need the vertex rows.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["from", "to", "value"])
    order = sorted(d.vertices)
    top = max((max(x, y) for (x, y) in d.arcs), default=0)
    if order != list(range(1, top + 1)):
        writer.writerows([v, "", ""] for v in order)
    writer.writerows([x, y, d.semiring.format_value(d.arcs[(x, y)])] for (x, y) in sorted(d.arcs))
    return out.getvalue()


def parse_labels(text: str) -> Coloring:
    """Lines "vertex color"; every vertex 1..max must appear exactly once."""
    seen: dict[int, int] = {}
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'vertex color'")
        v = _vertex(tokens[0], "line", lineno)
        try:
            color = int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed color {tokens[1]!r}") from None
        if v in seen:
            raise ParseError(f"line {lineno}: duplicate label for vertex {v}")
        seen[v] = color
    if not seen:
        raise ParseError("label file is empty")
    n = max(seen)
    missing = [v for v in range(1, n + 1) if v not in seen]
    if missing:
        raise ParseError(f"vertices without labels: {missing}")
    return Coloring([seen[v] for v in range(1, n + 1)])


def parse_partition(text: str, n: int | None = None) -> PartialPartition:
    """One block per line, whitespace-separated vertex ids."""
    lines = _content_lines(text)
    blocks = [{_vertex(t, "line", lineno) for t in line.split()} for lineno, line in lines]
    if n is None:
        n = max((max(b) for b in blocks), default=0)
    try:
        return PartialPartition(n, blocks)
    except PartitionError as exc:
        raise ParseError(str(exc)) from None


def serialize_partition(p: PartialPartition) -> str:
    return "".join(" ".join(str(v) for v in sorted(b)) + "\n" for b in p.blocks)


def parse_contacts(text: str, n: int | None = None) -> DTCN:
    """Contact CSV with header source,target,time; times are decimal literals.

    The columns are converted and checked whole; a file that fails is read
    again row by row, so that the error names its first bad row.
    """
    rows = _csv_rows(text, "source,target,time")
    if not rows:
        raise ParseError("contact file holds no contacts")
    cells = list(zip(*(row for _, row in rows)))
    try:
        src, dst = (np.array(list(map(int, col)), dtype=np.int64) for col in cells[:2])
        time = np.array(list(map(float, cells[2])), dtype=np.float64)
    except (ValueError, OverflowError):
        _raise_row_error(rows)
    d = DTCN._of(frozenset(range(1, max(src.max(), dst.max(), n or 0) + 1)), src, dst, time)
    valid = min(src.min(), dst.min()) >= 1 and np.isfinite(time).all() and not (src == dst).any()
    if not valid or len(d.src) < len(rows):
        _raise_row_error(rows)
    return d


def _raise_row_error(rows) -> None:
    """Raise the first bad row's error; loops and infinite times come after every other check."""
    triples: dict[tuple[int, int, float], int] = {}
    for i, (a, b, tau) in rows:
        s, t = _vertex(a, "row", i), _vertex(b, "row", i)
        try:
            triple = (s, t, float(tau))
        except ValueError:
            raise ParseError(f"row {i}: malformed time {tau!r}") from None
        if triple in triples:
            raise ParseError(f"row {i}: duplicate contact {triple}")
        triples[triple] = i
    for triple, i in triples.items():
        try:
            Contact(*triple)
        except TemporalError as exc:
            raise ParseError(f"row {i}: {exc}") from None


def serialize_contacts(d: DTCN) -> str:
    return "source,target,time\n" + "".join([f"{s},{t},{tau!r}\n" for s, t, tau in d.triples()])

"""Text formats: digraphs as edge lists, CSV or JSON; labelings, partitions, contact CSV.

The three digraph readers share one assembly.  Every arc value goes through
its semiring's ``parse_value``; duplicate arcs are semiring-added, which is
how multigraphs are written, and zero sums are dropped.  A loop, or an arc
outside a declared vertex set, is a ``ParseError`` naming its line, row or
arc.  With no declared set the vertices are 1..max over every endpoint
named, zero-valued arcs included.  A range 1..n, declared by a count or
implied by an id, holds at most ``VERTEX_RANGE_LIMIT`` vertices; a declared
set of ids has no such limit.

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
from itertools import chain, islice

import numpy as np

from .digraph import Digraph, _normalized
from .partitions import Coloring, PartialPartition, PartitionError
from .semirings import BOOLEAN, SemiringSpec, SemiringError, get_semiring
from .temporal import DTCN, Contact, TemporalError


class ParseError(ValueError):
    pass


# The most vertices a range 1..n read from a file may hold: far above the largest shape
# measured (3·10⁵ vertices), and checked before a stray id such as 10¹⁰ makes a reader build it.
VERTEX_RANGE_LIMIT = 10**7


def _require_range(top: int, where: str) -> None:
    if top > VERTEX_RANGE_LIMIT:
        raise ParseError(f"{where}: the vertex range 1..{top} is over the limit of {VERTEX_RANGE_LIMIT} vertices")


def _content_lines(text: str) -> list[tuple]:
    """Each line with tokens as ``(line number, token, ...)``; '#' starts a comment."""
    lines = [raw.split("#", 1)[0] for raw in text.splitlines()] if "#" in text else text.splitlines()
    return [(lineno, *tokens) for lineno, tokens in enumerate(map(str.split, lines), start=1) if tokens]


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

    ``rows`` holds ``(index, u, v[, value])`` tokens, where a missing or None
    value means the semiring's one; errors name the row as "<unit> <index>".
    With no ``declared`` vertex set the vertices are 1..max over ``top`` and
    every endpoint named.  Columns are checked whole, with one ``int`` per
    vertex token and one ``parse_value`` per distinct value token; on a
    failure the rows are read again one by one to name the first bad one.
    """
    if len(set(map(len, rows))) > 1:
        rows = [(*row, None)[:4] for row in rows]
    _, us, vs, *tokens = zip(*rows) if rows else ((),) * 3
    tokens = tokens[0] if tokens else (None,) * len(us)
    try:
        heads, tails = list(map(int, us)), list(map(int, vs))
        u, v = np.array(heads, dtype=np.int64), np.array(tails, dtype=np.int64)
        value_of = {t: semiring.one if t is None else semiring.parse_value(t) for t in set(tokens)}
    except (ValueError, OverflowError):
        _raise_arc_error(rows, semiring, unit, declared)
    ends = np.concatenate([u, v])
    outside = declared is not None and not (declared.issuperset(heads) and declared.issuperset(tails))
    if ends.min(initial=1) < 1 or (u == v).any() or outside:
        _raise_arc_error(rows, semiring, unit, declared)
    if declared is None:
        high = np.maximum(u, v)
        last = max(top, int(high.max(initial=0)))
        _require_range(last, f"n {top}" if top == last else f"{unit} {rows[int(high.argmax())][0]}")
        declared = frozenset(range(1, last + 1))
    keys, values = list(zip(heads, tails)), list(map(value_of.__getitem__, tokens))
    arcs = dict(zip(keys, values))
    if len(arcs) < len(keys):  # semiring-add a repeated arc's values in file order
        arcs = {}
        for key, value in zip(keys, values):
            arcs[key] = semiring.add(arcs[key], value) if key in arcs else value
    if len(arcs) < len(keys) or semiring.is_zero and any(map(semiring.is_zero, value_of.values())):
        arcs = _normalized(arcs, semiring)
    # valid by construction: the masks above refused loops and arcs leaving the vertex set
    return Digraph._of(declared, arcs, semiring, merged or {})


def _raise_arc_error(rows, semiring: SemiringSpec, unit: str, declared) -> None:
    """Raise the first bad row's error: its ids, then a loop, then the vertex set, then the value."""
    for index, a, b, token in ((*row, None)[:4] for row in rows):
        u, v = _vertex(a, unit, index), _vertex(b, unit, index)
        if u == v:
            raise ParseError(f"{unit} {index}: self-loop at {u} (digraphs are loopless)")
        if declared is not None and (u not in declared or v not in declared):
            raise ParseError(f"{unit} {index}: arc ({u}, {v}) outside the declared vertex set")
        try:
            token is None or semiring.parse_value(token)
        except ValueError as exc:
            raise ParseError(f"{unit} {index}: bad value {token!r}: {exc}") from None


def parse_digraph(text: str, semiring: SemiringSpec = BOOLEAN) -> Digraph:
    rows, declared = _content_lines(text), None
    if rows:
        lineno, key, *tokens = rows[0]
        if key == "n" and len(tokens) == 1:
            count = _vertex(tokens[0], "line", lineno, allow_zero=True)
            _require_range(count, f"line {lineno}")
            declared = frozenset(range(1, count + 1))
        elif key == "vertices":
            declared = frozenset(_vertex(t, "line", lineno) for t in tokens)
        rows = rows[declared is not None :]
    if not set(map(len, rows)) <= {3, 4}:  # "u v" and "u v weight" lines
        bad = next(row[0] for row in rows if len(row) not in (3, 4))
        _raise_arc_error([row for row in rows if row[0] < bad], semiring, "line", declared)  # earlier first
        raise ParseError(f"line {bad}: expected 'u v' or 'u v weight'")
    return _assemble(rows, semiring, "line", declared)


def parse_digraph_csv(text: str, semiring: SemiringSpec = BOOLEAN, n: int | None = None) -> Digraph:
    """Rows "from,to,value" are arcs; a row "v,," (empty to and value) declares vertex v.

    A file with vertex rows has exactly those vertices, and ``n`` is not
    used.  Otherwise the vertices are 1..max over the endpoints named and
    ``n``, as in files written before vertex rows existed.
    """
    rows = list(zip(*_csv_columns(text, "from,to,value")))
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


def _csv_columns(text: str, header: str) -> tuple[list[int], list[str], list[str], list[str]]:
    """The file line and the three cells of each row after the header, one list each.

    Blank rows are skipped.  A row is dropped once its cells are appended, so
    a large file leaves no per-row container alive for the garbage collector.
    """
    reader = csv.reader(io.StringIO(text))
    lines, us, vs, ws = columns = [], [], [], []
    try:
        if [c.strip() for c in next(filter(None, reader), [])] != header.split(","):
            raise ParseError(f"CSV needs the header {header}")
        for row in reader:
            if len(row) == 3:
                lines.append(reader.line_num)
                us.append(row[0])
                vs.append(row[1])
                ws.append(row[2])
            elif row:
                raise ParseError(f"row {reader.line_num}: expected three columns")
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}") from None
    return columns


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
    head = f"n {len(order)}\n" if dense else "vertices " + " ".join(map(str, order)) + "\n"
    keys = sorted(d.arcs)
    if d.semiring.name == "boolean":
        return head + "%s %s\n" * len(keys) % tuple(chain.from_iterable(keys))
    value = d.semiring.format_value
    return head + "".join([f"{x} {y} {value(d.arcs[(x, y)])}\n" for x, y in keys])


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
    for lineno, *tokens in _content_lines(text):
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'vertex color'")
        v = _vertex(tokens[0], "line", lineno)
        try:
            color = int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed color {tokens[1]!r}") from None
        if v in seen:
            raise ParseError(f"line {lineno}: duplicate label for vertex {v}")
        _require_range(v, f"line {lineno}")
        seen[v] = color
    if not seen:
        raise ParseError("label file is empty")
    n = max(seen)
    if len(seen) < n:  # the first five, found within len(seen) + 5 steps, and the count
        first = list(islice((v for v in range(1, n + 1) if v not in seen), 5))
        more = f" and {n - len(seen) - 5} more" if n - len(seen) > 5 else ""
        raise ParseError(f"vertices without labels: {first}{more}")
    return Coloring([seen[v] for v in range(1, n + 1)])


def parse_partition(text: str, n: int | None = None) -> PartialPartition:
    """One block per line, whitespace-separated vertex ids."""
    lines = _content_lines(text)
    blocks = [{_vertex(t, "line", lineno) for t in tokens} for lineno, *tokens in lines]
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
    lines, *cells = _csv_columns(text, "source,target,time")
    if not lines:
        raise ParseError("contact file holds no contacts")
    try:
        src, dst = (np.array(list(map(int, col)), dtype=np.int64) for col in cells[:2])
        time = np.array(list(map(float, cells[2])), dtype=np.float64)
    except (ValueError, OverflowError):
        _raise_row_error(lines, *cells)
    if min(src.min(), dst.min()) < 1 or not np.isfinite(time).all() or (src == dst).any():
        _raise_row_error(lines, *cells)
    high = np.maximum(src, dst)
    top = max(int(high.max()), n or 0)
    _require_range(top, f"n {n}" if top == n else f"row {lines[int(high.argmax())]}")
    d = DTCN._of(frozenset(range(1, top + 1)), src, dst, time)
    if len(d.src) < len(lines):  # a repeated contact
        _raise_row_error(lines, *cells)
    return d


def _raise_row_error(lines, *cells) -> None:
    """Raise the first bad row's error; loops and infinite times come after every other check."""
    triples: dict[tuple[int, int, float], int] = {}
    for i, a, b, tau in zip(lines, *cells):
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
    rows = zip(d.src.tolist(), d.dst.tolist(), d.time.tolist())
    return "source,target,time\n" + "".join([f"{s},{t},{tau!r}\n" for s, t, tau in rows])

"""Text formats: edge lists, labelings, partitions, contact CSV, JSON.

Edge-list grammar: '#' starts a comment; an optional header line is either
"n <count>" (vertices 1..count) or "vertices <id...>" (explicit set, used
when deletions left gaps); every other line is "u v" or "u v weight".
Duplicate arc lines are semiring-added, which is how multigraphs are written.
"""

from __future__ import annotations

import csv
import io
import json

from .digraph import Digraph, add_arc_value, _normalized
from .partitions import Coloring, PartialPartition, PartitionError
from .semirings import BOOLEAN, SemiringSpec, SemiringError, get_semiring
from .temporal import DTCN, TemporalError


class ParseError(ValueError):
    pass


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_digraph(text: str, semiring: SemiringSpec = BOOLEAN) -> Digraph:
    vertices: set[int] | None = None
    acc: dict[tuple[int, int], object] = {}
    declared_n: int | None = None
    first = True
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if first and tokens[0] == "n" and len(tokens) == 2:
            declared_n = _parse_vertex(tokens[1], lineno, allow_zero=True)
            first = False
            continue
        if first and tokens[0] == "vertices":
            vertices = {_parse_vertex(t, lineno) for t in tokens[1:]}
            first = False
            continue
        first = False
        if len(tokens) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v' or 'u v weight'")
        u = _parse_vertex(tokens[0], lineno)
        v = _parse_vertex(tokens[1], lineno)
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at {u} (digraphs are loopless)")
        if len(tokens) == 3:
            try:
                value = semiring.parse_value(tokens[2])
            except (ValueError, SemiringError) as exc:
                raise ParseError(f"line {lineno}: bad weight {tokens[2]!r}: {exc}") from None
        else:
            value = semiring.one
        add_arc_value(acc, (u, v), value, semiring)
    acc = _normalized(acc, semiring)
    if vertices is None:
        top = max((max(u, v) for (u, v) in acc), default=0)
        if declared_n is not None:
            if top > declared_n:
                raise ParseError(f"arc mentions vertex {top} beyond declared n={declared_n}")
            top = declared_n
        vertices = set(range(1, top + 1))
    else:
        for (u, v) in acc:
            if u not in vertices or v not in vertices:
                raise ParseError(f"arc ({u}, {v}) outside the declared vertex set")
    return Digraph(frozenset(vertices), acc, semiring)


def _parse_vertex(token: str, lineno: int, allow_zero: bool = False) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: malformed vertex id {token!r}") from None
    if value < (0 if allow_zero else 1):
        raise ParseError(f"line {lineno}: vertex ids are positive, got {value}")
    return value


def _maybe_compact(d: Digraph, compact_ids: bool):
    order = sorted(d.vertices)
    if not compact_ids or order == list(range(1, len(order) + 1)):
        return d, {v: v for v in order}
    remap = {v: i + 1 for i, v in enumerate(order)}
    arcs = {(remap[x], remap[y]): val for (x, y), val in d.arcs.items()}
    merged = {remap[v]: m for v, m in d.merged.items()}
    return Digraph(frozenset(remap.values()), arcs, d.semiring, merged), remap


def serialize_digraph(d: Digraph, fmt: str = "edgelist", compact_ids: bool = False) -> str:
    d, _ = _maybe_compact(d, compact_ids)
    if fmt == "edgelist":
        return _to_edgelist(d)
    if fmt == "json":
        return _to_json(d)
    if fmt == "csv":
        return _to_csv(d)
    raise ParseError(f"unknown output format {fmt!r}")


def _to_edgelist(d: Digraph) -> str:
    order = sorted(d.vertices)
    lines = []
    if order == list(range(1, len(order) + 1)):
        lines.append(f"n {len(order)}")
    else:
        lines.append("vertices " + " ".join(str(v) for v in order))
    boolean = d.semiring.name == "boolean"
    for (x, y) in sorted(d.arcs):
        if boolean:
            lines.append(f"{x} {y}")
        else:
            lines.append(f"{x} {y} {d.semiring.format_value(d.arcs[(x, y)])}")
    return "\n".join(lines) + "\n"


def _to_json(d: Digraph) -> str:
    payload = {
        "n": len(d.vertices),
        "vertices": sorted(d.vertices),
        "semiring": d.semiring.name,
        "arcs": [
            {"from": x, "to": y, "value": d.arcs[(x, y)]} for (x, y) in sorted(d.arcs)
        ],
        "blocks": {str(v): sorted(m) for v, m in sorted(d.merged.items())},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_digraph_json(text: str) -> Digraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    try:
        semiring = get_semiring(payload["semiring"])
        arcs = {}
        for i, arc in enumerate(payload["arcs"]):
            key = (_json_vertex(arc["from"]), _json_vertex(arc["to"]))
            add_arc_value(arcs, key, _json_value(arc["value"], semiring, i), semiring)
        vertices = frozenset(_json_vertex(v) for v in payload["vertices"])
        merged = {
            _json_vertex(int(v)): frozenset(_json_vertex(m) for m in members)
            for v, members in payload.get("blocks", {}).items()
        }
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed digraph JSON: {exc!r}") from None
    return Digraph(vertices, _normalized(arcs, semiring), semiring, merged)


def _json_vertex(raw) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise ParseError(f"vertex ids are positive JSON integers, got {raw!r}")
    return raw


def _json_value(raw, semiring: SemiringSpec, index: int):
    """A JSON arc value is a number that its semiring's parser accepts."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"arc {index}: value {raw!r} is not a JSON number")
    try:
        return semiring.parse_value(str(raw))
    except (ValueError, SemiringError) as exc:
        raise ParseError(f"arc {index}: bad value {raw!r}: {exc}") from None


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
    for (x, y) in sorted(d.arcs):
        writer.writerow([x, y, d.semiring.format_value(d.arcs[(x, y)])])
    return out.getvalue()


def parse_digraph_csv(text: str, semiring: SemiringSpec = BOOLEAN, n: int | None = None) -> Digraph:
    """Rows "from,to,value" are arcs; a row "v,," (empty to and value) lists vertex v.

    A file with vertex rows has exactly those vertices, and ``n`` is not
    used.  Otherwise the vertices are 1..max over the arcs' endpoints and
    ``n``, as in files written before vertex rows existed.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows or [c.strip() for c in rows[0]] != ["from", "to", "value"]:
        raise ParseError("digraph CSV needs the header from,to,value")
    acc: dict[tuple[int, int], object] = {}
    listed: set[int] = set()
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"row {i}: expected three columns")
        if not row[1].strip() and not row[2].strip():
            listed.add(_parse_vertex(row[0], i))
            continue
        u, v = _parse_vertex(row[0], i), _parse_vertex(row[1], i)
        if u == v:
            raise ParseError(f"row {i}: self-loop at {u}")
        try:
            value = semiring.parse_value(row[2])
        except (ValueError, SemiringError) as exc:
            raise ParseError(f"row {i}: bad weight {row[2]!r}: {exc}") from None
        add_arc_value(acc, (u, v), value, semiring)
    acc = _normalized(acc, semiring)
    if listed:
        for (u, v) in acc:
            if u not in listed or v not in listed:
                raise ParseError(f"arc ({u}, {v}) outside the listed vertex rows")
        return Digraph(frozenset(listed), acc, semiring)
    top = max((max(u, v) for (u, v) in acc), default=0)
    if n is not None:
        top = max(top, n)
    return Digraph(frozenset(range(1, top + 1)), acc, semiring)


def parse_labels(text: str) -> Coloring:
    """Lines "vertex color"; every vertex 1..max must appear exactly once."""
    seen: dict[int, int] = {}
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'vertex color'")
        v = _parse_vertex(tokens[0], lineno)
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
    blocks: list[set[int]] = []
    for lineno, line in _content_lines(text):
        blocks.append({_parse_vertex(t, lineno) for t in line.split()})
    top = max((max(b) for b in blocks), default=0)
    if n is None:
        n = top
    try:
        return PartialPartition(n, blocks)
    except PartitionError as exc:
        raise ParseError(str(exc)) from None


def serialize_partition(p: PartialPartition) -> str:
    return "".join(" ".join(str(v) for v in sorted(b)) + "\n" for b in p.blocks)


def parse_contacts(text: str, n: int | None = None) -> DTCN:
    """Contact CSV with header source,target,time; times are decimal literals."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows or [c.strip() for c in rows[0]] != ["source", "target", "time"]:
        raise ParseError("contact CSV needs the header source,target,time")
    triples: list[tuple[int, int, float]] = []
    seen = set()
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"row {i}: expected three columns")
        s, t = _parse_vertex(row[0], i), _parse_vertex(row[1], i)
        try:
            tau = float(row[2])
        except ValueError:
            raise ParseError(f"row {i}: malformed time {row[2]!r}") from None
        triple = (s, t, tau)
        if triple in seen:
            raise ParseError(f"row {i}: duplicate contact {triple}")
        seen.add(triple)
        triples.append(triple)
    if not triples:
        raise ParseError("contact file holds no contacts")
    top = max(max(s, t) for s, t, _ in triples)
    if n is not None:
        top = max(top, n)
    try:
        return DTCN.build(top, triples)
    except TemporalError as exc:
        raise ParseError(str(exc)) from None


def serialize_contacts(d: DTCN) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["source", "target", "time"])
    for s, t, tau in d.triples():
        writer.writerow([s, t, repr(tau)])
    return out.getvalue()

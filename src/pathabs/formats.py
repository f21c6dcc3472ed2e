"""Text formats: digraphs as edge lists, CSV or JSON; labelings, partitions, contact CSV.

The three digraph readers share one assembly, which checks the arc columns and
hands them to ``Digraph._summed``, and the writers format from the columns, so
a digraph read and written again never builds its arc dict.  The contact
writer formats each distinct vertex id and each distinct time once, taking
distinct times by their float64 bit pattern so that -0.0 and 0.0 keep their
own texts, and gathers the rows from those texts, as the boolean edge-list
writer and the CSV writer do with vertex ids.  Every arc value
goes through its semiring's ``parse_value``; duplicate arcs are semiring-added
in file order by the summing rule in ``digraph``, which is how multigraphs are
written, and zero sums are dropped.  A loop, or an arc
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

Two tokenizers feed those checks.  A plain body goes through numpy's C reader
(``np.loadtxt``) into int64 and float64 columns: an edge list whose first line
is "n <count>" or an arc and whose lines hold two ids in ASCII digits and
spaces, or a contact file whose header is exactly "source,target,time" and
whose body holds only ASCII digits, ",", ".", "e", "E", "+", "-" and
newlines.  Everything else (comments, "vertices" headers, weights, CRLF line
ends, CSV digraphs, JSON, and Python-only number forms such as "1_0", " 3 "
or non-ASCII digits) goes through the checked tokenizer, which reads each
token with Python's ``int`` or ``float`` or the semiring's ``parse_value``.
So does a plain body that numpy refuses (an id such as "3.0") or whose
columns fail a check, so every error text comes from the checked route.
numpy parses a decimal time to the same double as Python's ``float``, as a
corpus of time tokens in the tests pins.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from bisect import bisect_left, bisect_right
from itertools import compress, islice, repeat

import numpy as np

from .digraph import Digraph
from .partitions import Coloring, PartialPartition, PartitionError
from .semirings import BOOLEAN, SemiringSpec, SemiringError, get_semiring
from .temporal import DTCN, Contact, TemporalError


class ParseError(ValueError):
    pass


# The most vertices a range 1..n read from a file, or sampled by the random commands, may hold:
# far above the largest shape measured (3·10⁵ vertices), and checked before a stray id or
# count such as 10¹⁰ makes a reader or a sampler build it.
VERTEX_RANGE_LIMIT = 10**7


# A plain contact row as numpy's C reader reads it.
_CONTACT_ROW = np.dtype([("source", np.int64), ("target", np.int64), ("time", np.float64)])


def require_range(top: int, where: str) -> None:
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


def _plain_read(body: str, allowed: bytes, **options) -> np.ndarray | None:
    """``np.loadtxt`` of a body that holds only the ``allowed`` ASCII bytes; None for any other
    body, and for one that the C reader refuses or finds empty.

    Warnings are errors, so that a numpy version that reads "3.0" into an
    int64 column with only a ``DeprecationWarning`` refuses it too.
    """
    if not body.isascii() or (data := body.encode("ascii")).translate(None, allowed):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(io.BytesIO(data), comments=None, encoding="ascii", **options)
    except (ValueError, OverflowError, Warning):
        return None


class _Unplain(Exception):
    """Gated columns that fail a check."""


def _refuse(rows) -> None:
    """A gated read has no token rows to name an error from: the checked route reads the text again."""
    if rows is None:
        raise _Unplain


def _assemble(
    u, v, values, semiring: SemiringSpec, rows=None, unit="", declared=None, top: int = 0, merged=None
) -> Digraph:
    """The one route from int64 arc columns to a ``Digraph``, which gets them checked.

    Arc i runs from ``u[i]`` to ``v[i]`` with value ``values[i]``, or the
    semiring's one where ``values`` is None.  ``declared`` is the vertex set,
    a frozenset or a range 1..count, which bounds the arc ends with one min and
    max; with none the vertices are 1..max over ``top`` and every endpoint.  A
    failed check raises the first bad arc's error, read again from the token
    ``rows`` (index, us, vs, tokens) and named "<unit> <index[i]>"; columns
    from a plain read come without rows and raise ``_Unplain``.
    """
    ends = np.concatenate([u, v])
    if isinstance(declared, range):
        outside = ends.max(initial=0) >= declared.stop
    else:
        outside = declared is not None and not declared.issuperset(ends.tolist())
    if ends.min(initial=1) < 1 or (u == v).any() or outside:
        _raise_arc_error(rows, semiring, unit, declared)
    if declared is None:
        high = np.maximum(u, v)
        last = max(top, int(high.max(initial=0)))
        if last > VERTEX_RANGE_LIMIT:
            _refuse(rows)
            require_range(last, f"n {top}" if top == last else f"{unit} {rows[0][int(high.argmax())]}")
        declared = range(1, last + 1)
    weighted = values is not None
    values = values if weighted else np.full(len(u), semiring.one, dtype=object)
    # valid but for repeats and zeros: the masks above refused loops and arcs leaving the vertex set
    return Digraph._summed(frozenset(declared), u, v, values, semiring, merged or {}, zeros=weighted)


def _assemble_rows(rows, semiring: SemiringSpec, unit: str, declared=None, top: int = 0, merged=None) -> Digraph:
    """``_assemble`` on token rows (index, us, vs, tokens), a None token being the semiring's one.

    Columns are converted whole, with one ``int`` per vertex token and one
    ``parse_value`` per distinct value token.
    """
    index, us, vs, tokens = rows
    try:
        # an object array casts each token through int(), so Python's number rules hold
        u, v = (np.asarray(col, dtype=object).astype(np.int64) for col in (us, vs))
        values = None
        if tokens is not None:
            value_of = {t: semiring.one if t is None else semiring.parse_value(t) for t in set(tokens)}
            values = np.fromiter(map(value_of.__getitem__, tokens), dtype=object, count=len(tokens))
    except (ValueError, OverflowError):
        _raise_arc_error(rows, semiring, unit, declared)
    return _assemble(u, v, values, semiring, rows, unit, declared, top, merged)


def _raise_arc_error(rows, semiring: SemiringSpec, unit: str, declared) -> None:
    """Raise the first bad arc's error: its ids, then a loop, then the vertex set, then the value."""
    _refuse(rows)
    index, us, vs, tokens = rows
    for i, a, b, token in zip(index, us, vs, repeat(None) if tokens is None else tokens):
        u, v = _vertex(a, unit, i), _vertex(b, unit, i)
        if u == v:
            raise ParseError(f"{unit} {i}: self-loop at {u} (digraphs are loopless)")
        if declared is not None and (u not in declared or v not in declared):
            raise ParseError(f"{unit} {i}: arc ({u}, {v}) outside the declared vertex set")
        try:
            token is None or semiring.parse_value(token)
        except ValueError as exc:
            raise ParseError(f"{unit} {i}: bad value {token!r}: {exc}") from None


def parse_digraph(text: str, semiring: SemiringSpec = BOOLEAN) -> Digraph:
    """An edge list.  A plain body goes through numpy's C reader (see the module
    docstring); other text, and a plain body that fails a check, through the
    checked tokenizer, which names the error."""
    plain = _plain_edgelist(text)
    if plain is not None:
        u, v, declared = plain
        try:
            return _assemble(u, v, None, semiring, declared=declared)
        except _Unplain:
            pass
    rows, declared = _edgelist_rows(text, semiring)
    return _assemble_rows(rows, semiring, "line", declared)


def _plain_edgelist(text: str) -> tuple[np.ndarray, np.ndarray, range | None] | None:
    """The arc columns and declared range of an edge list whose first line is "n <count>"
    or an arc, and whose body holds two ids a line in ASCII digits, spaces and newlines."""
    head, _, body = text.partition("\n")
    count = head[2:].strip(" ")
    if not head.startswith("n "):
        body, declared = text, None
    elif count.isascii() and count.isdigit() and int(count) <= VERTEX_RANGE_LIMIT:
        declared = range(1, int(count) + 1)
    else:
        return None
    arcs = _plain_read(body, b"0123456789 \n", dtype=np.int64, ndmin=2)
    if arcs is None or arcs.shape[1] != 2:
        return None
    return arcs[:, 0], arcs[:, 1], declared


def _edgelist_rows(text: str, semiring: SemiringSpec) -> tuple[tuple, frozenset | range | None]:
    """The token rows and declared vertex set of an edge list, checked line by line.

    Lines are split twice, once to count each line's tokens and once into one
    flat token list, so that no container per line stays alive.
    """
    lines = [raw.split("#", 1)[0] for raw in text.splitlines()] if "#" in text else text.splitlines()
    counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64, count=len(lines))
    lineno = np.flatnonzero(counts) + 1  # the content lines
    counts = counts[lineno - 1]
    cells = np.array(" ".join(lines).split(), dtype=object)
    declared = None
    if len(lineno):
        key, *tokens = cells[: counts[0]].tolist()
        if key == "n" and len(tokens) == 1:
            count = _vertex(tokens[0], "line", lineno[0], allow_zero=True)
            require_range(count, f"line {lineno[0]}")
            declared = range(1, count + 1)
        elif key == "vertices":
            declared = frozenset(_vertex(t, "line", lineno[0]) for t in tokens)
        if declared is not None:
            lineno, cells, counts = lineno[1:], cells[counts[0] :], counts[1:]
    starts = np.cumsum(counts) - counts
    columns = lineno.tolist(), cells[starts], cells[np.minimum(starts + 1, len(cells) - 1)]
    weighted = counts == 3
    tokens = np.where(weighted, cells[np.minimum(starts + 2, len(cells) - 1)], None) if weighted.any() else None
    bad = (counts < 2) | (counts > 3)  # "u v" and "u v weight" lines
    if bad.any():
        first = int(np.argmax(bad))
        _raise_arc_error((*(c[:first] for c in columns), tokens), semiring, "line", declared)  # earlier first
        raise ParseError(f"line {lineno[first]}: expected 'u v' or 'u v weight'")
    return (*columns, tokens), declared


def parse_digraph_csv(text: str, semiring: SemiringSpec = BOOLEAN, n: int | None = None) -> Digraph:
    """Rows "from,to,value" are arcs; a row "v,," (empty to and value) declares vertex v.

    A file with vertex rows has exactly those vertices, and ``n`` is not
    used.  Otherwise the vertices are 1..max over the endpoints named and
    ``n``, as in files written before vertex rows existed.
    """
    lines, us, vs, ws = _csv_columns(text, "from,to,value")
    arc = [bool(v.strip() or w.strip()) for v, w in zip(vs, ws)]
    listed = frozenset(_vertex(u, "row", i) for i, u, a in zip(lines, us, arc) if not a)
    rows = tuple(list(compress(column, arc)) for column in (lines, us, vs, ws))
    return _assemble_rows(rows, semiring, "row", listed or None, n or 0)


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
    return _assemble_rows(tuple(zip(*rows)) if rows else ((),) * 4, semiring, "arc", vertices, merged=merged)


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


def _joined(*columns: tuple[np.ndarray, np.ndarray]) -> str:
    """Rows of cells joined in one pass: column j of row i is ``texts[index[i]]`` of the
    j-th (texts, index) pair, each text a formatted value with its separator."""
    cells = np.empty(len(columns) * len(columns[0][1]), dtype=object)
    for j, (texts, index) in enumerate(columns):
        cells[j :: len(columns)] = texts[index]
    return "".join(cells.tolist())


def _arc_ends(d: Digraph, order: list[int], after_tail: str, after_head: str) -> tuple:
    """The (texts, index) columns of d's arc tails and heads for ``_joined``: each vertex of the
    ascending ``order`` is formatted once as a tail, ``f"{v}{after_tail}"``, and once as a head."""
    ends = np.concatenate([d.src, d.dst])
    # the vertices from the least to the largest arc end: int64, as the columns are
    named = order[bisect_left(order, int(ends.min(initial=0))) : bisect_right(order, int(ends.max(initial=0)))]
    ids = np.array(named, dtype=np.int64)
    tails = np.array([f"{v}{after_tail}" for v in named], dtype=object)
    heads = tails if after_head == after_tail else np.array([f"{v}{after_head}" for v in named], dtype=object)
    return (tails, np.searchsorted(ids, d.src)), (heads, np.searchsorted(ids, d.dst))


def _to_edgelist(d: Digraph) -> str:
    order = sorted(d.vertices)
    dense = order == list(range(1, len(order) + 1))
    head = f"n {len(order)}\n" if dense else "vertices " + " ".join(map(str, order)) + "\n"
    if d.semiring.name == "boolean":
        return head + _joined(*_arc_ends(d, order, " ", "\n"))
    value = d.semiring.format_value
    rows = zip(d.src.tolist(), d.dst.tolist(), map(value, d.values.tolist()))
    return head + "".join([f"{x} {y} {w}\n" for x, y, w in rows])


def _to_json(d: Digraph) -> str:
    payload = {
        "n": len(d.vertices),
        "vertices": sorted(d.vertices),
        "semiring": d.semiring.name,
        "arcs": [
            {"from": x, "to": y, "value": w}
            for x, y, w in zip(d.src.tolist(), d.dst.tolist(), d.values.tolist())
        ],
        "blocks": {str(v): sorted(m) for v, m in sorted(d.merged.items())},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _to_csv(d: Digraph) -> str:
    """Arc rows, preceded by a vertex row per vertex unless the arcs imply the set.

    The arcs imply 1..max over their endpoints; isolated top vertices and
    gaps left by deletions need the vertex rows.  Each vertex is formatted
    once as a tail and once as a head, each value as its semiring formats it
    (``_csv_cell`` quotes a text that needs it), and ``_joined`` gathers the rows.
    """
    order = sorted(d.vertices)
    top = int(max(d.src.max(initial=0), d.dst.max(initial=0)))
    implied = len(order) == top and (not order or order[0] == 1 and order[-1] == top)  # 1..top
    head = "from,to,value\n" + ("" if implied else "".join([f"{v},,\n" for v in order]))
    texts = list(map(d.semiring.format_value, d.values.tolist()))
    joined = "".join(texts)  # the registered semirings' texts need no quotes: a scan of them all finds none
    if any(c in joined for c in _CSV_SPECIAL):
        texts = list(map(_csv_cell, texts))
    values = np.array([f"{t}\n" for t in texts], dtype=object)
    return head + _joined(*_arc_ends(d, order, ",", ","), (values, np.arange(len(values))))


_CSV_SPECIAL = ',"\r\n'


def _csv_cell(text: str) -> str:
    """A cell as RFC 4180 writes it: quoted, with its quotes doubled, if it holds a comma, a quote or a line end."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in _CSV_SPECIAL) else text


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
        require_range(v, f"line {lineno}")
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

    A plain body goes through numpy's C reader (see the module docstring).
    Other text, and a plain body that fails a check, goes through the csv
    module; its columns are converted whole, and a file that fails is read
    again row by row, so that the error names its first bad row.
    """
    head, _, body = text.partition("\n")
    if head == "source,target,time":
        plain = _plain_read(body, b"0123456789,.eE+-\n", dtype=_CONTACT_ROW, delimiter=",", ndmin=1)
        if plain is not None:
            try:
                return _network(plain["source"], plain["target"], plain["time"], n)
            except _Unplain:
                pass
    lines, *cells = _csv_columns(text, "source,target,time")
    if not lines:
        raise ParseError("contact file holds no contacts")
    rows = (lines, *cells)
    try:
        # numpy reads each string cell with Python's int and float
        src, dst = (np.array(col, dtype=np.int64) for col in cells[:2])
        time = np.array(cells[2], dtype=np.float64)
    except (ValueError, OverflowError):
        _raise_row_error(rows)
    return _network(src, dst, time, n, rows)


def _network(src, dst, time, n: int | None, rows=None) -> DTCN:
    """The network of contact columns, on 1..max over ``n`` and every id.  A failed check
    raises the first bad row's error, read again from the token ``rows`` (lines, *cells);
    columns from a plain read come without rows and raise ``_Unplain``."""
    if min(src.min(), dst.min()) < 1 or not np.isfinite(time).all() or (src == dst).any():
        _raise_row_error(rows)
    high = np.maximum(src, dst)
    top = max(int(high.max()), n or 0)
    if top > VERTEX_RANGE_LIMIT:
        _refuse(rows)
        require_range(top, f"n {n}" if top == n else f"row {rows[0][int(high.argmax())]}")
    d = DTCN._of(frozenset(range(1, top + 1)), src, dst, time)
    if len(d.src) < len(src):  # a repeated contact
        _raise_row_error(rows)
    return d


def _raise_row_error(rows) -> None:
    """Raise the first bad row's error; loops and infinite times come after every other check."""
    _refuse(rows)
    triples: dict[tuple[int, int, float], int] = {}
    for i, a, b, tau in zip(*rows):
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
    """The header "source,target,time", then one row "source,target,repr(time)" per contact.

    Each distinct id and each distinct time is formatted once, and the rows
    gather those texts by index.  Distinct times are taken by their float64
    bit pattern, so -0.0 and 0.0 each keep their own text.
    """
    m = len(d.src)
    ids, ends = np.unique(np.concatenate([d.src, d.dst]), return_inverse=True)
    bits, at = np.unique(d.time.view(np.int64), return_inverse=True)
    named = np.array([f"{v}," for v in ids.tolist()], dtype=object)
    times = np.array([f"{tau!r}\n" for tau in bits.view(np.float64).tolist()], dtype=object)
    return "source,target,time\n" + _joined((named, ends[:m]), (named, ends[m:]), (times, at))

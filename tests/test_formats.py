import importlib.resources as resources
import re

import pytest

from pathabs import COUNTING, MINPLUS_NONNEG, REAL, Digraph, contract_blocks
from pathabs.digraph import delete_vertices
from pathabs.formats import (
    ParseError,
    parse_contacts,
    parse_digraph,
    parse_digraph_csv,
    parse_digraph_json,
    parse_labels,
    parse_partition,
    serialize_contacts,
    serialize_digraph,
    serialize_partition,
)
from pathabs.semirings import REGISTRY
from pathabs.temporal import sample_dtcn

from conftest import random_digraph, random_multigraph


def _fixture(name: str) -> str:
    return resources.files("pathabs.data").joinpath(name).read_text(encoding="utf-8")


def test_parse_simple_path():
    d = parse_digraph("1 2\n2 3\n")
    assert d.vertices == {1, 2, 3}
    assert set(d.arcs) == {(1, 2), (2, 3)}


def test_duplicate_lines_accumulate():
    d = parse_digraph("1 2\n1 2\n", COUNTING)
    assert d.arcs == {(1, 2): 2}
    # boolean duplicates collapse
    b = parse_digraph("1 2\n1 2\n")
    assert b.arcs == {(1, 2): 1}


def test_parse_header_and_comments():
    d = parse_digraph("# a comment\nn 5\n1 2  # trailing comment\n")
    assert d.vertices == frozenset(range(1, 6))
    sparse = parse_digraph("vertices 1 3 9\n1 9\n")
    assert sparse.vertices == {1, 3, 9}


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_digraph("1 1\n")
    with pytest.raises(ParseError):
        parse_digraph("1 x\n")
    with pytest.raises(ParseError):
        parse_digraph("1 2 weight\n", COUNTING)
    with pytest.raises(ParseError):
        parse_digraph("1 2 -3\n", COUNTING)
    with pytest.raises(ParseError):
        parse_digraph("n 2\n1 3\n")
    with pytest.raises(ParseError):
        parse_digraph("vertices 1 2\n1 3\n")


def test_fidi_fixture():
    d = parse_digraph(_fixture("fidi.edges"))
    assert len(d.vertices) == 28
    assert d.arc_count() == 40
    coloring = parse_labels(_fixture("fidi.labels"))
    assert coloring.n == 28
    assert len(coloring.colors()) == 12
    assert coloring.labels[:6] == (1, 1, 2, 1, 2, 3)


def test_parse_labels_errors():
    with pytest.raises(ParseError):
        parse_labels("1 1\n1 2\n")
    with pytest.raises(ParseError):
        parse_labels("1 1\n3 2\n")
    with pytest.raises(ParseError):
        parse_labels("")


def test_missing_labels_are_named_by_the_first_five_and_a_count():
    for text, named in [("1 1\n3 2\n", "[2]"), ("1000000 1\n", "[1, 2, 3, 4, 5] and 999994 more"),
                        ("1 1\n3 1\n4 1\n8 1\n9 1\n20 1\n", "[2, 5, 6, 7, 10] and 9 more")]:
        with pytest.raises(ParseError, match=f"^vertices without labels: {re.escape(named)}$"):
            parse_labels(text)


def test_vertex_ranges_are_refused_past_the_limit(monkeypatch):
    monkeypatch.setattr("pathabs.formats.VERTEX_RANGE_LIMIT", 4)
    for read, where in [
        (lambda: parse_digraph("1 2\n# a comment\n\n1 5\n"), "line 4"),
        (lambda: parse_digraph_csv("from,to,value\n1,2,1\n", n=5), "n 5"),
        (lambda: parse_contacts("source,target,time\n1,2,0.5\n\n5,2,0.5\n"), "row 4"),
        (lambda: parse_contacts("source,target,time\n1,2,0.5\n", n=5), "n 5"),
    ]:
        with pytest.raises(ParseError, match=f"^{where}: the vertex range 1..5 is over the limit of 4 vertices$"):
            read()
    # an earlier bad row still wins; the limit itself is read, and a declared vertex set is not a range
    with pytest.raises(ParseError, match="^row 2: vertex ids are positive, got 0$"):
        parse_contacts("source,target,time\n0,1,0.5\n1,5,0.5\n")
    assert parse_digraph("n 4\n").n == parse_digraph("1 4\n").n == parse_contacts("source,target,time\n4,1,0\n").n == 4
    assert parse_digraph("vertices 1 9\n1 9\n").n == parse_digraph_csv("from,to,value\n1,,\n9,,\n1,9,1\n").n == 2
    assert parse_labels("4 1\n3 1\n2 1\n1 2\n").n == 4


def test_parse_partition():
    p = parse_partition("1 3\n2\n")
    assert p.blocks == (frozenset({1, 3}), frozenset({2}))
    empty = parse_partition("")
    assert empty.blocks == () and empty.n == 0
    with pytest.raises(ParseError):
        parse_partition("1 2\n2 3\n")
    assert serialize_partition(p) == "1 3\n2\n"


def test_parse_contacts():
    d = parse_contacts("source,target,time\n1,4,1.0\n5,4,2.0\n2,5,3.0\n4,3,4.0\n")
    assert len(d.contacts) == 4
    assert d.n == 5
    with pytest.raises(ParseError):
        parse_contacts("source,target,time\n1,2,0.5\n1,2,0.5\n")
    with pytest.raises(ParseError):
        parse_contacts("source,target,time\n")
    with pytest.raises(ParseError):
        parse_contacts("a,b\n1,2\n")
    bundled = parse_contacts(_fixture("handoff.csv"))
    assert bundled.triples() == [(1, 4, 1.0), (2, 5, 3.0), (4, 3, 4.0), (5, 4, 2.0)]


def test_round_trip_edgelist(rng):
    for _ in range(50):
        d = random_digraph(rng, rng.randint(1, 9), rng.random())
        assert parse_digraph(serialize_digraph(d, "edgelist")) == d
        m = random_multigraph(rng, rng.randint(1, 8), 0.5)
        assert parse_digraph(serialize_digraph(m, "edgelist"), COUNTING) == m


def test_round_trip_json_and_csv(rng):
    for _ in range(50):
        d = random_digraph(rng, rng.randint(1, 9), rng.random())
        assert parse_digraph_json(serialize_digraph(d, "json")) == d
        assert parse_digraph_csv(serialize_digraph(d, "csv"), n=d.n) == d
        m = random_multigraph(rng, rng.randint(1, 8), 0.5)
        assert parse_digraph_json(serialize_digraph(m, "json")) == m
        assert parse_digraph_csv(serialize_digraph(m, "csv"), COUNTING, n=m.n) == m


def test_json_round_trip_keeps_blocks():
    d = Digraph.build(4, [(1, 2), (2, 3), (3, 4)])
    c = contract_blocks(d, [{2, 4}])
    assert parse_digraph_json(serialize_digraph(c, "json")) == c



def _counting_json(*values: str) -> str:
    arcs = ", ".join(f'{{"from": 1, "to": 2, "value": {v}}}' for v in values)
    return f'{{"semiring": "counting", "vertices": [1, 2], "arcs": [{arcs}]}}'


def test_json_values_pass_the_semiring_parser():
    assert parse_digraph_json(_counting_json("3", "4")).arcs == {(1, 2): 7}
    # string weights used to be added as strings, giving '34'
    with pytest.raises(ParseError):
        parse_digraph_json(_counting_json('"3"', '"4"'))
    for bad in ("-5", "2.5", "true", "null"):
        with pytest.raises(ParseError):
            parse_digraph_json(_counting_json(bad))
    with pytest.raises(ParseError):
        parse_digraph_json('{"semiring": "boolean", "vertices": [1, 2], "arcs": [{"from": 1}]}')
    # vertex ids obey the edge-list rule: positive integers, never truncated
    for vertices in ("[0, 1, 2]", "[1, 2.5]", "[true, 2]"):
        with pytest.raises(ParseError):
            parse_digraph_json(f'{{"semiring": "boolean", "vertices": {vertices}, "arcs": []}}')

def test_edgelist_round_trip_after_deletion():
    from pathabs import bypass

    d = Digraph.build(4, [(1, 2), (2, 3), (3, 4)])
    b = bypass(d, 3)  # vertex set now has a gap
    assert parse_digraph(serialize_digraph(b, "edgelist")) == b


def test_csv_round_trip_after_deletion():
    from pathabs import bypass, bypass_set

    d = Digraph.build(4, [(1, 2), (2, 3), (3, 4)])
    b = bypass(d, 3)  # vertex set now has a gap
    text = serialize_digraph(b, "csv")
    assert parse_digraph_csv(text).vertices == {1, 2, 4}
    assert parse_digraph_csv(text) == b
    # a larger bypass read back with no n
    g = Digraph.build(8, [(1, 4), (3, 5), (4, 7), (5, 1), (5, 6), (6, 8), (7, 2), (7, 8)])
    h = bypass_set(g, {5, 7, 8})
    assert parse_digraph_csv(serialize_digraph(h, "csv")) == h


def test_csv_keeps_isolated_top_vertices():
    d = Digraph.build(5, [(1, 2)])
    assert parse_digraph_csv(serialize_digraph(d, "csv")) == d
    m = Digraph.build(4, {(2, 1): 3}, COUNTING)
    assert parse_digraph_csv(serialize_digraph(m, "csv"), COUNTING) == m
    assert parse_digraph_csv(serialize_digraph(Digraph.build(0), "csv")) == Digraph.build(0)


def test_csv_without_vertex_rows_still_parses():
    text = "from,to,value\n1,2,1\n2,3,1\n"
    assert parse_digraph_csv(text) == Digraph.build(3, [(1, 2), (2, 3)])
    assert parse_digraph_csv(text, n=5) == Digraph.build(5, [(1, 2), (2, 3)])
    # files the arcs fully describe are written without vertex rows
    assert serialize_digraph(Digraph.build(3, [(1, 2), (2, 3)]), "csv") == text


def test_csv_vertex_rows_are_checked():
    assert parse_digraph_csv("from,to,value\n2,,\n5,,\n").vertices == {2, 5}
    with pytest.raises(ParseError):
        parse_digraph_csv("from,to,value\n1,,\n1,2,1\n")  # arc leaves the listed set
    with pytest.raises(ParseError):
        parse_digraph_csv("from,to,value\n0,,\n")
    with pytest.raises(ParseError):
        parse_digraph_csv("from,to,value\n1,,1\n")  # a value with no target


def test_compact_ids():
    from pathabs import bypass

    d = Digraph.build(4, [(1, 2), (2, 3), (3, 4)])
    b = bypass(d, 2)
    text = serialize_digraph(b, "edgelist", compact_ids=True)
    assert text.splitlines()[0] == "n 3"
    compacted = parse_digraph(text)
    assert compacted.vertices == {1, 2, 3}


def test_minplus_weights_round_trip():
    d = Digraph.build(3, {(1, 2): 0.0, (2, 3): 2.5}, MINPLUS_NONNEG)
    text = serialize_digraph(d, "edgelist")
    assert parse_digraph(text, MINPLUS_NONNEG) == d


def test_contact_round_trip():
    d = sample_dtcn(12, 0.2, "uniform", 4, max_retries=3)
    assert parse_contacts(serialize_contacts(d), n=d.n) == d


def test_a_declared_vertex_set_bounds_zero_valued_lines_too():
    for text in ("n 2\n1 3 0\n", "vertices 1 2\n1 3 0\n"):
        with pytest.raises(ParseError, match="line 2"):
            parse_digraph(text, COUNTING)
    # with no declared set, every endpoint named counts, zero-valued or not
    assert parse_digraph("1 2 0\n", COUNTING) == Digraph.build(2, {}, COUNTING)
    assert parse_digraph_csv("from,to,value\n1,2,0\n", COUNTING) == Digraph.build(2, {}, COUNTING)


def test_csv_errors_name_the_row():
    for text in ("from,to,value\n1,x,1\n", "from,to,value\n0,,\n", "from,to,value\n2,2,1\n"):
        with pytest.raises(ParseError, match="^row 2: "):
            parse_digraph_csv(text)
    with pytest.raises(ParseError, match="^row 2: "):
        parse_contacts("source,target,time\n0,1,1.0\n")


def test_vertex_ids_beyond_int64_are_parse_errors():
    big, top = 2**64 + 1, 2**63 - 1  # ids go through int64 arrays; the largest one still reads
    for read, text, where in [
        (parse_digraph, f"vertices 1 {big}\n", "line 1"),
        (parse_digraph, f"1 2\n2 {big}\n", "line 2"),
        (parse_digraph_csv, f"from,to,value\n{big},,\n", "row 2"),
        (parse_digraph_json, _json("[]", f"[1, {big}]"), "vertices entry 1"),
        (parse_partition, f"1 2\n{big}\n", "line 2"),
    ]:
        with pytest.raises(ParseError, match=f"^{where}: vertex ids are at most {top}, got {big}$"):
            read(text)
    assert parse_digraph(f"vertices 1 {top}\n1 {top}\n").arcs == {(1, top): 1}


def test_csv_errors_name_the_file_line():
    # blank lines are skipped but counted: the bad row is on line 4
    with pytest.raises(ParseError, match="^row 4: malformed vertex id 'x'"):
        parse_contacts("source,target,time\n\n\n1,x,1.0\n")
    with pytest.raises(ParseError, match="^row 4: self-loop at 3"):
        parse_digraph_csv("from,to,value\n1,2,1\n\n3,3,1\n")
    with pytest.raises(ParseError, match="^row 3: expected three columns"):
        parse_digraph_csv("from,to,value\n\n1,2\n")


def _json(arcs: str, vertices: str = "[1, 2]", blocks: str = "{}") -> str:
    return (
        f'{{"semiring": "boolean", "vertices": {vertices}, "arcs": {arcs}, "blocks": {blocks}}}'
    )


def test_json_loops_and_out_of_set_arcs_are_parse_errors():
    with pytest.raises(ParseError, match="^arc 1: self-loop"):
        parse_digraph_json(
            _json('[{"from": 1, "to": 2, "value": 1}, {"from": 2, "to": 2, "value": 1}]')
        )
    with pytest.raises(ParseError, match="^arc 0: arc \\(1, 3\\) outside"):
        parse_digraph_json(_json('[{"from": 1, "to": 3, "value": 1}]'))


@pytest.mark.parametrize(
    "vertices, blocks",
    [
        ("[1, 2]", '{"7": [1]}'),  # not a vertex
        ("[1, 2]", '{"7": [7]}'),
        ("[1, 2, 3]", '{"2": [1, 2]}'),  # not the smallest member
        ("[1, 2]", '{"1": [1, 2]}'),  # names another vertex
        ("[1, 2]", '{"1": [1, 3], "2": [2, 3]}'),  # blocks overlap
        ("[1, 2]", '{"1": []}'),
        ("[1, 2]", '{"x": [1]}'),
        ("[1, 2]", '{"1": [1, "3"]}'),
        ("[1, 2]", '{"1": 3}'),
        ("[1, 2]", "[1]"),
    ],
)
def test_json_blocks_are_checked(vertices, blocks):
    with pytest.raises(ParseError):
        parse_digraph_json(_json("[]", vertices, blocks))


def test_json_blocks_as_contractions_leave_them():
    d = parse_digraph_json(_json("[]", "[1, 2, 6]", '{"2": [2, 4, 5], "6": [6, 7]}'))
    assert d.merged == {2: frozenset({2, 4, 5}), 6: frozenset({6, 7})}


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "1e999": "1e999"}


def _read_one_arc(fmt: str, semiring, token: str):
    if fmt == "edgelist":
        return parse_digraph(f"1 2 {token}\n", semiring)
    if fmt == "csv":
        return parse_digraph_csv(f"from,to,value\n1,2,{token}\n", semiring)
    return parse_digraph_json(
        f'{{"semiring": "{semiring.name}", "vertices": [1, 2], '
        f'"arcs": [{{"from": 1, "to": 2, "value": {_NON_FINITE.get(token, token)}}}]}}'
    )


@pytest.mark.parametrize("fmt", ["edgelist", "csv", "json"])
@pytest.mark.parametrize("semiring", [REAL, MINPLUS_NONNEG], ids=lambda s: s.name)
def test_non_finite_weights_are_rejected(fmt, semiring):
    for token in _NON_FINITE:
        if semiring is MINPLUS_NONNEG and token.startswith("-"):
            continue  # negative, refused before
        with pytest.raises(ParseError, match="bad value"):
            _read_one_arc(fmt, semiring, token)
    assert _read_one_arc(fmt, semiring, "1e300").arcs == {(1, 2): 1e300}


def _gapped_digraph(rng, semiring) -> Digraph:
    """Vertex-id gaps, an isolated top vertex and a merged block."""
    arcs = {}
    for x in range(1, 8):
        for y in range(1, 8):
            value = semiring.sample(rng)
            if x != y and rng.random() < 0.4 and semiring.normalize(value) is not None:
                arcs[(x, y)] = value
    d = delete_vertices(contract_blocks(Digraph.build(7, arcs, semiring), [{2, 5}]), [3])
    return Digraph(d.vertices | {11}, d.arcs, semiring, d.merged)


@pytest.mark.parametrize("fmt", ["edgelist", "csv", "json"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_round_trip_matrix(rng, fmt, name):
    semiring = REGISTRY[name]
    read = {
        "edgelist": lambda text: parse_digraph(text, semiring),
        "csv": lambda text: parse_digraph_csv(text, semiring),
        "json": parse_digraph_json,
    }[fmt]
    for _ in range(20):
        d = _gapped_digraph(rng, semiring)
        assert d.merged == {2: frozenset({2, 5})} and 11 in d.vertices
        # only JSON carries merged blocks
        expected = d if fmt == "json" else Digraph(d.vertices, d.arcs, semiring)
        assert read(serialize_digraph(d, fmt)) == expected


def test_compact_ids_drop_blocks_in_the_old_numbering():
    d = delete_vertices(contract_blocks(Digraph.build(5, [(1, 2), (4, 3), (3, 5)]), [{2, 4}]), [1])
    assert d.vertices == {2, 3, 5} and d.merged == {2: frozenset({2, 4})}
    text = serialize_digraph(d, "json", compact_ids=True)
    assert parse_digraph_json(text) == Digraph.build(3, [(1, 2), (2, 3)])


_CONTACT_HEADER = "source,target,time\n"
_TOO_BIG = "vertex ids are at most 9223372036854775807, got"


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1,2\n", "CSV needs the header source,target,time"),
        (_CONTACT_HEADER + "1,2,0.5\n1,2\n", "row 3: expected three columns"),
        (_CONTACT_HEADER + "x,2,0.5\n", "row 2: malformed vertex id 'x'"),
        (_CONTACT_HEADER + "1,y,0.5\n", "row 2: malformed vertex id 'y'"),
        (_CONTACT_HEADER + "0,1,1.0\n", "row 2: vertex ids are positive, got 0"),
        (_CONTACT_HEADER + "0,x,1.0\n", "row 2: vertex ids are positive, got 0"),
        (_CONTACT_HEADER + "1,2,soon\n", "row 2: malformed time 'soon'"),
        (_CONTACT_HEADER + "1,2,0.5\n2,1,0.5\n1,2,0.50\n", "row 4: duplicate contact (1, 2, 0.5)"),
        (_CONTACT_HEADER, "contact file holds no contacts"),
        (_CONTACT_HEADER + "\n\n1,x,1.0\n", "row 4: malformed vertex id 'x'"),
        (_CONTACT_HEADER + "1,x,0\n1,y,0\n", "row 2: malformed vertex id 'x'"),
        (_CONTACT_HEADER + "1,2,inf\n1,x,0\n", "row 3: malformed vertex id 'x'"),
        (_CONTACT_HEADER + "3,3,0.5\n1,2,0.5\n1,2,0.5\n", "row 4: duplicate contact (1, 2, 0.5)"),
        (_CONTACT_HEADER + "1,2,0.1\n3,3,0.5\n", "row 3: contact at 0.5 loops on vertex 3"),
        (_CONTACT_HEADER + "1,2,0.1\n1,3,inf\n", "row 3: contact times must be finite"),
        (_CONTACT_HEADER + "1,18446744073709551617,0.5\n", f"row 2: {_TOO_BIG} 18446744073709551617"),
        (_CONTACT_HEADER + "1,2,0\n9223372036854775808,1,0\n", f"row 3: {_TOO_BIG} 9223372036854775808"),
        # a column count beats any value, even on an earlier row
        (_CONTACT_HEADER + "1,x,0.5\n1,2\n", "row 3: expected three columns"),
        (_CONTACT_HEADER + "1,2,0.5\n1,2\n3,y,0.5\n", "row 3: expected three columns"),
        (_CONTACT_HEADER + " \n1,2,0.5\n", "row 2: expected three columns"),
        # CRLF line endings
        ("source,target,time\r\n1,2,0.5\r\n1,x,0.5\r\n", "row 3: malformed vertex id 'x'"),
        ("source,target,time\r\n1,2,0.5\r\n\r\n1,2\r\n", "row 4: expected three columns"),
        # quoted cells; a quoted line break moves the rows after it down a line
        (_CONTACT_HEADER + '"1","x","0.5"\n', "row 2: malformed vertex id 'x'"),
        (_CONTACT_HEADER + '1,"2\n",0.5\n1,x,0.5\n', "row 4: malformed vertex id 'x'"),
        (_CONTACT_HEADER + '"1,2",3,0.5\n', "row 2: malformed vertex id '1,2'"),
        ('"source","target","time"\n1,1,0.5\n', "row 2: contact at 0.5 loops on vertex 1"),
        # blank rows before a bad row
        (_CONTACT_HEADER + "1,2,0.5\n\n\n1,2\n", "row 5: expected three columns"),
        ("\n\n" + _CONTACT_HEADER + "\n1,x,0\n", "row 5: malformed vertex id 'x'"),
        (_CONTACT_HEADER + "1,2,0.5\n\r\n\n2,2,0.5\n", "row 5: contact at 0.5 loops on vertex 2"),
    ],
)
def test_malformed_contact_corpus(text, message):
    # the earliest bad row wins, and a per-row error beats any loop or infinite time
    with pytest.raises(ParseError) as info:
        parse_contacts(text)
    assert str(info.value) == message


def test_contact_tokens_follow_python_number_rules():
    d = parse_contacts(_CONTACT_HEADER + " 1 , 2 , 0.5 \n1_0,2,1_0.5\n")
    assert d.triples() == [(1, 2, 0.5), (10, 2, 10.5)] and d.n == 10


@pytest.mark.parametrize(
    "cell, value",
    [
        ("1_0", 10),
        (" 3 ", 3),
        ("+3", 3),
        ("٣", 3),  # ARABIC-INDIC DIGIT THREE
        ("3.0", "malformed vertex id '3.0'"),
        ("99999999999999999999", f"{_TOO_BIG} 99999999999999999999"),
    ],
)
def test_contact_id_cells_read_as_python_int_reads_them(cell, value):
    # the same id cell as a source on the first row and as a target on the second
    for text, row, triples in [
        (f"{_CONTACT_HEADER}{cell},1,0.5\n", 2, [(value, 1, 0.5)]),
        (f"{_CONTACT_HEADER}2,1,0.5\n1,{cell},0.25\n", 3, [(1, value, 0.25), (2, 1, 0.5)]),
    ]:
        if isinstance(value, int):
            d = parse_contacts(text)
            assert d.triples() == triples and d.n == value
        else:
            with pytest.raises(ParseError) as info:
                parse_contacts(text)
            assert str(info.value) == f"row {row}: {value}"


def test_contact_time_cells_read_as_python_float_reads_them():
    d = parse_contacts(_CONTACT_HEADER + "1,2,1_0.5\n")
    assert d.triples() == [(1, 2, 10.5)] and d.n == 2


def _arcs_json(arcs, vertices=(1, 2, 3), semiring="boolean") -> str:
    keys = ("from", "to", "value")
    rows = ", ".join("{" + ", ".join(f'"{k}": {t}' for k, t in zip(keys, arc)) + "}" for arc in arcs)
    listed = ", ".join(map(str, vertices))
    return f'{{"semiring": "{semiring}", "vertices": [{listed}], "arcs": [{rows}]}}'


_BIG = 9223372036854775808
_CSV_HEADER = "from,to,value\n"


@pytest.mark.parametrize(
    "fmt, name, text, message",
    [
        # edge lists: one fault each
        ("edgelist", "boolean", "1 x\n", "line 1: malformed vertex id 'x'"),
        ("edgelist", "boolean", "x 0\n", "line 1: malformed vertex id 'x'"),
        ("edgelist", "boolean", "0 x\n", "line 1: vertex ids are positive, got 0"),
        ("edgelist", "boolean", "-3 1\n", "line 1: vertex ids are positive, got -3"),
        ("edgelist", "boolean", f"1 {_BIG}\n", f"line 1: {_TOO_BIG} {_BIG}"),
        ("edgelist", "boolean", f"1 {2 * _BIG}\n", f"line 1: {_TOO_BIG} {2 * _BIG}"),
        ("edgelist", "boolean", f"-{2 * _BIG} 1\n", f"line 1: vertex ids are positive, got -{2 * _BIG}"),
        ("edgelist", "boolean", "1 2\n2 2\n", "line 2: self-loop at 2 (digraphs are loopless)"),
        ("edgelist", "boolean", "n 2\n1 3\n", "line 2: arc (1, 3) outside the declared vertex set"),
        ("edgelist", "boolean", "vertices 1 2 5\n5 1\n1 3\n", "line 3: arc (1, 3) outside the declared vertex set"),
        ("edgelist", "boolean", "n 2\n3 3\n", "line 2: self-loop at 3 (digraphs are loopless)"),
        ("edgelist", "counting", "n 2\n1 3 0\n", "line 2: arc (1, 3) outside the declared vertex set"),
        ("edgelist", "counting", "1 1 x\n", "line 1: self-loop at 1 (digraphs are loopless)"),
        ("edgelist", "boolean", "1 2 2\n", "line 1: bad value '2': boolean weights are 0 or 1, got 2"),
        ("edgelist", "boolean", "1 2 0.5\n", "line 1: bad value '0.5': boolean weights are 0 or 1, got 0.5"),
        ("edgelist", "counting", "1 2 x\n", "line 1: bad value 'x': invalid literal for int() with base 10: 'x'"),
        ("edgelist", "counting", "1 2 -3\n", "line 1: bad value '-3': counting weights are nonnegative, got -3"),
        ("edgelist", "real", "1 2 inf\n", "line 1: bad value 'inf': real weights are finite, got inf"),
        ("edgelist", "minplus-nonneg", "1 2 -1\n", "line 1: bad value '-1': min-plus weights lie in [0, inf), got -1"),
        ("edgelist", "boolean", "1 2 1 4\n", "line 1: expected 'u v' or 'u v weight'"),
        ("edgelist", "boolean", "1\n", "line 1: expected 'u v' or 'u v weight'"),
        ("edgelist", "boolean", "n x\n", "line 1: malformed vertex id 'x'"),
        ("edgelist", "boolean", "n -1\n", "line 1: vertex ids are positive, got -1"),
        ("edgelist", "boolean", "vertices 1 x\n", "line 1: malformed vertex id 'x'"),
        ("edgelist", "boolean", f"vertices 1 {_BIG}\n", f"line 1: {_TOO_BIG} {_BIG}"),
        # comments and blank lines come before the bad line
        ("edgelist", "boolean", "# c\n\n1 2\n  # x\n\n2 x  # bad\n", "line 6: malformed vertex id 'x'"),
        # two faults on different lines: the earlier wins
        ("edgelist", "boolean", "1 2 3 4\n1 x\n", "line 1: expected 'u v' or 'u v weight'"),
        ("edgelist", "boolean", "1 x\n1 2 3 4\n", "line 1: malformed vertex id 'x'"),
        ("edgelist", "boolean", "3 3\n0 1\n", "line 1: self-loop at 3 (digraphs are loopless)"),
        ("edgelist", "counting", "1 2 x\n1 1\n", "line 1: bad value 'x': invalid literal for int() with base 10: 'x'"),
        ("edgelist", "counting", "1 2\n2 1 -1\n3 y 1\n", "line 2: bad value '-1': counting weights are nonnegative, got -1"),
        ("edgelist", "boolean", "n 3\n1 4\n2 2\n", "line 2: arc (1, 4) outside the declared vertex set"),
        ("edgelist", "boolean", "1 2\n1 2\n3 3\n", "line 3: self-loop at 3 (digraphs are loopless)"),
        # CSV
        ("csv", "boolean", "a,b,c\n1,2,1\n", "CSV needs the header from,to,value"),
        ("csv", "boolean", _CSV_HEADER + "1,x,1\n", "row 2: malformed vertex id 'x'"),
        ("csv", "boolean", _CSV_HEADER + "0,1,1\n", "row 2: vertex ids are positive, got 0"),
        ("csv", "boolean", _CSV_HEADER + f"1,{_BIG},1\n", f"row 2: {_TOO_BIG} {_BIG}"),
        ("csv", "boolean", _CSV_HEADER + "1,2,1\n2,2,1\n", "row 3: self-loop at 2 (digraphs are loopless)"),
        ("csv", "boolean", _CSV_HEADER + "1,,\n2,,\n1,3,1\n", "row 4: arc (1, 3) outside the declared vertex set"),
        ("csv", "counting", _CSV_HEADER + "1,2,x\n", "row 2: bad value 'x': invalid literal for int() with base 10: 'x'"),
        ("csv", "boolean", _CSV_HEADER + "1,2,2\n", "row 2: bad value '2': boolean weights are 0 or 1, got 2"),
        ("csv", "boolean", _CSV_HEADER + "1,2\n", "row 2: expected three columns"),
        ("csv", "boolean", _CSV_HEADER + "x,,\n", "row 2: malformed vertex id 'x'"),
        ("csv", "boolean", _CSV_HEADER + "\n\n1,x,1\n", "row 4: malformed vertex id 'x'"),
        ("csv", "boolean", _CSV_HEADER + "1,x,1\n2,y,1\n", "row 2: malformed vertex id 'x'"),
        ("csv", "counting", _CSV_HEADER + "1,2,-1\n3,3,1\n", "row 2: bad value '-1': counting weights are nonnegative, got -1"),
        # JSON
        ("json", None, _arcs_json([(1, '"x"', 1)]), "arc 0: malformed vertex id '\"x\"'"),
        ("json", None, _arcs_json([(1, 2.0, 1)]), "arc 0: malformed vertex id '2.0'"),
        ("json", None, _arcs_json([(0, 1, 1)]), "arc 0: vertex ids are positive, got 0"),
        ("json", None, _arcs_json([(1, _BIG, 1)]), f"arc 0: {_TOO_BIG} {_BIG}"),
        ("json", None, _arcs_json([(2, 2, 1)]), "arc 0: self-loop at 2 (digraphs are loopless)"),
        ("json", None, _arcs_json([(1, 4, 1)]), "arc 0: arc (1, 4) outside the declared vertex set"),
        ("json", None, _arcs_json([(1, 2, 2)]), "arc 0: bad value '2': boolean weights are 0 or 1, got 2"),
        ("json", None, _arcs_json([(1, 2, '"1"')]), "arc 0: bad value '\"1\"': boolean weights are 0 or 1, got \"1\""),
        ("json", None, _arcs_json([(1, 2, -1)], semiring="counting"), "arc 0: bad value '-1': counting weights are nonnegative, got -1"),
        ("json", None, _arcs_json([(1, 2, 1), (1, 2)]), "malformed digraph JSON: KeyError('value')"),
        ("json", None, _arcs_json([(1, 2, 1)], vertices=(1, '"x"')), "vertices entry 1: malformed vertex id '\"x\"'"),
        ("json", None, _arcs_json([(1, 2, 1)], vertices=(1, 0)), "vertices entry 1: vertex ids are positive, got 0"),
        ("json", None, _arcs_json([(1, 2, 2), (3, 3, 1)]), "arc 0: bad value '2': boolean weights are 0 or 1, got 2"),
        ("json", None, _arcs_json([(1, 2, 1), (2, 1, 7), (3, 4, 1)], semiring="counting"), "arc 2: arc (3, 4) outside the declared vertex set"),
    ],
)
def test_malformed_digraph_corpus(fmt, name, text, message):
    # the earliest bad line, row or arc wins; within one, ids, then loops, then the set, then the value
    read = {
        "edgelist": lambda: parse_digraph(text, REGISTRY[name]),
        "csv": lambda: parse_digraph_csv(text, REGISTRY[name]),
        "json": lambda: parse_digraph_json(text),
    }[fmt]
    with pytest.raises(ParseError) as info:
        read()
    assert str(info.value) == message


def test_a_wrong_token_count_builds_nothing_from_the_earlier_lines(monkeypatch):
    # the earlier lines imply the vertex set 1..2**63 - 1: they are checked, never assembled
    import pathabs.formats as formats

    monkeypatch.setattr(formats, "_assemble", lambda *args, **kwargs: pytest.fail("assembled"))
    top = 2**63 - 1
    with pytest.raises(ParseError, match="^line 2: expected 'u v' or 'u v weight'$"):
        parse_digraph(f"1 {top}\n1 2 3 4\n")
    with pytest.raises(ParseError, match=r"^line 2: self-loop at 3 \(digraphs are loopless\)$"):
        parse_digraph(f"1 {top}\n3 3\n1 2 3 4\n")


_VALUE_TOKENS = {
    "boolean": ["0", "1"],
    "counting": ["0", "1", "2", "3"],
    "real": ["0", "-1.5", "1", "2", "0.25"],
    "minplus-nonneg": ["0", "1.5", "3"],
}


def _reference_edgelist(text, semiring):
    """A line-at-a-time edge-list reader for well-formed text."""
    acc, top, declared = {}, 0, None
    for raw in text.splitlines():
        tokens = raw.split("#")[0].split()
        if tokens[:1] == ["n"] and not acc and declared is None:
            declared = frozenset(range(1, int(tokens[1]) + 1))
        elif tokens:
            key = (int(tokens[0]), int(tokens[1]))
            value = semiring.parse_value(tokens[2]) if len(tokens) == 3 else semiring.one
            acc[key] = semiring.add(acc[key], value) if key in acc else value
            top = max(top, *key)
    arcs = {key: value for key, value in acc.items() if semiring.normalize(value) is not None}
    return Digraph(declared or frozenset(range(1, top + 1)), arcs, semiring)


def _checked(d):
    """The digraph rebuilt through the validating constructor, which raises on a bad arc."""
    return Digraph(d.vertices, dict(d.arcs), d.semiring, dict(d.merged))


def test_readers_and_path_abstract_build_what_the_constructor_accepts():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from pathabs import PartialPartition, path_abstract
    from pathabs.checks import _or_refusal

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def holds(data):
        s = REGISTRY[data.draw(st.sampled_from(sorted(REGISTRY)))]
        top = data.draw(st.integers(2, 9))
        vertex = st.integers(1, top)
        arc = st.tuples(vertex, vertex, st.sampled_from([None, *_VALUE_TOKENS[s.name]]))
        arcs = data.draw(st.lists(arc.filter(lambda a: a[0] != a[1]), max_size=20))
        filler = st.sampled_from(["", "   ", "# a comment", "  # indented"])
        lines = [f"n {top}"] if data.draw(st.booleans()) else []
        for u, v, token in arcs:
            lines += data.draw(st.lists(filler, max_size=2))
            lines.append(f"{u} {v}" + ("" if token is None else f" {token}") + data.draw(st.sampled_from(["", " # c"])))
        text = "\n".join(lines) + "\n"
        d = parse_digraph(text, s)
        assert d == _reference_edgelist(text, s) == _checked(d)
        if d.n >= 4 and data.draw(st.booleans()):
            d = contract_blocks(d, [data.draw(st.sets(st.sampled_from(sorted(d.vertices)), min_size=2, max_size=3))])
        for fmt, read in (
            ("edgelist", lambda t: parse_digraph(t, s)),
            ("csv", lambda t: parse_digraph_csv(t, s)),
            ("json", parse_digraph_json),
        ):
            back = read(serialize_digraph(d, fmt))
            assert back == _checked(back) == (d if fmt == "json" else Digraph(d.vertices, d.arcs, s))
        labels = data.draw(st.lists(st.integers(-2, 2), min_size=d.n, max_size=d.n))
        blocks = [{v for v, b in zip(sorted(d.vertices), labels) if b == j} for j in range(3)]
        got = _or_refusal(lambda: path_abstract(d, PartialPartition(top, [b for b in blocks if b])))
        assert isinstance(got, str) or got == _checked(got)

    holds()


_HUGE = "9" * 131_073  # one past the csv module's default field limit


@pytest.mark.parametrize(
    "read, header",
    [(parse_contacts, "source,target,time"), (parse_digraph_csv, "from,to,value")],
)
def test_an_oversized_csv_cell_is_a_parse_error_naming_its_row(read, header):
    with pytest.raises(ParseError, match=r"^row 3: field larger than field limit \(131072\)$"):
        read(f"{header}\n1,2,1\n1,{_HUGE},1\n")
    with pytest.raises(ParseError, match=r"^row 1: field larger than field limit"):
        read(f'"{_HUGE}"\n1,2,1\n')

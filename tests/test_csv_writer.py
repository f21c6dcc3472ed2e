"""The CSV digraph writer against the ``csv.writer`` route it replaces, byte for byte."""

import csv
import io

import pytest

from pathabs import Digraph, PartialPartition, path_abstract
from pathabs.digraph import contract_blocks, delete_vertices
from pathabs.formats import parse_digraph, parse_digraph_csv, serialize_digraph
from pathabs.semirings import REGISTRY

# values whose text is easy to get wrong: both zeros, repr's switches to exponent form, big ints
_VALUES = {
    "boolean": [1, 2],  # a hand-built arc may hold 2
    "counting": [1, 2, 7, 10**20, 2**64 + 1],
    "real": [1.0, -2.5, 0.1, 1e-05, 1e16, -1e16, 5e-324, 9999999999999998.0, 3, 1.7976931348623157e308],
    "minplus-nonneg": [0.0, -0.0, 0.5, 1.0, 1e-05, 1e16, 5e-324, 2],
}
_IDS = [5_000, 4_999, 2_048]


def _csv_module_writer(d):
    """Vertex rows when the arcs do not imply the set, then ``csv.writer`` rows, as first written."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["from", "to", "value"])
    order = sorted(d.vertices)
    top = int(max(d.src.max(initial=0), d.dst.max(initial=0)))
    if order != list(range(1, top + 1)):
        writer.writerows([v, "", ""] for v in order)
    value = d.semiring.format_value
    writer.writerows(zip(d.src.tolist(), d.dst.tolist(), map(value, d.values.tolist())))
    return out.getvalue()


def _same_bytes(d):
    assert serialize_digraph(d, "csv").encode("ascii") == _csv_module_writer(d).encode("ascii")


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_the_writer_matches_the_csv_module_on_drawn_digraphs(name):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    semiring = REGISTRY[name]

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def holds(data):
        # small ids leave gaps or end below an isolated top vertex; the reference lists 1..top
        vertex = st.one_of(st.integers(1, 9), st.sampled_from(_IDS))
        value = st.sampled_from(_VALUES[name])
        if name in ("real", "minplus-nonneg"):
            value = st.one_of(value, st.floats(0 if name != "real" else None, allow_nan=False, allow_infinity=False))
        arcs = data.draw(st.dictionaries(st.tuples(vertex, vertex).filter(lambda a: a[0] != a[1]), value, max_size=25))
        arcs = {a: w for a, w in arcs.items() if semiring.normalize(w) is not None}
        vertices = {v for a in arcs for v in a} | set(data.draw(st.lists(vertex, max_size=3)))
        d = Digraph(frozenset(vertices), arcs, semiring)
        _same_bytes(d)
        if d.vertices and data.draw(st.booleans()):
            _same_bytes(delete_vertices(d, data.draw(st.sets(st.sampled_from(sorted(d.vertices))))))

    holds()


def test_the_writer_matches_the_csv_module_on_read_and_abstracted_digraphs():
    for name, semiring in sorted(REGISTRY.items()):
        text = "n 12\n1 2\n2 3\n3 1\n4 5\n5 6\n7 8\n9 10\n10 9\n2 7\n"
        d = parse_digraph(text, semiring)
        _same_bytes(d)  # 1..12 with 11 and 12 isolated: vertex rows
        p = PartialPartition(12, [{1, 4}, {2}, {5, 6, 9}, {8}])
        _same_bytes(path_abstract(d, p))  # a gapped vertex set
        _same_bytes(contract_blocks(d, [{1, 12}, {3, 5}]))
        _same_bytes(parse_digraph_csv(serialize_digraph(d, "csv"), semiring))
    _same_bytes(Digraph.build(0))
    _same_bytes(Digraph.build(3, [(1, 2), (2, 3)]))  # the arcs imply 1..3: no vertex rows
    _same_bytes(Digraph(frozenset({1, 2, 3}), {}))


def test_an_arc_to_the_largest_int64_id_is_written_without_listing_the_range():
    # the vertex rows were decided by comparing with list(range(1, top + 1))
    d = Digraph(frozenset({1, 2**63 - 1}), {(1, 2**63 - 1): 1})
    assert serialize_digraph(d, "csv") == f"from,to,value\n1,,\n{2**63 - 1},,\n1,{2**63 - 1},1\n"
    assert parse_digraph_csv(serialize_digraph(d, "csv")) == d


def test_a_value_text_that_needs_quotes_is_quoted_as_the_csv_module_does():
    from dataclasses import replace

    from pathabs.semirings import COUNTING

    labelled = replace(COUNTING, format_value=lambda v: {1: "1", 2: 'a "b", c'}[v])
    d = Digraph(frozenset({1, 2, 3}), {(1, 2): 1, (2, 3): 2}, labelled)
    assert serialize_digraph(d, "csv") == _csv_module_writer(d) == 'from,to,value\n1,2,1\n2,3,"a ""b"", c"\n'

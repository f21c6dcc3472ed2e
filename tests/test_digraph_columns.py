"""Reader-built digraphs against the validating constructor, and boolean path
abstraction against the two-step route, on every format and semiring."""

import json
import random

import pytest

from pathabs import Digraph, DigraphError, PartialPartition, bypass_set, contract_blocks, detour_set, path_abstract
from pathabs.formats import parse_digraph, parse_digraph_csv, parse_digraph_json, serialize_digraph
from pathabs.semirings import REGISTRY

# A nonzero token, another one, and the semiring's zero ("0" is the one on min-plus).
_TOKENS = {
    "boolean": ("1", "1", "0"),
    "counting": ("2", "3", "0"),
    "real": ("-1.5", "2", "0"),
    "minplus-nonneg": ("1.5", "3", "0"),
}


def _shapes(a, b, zero):
    """(header, rows) per case: header is None, ("n", count) or ("vertices", ids); a row is
    (u, v, token or None).  Each arc first appears in ascending (u, v) order, so the arc
    dict of a file-order reader and of an ordered one iterate alike, and repr can compare."""
    return {
        "plain": (None, [(1, 2, a), (1, 3, None), (2, 3, b), (3, 1, a)]),
        "repeats": (None, [(1, 2, a), (1, 2, b), (2, 4, None), (1, 2, a), (2, 4, b)]),
        "zero-valued": (None, [(1, 2, zero), (2, 3, a), (3, 7, zero)]),
        "n-header": (("n", 8), [(1, 2, a), (2, 5, b), (2, 5, a), (5, 1, zero), (6, 2, None)]),
        "gapped": (("vertices", [2, 5, 9, 40, 41]), [(2, 9, a), (5, 2, None), (5, 40, zero), (9, 40, b), (9, 40, b), (40, 5, a)]),
        "real-zero-sum": (None, [(1, 2, "1.5"), (1, 2, "-1.5"), (2, 3, "2")]),
        "empty": (("n", 3), []),
    }


def _random_shape(rng, a, b, zero):
    """Thirty vertices, gapped or not, and first appearances in ascending order with
    repeats sprinkled after them."""
    ids = sorted(rng.sample(range(1, 90), 30)) if rng.random() < 0.5 else list(range(1, 31))
    keys = sorted({tuple(rng.sample(ids, 2)) for _ in range(60)})
    rows = [(*key, rng.choice((a, b, zero, None))) for key in keys]
    for _ in range(15):
        key = rng.choice(keys)
        first = next(i for i, row in enumerate(rows) if row[:2] == key)
        rows.insert(rng.randrange(first + 1, len(rows) + 1), (*key, rng.choice((a, b, None))))
    header = ("vertices", ids) if ids[-1] != 30 or rng.random() < 0.5 else ("n", 30)
    return header, rows


def _cases():
    rng = random.Random(1917)
    for name, s in sorted(REGISTRY.items()):
        a, b, zero = _TOKENS[name]
        shapes = _shapes(a, b, zero)
        if name != "real":
            del shapes["real-zero-sum"]
        for i in range(3):
            shapes[f"random-{i}"] = _random_shape(rng, a, b, zero)
        for shape, (header, rows) in shapes.items():
            yield pytest.param(s, header, rows, id=f"{name}-{shape}")


def _reference(s, header, rows):
    """The digraph the rows denote, through the validating constructor: repeated arcs
    semiring-added in file order, zero sums dropped, vertices 1..max unless declared."""
    acc = {}
    for u, v, token in rows:
        value = s.one if token is None else s.parse_value(token)
        acc[(u, v)] = s.add(acc[(u, v)], value) if (u, v) in acc else value
    arcs = {key: value for key, value in acc.items() if s.normalize(value) is not None}
    if header is None:
        vertices = frozenset(range(1, max((max(u, v) for u, v, _ in rows), default=0) + 1))
    elif header[0] == "n":
        vertices = frozenset(range(1, header[1] + 1))
    else:
        vertices = frozenset(header[1])
    return Digraph(vertices, arcs, s)


def _texts(s, header, rows, vertices):
    """The same digraph as an edge list with comments, as CSV and as JSON."""
    lines = ["# written for the differential test"]
    if header is not None:
        lines.append(f"{header[0]} {header[1] if header[0] == 'n' else ' '.join(map(str, header[1]))}")
    for i, (u, v, token) in enumerate(rows):
        lines.append(f"{u} {v}" + ("" if token is None else f" {token}") + ("  # a comment" if i % 3 == 0 else ""))
        if i % 4 == 1:
            lines.append("   # an indented comment")
    edges = "\n".join(lines) + "\n"
    listed = [f"{v},," for v in sorted(vertices)] if header is not None and header[0] == "vertices" else []
    cells = [f"{u},{v},{s.format_value(s.one) if token is None else token}" for u, v, token in rows]
    csv = "\n".join(["from,to,value", *listed, *cells]) + "\n"
    arcs = ",".join(f'{{"from": {u}, "to": {v}, "value": {s.format_value(s.one) if t is None else t}}}' for u, v, t in rows)
    payload = f'{{"semiring": {json.dumps(s.name)}, "vertices": {sorted(vertices)}, "arcs": [{arcs}]}}'
    return edges, csv, payload


def _read_back(s, header, rows, vertices):
    """The digraph read from each of its three texts."""
    edges, csv, payload = _texts(s, header, rows, vertices)
    n = header[1] if header is not None and header[0] == "n" else None
    return parse_digraph(edges, s), parse_digraph_csv(csv, s, n=n), parse_digraph_json(payload)


@pytest.mark.parametrize("s, header, rows", _cases())
def test_readers_build_what_the_validating_constructor_builds(s, header, rows):
    expected = _reference(s, header, rows)
    for got in _read_back(s, header, rows, expected.vertices):
        assert got == expected
        assert repr(got) == repr(expected)
        assert got.arcs == expected.arcs and list(got.arcs.items()) == list(expected.arcs.items())


@pytest.mark.parametrize("s, header, rows", _cases())
def test_path_abstract_writes_what_bypass_then_contract_writes(s, header, rows):
    d = _read_back(s, header, rows, _reference(s, header, rows).vertices)[0]
    ids = sorted(d.vertices)
    kept = ids[::2]
    blocks = [set(kept[i : i + 2]) for i in range(0, len(kept), 2)]
    p = PartialPartition(max(ids, default=0), blocks)
    outside = d.vertices - p.support
    try:
        two_step = contract_blocks(bypass_set(d, outside), p.blocks)
    except DigraphError:  # a dropped cycle between survivors, maybe inside one block once they merge
        try:
            two_step = bypass_set(contract_blocks(d, p.blocks), outside)
        except DigraphError:  # no walk sum either way: path_abstract refuses too
            with pytest.raises(DigraphError):
                path_abstract(d, p)
            return
    for fmt in ("edgelist", "csv", "json"):
        assert serialize_digraph(path_abstract(d, p), fmt) == serialize_digraph(two_step, fmt)


def test_reader_columns_in_any_line_order():
    # shuffled lines: the same digraph, whatever order its arc dict iterates in
    rng = random.Random(7)
    for name, s in sorted(REGISTRY.items()):
        header, rows = _random_shape(rng, *_TOKENS[name])
        rng.shuffle(rows)
        expected = _reference(s, header, rows)
        for got in _read_back(s, header, rows, expected.vertices):
            assert got == expected and got.arcs == expected.arcs


def test_the_boolean_route_builds_no_arc_dict():
    # parse_digraph -> path_abstract -> serialize_digraph passes arc columns along; the dict
    # of either digraph is built only when something reads it
    d = parse_digraph("n 7\n6 2\n1 2\n2 3\n3 4\n4 1\n5 6\n3 5\n7 1\n")
    got = path_abstract(d, PartialPartition(7, [{1, 3}, {4}, {6, 7}]))
    assert serialize_digraph(got) == "vertices 1 4 6\n1 4\n1 6\n4 1\n6 1\n"
    assert "arcs" not in vars(d) and "arcs" not in vars(got)
    assert got.arcs == {(1, 4): 1, (1, 6): 1, (4, 1): 1, (6, 1): 1}
    assert d.arcs == dict.fromkeys([(1, 2), (2, 3), (3, 4), (3, 5), (4, 1), (5, 6), (6, 2), (7, 1)], 1)


def test_contraction_and_boolean_set_bypasses_build_no_arc_dict():
    d = parse_digraph("n 7\n6 2\n1 2\n2 3\n3 4\n4 1\n5 6\n3 5\n7 1\n")
    for op, arg, text in (
        (contract_blocks, [{1, 3}, {6, 7}], "vertices 1 2 4 5 6\n1 2\n1 4\n1 5\n2 1\n4 1\n5 6\n6 1\n6 2\n"),
        (bypass_set, {2, 5}, "vertices 1 3 4 6 7\n1 3\n3 4\n3 6\n4 1\n6 3\n7 1\n"),
        (detour_set, {2, 5}, "n 7\n1 3\n3 4\n3 6\n4 1\n6 3\n7 1\n"),
    ):
        got = op(d, arg)
        assert serialize_digraph(got) == text
        assert "arcs" not in vars(d) and "arcs" not in vars(got), op.__name__


def test_a_hand_built_digraph_gets_its_columns_on_first_read():
    d = Digraph(frozenset({1, 2, 5}), {(5, 1): 2, (1, 5): 1, (1, 2): 3}, REGISTRY["counting"])
    assert "src" not in vars(d)
    assert (d.src.tolist(), d.dst.tolist(), d.values.tolist()) == ([1, 1, 5], [2, 5, 1], [3, 1, 2])
    assert not (d.src.flags.writeable or d.dst.flags.writeable or d.values.flags.writeable)
    assert serialize_digraph(d) == "vertices 1 2 5\n1 2 3\n1 5 1\n5 1 2\n"
    # columns are int64, as the readers' ids are: a larger hand-built id cannot be written
    big = Digraph(frozenset({1, 2**64}), {(1, 2**64): 1})
    with pytest.raises(DigraphError, match=f"^vertex ids must fit in int64 here, got {2**64}$"):
        serialize_digraph(big)

"""Plain numeric bodies against the checked reading of the same files.

An edge list that ends in a comment line, or a contact file that ends in a
"\\r\\n" blank row, means the same as without it, but is not a plain numeric
body; each differential below reads a file both ways and asks for the same
digraph or network, or the same ``ParseError`` text.
"""

import dataclasses
import random
import struct

import numpy as np
import pytest

from pathabs import COUNTING, MINPLUS_NONNEG, REAL, Digraph
from pathabs.formats import ParseError, parse_contacts, parse_digraph, serialize_digraph
from pathabs.semirings import REGISTRY
from pathabs.temporal import DTCN

_HEADER = "source,target,time\n"


def _result(read):
    try:
        return read()
    except ParseError as exc:
        return f"ParseError: {exc}"


_HEADERS = ["", "n 0\n", "n 4\n", "n 9\n", "n 12\n", "n 10000001\n", "n  04 \n", "n 4 5\n", "n\x0b4\n", "n\t4\n", "n 4\r\n"]
_TAME_ARCS = [(str(a), str(b)) for a in range(1, 5) for b in range(1, 5) if a != b]


def test_plain_edge_lists_read_as_the_checked_route_reads_them():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ids = st.one_of(
        st.integers(0, 9).map(str),
        st.sampled_from(["007", "10000001", "9223372036854775807", "9223372036854775808", "1" * 25]),
    )

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def holds(data):
        s = REGISTRY[data.draw(st.sampled_from(sorted(REGISTRY)))]
        header = data.draw(st.sampled_from(_HEADERS))
        lines, wild = [], data.draw(st.booleans())  # a tame body holds arcs of 1..4 only
        for _ in range(data.draw(st.integers(0, 12))):
            u, v = (data.draw(ids), data.draw(ids)) if wild else data.draw(st.sampled_from(_TAME_ARCS))
            if data.draw(st.integers(0, 3)) == 0 and lines:
                lines.append(data.draw(st.sampled_from(lines)))  # a repeated arc
            gap = data.draw(st.sampled_from([" ", "  "]))
            third = data.draw(st.sampled_from(["", "", "", " 1"])) if wild else ""
            lines.append(data.draw(st.sampled_from(["", " "])) + u + gap + v + third)
            if data.draw(st.integers(0, 5)) == 0:
                lines.append(data.draw(st.sampled_from(["", "   "])))
        text = header + "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))
        assert _result(lambda: parse_digraph(text, s)) == _result(lambda: parse_digraph(text + "#\n", s))

    holds()


def test_plain_contact_files_read_as_the_checked_route_reads_them():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ids = st.one_of(
        st.integers(1, 6).map(str),
        st.sampled_from(["0", "-1", "+3", "3.0", "1e3", "007", "10000001", "9223372036854775808"]),
    )
    times = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["1e400", "-1e400", "-0.0", "0.0", ".5", "5.", "1E5", "0.5", "1", "-2", "1e", "."]),
    )

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def holds(data):
        rows = []
        for _ in range(data.draw(st.integers(0, 10))):
            if data.draw(st.integers(0, 4)) == 0 and rows:
                rows.append(data.draw(st.sampled_from(rows)))  # a repeated contact
            else:
                rows.append(f"{data.draw(ids)},{data.draw(ids)},{data.draw(times)}")
            if data.draw(st.integers(0, 6)) == 0:
                rows.append("")
        n = data.draw(st.sampled_from([None, 3, 8, 10000001]))
        text = _HEADER + "\n".join(rows) + data.draw(st.sampled_from(["", "\n"]))
        assert _result(lambda: parse_contacts(text, n)) == _result(lambda: parse_contacts(text + "\r\n", n))

    holds()


def _time_tokens() -> list[str]:
    rng = random.Random(20)
    doubles = (struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(3000))
    tokens = [repr(x) for x in doubles if x == x and abs(x) != float("inf")]
    tokens += [repr(rng.random()) for _ in range(500)]
    tokens += [f"{rng.randrange(10**25)}.{rng.randrange(10**25):025d}" for _ in range(200)]
    tokens += [f"{rng.randrange(10**25)}e{rng.randrange(-350, 283)}" for _ in range(200)]
    return tokens + [
        "5e-324",
        "4.9406564584124654e-324",
        "2.4703282292062327e-324",
        "2.4703282292062328e-324",
        "2.2250738585072011e-308",
        "2.2250738585072014e-308",
        "1.7976931348623157e308",
        "1.7976931348623158e308",
        "9007199254740993",
        "1.00000000000000011102230246251565404236316680908203125",
        "0.1000000000000000055511151231257827021181583404541015625",
        "0.30000000000000004",
        "1e23",
        "8.98846567431158e307",
        "-0.0",
        "0.0",
        ".5",
        "5.",
        "1E5",
        "1e-5",
        "+1.5",
        "-1.5",
        "123456789012345678901234567890",
    ]


def _checked_tokenizers_fail(monkeypatch):
    import pathabs.formats as formats

    for name in ("_edgelist_rows", "_csv_columns"):
        monkeypatch.setattr(formats, name, lambda *args, name=name: pytest.fail(f"{name} was called"))


def test_benchmark_shaped_files_skip_the_checked_tokenizers(monkeypatch):
    rng = np.random.default_rng(11)
    pairs = rng.choice(1000 * 999, size=2000, replace=False)
    src, dst = np.divmod(pairs, 999)
    dst += dst >= src
    edges = "n 1000\n" + "".join(f"{x + 1} {y + 1}\n" for x, y in zip(src.tolist(), dst.tolist()))
    total = rng.poisson(0.01 * 400 * 399)
    s, t = rng.integers(0, 400, size=total), rng.integers(0, 399, size=total)
    t += t >= s
    rows = list(zip((s + 1).tolist(), (t + 1).tolist(), rng.random(total).tolist()))
    contacts = _HEADER + "".join(f"{a},{b},{tau!r}\n" for a, b, tau in rows)
    _checked_tokenizers_fail(monkeypatch)
    d = parse_digraph(edges)
    assert d.n == 1000 and sorted(d.arcs) == sorted(zip((src + 1).tolist(), (dst + 1).tolist()))
    network = parse_contacts(contacts, n=400)
    assert network.n == 400 and network.triples() == sorted(rows)


def test_contact_times_parse_bit_for_bit_as_python_float(monkeypatch):
    _checked_tokenizers_fail(monkeypatch)  # numpy's C reader parses every token
    tokens = _time_tokens()
    # one (source, target) pair per row keeps the file order and makes -0.0 and 0.0 distinct contacts
    text = _HEADER + "".join(f"1,{k + 2},{token}\n" for k, token in enumerate(tokens))
    d = parse_contacts(text)
    expected = np.array([float(token) for token in tokens])
    assert d.dst.tolist() == list(range(2, len(tokens) + 2))
    assert d.time.view(np.int64).tolist() == expected.view(np.int64).tolist()


def _counting_adds():
    calls = []

    def add(a, b):
        calls.append((a, b))
        return a + b

    return dataclasses.replace(COUNTING, add=add), calls


def _per_arc(lines, semiring):
    """The arc values of "u v w" lines, semiring-added one arc at a time in file order."""
    acc = {}
    for u, v, w in lines:
        value = semiring.parse_value(w)
        acc[(u, v)] = semiring.add(acc[(u, v)], value) if (u, v) in acc else value
    return {key: value for key, value in acc.items() if semiring.normalize(value) is not None}


@pytest.mark.parametrize("seed", range(4))
def test_repeated_arcs_add_once_per_extra_copy_in_file_order(seed):
    rng = random.Random(seed)
    tokens = {
        "counting": ["0", "1", "2", "5"],
        "minplus-nonneg": ["0", "0.5", "3", "7.25"],
        "real": ["0.1", "0.2", "0.3", "-0.1", "1e16", "1"],
    }
    lines = [(rng.randint(1, 6), rng.randint(1, 6), None) for _ in range(60)]
    lines = [(u, v, w) for u, v, w in lines if u != v]
    counting, calls = _counting_adds()
    for s in (counting, MINPLUS_NONNEG, REAL):
        arcs = [(u, v, rng.choice(tokens[s.name])) for u, v, _ in lines]
        text = "n 6\n" + "".join(f"{u} {v} {w}\n" for u, v, w in arcs)
        calls.clear()
        d = parse_digraph(text, s)
        adds = len(calls)
        assert d.arcs == _per_arc(arcs, s)
        assert all(type(value) is type(s.one) for value in d.arcs.values())
        if s is counting:
            assert adds == len(arcs) - len({(u, v) for u, v, _ in arcs})


def test_repeated_real_arcs_add_in_file_order():
    # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit
    d = parse_digraph("1 2 0.1\n2 1 1\n1 2 0.2\n1 2 0.3\n2 1 2\n", REAL)
    assert d.arcs == {(1, 2): 0.6000000000000001, (2, 1): 3.0}
    e = parse_digraph("1 2 0.3\n1 2 0.2\n1 2 0.1\n", REAL)
    assert e.arcs == {(1, 2): 0.6}


def test_contact_order_breaks_source_target_ties_by_time():
    rng = np.random.default_rng(3)
    for top in (5, 10**7, 2**40):
        src = rng.integers(1, 4, size=300) * (top // 4 or 1)
        dst = rng.integers(1, 4, size=300)
        time = rng.choice([0.5, 0.25, -0.0, 0.0, 2.0, 1e-300], size=300)
        keep = src != dst
        d = DTCN._of(frozenset(), src[keep], dst[keep], time[keep])
        # sorted by (source, target, time), each triple once; -0.0 and 0.0 are one time
        expected = sorted(set(zip(src[keep].tolist(), dst[keep].tolist(), (time[keep] + 0.0).tolist())))
        assert [(s, t, tau + 0.0) for s, t, tau in d.triples()] == expected
        assert d.src.flags.writeable is False


def _reference_edgelist_text(d: Digraph) -> str:
    order = sorted(d.vertices)
    dense = order == list(range(1, len(order) + 1))
    head = f"n {len(order)}\n" if dense else "vertices " + " ".join(map(str, order)) + "\n"
    return head + "".join(f"{x} {y}\n" for x, y in sorted(d.arcs))


@pytest.mark.parametrize(
    "vertices",
    [range(1, 8), [2, 3, 5, 8, 13, 21], [1, 10**7, 2**40], [4], []],
    ids=["gap-free", "gapped", "far-apart", "single", "empty"],
)
def test_boolean_edge_list_writer_matches_a_line_at_a_time_reference(vertices):
    rng = random.Random(len(vertices))
    order = sorted(vertices)
    arcs = {(x, y): 1 for x in order for y in order if x != y and rng.random() < 0.4}
    d = Digraph(frozenset(order), arcs)
    assert serialize_digraph(d) == _reference_edgelist_text(d)
    assert serialize_digraph(d, compact_ids=True) == _reference_edgelist_text(
        Digraph.build(len(order), [(order.index(x) + 1, order.index(y) + 1) for x, y in arcs])
    )



def test_the_edge_list_writer_keeps_isolated_ids_past_int64():
    d = Digraph(frozenset({-(2**70), 1, 2, 2**64}), {(1, 2): 1})
    assert serialize_digraph(d) == f"vertices {-(2**70)} 1 2 {2**64}\n1 2\n"

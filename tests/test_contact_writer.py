"""The contact writer against the per-row writer it replaces, byte for byte."""

import pytest

from pathabs import DTCN, Contact, PartialPartition, dtcn_detour, dtcn_path_abstract, sample_dtcn
from pathabs.formats import parse_contacts, serialize_contacts

# times whose shortest repr is easy to get wrong: both zeros, the least subnormal, both
# sides of repr's switches to exponent form, and the largest double
_TIMES = [
    0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 9999999999999998.0, 1e-05, 0.0001,
    9.999999999999999e-06, 1.7976931348623157e308, 0.1, 0.5, 1.0, -2.5, 123456789.0,
]
_IDS = [2**63 - 1, 2**63 - 2, 2**40, 10**12]


def _row_writer(d):
    """One f-string per row with the time's repr, as the writer was first written."""
    rows = zip(d.src.tolist(), d.dst.tolist(), d.time.tolist())
    return "source,target,time\n" + "".join(f"{s},{t},{tau!r}\n" for s, t, tau in rows)


def _same_bytes(d):
    assert serialize_contacts(d).encode("ascii") == _row_writer(d).encode("ascii")


def test_the_writer_matches_the_row_writer_on_drawn_networks():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def holds(data):
        vertex = st.one_of(st.integers(1, 9), st.sampled_from(_IDS))
        # a small pool makes rows share times; free floats reach every exponent and sign
        finite = st.floats(allow_nan=False, allow_infinity=False)
        pool = data.draw(st.lists(st.one_of(st.sampled_from(_TIMES), finite), min_size=1, max_size=6))
        time = st.one_of(st.sampled_from(pool), finite)
        rows = data.draw(st.lists(st.tuples(vertex, vertex, time).filter(lambda r: r[0] != r[1]), max_size=30))
        vertices = {v for s, t, _ in rows for v in (s, t)} | set(data.draw(st.lists(vertex, max_size=3)))
        d = DTCN(vertices, [Contact(*r) for r in rows])
        _same_bytes(d)
        if d.vertices and data.draw(st.booleans()):
            _same_bytes(dtcn_detour(d, data.draw(st.sets(st.sampled_from(sorted(d.vertices))))))

    holds()


def test_the_writer_matches_the_row_writer_on_sampled_abstractions():
    for seed in range(6):
        d = sample_dtcn(60, 0.05, "poisson", seed)
        _same_bytes(d)
        kept = sorted(d.vertices)[::2]
        p = PartialPartition(d.n, [set(kept[j : j + 2]) for j in range(0, len(kept), 2)])
        _same_bytes(dtcn_path_abstract(d, p))


def test_a_network_left_empty_is_written_as_the_header_alone():
    d = sample_dtcn(10, 0.2, "poisson", 1)
    empty = dtcn_detour(d, d.vertices)
    assert len(empty.src) == 0
    assert serialize_contacts(empty) == _row_writer(empty) == "source,target,time\n"


def test_negative_zero_and_zero_keep_their_own_text():
    # distinct times taken by value would print one text for both rows
    text = "source,target,time\n1,2,-0.0\n3,4,0.0\n"
    assert serialize_contacts(parse_contacts(text)) == text

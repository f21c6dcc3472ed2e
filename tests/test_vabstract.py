import pytest

from pathabs import Coloring, Digraph
from pathabs.digraph import delete_vertices
from pathabs.partitions import PartitionError
from pathabs.vabstract import (
    ColoredDigraph,
    block_contraction_morphism,
    compose_morphisms,
    vertex_abstract,
)

from conftest import random_digraph

PATH4 = ColoredDigraph.from_coloring(
    Digraph.build(4, [(1, 2), (2, 3), (3, 4)]), Coloring([1, 2, 1, 3])
)

# expected table rows for the 4-path example, keyed by kept colors:
# (vertex colors present, arcs between colors)
TABLE = {
    frozenset(): (set(), set()),
    frozenset({1}): ({1}, set()),
    frozenset({2}): ({2}, set()),
    frozenset({3}): ({3}, set()),
    frozenset({1, 2}): ({1, 2}, {(1, 2), (2, 1)}),
    frozenset({1, 3}): ({1, 3}, {(1, 3)}),
    frozenset({2, 3}): ({2, 3}, set()),
    frozenset({1, 2, 3}): ({1, 2, 3}, {(1, 2), (2, 1), (1, 3)}),
}


def _color_view(cd: ColoredDigraph):
    colors = set(cd.colors.values())
    arcs = {(cd.colors[x], cd.colors[y]) for (x, y) in cd.digraph.arcs}
    return colors, arcs


@pytest.mark.parametrize("kept", sorted(TABLE, key=sorted))
def test_table_rows(kept):
    out = vertex_abstract(PATH4, kept)
    assert _color_view(out) == TABLE[kept]
    # vertex per kept color with nonempty preimage
    present = {c for c in kept if PATH4.coloring().preimage(c)}
    assert len(out.digraph.vertices) == len(present)


def test_vertex_identity_is_smallest_member():
    out = vertex_abstract(PATH4, {1, 2})
    assert out.digraph.vertices == {1, 2}
    assert out.digraph.members_of(1) == {1, 3}


def test_colors_not_recanonicalized():
    out = vertex_abstract(PATH4, {2, 3})
    assert set(out.colors.values()) == {2, 3}


def test_morphism_example():
    m = block_contraction_morphism(PATH4, {1}, {1, 2})
    assert m.vertex_map == {1: 1}
    assert _color_view(m.target) == TABLE[frozenset({1, 2})]
    assert set(m.collapse_map.values()) == set(m.target.digraph.vertices)
    # identity when both color sets agree
    ident = block_contraction_morphism(PATH4, {1, 2}, {1, 2})
    assert ident.vertex_map == {v: v for v in ident.source.digraph.vertices}
    with pytest.raises(PartitionError):
        block_contraction_morphism(PATH4, {1, 2}, {1})


def _all_chains(colors):
    """All (small, mid, large) chains of subsets of the color set."""
    cs = sorted(colors)
    for assign in range(4 ** len(cs)):
        small, mid, large = set(), set(), set()
        a = assign
        for c in cs:
            part = a % 4
            a //= 4
            if part >= 1:
                large.add(c)
            if part >= 2:
                mid.add(c)
            if part == 3:
                small.add(c)
        yield small, mid, large


def test_morphism_composition_exhaustive_on_example():
    for small, mid, large in _all_chains({1, 2, 3}):
        inner = block_contraction_morphism(PATH4, small, mid)
        outer = block_contraction_morphism(PATH4, mid, large)
        direct = block_contraction_morphism(PATH4, small, large)
        composed = compose_morphisms(outer, inner)
        assert composed.vertex_map == direct.vertex_map
        assert composed.target.digraph == direct.target.digraph
        # collapse maps agree wherever both are defined
        for v, image in composed.collapse_map.items():
            assert direct.collapse_map[v] == image


def test_morphism_composition_random(rng):
    for _ in range(12):
        n = rng.randint(2, 7)
        d = random_digraph(rng, n, 0.4)
        cd = ColoredDigraph.from_coloring(d, Coloring([rng.randint(1, 3) for _ in range(n)]))
        for small, mid, large in _all_chains(cd.color_set()):
            inner = block_contraction_morphism(cd, small, mid)
            outer = block_contraction_morphism(cd, mid, large)
            direct = block_contraction_morphism(cd, small, large)
            composed = compose_morphisms(outer, inner)
            assert composed.vertex_map == direct.vertex_map
            assert composed.target.digraph == direct.target.digraph


def test_pullback_square(rng):
    for _ in range(12):
        n = rng.randint(2, 7)
        d = random_digraph(rng, n, 0.4)
        cd = ColoredDigraph.from_coloring(d, Coloring([rng.randint(1, 3) for _ in range(n)]))
        colors = sorted(cd.color_set())
        subsets = [set()]
        for c in colors:
            subsets += [s | {c} for s in subsets]
        big = set(colors)
        for l1 in subsets:
            for l2 in subsets:
                meet = l1 & l2
                left = compose_morphisms(
                    block_contraction_morphism(cd, l1, big),
                    block_contraction_morphism(cd, meet, l1),
                )
                right = compose_morphisms(
                    block_contraction_morphism(cd, l2, big),
                    block_contraction_morphism(cd, meet, l2),
                )
                assert left.vertex_map == right.vertex_map
                assert left.target.digraph == right.target.digraph


def test_abstraction_respects_original_arcs(rng):
    # arcs between two kept blocks exist iff some member pair had an arc
    for _ in range(100):
        n = rng.randint(2, 8)
        d = random_digraph(rng, n, 0.4)
        labels = [rng.randint(1, 4) for _ in range(n)]
        cd = ColoredDigraph.from_coloring(d, Coloring(labels))
        kept = {c for c in set(labels) if rng.random() < 0.7}
        out = vertex_abstract(cd, kept)
        assert len(out.digraph.vertices) == len(kept & set(labels))
        for (x, y) in out.digraph.arcs:
            bx, by = out.digraph.members_of(x), out.digraph.members_of(y)
            assert any(d.has_arc(a, b) for a in bx for b in by)
        for (x, y) in [(x, y) for x in out.digraph.vertices for y in out.digraph.vertices if x != y]:
            bx, by = out.digraph.members_of(x), out.digraph.members_of(y)
            if any(d.has_arc(a, b) for a in bx for b in by):
                assert out.digraph.has_arc(x, y)


def test_abstraction_with_gapped_vertex_ids(rng):
    # vertex ids with gaps, as delete_vertices leaves them
    for _ in range(60):
        n = rng.randint(3, 9)
        drop = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
        d = delete_vertices(random_digraph(rng, n, 0.4), drop)
        cd = ColoredDigraph(d, {v: rng.randint(1, 4) for v in sorted(d.vertices)})
        wide = {c for c in range(1, 5) if rng.random() < 0.7}
        small = {c for c in wide if rng.random() < 0.5}
        classes: dict[int, set[int]] = {}
        for v, c in cd.colors.items():
            if c in wide:
                classes.setdefault(c, set()).add(v)
        out = vertex_abstract(cd, wide)
        assert out.colors == {min(b): c for c, b in classes.items()}
        for rep in out.digraph.vertices:
            assert out.digraph.members_of(rep) == classes[out.colors[rep]]
        for x in out.digraph.vertices:
            for y in out.digraph.vertices - {x}:
                bx, by = out.digraph.members_of(x), out.digraph.members_of(y)
                assert out.digraph.has_arc(x, y) == any(d.has_arc(a, b) for a in bx for b in by)
        m = block_contraction_morphism(cd, small, wide)
        assert m.target == out
        assert m.collapse_map == {v: min(b) for b in classes.values() for v in b}

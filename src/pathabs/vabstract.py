"""Vertex abstraction: keep the vertices with chosen colors, merge same-colored.

The result vertex for a color block is the block's smallest member, so results
stay comparable across different kept-color sets.  Colors of the result are
the block colors and are deliberately not re-canonicalized; call
``partitions.canonicalize`` on a coloring separately when needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .digraph import Digraph, DigraphError, contract_blocks, induced_subgraph
from .partitions import Coloring, PartitionError, color_blocks


@dataclass(frozen=True)
class ColoredDigraph:
    """A digraph whose vertices carry colors.

    ``colors`` maps vertex id to color; for fresh graphs on 1..n use
    ``from_coloring`` with a label sequence.
    """

    digraph: Digraph
    colors: Mapping[int, int]

    def __post_init__(self):
        if set(self.colors) != set(self.digraph.vertices):
            raise DigraphError("coloring domain must equal the vertex set")

    @staticmethod
    def from_coloring(digraph: Digraph, coloring: Coloring) -> "ColoredDigraph":
        if coloring.n != len(digraph.vertices) or digraph.vertices != frozenset(
            range(1, coloring.n + 1)
        ):
            raise PartitionError("coloring length must match a digraph on 1..n")
        return ColoredDigraph(digraph, {v: coloring.color_of(v) for v in digraph.vertices})

    def coloring(self) -> Coloring:
        if self.digraph.vertices != frozenset(range(1, len(self.digraph.vertices) + 1)):
            raise PartitionError("vertex set is not contiguous; colors stay a mapping")
        return Coloring([self.colors[v] for v in sorted(self.digraph.vertices)])

    def color_set(self) -> frozenset[int]:
        return frozenset(self.colors.values())


def vertex_abstract(cd: ColoredDigraph, keep_colors: Iterable[int]) -> ColoredDigraph:
    """Induce the subgraph on the kept colors, then merge each color class.

    An empty color set yields the empty digraph.  The result has one vertex
    per kept color with nonempty preimage, named by the smallest member and
    colored by its class color.
    """
    blocks = color_blocks(cd.colors, keep_colors)
    sub = induced_subgraph(cd.digraph, frozenset().union(*blocks))
    contracted = contract_blocks(sub, blocks)
    colors = {min(b): cd.colors[min(b)] for b in blocks}
    return ColoredDigraph(contracted, colors)


@dataclass(frozen=True)
class AbstractionMorphism:
    """The canonical map between two abstractions of the same colored digraph.

    ``vertex_map`` sends each vertex of the finer abstraction (fewer kept
    colors) to its image among the coarser one's vertices; composition of
    these maps is exact.  ``collapse_map`` extends it to every original
    vertex whose color is kept by the target, collapsing each color class to
    its block vertex; this extension is surjective onto the target.
    """

    source: ColoredDigraph
    target: ColoredDigraph
    vertex_map: Mapping[int, int]
    collapse_map: Mapping[int, int]


def block_contraction_morphism(
    cd: ColoredDigraph, keep_colors: Iterable[int], wider_colors: Iterable[int]
) -> AbstractionMorphism:
    """Morphism from the ``keep_colors`` abstraction into the wider one.

    ``wider_colors`` must contain ``keep_colors``.  Blocks of shared colors
    are identical in both abstractions, so the block-level map is an identity
    embedding; vertices of newly kept colors collapse onto their blocks.
    """
    small = frozenset(keep_colors)
    wide = frozenset(wider_colors)
    if not small <= wide:
        raise PartitionError("the wider color set must contain the kept one")
    source = vertex_abstract(cd, small)
    target = vertex_abstract(cd, wide)
    vertex_map = {v: v for v in source.digraph.vertices}
    collapse: dict[int, int] = {}
    for block in color_blocks(cd.colors, wide):
        collapse.update(dict.fromkeys(block, min(block)))
    return AbstractionMorphism(source, target, vertex_map, collapse)


def compose_morphisms(
    outer: AbstractionMorphism, inner: AbstractionMorphism
) -> AbstractionMorphism:
    """outer after inner; targets and sources must line up."""
    if outer.source.digraph.vertices != inner.target.digraph.vertices:
        raise PartitionError("morphisms do not compose: vertex sets differ")
    vertex_map = {v: outer.vertex_map[inner.vertex_map[v]] for v in inner.vertex_map}
    collapse = {v: outer.collapse_map[inner.collapse_map[v]] for v in inner.collapse_map}
    return AbstractionMorphism(inner.source, outer.target, vertex_map, collapse)

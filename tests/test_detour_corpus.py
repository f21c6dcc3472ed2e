"""Set detours against outputs pinned from the loopless fold and its order guard.

``data/set_detour_corpus.json`` holds random digraphs on the four semirings
(n 3 to 8, a planted cycle, a merged block on every third, id gaps on the
next) with a partial partition each, plus the same four-vertex shape per
semiring: 1 -> 2 <-> 3 -> 4, keeping {1} and {4}.  For each it stores four
routes as ``encode`` writes them: ``bypass_set`` and ``detour_set`` of the
vertices outside the partition, ``path_abstract``, and bypass-then-contract.
The outputs were computed at d87a730, before the fold eliminated dropped
vertices with the semiring star, and are not regenerated.
"""

import json
import re
from pathlib import Path

import pytest

from pathabs import Digraph, PartialPartition, bypass_set, contract_blocks, detour_set, path_abstract
from pathabs.checks import _or_refusal
from pathabs.semirings import REGISTRY

CORPUS = Path(__file__).parent / "data" / "set_detour_corpus.json"
REFUSED = "refused: "
COMPONENT = re.compile(r"refused: dropped vertices (\{[\d, ]+\}) form a cycle on a route between survivors; ")


def routes(d, p):
    """The four routes of a corpus case, each a digraph or its refusal text."""
    blocks, outside = list(p.blocks), d.vertices - p.support
    return [_or_refusal(route) for route in (
        lambda: bypass_set(d, outside),
        lambda: detour_set(d, outside),
        lambda: path_abstract(d, p),
        lambda: contract_blocks(bypass_set(d, outside), blocks),
    )]


def encode(result):
    """A route's output as text: vertices, ``merged`` and arcs with each value's
    type and ``repr``, or the refusal text."""
    if isinstance(result, str):
        return REFUSED + result
    merged = sorted((v, sorted(m)) for v, m in result.merged.items())
    arcs = sorted((x, y, type(value).__name__, repr(value)) for (x, y), value in result.arcs.items())
    return repr((sorted(result.vertices), merged, arcs))


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_set_detours_keep_the_pinned_outputs(name):
    s = REGISTRY[name]
    cases = [case for case in json.loads(CORPUS.read_text()) if case["semiring"] == name]
    kept = refused = valued = 0
    for case in cases:
        merged = {v: frozenset(m) for v, m in case["merged"]}
        d = Digraph(frozenset(case["vertices"]), {(x, y): v for x, y, v in case["arcs"]}, s, merged)
        got = map(encode, routes(d, PartialPartition(case["ground"], case["blocks"])))
        for new, old in zip(got, case["outputs"], strict=True):
            if not old.startswith(REFUSED):
                assert new == old, case
                kept += 1
            elif name == "real" and not new.startswith(REFUSED):
                valued += 1  # the walk sum has a value on the reals
            else:
                assert new.startswith(REFUSED), case
                assert COMPONENT.match(new).group(1) == COMPONENT.match(old).group(1), case
                refused += 1
    assert len(cases) > 300 and kept > 1000
    if name in ("counting", "real"):
        assert refused + valued > 100

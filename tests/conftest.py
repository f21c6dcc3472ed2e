import random

import pytest

from pathabs import COUNTING, Digraph
from pathabs.checks import _random_dag as random_dag  # noqa: F401
from pathabs.checks import _random_digraph as random_digraph


def random_multigraph(rng: random.Random, n: int, p: float) -> Digraph:
    return random_digraph(rng, n, p, COUNTING)


@pytest.fixture
def rng():
    return random.Random(20240811)

"""Pinned Monte Carlo results, block-pair tally included.

Every field of ``AbstractionFrequencies``, its ``pair_frequency`` and its
tally are pinned on four shapes, so a change to how or when the tally is
built cannot change a value, a dtype or a read-only flag unnoticed.
"""

import hashlib
import sys
import threading
import weakref

import numpy as np
import pytest

from pathabs import PartialPartition
from pathabs.random import GnpModel, monte_carlo_abstraction


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _cycling_blocks(n: int, last: int) -> PartialPartition:
    """Blocks of 1, 2, 3, 1, 2, 3, ... vertices over 1..last; the rest are dropped."""
    blocks, v, size = [], 1, 1
    while v + size - 1 <= last:
        blocks.append(set(range(v, v + size)))
        v, size = v + size, size % 3 + 1
    return PartialPartition(n, blocks)


# name: (model, partition, trials, seed, pinned values)
SHAPES = {
    "singletons-n300": (
        GnpModel(300, 0.02),
        PartialPartition(300, [{v} for v in range(1, 271)]),
        16,
        5,
        dict(
            mean=0.04606653586672174,
            stddev=0.007123472055919086,
            frequencies="65b947e0993c1b57",
            representatives="107487edd697c52f",
            tally="cd72956957f7aaa2",
            distinct_pairs=38204,
            pair_frequency="929a7651156c5e40",
            repr="74ceca79f0ced0f7",
        ),
    ),
    "blocks-1-to-3": (
        GnpModel(90, 0.04),
        _cycling_blocks(90, 75),
        12,
        6,
        dict(
            mean=0.25403034613560926,
            stddev=0.029799276859065672,
            frequencies="e44ea22f0dfab816",
            representatives="05d5a22a5812d383",
            tally="16b57d6063480957",
            distinct_pairs=1290,
            pair_frequency="5b66289b5fb690de",
            repr="a285964301ec3913",
        ),
    ),
    "one-trial": (
        GnpModel(120, 0.03),
        PartialPartition(120, [{v} for v in range(1, 101)]),
        1,
        7,
        dict(
            mean=0.05747474747474748,
            stddev=0.0,
            frequencies="27ec0b7ddbdf0024",
            representatives="7650e1bd0d33b385",
            tally="df83707d2290b27c",
            distinct_pairs=569,
            pair_frequency="b7e30e5bc5e58469",
            repr="f3418e2824a844ba",
        ),
    ),
    "zero-p": (
        GnpModel(20, 0.0),
        PartialPartition(20, [{1, 2}, {3}, {5, 6, 7}, {9}]),
        5,
        8,
        dict(
            mean=0.0,
            stddev=0.0,
            frequencies="60895e5c04a56b49",
            representatives="7e741255a469baab",
            tally="e3b0c44298fc1c14",
            distinct_pairs=0,
            pair_frequency="099c864ea38cc5b6",
            repr="e9493206a297bf7e",
        ),
    ),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_monte_carlo_fields_and_tally_pinned(shape):
    model, pi, trials, seed, pin = SHAPES[shape]
    out = monte_carlo_abstraction(model, pi, trials, seed)
    m = len(pi.blocks)
    assert out.model == model and out.trials == trials
    assert len(out.frequencies) == trials and all(type(f) is float for f in out.frequencies)
    assert _digest(repr(out.frequencies).encode()) == pin["frequencies"]
    assert (out.mean, out.stddev) == (pin["mean"], pin["stddev"])
    assert out.representatives == tuple(min(b) for b in pi.blocks)
    assert _digest(repr(out.representatives).encode()) == pin["representatives"]
    assert out.pairs.dtype == np.int64 and out.pair_counts.dtype == np.int64
    assert not out.pairs.flags.writeable and not out.pair_counts.flags.writeable
    assert len(out.pairs) == len(out.pair_counts) == pin["distinct_pairs"]
    tally = out.pairs.astype("<i8").tobytes() + out.pair_counts.astype("<i8").tobytes()
    assert _digest(tally) == pin["tally"]
    assert _digest(repr(list(out.pair_frequency.items())).encode()) == pin["pair_frequency"]
    assert len(out.pair_frequency) == m * (m - 1)
    assert _digest(repr(out).encode()) == pin["repr"]
    # each trial's frequency is its pair count over m(m-1), so the tally sums them
    assert out.pair_counts.sum() == sum(round(f * m * (m - 1)) for f in out.frequencies)


@pytest.mark.parametrize("shape", SHAPES)
def test_monte_carlo_equality_whether_or_not_the_tally_was_read(shape):
    model, pi, trials, seed, _ = SHAPES[shape]

    def run(**kw):
        return monte_carlo_abstraction(model, pi, trials, seed, **kw)

    read = run()
    read.pairs, read.pair_counts, read.pair_frequency
    assert read == run()
    assert run() == read
    assert run(workers=2) == read
    assert read == run(workers=2)
    assert run() == run(workers=2)


@pytest.mark.parametrize("first", ["pairs", "pair_counts"])
def test_monte_carlo_builds_the_tally_on_first_read_and_drops_the_trial_arrays(first):
    model, pi, trials, seed, _ = SHAPES["blocks-1-to-3"]
    out = monte_carlo_abstraction(model, pi, trials, seed)
    assert "pairs" not in vars(out) and "pair_counts" not in vars(out)
    assert len(out.trial_pairs) == trials
    assert all(a.dtype == np.int64 and np.all(a[1:] > a[:-1]) for a in out.trial_pairs)
    held = [weakref.ref(a) for a in out.trial_pairs]
    tally = getattr(out, first)
    assert "pairs" in vars(out) and "pair_counts" in vars(out)  # either read builds both
    assert out.pairs is out.pairs and out.pair_counts is out.pair_counts and getattr(out, first) is tally
    for array in (out.pairs, out.pair_counts):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[:1] = 0
    assert out.trial_pairs is None
    assert all(ref() is None for ref in held)
    assert "trial_pairs" not in repr(out)
    assert out == monte_carlo_abstraction(model, pi, trials, seed)


def test_monte_carlo_tally_read_from_many_threads_at_once():
    model, pi, trials, seed, _ = SHAPES["blocks-1-to-3"]
    expected = monte_carlo_abstraction(model, pi, trials, seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            out = monte_carlo_abstraction(model, pi, trials, seed)
            start = threading.Barrier(8)
            seen, errors = [], []

            def read(name):
                start.wait(timeout=10)
                try:
                    seen.append((name, getattr(out, name)))
                except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(("pairs", "pair_counts")[i % 2],)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads) and errors == []
            assert len(seen) == 8
            for name, array in seen:
                assert np.array_equal(array, getattr(expected, name))
            assert out.trial_pairs is None and out == expected
    finally:
        sys.setswitchinterval(interval)

import math
import random

import pytest

from pathabs.semirings import (
    BOOLEAN,
    COUNTING,
    MINPLUS_NONNEG,
    REAL,
    REGISTRY,
    SemiringError,
    SemiringSpec,
    check_semiring_laws,
    get_semiring,
)


@pytest.mark.parametrize("name", ["boolean", "counting", "minplus-nonneg", "real"])
def test_laws_pass(name):
    report = check_semiring_laws(get_semiring(name), 100, 7)
    assert report.all_pass, report


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_star_is_one_plus_a_times_its_star(name):
    s = get_semiring(name)
    rng = random.Random(11)
    defined = 0
    for a in [s.sample(rng) for _ in range(200)] + [s.one, 0.5, -0.5, 0.25][: 4 if name == "real" else 1]:
        star = s.star(a)
        if star is not None:
            law = s.add(s.one, s.mul(a, star))
            assert law == star or name == "real" and math.isclose(law, star, rel_tol=1e-12), a
            defined += 1
    assert defined > 30
    # no value: a nonzero counting loop has infinitely many walks, and a real loop of 1 gives 1/0
    assert all(s.star(a) is None for a in {"counting": [1, 3], "real": [1.0]}.get(name, []))


def test_laws_deterministic():
    a = check_semiring_laws(COUNTING, 100, 7)
    b = check_semiring_laws(COUNTING, 100, 7)
    assert a == b


def test_unknown_semiring():
    with pytest.raises(SemiringError):
        get_semiring("does-not-exist")


def test_samples_must_be_positive():
    with pytest.raises(SemiringError):
        check_semiring_laws(BOOLEAN, 0, 1)


def test_normalize_drops_zero():
    assert COUNTING.normalize(0) is None
    assert COUNTING.normalize(3) == 3
    # min-plus has no carrier zero: 0.0 is a real arc weight
    assert MINPLUS_NONNEG.normalize(0.0) == 0.0


def test_minplus_semantics():
    s = MINPLUS_NONNEG
    assert s.add(2.0, 5.0) == 2.0
    assert s.mul(2.0, 5.0) == 7.0
    assert s.mul(s.one, 4.0) == 4.0


def test_minplus_laws_direct_oracle():
    # independent evaluation of the laws, not routed through the checker
    import random as _random

    rng = _random.Random(7)
    for _ in range(100):
        a, b, c = (float(rng.randint(0, 9)) for _ in range(3))
        assert min(a, b) == min(b, a)
        assert min(min(a, b), c) == min(a, min(b, c))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + min(b, c) == min(a + b, a + c)


def test_law_checker_flags_violations():
    # subtraction is neither commutative nor associative; the checker must say so
    broken = SemiringSpec(
        name="broken",
        add=lambda a, b: a - b,
        mul=lambda a, b: a * b,
        one=1,
        carrier="ints with minus as the additive op",
        sample=lambda rng: rng.randint(1, 5),
    )
    report = check_semiring_laws(broken, 100, 3)
    assert not report.all_pass
    assert not report.add_commutative
    assert report.counterexample is not None


def test_parse_values():
    assert BOOLEAN.parse_value("1") == 1
    with pytest.raises(SemiringError):
        BOOLEAN.parse_value("2")
    with pytest.raises(SemiringError):
        COUNTING.parse_value("-1")
    with pytest.raises(SemiringError):
        MINPLUS_NONNEG.parse_value("-0.5")
    assert REAL.parse_value("-1.5") == -1.5

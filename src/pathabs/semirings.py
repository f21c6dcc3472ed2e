"""Commutative semirings used as arc-value carriers.

Arc absence is representational (an absent key in the arc map), not a carrier
value, so carriers without a usable zero are fine: the min-plus semiring
restricted to [0, inf) is registered here even though its natural "no arc"
element (+inf) lies outside the carrier.  Semirings whose carrier does contain
a value meaning "no arc" (0 for boolean/counting/real) declare it via
``is_zero`` so computed values can be normalised back to absence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class SemiringError(ValueError):
    pass


@dataclass(frozen=True)
class SemiringSpec:
    """A named commutative semiring.

    ``cancellative`` records whether both operations cancel (a+c=b+c => a=b,
    and a*c=b*c => a=b for c nonzero); closed-form commutation criteria are
    exact only for such carriers.  ``star`` is a loop's closure a* = one + a·a*, None where it has no value.
    """

    name: str
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    one: Any
    carrier: str
    sample: Callable[[random.Random], Any]
    is_zero: Optional[Callable[[Any], bool]] = None
    cancellative: bool = False
    parse_value: Callable[[str], Any] = field(default=lambda s: s, repr=False)
    format_value: Callable[[Any], str] = field(default=str, repr=False)
    star: Callable[[Any], Any] = field(default=lambda a: None, repr=False)

    def normalize(self, value):
        """Map a computed value to None when it denotes arc absence."""
        if self.is_zero is not None and self.is_zero(value):
            return None
        return value


def _parse_count(token: str) -> int:
    value = int(token)
    if value < 0:
        raise SemiringError(f"counting weights are nonnegative, got {token}")
    return value


def _parse_bool(token: str) -> int:
    if token not in ("0", "1"):
        raise SemiringError(f"boolean weights are 0 or 1, got {token}")
    return int(token)


def _parse_real(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise SemiringError(f"real weights are finite, got {token}")
    return value


def _parse_nonneg_float(token: str) -> float:
    value = float(token)
    if not 0.0 <= value < math.inf:
        raise SemiringError(f"min-plus weights lie in [0, inf), got {token}")
    return value


BOOLEAN = SemiringSpec(
    name="boolean",
    add=lambda a, b: 1 if a or b else 0,  # not a | b, a & b: a hand-built arc may hold 2
    mul=lambda a, b: 1 if a and b else 0,
    one=1,
    carrier="{0, 1} with or/and",
    sample=lambda rng: rng.randint(0, 1),
    is_zero=lambda v: v == 0,
    cancellative=False,
    parse_value=_parse_bool,
    star=lambda a: 1,
)

COUNTING = SemiringSpec(
    name="counting",
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    one=1,
    carrier="nonnegative integers with +/*",
    sample=lambda rng: rng.randint(0, 4),
    is_zero=lambda v: v == 0,
    cancellative=True,
    parse_value=_parse_count,
    star=lambda a: 1 if a == 0 else None,  # a nonzero loop has infinitely many walks
)

# Law checks sample integer-valued floats so +/* stay exact.
REAL = SemiringSpec(
    name="real",
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    one=1.0,
    carrier="reals with +/*",
    sample=lambda rng: float(rng.randint(-3, 3)),
    is_zero=lambda v: v == 0.0,
    cancellative=True,
    parse_value=_parse_real,
    star=lambda a: None if a == 1 else 1 / (1 - a),
)

MINPLUS_NONNEG = SemiringSpec(
    name="minplus-nonneg",
    add=min,
    mul=lambda a, b: a + b,
    one=0.0,
    carrier="[0, inf) with min/+",
    sample=lambda rng: float(rng.randint(0, 9)),
    is_zero=None,
    cancellative=False,
    parse_value=_parse_nonneg_float,
    star=lambda a: 0.0,
)

REGISTRY = {s.name: s for s in (BOOLEAN, COUNTING, REAL, MINPLUS_NONNEG)}


def get_semiring(name: str) -> SemiringSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        raise SemiringError(f"unknown semiring {name!r}; known: {sorted(REGISTRY)}") from None


@dataclass(frozen=True)
class LawReport:
    semiring: str
    samples: int
    add_commutative: bool
    add_associative: bool
    mul_commutative: bool
    mul_associative: bool
    distributive: bool
    counterexample: Optional[tuple] = None

    @property
    def all_pass(self) -> bool:
        return (
            self.add_commutative
            and self.add_associative
            and self.mul_commutative
            and self.mul_associative
            and self.distributive
        )


def check_semiring_laws(s: SemiringSpec, samples: int, seed: int) -> LawReport:
    """Spot-check commutativity, associativity and distributivity.

    Draws ``samples`` random carrier triples with a generator seeded by
    ``seed``; deterministic for a fixed seed.
    """
    if samples < 1:
        raise SemiringError("samples must be >= 1")
    rng = random.Random(seed)
    flags = {k: True for k in ("ac", "aa", "mc", "ma", "d")}
    counterexample = None
    for _ in range(samples):
        a, b, c = s.sample(rng), s.sample(rng), s.sample(rng)
        checks = {
            "ac": s.add(a, b) == s.add(b, a),
            "aa": s.add(s.add(a, b), c) == s.add(a, s.add(b, c)),
            "mc": s.mul(a, b) == s.mul(b, a),
            "ma": s.mul(s.mul(a, b), c) == s.mul(a, s.mul(b, c)),
            "d": s.mul(a, s.add(b, c)) == s.add(s.mul(a, b), s.mul(a, c)),
        }
        for key, ok in checks.items():
            if not ok:
                flags[key] = False
                if counterexample is None:
                    counterexample = (a, b, c)
    return LawReport(
        semiring=s.name,
        samples=samples,
        add_commutative=flags["ac"],
        add_associative=flags["aa"],
        mul_commutative=flags["mc"],
        mul_associative=flags["ma"],
        distributive=flags["d"],
        counterexample=counterexample,
    )

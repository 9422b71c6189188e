"""Catalog of decidable chains, finite and infinite.

Each handle answers order, gap, and local-structure queries exactly; the
infinite entries encode their structure (successors, density, extremes)
directly instead of enumerating elements.  Elements are exact integers,
`fractions.Fraction` values, pairs, or the `OMEGA` sentinel; no floats.

Every catalog chain is countable, so it embeds in the exact rationals or
in tuples of them ordered lexicographically: `key(x)` is that embedding,
a value Python orders natively.  Elements are validated once, where they
enter the library (`validate`, `parse`, and the public queries); library
code that holds validated elements compares them by key.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ChainTopError,
    MalformedElement,
    NotStrictlyOrdered,
    SampleTooLarge,
    UnknownCatalogId,
)
from .poset import FinitePoset, chain_poset

# the most elements one `sample` call draws; its cost and memory grow
# linearly in the count
SAMPLE_CAP = 10_000


class _Omega:
    """Top element adjoined to the naturals."""

    __slots__ = ()

    def __repr__(self):
        return "omega"


OMEGA = _Omega()


@dataclass(frozen=True)
class LocalStructure:
    """What a chain looks like immediately around one element."""

    has_immediate_pred: bool
    has_immediate_succ: bool
    is_sup_of_strict_downset: bool
    is_compact: bool
    pred: object = None
    succ: object = None

    def as_dict(self) -> dict:
        return {
            "has_immediate_pred": self.has_immediate_pred,
            "has_immediate_succ": self.has_immediate_succ,
            "is_sup_of_strict_downset": self.is_sup_of_strict_downset,
            "is_compact": self.is_compact,
        }


class ChainHandle(ABC):
    """A decidable totally ordered set.

    Metadata flags are proofs-by-construction for globally quantified
    facts that sampling cannot establish; queries spot-check them.
    """

    id: str
    has_least: bool
    has_greatest: bool
    declared_order_dense: bool
    declared_conditionally_complete: bool
    only_least_compact: bool
    only_greatest_compact: bool

    @abstractmethod
    def validate(self, x):
        """Return the canonical form of x, or raise MalformedElement."""

    @abstractmethod
    def _predecessor(self, x):
        ...

    @abstractmethod
    def _successor(self, x):
        ...

    @abstractmethod
    def _between(self, a, b):
        ...

    @abstractmethod
    def _sample(self, rng: random.Random, k: int) -> list:
        ...

    @abstractmethod
    def least(self):
        ...

    @abstractmethod
    def greatest(self):
        ...

    @abstractmethod
    def parse(self, text: str):
        ...

    @abstractmethod
    def format(self, x) -> str:
        ...

    def key(self, x):
        """The order key of a validated element: an exact value (a number,
        or a tuple of numbers) whose native order is the chain's order."""
        return x

    def coordinate(self, x):
        """An exact rational of a validated element, monotone and continuous
        for the order topology, so that two elements share it only across a
        gap: separating ramps are drawn over it.  Chains on which every
        attained boundary below the top has a successor never need one."""
        raise ChainTopError(f"{self.id} has no coordinate")

    def compare(self, x, y) -> int:
        """Total-order comparison: -1, 0, or 1."""
        kx, ky = self.key(self.validate(x)), self.key(self.validate(y))
        return (kx > ky) - (kx < ky)

    def between(self, a, b):
        """An element strictly between a and b, or None when (a, b) is a gap."""
        a, b = self.validate(a), self.validate(b)
        if self.key(a) >= self.key(b):
            raise NotStrictlyOrdered(f"{self.format(a)} is not strictly below {self.format(b)}")
        return self._between(a, b)

    def predecessor(self, x):
        return self._predecessor(self.validate(x))

    def successor(self, x):
        return self._successor(self.validate(x))

    def local_structure(self, x) -> LocalStructure:
        """Predecessor/successor data and the compactness dichotomy at x.

        An element is the supremum of its strict downset exactly when it
        is neither the least element nor a successor; compactness is the
        complementary verdict.
        """
        x = self.validate(x)
        pred = self._predecessor(x)
        succ = self._successor(x)
        is_least = self.has_least and self.key(x) == self.key(self.least())
        sup_of_downset = not is_least and pred is None
        return LocalStructure(
            has_immediate_pred=pred is not None,
            has_immediate_succ=succ is not None,
            is_sup_of_strict_downset=sup_of_downset,
            is_compact=not sup_of_downset,
            pred=pred,
            succ=succ,
        )

    def sample(self, seed: int, k: int) -> list:
        """k distinct elements, sorted ascending, deterministic per seed."""
        if k < 1:
            raise SampleTooLarge(f"sample size {k} must be at least 1")
        if k > SAMPLE_CAP:
            raise SampleTooLarge(f"sample size {k} exceeds the cap of {SAMPLE_CAP}")
        rng = random.Random(f"{self.id}:{seed}")
        out = self._sample(rng, k)
        out.sort(key=self.key)
        return out

    def __repr__(self):
        return f"<chain {self.id}>"


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedElement(f"bad fraction literal {text!r}") from exc


class FiniteChain(ChainHandle):
    """The chain 0 < 1 < ... < n-1."""

    def __init__(self, n: int):
        if n < 1:
            raise UnknownCatalogId(f"finite chain needs n >= 1, got {n}")
        self.n = n
        self.id = f"finite:{n}"
        self.has_least = True
        self.has_greatest = True
        self.declared_order_dense = n == 1
        self.declared_conditionally_complete = True
        self.only_least_compact = n == 1
        self.only_greatest_compact = n == 1

    def validate(self, x):
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < self.n:
            raise MalformedElement(f"{x!r} is not an element of {self.id}")
        return x

    def _predecessor(self, x):
        return x - 1 if x > 0 else None

    def _successor(self, x):
        return x + 1 if x < self.n - 1 else None

    def _between(self, a, b):
        return (a + b) // 2 if b - a >= 2 else None

    def _sample(self, rng, k):
        if k > self.n:
            raise SampleTooLarge(f"cannot draw {k} distinct elements from {self.id}")
        return rng.sample(range(self.n), k)

    def least(self):
        return 0

    def greatest(self):
        return self.n - 1

    def parse(self, text):
        try:
            return self.validate(int(text.strip()))
        except ValueError as exc:
            raise MalformedElement(f"bad element literal {text!r}") from exc

    def format(self, x):
        return str(self.validate(x))

    def to_finite_poset(self) -> FinitePoset:
        return chain_poset(self.n)


class IntegerChain(ChainHandle):
    """All integers; every element has both neighbours."""

    id = "int"
    has_least = False
    has_greatest = False
    declared_order_dense = False
    declared_conditionally_complete = True
    only_least_compact = False
    only_greatest_compact = False

    def validate(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise MalformedElement(f"{x!r} is not an integer")
        return x

    def _predecessor(self, x):
        return x - 1

    def _successor(self, x):
        return x + 1

    def _between(self, a, b):
        return (a + b) // 2 if b - a >= 2 else None

    def _sample(self, rng, k):
        span = 5 * k + 5
        return rng.sample(range(-span, span + 1), k)

    def least(self):
        return None

    def greatest(self):
        return None

    def parse(self, text):
        try:
            return int(text.strip())
        except ValueError as exc:
            raise MalformedElement(f"bad integer literal {text!r}") from exc

    def format(self, x):
        return str(self.validate(x))


class _UnitFractionChain(ChainHandle):
    """Shared behaviour of the dense [0,1] chains."""

    has_least = True
    has_greatest = True
    declared_order_dense = True
    declared_conditionally_complete = False
    only_least_compact = True
    only_greatest_compact = True

    def _predecessor(self, x):
        return None

    def _successor(self, x):
        return None

    def _between(self, a, b):
        # the midpoint over one common denominator: a single gcd, where
        # (a + b) / 2 reduces twice
        da, db = a.denominator, b.denominator
        return Fraction(a.numerator * db + b.numerator * da, 2 * da * db)

    def coordinate(self, x):
        return x

    def least(self):
        return Fraction(0)

    def greatest(self):
        return Fraction(1)

    def parse(self, text):
        return self.validate(_parse_fraction(text))

    def format(self, x):
        return str(self.validate(x))


class DyadicUnitChain(_UnitFractionChain):
    """Dyadic rationals p / 2^e inside [0,1]."""

    id = "dyadic01"

    def validate(self, x):
        if isinstance(x, bool):
            raise MalformedElement(f"{x!r} is not a dyadic rational")
        if isinstance(x, int):
            x = Fraction(x)
        if not isinstance(x, Fraction):
            raise MalformedElement(f"{x!r} is not a dyadic rational")
        d = x.denominator
        if d & (d - 1):
            raise MalformedElement(f"{x} has a non-dyadic denominator")
        # a Fraction's denominator is positive, so this is 0 <= x <= 1 in
        # integers alone
        if not 0 <= x.numerator <= x.denominator:
            raise MalformedElement(f"{x} lies outside [0,1]")
        return x

    def _sample(self, rng, k):
        seen = set()
        depth = 10
        while len(seen) < k:
            e = rng.randint(0, depth)
            seen.add(Fraction(rng.randint(0, 2**e), 2**e))
            depth += 1
        return sorted(seen)


class RationalUnitChain(_UnitFractionChain):
    """All rationals inside [0,1]."""

    id = "rat01"

    def validate(self, x):
        if isinstance(x, bool):
            raise MalformedElement(f"{x!r} is not a rational")
        if isinstance(x, int):
            x = Fraction(x)
        if not isinstance(x, Fraction):
            raise MalformedElement(f"{x!r} is not a rational")
        # a Fraction's denominator is positive, so this is 0 <= x <= 1 in
        # integers alone
        if not 0 <= x.numerator <= x.denominator:
            raise MalformedElement(f"{x} lies outside [0,1]")
        return x

    def _sample(self, rng, k):
        seen = set()
        top = 64
        while len(seen) < k:
            d = rng.randint(1, top)
            seen.add(Fraction(rng.randint(0, d), d))
            top += 8
        return sorted(seen)


class OmegaPlusOneChain(ChainHandle):
    """The naturals with a top element omega above all of them."""

    id = "omega+1"
    has_least = True
    has_greatest = True
    declared_order_dense = False
    declared_conditionally_complete = True
    only_least_compact = False
    only_greatest_compact = False

    def validate(self, x):
        if x is OMEGA:
            return x
        if isinstance(x, bool) or not isinstance(x, int) or x < 0:
            raise MalformedElement(f"{x!r} is not a natural number or omega")
        return x

    def key(self, x):
        return (1, 0) if x is OMEGA else (0, x)

    def _predecessor(self, x):
        if x is OMEGA:
            return None
        return x - 1 if x > 0 else None

    def _successor(self, x):
        if x is OMEGA:
            return None
        return x + 1

    def _between(self, a, b):
        if b is OMEGA:
            return a + 1
        return (a + b) // 2 if b - a >= 2 else None

    def _sample(self, rng, k):
        if k == 1:
            return [rng.randint(0, 20)]
        naturals = rng.sample(range(0, 10 * k + 10), k - 1)
        return naturals + [OMEGA]

    def least(self):
        return 0

    def greatest(self):
        return OMEGA

    def parse(self, text):
        text = text.strip()
        if text == "omega":
            return OMEGA
        try:
            return self.validate(int(text))
        except ValueError as exc:
            raise MalformedElement(f"bad element literal {text!r}") from exc

    def format(self, x):
        x = self.validate(x)
        return "omega" if x is OMEGA else str(x)


class SplitChain(ChainHandle):
    """Every rational split into an adjacent pair (q,0) < (q,1), ordered
    lexicographically; a chain riddled with gaps but dense between them."""

    id = "split"
    has_least = False
    has_greatest = False
    declared_order_dense = False
    declared_conditionally_complete = False
    only_least_compact = False
    only_greatest_compact = False

    def validate(self, x):
        if not isinstance(x, tuple) or len(x) != 2:
            raise MalformedElement(f"{x!r} is not a (rational, side) pair")
        q, i = x
        if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
            raise MalformedElement(f"{x!r} has a non-rational first coordinate")
        if isinstance(i, bool) or not isinstance(i, int) or i not in (0, 1):
            raise MalformedElement(f"{x!r} has side {i!r}, expected 0 or 1")
        if type(x) is tuple and type(q) is Fraction:
            return x  # already canonical
        return (Fraction(q), i)

    def _predecessor(self, x):
        q, i = x
        return (q, 0) if i == 1 else None

    def _successor(self, x):
        q, i = x
        return (q, 1) if i == 0 else None

    def _between(self, a, b):
        (q, i), (r, j) = a, b
        if q == r:
            return None
        if i == 0:
            return (q, 1)
        return ((q + r) / 2, 0)

    def coordinate(self, x):
        # (q,0) and (q,1) share q across their gap
        return x[0]

    def _sample(self, rng, k):
        seen = set()
        if k >= 2:
            q = Fraction(rng.randint(-3 * k, 3 * k), rng.randint(1, 8))
            seen.update({(q, 0), (q, 1)})
        top = 16
        while len(seen) < k:
            q = Fraction(rng.randint(-5 * k - 5, 5 * k + 5), rng.randint(1, top))
            seen.add((q, rng.randint(0, 1)))
            top += 4
        return sorted(seen)

    def least(self):
        return None

    def greatest(self):
        return None

    def parse(self, text):
        text = text.strip()
        if ":" not in text:
            raise MalformedElement(f"split element {text!r} needs the form p/q:0 or p/q:1")
        frac, _, side = text.rpartition(":")
        if side not in ("0", "1"):
            raise MalformedElement(f"split element {text!r} has side {side!r}")
        return self.validate((_parse_fraction(frac), int(side)))

    def format(self, x):
        q, i = self.validate(x)
        return f"{q}:{i}"


class ReversedChain(ChainHandle):
    """Order-reversal adapter over another handle."""

    def __init__(self, base: ChainHandle):
        self.base = base
        self.id = f"rev({base.id})"
        self.has_least = base.has_greatest
        self.has_greatest = base.has_least
        self.declared_order_dense = base.declared_order_dense
        self.declared_conditionally_complete = base.declared_conditionally_complete
        self.only_least_compact = base.only_greatest_compact
        self.only_greatest_compact = base.only_least_compact

    def validate(self, x):
        return self.base.validate(x)

    def key(self, x):
        k = self.base.key(x)
        return tuple(-c for c in k) if isinstance(k, tuple) else -k

    def _predecessor(self, x):
        return self.base._successor(x)

    def _successor(self, x):
        return self.base._predecessor(x)

    def _between(self, a, b):
        return self.base._between(b, a)

    def coordinate(self, x):
        return -self.base.coordinate(x)

    def _sample(self, rng, k):
        return self.base._sample(rng, k)

    def least(self):
        return self.base.greatest()

    def greatest(self):
        return self.base.least()

    def parse(self, text):
        return self.base.parse(text)

    def format(self, x):
        return self.base.format(x)


CATALOG_IDS = ("finite:n", "int", "dyadic01", "rat01", "omega+1", "split")

_FIXED_CATALOG = {
    "int": IntegerChain,
    "dyadic01": DyadicUnitChain,
    "rat01": RationalUnitChain,
    "omega+1": OmegaPlusOneChain,
    "split": SplitChain,
}


def make_chain(spec: str) -> ChainHandle:
    """Build a catalog chain from its spec string, e.g. "finite:4" or "rat01"."""
    spec = spec.strip()
    if spec.startswith("finite:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise UnknownCatalogId(f"bad finite chain spec {spec!r}") from exc
        return FiniteChain(n)
    cls = _FIXED_CATALOG.get(spec)
    if cls is None:
        raise UnknownCatalogId(f"unknown chain spec {spec!r}")
    return cls()


def infinite_catalog() -> list[ChainHandle]:
    return [cls() for cls in _FIXED_CATALOG.values()]

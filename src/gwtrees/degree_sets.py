"""Finite and cofinite sets of out-degrees used to mark tree vertices.

A marked vertex is one whose out-degree lies in the set.  The whole set of
non-negative integers must be expressible (it marks every vertex), hence the
cofinite representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class DegreeSet:
    """A subset of {0,1,2,...}: `members` itself, or its complement if `cofinite`."""

    members: frozenset[int]
    cofinite: bool = False

    def __post_init__(self) -> None:
        if any(k < 0 for k in self.members):
            raise ValueError("degrees must be non-negative")

    @staticmethod
    def of(*degrees: int) -> DegreeSet:
        return DegreeSet(frozenset(degrees))

    @staticmethod
    def all_degrees() -> DegreeSet:
        return DegreeSet(frozenset(), cofinite=True)

    def __contains__(self, k: int) -> bool:
        if k < 0:
            return False
        return (k in self.members) != self.cofinite

    @property
    def has_zero(self) -> bool:
        return 0 in self

    def mass(self, dist) -> Fraction:
        """Total probability the distribution assigns to this set."""
        picked = sum((dist.pmf(k) for k in sorted(self.members)), start=Fraction(0))
        if self.cofinite:
            return dist.total_mass() - picked
        return picked

    def covers_support(self, dist) -> bool:
        """True if every degree with positive mass under `dist` lies in the set."""
        if self.cofinite:
            return all(dist.pmf(k) == 0 for k in self.members)
        bound = dist.support_bound()
        if bound is None:
            return False
        return all(dist.pmf(k) == 0 or k in self for k in range(bound + 1))

    @staticmethod
    def parse(text: str) -> DegreeSet:
        """Parse a command-line spec: "0,2", "all", "geq:3", or "not:1,3".

        "geq:k" is the cofinite set {0} plus all degrees >= k; "not:..." is an
        explicit complement.
        """
        text = text.strip().lower()
        if text == "all":
            return DegreeSet.all_degrees()
        if text.startswith("geq:"):
            k = int(text[4:])
            return DegreeSet(frozenset(range(1, k)), cofinite=True)
        if text.startswith("not:"):
            parts = [int(p) for p in text[4:].split(",") if p.strip()]
            return DegreeSet(frozenset(parts), cofinite=True)
        parts = [int(p) for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"empty degree set spec: {text!r}")
        return DegreeSet(frozenset(parts))

    def spec(self) -> str:
        """Canonical command-line form; inverse of parse()."""
        if self.cofinite:
            if not self.members:
                return "all"
            return "not:" + ",".join(str(k) for k in sorted(self.members))
        return ",".join(str(k) for k in sorted(self.members))

    def __repr__(self) -> str:
        return f"DegreeSet({self.spec()!r})"


def require_zero(marks: DegreeSet) -> None:
    """All counting constructions here need degree 0 (leaves) to be marked."""
    if not marks.has_zero:
        raise ValueError(f"degree set must contain 0, got {marks.spec()!r}")

"""Offspring distributions on {0,1,2,...} and the collapsed offspring law.

Supports exact rational coefficients (finite lists or the geometric family)
and a float backend for large truncation orders.  The collapsed offspring law
is the child distribution of the tree obtained by block-summing a depth-first
queue at successive first hits of a marked degree; its generating function is

    z * a(z) / (z - u(z))

where a collects the marked coefficients of the original law and u the
unmarked ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, NamedTuple

from . import series
from .degree_sets import DegreeSet, require_zero
from .streams import common_denominator


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


class InvalidDistribution(ValueError):
    """Raised by validate(); `code` identifies which requirement failed."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class OffspringDist:
    """A pmf on child counts; either an explicit finite list or a geometric family.

    `truncated` marks a distribution whose stored coefficients are only the
    prefix of a longer law (as produced by collapsed_offspring); such objects
    expose partial moments and are not valid sampling laws.
    """

    family: str  # "finite" or "geometric"
    probs: tuple = ()
    param: Fraction | float | None = None
    truncated: bool = False

    def __post_init__(self) -> None:
        if self.family == "finite":
            if any(p < 0 for p in self.probs):
                raise ValueError("negative probability")
        elif self.family == "geometric":
            if not (0 < self.param < 1):
                raise ValueError("geometric parameter must be in (0,1)")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    # -- basic access -------------------------------------------------------

    # the fields are frozen, so derived values are computed once per object

    @cached_property
    def exact(self) -> bool:
        if self.family == "geometric":
            return isinstance(self.param, Fraction)
        return all(isinstance(p, (Fraction, int)) for p in self.probs)

    @cached_property
    def integer_cdf(self) -> tuple[list[int], int]:
        """Cumulative probabilities of a finite exact law as integer
        numerators over the lcm of their denominators."""
        nums, den = common_denominator(self.probs)
        return list(accumulate(nums)), den

    def pmf(self, k: int):
        if k < 0:
            raise ValueError("degree must be non-negative")
        if self.family == "geometric":
            return self.param * (1 - self.param) ** k
        return self.probs[k] if k < len(self.probs) else Fraction(0)

    def coeffs(self, order: int) -> list:
        return [self.pmf(k) for k in range(order + 1)]

    def support_bound(self) -> int | None:
        """Largest degree with known positive mass; None for an infinite tail."""
        if self.family == "geometric":
            return None
        last = -1
        for k, p in enumerate(self.probs):
            if p != 0:
                last = k
        return last if last >= 0 else 0

    def support_iter(self, limit: int):
        """Degrees with positive mass, up to and including `limit`."""
        if self.family == "geometric":
            yield from range(limit + 1)
            return
        for k, p in enumerate(self.probs):
            if k > limit:
                return
            if p != 0:
                yield k

    def total_mass(self):
        if self.family == "geometric":
            return Fraction(1) if self.exact else 1.0
        return sum(self.probs, start=Fraction(0))

    # -- moments ------------------------------------------------------------

    def mean(self):
        """Exact mean; for truncated laws this is the partial sum over the prefix."""
        if self.family == "geometric":
            return (1 - self.param) / self.param
        return sum((k * p for k, p in enumerate(self.probs)), start=Fraction(0))

    def variance(self):
        if self.family == "geometric":
            return (1 - self.param) / self.param**2
        m = self.mean()
        m2 = sum((k * k * p for k, p in enumerate(self.probs)), start=Fraction(0))
        return m2 - m * m

    def size_biased(self, k: int):
        return k * self.pmf(k)

    # -- conversions --------------------------------------------------------

    def to_float(self) -> OffspringDist:
        if self.family == "geometric":
            return OffspringDist("geometric", param=float(self.param))
        return OffspringDist("finite", tuple(float(p) for p in self.probs), truncated=self.truncated)

    @staticmethod
    def from_json(spec) -> OffspringDist:
        """Accept {"family":"binary"}, {"family":"geometric","p":"1/2"} or {"probs":[...]}."""
        if isinstance(spec, str):
            import json

            spec = json.loads(spec)
        if not isinstance(spec, dict):
            raise ValueError(f"distribution spec must be a JSON object: {spec!r}")
        if "probs" in spec:
            if not isinstance(spec["probs"], list):
                raise ValueError(f"probs must be a list: {spec['probs']!r}")
            return OffspringDist("finite", tuple(parse_rational(str(p)) for p in spec["probs"]))
        family = spec.get("family")
        if family == "binary":
            return binary_dist()
        if family == "geometric":
            return geometric_dist(parse_rational(str(spec.get("p", "1/2"))))
        raise ValueError(f"unrecognised distribution spec: {spec!r}")

    def to_json(self) -> dict:
        if self.family == "geometric":
            return {"family": "geometric", "p": format_rational(self.param)}
        if self.probs == (Fraction(1, 2), Fraction(0), Fraction(1, 2)):
            return {"family": "binary"}
        return {"probs": [format_rational(Fraction(p)) for p in self.probs]}


def binary_dist() -> OffspringDist:
    """Critical branching with 0 or 2 children, each with probability 1/2."""
    return OffspringDist("finite", (Fraction(1, 2), Fraction(0), Fraction(1, 2)))


def geometric_dist(p=Fraction(1, 2)) -> OffspringDist:
    """P(k children) = p (1-p)^k; critical exactly at p = 1/2."""
    return OffspringDist("geometric", param=p)


def from_probs(probs) -> OffspringDist:
    return OffspringDist("finite", tuple(probs))


def validate(dist: OffspringDist) -> None:
    """Reject laws outside the (sub)critical regime handled here."""
    if dist.truncated:
        raise InvalidDistribution("truncated", "truncated coefficient prefix is not a full law")
    total = dist.total_mass()
    tol = 0 if dist.exact else 1e-12
    if abs(total - 1) > tol:
        raise InvalidDistribution("not_normalized", f"probabilities sum to {total}")
    if dist.pmf(1) >= 1:
        raise InvalidDistribution("xi1_is_one", "all mass on exactly one child")
    if dist.pmf(0) == 0:
        raise InvalidDistribution("xi0_zero", "no mass on zero children")
    if dist.mean() > 1 + tol:
        raise InvalidDistribution("supercritical", f"mean {dist.mean()} exceeds 1")


def collapsed_offspring(dist: OffspringDist, marks: DegreeSet, order: int) -> OffspringDist:
    """First `order`+1 coefficients of the collapsed offspring law.

    When the set covers the whole support the law is unchanged and the
    original distribution is returned.
    """
    require_zero(marks)
    if marks.covers_support(dist):
        return dist
    xs = dist.coeffs(order + 1)
    marked = [xs[k] if k in marks else xs[k] * 0 for k in range(order + 1)]
    # unmarked coefficients shifted down once: the constant term vanishes
    # because degree 0 is always marked, so the shifted series is honest.
    unmarked = [xs[k + 1] if (k + 1) not in marks else xs[k + 1] * 0 for k in range(order + 1)]
    one = [xs[0] * 0 for _ in range(order + 1)]
    one[0] = Fraction(1) if dist.exact else 1.0
    out = series.mul(marked, series.reciprocal(series.sub(one, unmarked)))
    for k, c in enumerate(out):
        if c < 0:
            if dist.exact or c < -1e-13:
                raise ArithmeticError(f"negative collapsed coefficient at {k}: {c}")
            out[k] = c * 0
    return OffspringDist("finite", tuple(out), truncated=True)


class Moments(NamedTuple):
    mean: Fraction | float
    variance: Fraction | float
    size_biased: Callable[[int], Fraction | float]


def moments(dist: OffspringDist) -> Moments:
    """Mean, variance, and the size-biased weight k -> k p(k)."""
    return Moments(dist.mean(), dist.variance(), dist.size_biased)


def collapsed_moments(dist: OffspringDist, marks: DegreeSet):
    """Mean and variance of the collapsed offspring law for a critical input.

    The first hit of a marked degree is geometric with success probability
    equal to the marked mass, so by Wald's identities the collapsed law has
    mean 1 and variance Var/mass.
    """
    require_zero(marks)
    if dist.mean() != 1:
        raise ValueError("collapsed moments require a critical distribution")
    one = Fraction(1) if dist.exact else 1.0
    return one, dist.variance() / marks.mass(dist)

"""Offspring distributions on {0,1,2,...} and the collapsed offspring law.

Every law is exact: its probabilities are rationals (a finite list or the
geometric family), and float_pmf gives the float masses that float sampler
tables start from.  The collapsed offspring law is the child distribution of
the tree obtained by block-summing a depth-first queue at successive first
hits of a marked degree; its generating function is

    z * a(z) / (z - u(z))

where a collects the marked coefficients of the original law and u the
unmarked ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd
from typing import Callable, NamedTuple

import numpy as np

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

    Every probability, and the geometric parameter, is an int or a Fraction.
    `truncated` marks a distribution whose stored coefficients are only the
    prefix of a longer law (as produced by collapsed_offspring); such objects
    expose partial moments and are not valid sampling laws.  A truncated law
    from collapsed_offspring carries the generating function of the whole law
    in `rational`.
    """

    family: str  # "finite" or "geometric"
    probs: tuple = ()
    param: Fraction | None = None
    truncated: bool = False
    rational: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.family not in ("finite", "geometric"):
            raise ValueError(f"unknown family {self.family!r}")
        values = self.probs if self.family == "finite" else (self.param,)
        if not all(isinstance(x, (int, Fraction)) for x in values):
            raise ValueError(f"probabilities must be rational (int or Fraction), got {values!r}")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")
        if self.family == "geometric" and not 0 < self.param < 1:
            raise ValueError("geometric parameter must be in (0,1)")

    # -- basic access -------------------------------------------------------

    # the fields are frozen, so derived values are computed once per object

    @cached_property
    def integer_cdf(self) -> tuple[list[int], int]:
        """Cumulative probabilities of a finite law as integer
        numerators over the lcm of their denominators."""
        nums, den = common_denominator(self.probs)
        return list(accumulate(nums)), den

    @cached_property
    def generating_function(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The generating function of a complete law as integer polynomials
        (N, M), lowest degree first, with value N(s)/M(s) and M[0] > 0.

        A finite law gives its numerators over their lcm and (lcm,); the
        geometric law with p = a/b gives (a,) and (b, a - b).
        """
        if self.rational is not None:
            return self.rational
        if self.truncated:
            raise ValueError("only a complete law has a rational generating function")
        if self.family == "geometric":
            a, b = self.param.numerator, self.param.denominator
            return (a,), (b, a - b)
        nums, den = common_denominator(self.probs)
        return tuple(nums), (den,)

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
            return Fraction(1)
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
    if total != 1:
        raise InvalidDistribution("not_normalized", f"probabilities sum to {total}")
    if dist.pmf(1) >= 1:
        raise InvalidDistribution("xi1_is_one", "all mass on exactly one child")
    if dist.pmf(0) == 0:
        raise InvalidDistribution("xi0_zero", "no mass on zero children")
    if dist.mean() > 1:
        raise InvalidDistribution("supercritical", f"mean {dist.mean()} exceeds 1")


def float_pmf(dist: OffspringDist, order: int) -> np.ndarray:
    """float(dist.pmf(k)) for k = 0..order, bit for bit, without a Fraction
    per mass.

    The geometric mass a (b - a)^k / b^(k+1), with p = a/b, is the quotient
    of two running integers; int / int is correctly rounded, as
    Fraction.__float__ is.  Float powers p (1 - p)^k would drift by hundreds
    of ulps at k ~ 4000.
    """
    out = np.zeros(order + 1)
    if dist.family == "finite":
        head = [float(p) for p in dist.probs[: order + 1]]
        out[: len(head)] = head
        return out
    a, b = dist.param.numerator, dist.param.denominator
    num, den = a, b
    for k in range(order + 1):
        out[k] = num / den
        num *= b - a
        den *= b
    return out


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: list[int], b: list[int]) -> list[int]:
    width = max(len(a), len(b))
    a, b = a + [0] * (width - len(a)), b + [0] * (width - len(b))
    return [x - y for x, y in zip(a, b)]


def _collapsed_generating_function(dist: OffspringDist, marks: DegreeSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(N, M) of the collapsed law a / (1 - u) from the law's own pair.

    P = Np / L is the polynomial of the degrees the set lists: the marked
    ones of a finite set, the unmarked ones of a cofinite set.  With
    R = L M (xi - P) = N L - M Np, a finite set gives a = P and
    u = (xi - P) / s, so zeta = Np M / (M L - R/s); a cofinite set gives
    a = xi - P and u = P / s, so zeta = R / (M (L - Np/s)).  R has no
    constant term in the first case, Np none in the second, because degree
    0 is always marked.  The pair is divided by the gcd of its coefficients.
    """
    num, den = (list(p) for p in dist.generating_function)
    top = max(marks.members, default=0)
    listed, scale = common_denominator(dist.pmf(k) if k in marks.members else 0 for k in range(top + 1))
    rest = _poly_sub([x * scale for x in num], _poly_mul(den, listed))
    if marks.cofinite:
        num, den = rest, _poly_mul(den, _poly_sub([scale], listed[1:]))
    else:
        num, den = _poly_mul(den, listed), _poly_sub([x * scale for x in den], rest[1:])
    g = gcd(*num, *den)
    return tuple(x // g for x in num), tuple(x // g for x in den)


def collapsed_offspring(dist: OffspringDist, marks: DegreeSet, order: int) -> OffspringDist:
    """First `order`+1 coefficients of the collapsed offspring law.

    The law is a / (1 - u), with a the marked coefficients and u the
    unmarked ones shifted down once.  It is the ratio N/M of two integer
    polynomials built from the law's own pair; the returned truncated law
    carries that pair, and its coefficients come from the series division
    out * M = N.  When the set covers the whole support the law is unchanged
    and the original distribution is returned.
    """
    require_zero(marks)
    if marks.covers_support(dist):
        return dist
    num, den = _collapsed_generating_function(dist, marks)
    # out[e] = vals[e] / den[0]^(e+1)
    head = den[0]
    vals: list[int] = []
    for e in range(order + 1):
        v = num[e] * head**e if e < len(num) else 0
        for i in range(1, min(e, len(den) - 1) + 1):
            v -= den[i] * head ** (i - 1) * vals[e - i]
        vals.append(v)
    probs = tuple(Fraction(v, head ** (e + 1)) for e, v in enumerate(vals))
    return OffspringDist("finite", probs, truncated=True, rational=(num, den))


def collapsed_coeffs_float(dist: OffspringDist, marks: DegreeSet, order: int) -> np.ndarray:
    """Float collapsed offspring coefficients by the recurrence
    (1 - u) * out = a, with each step a dot product, from the law's float
    masses (float_pmf)."""
    require_zero(marks)
    xs = float_pmf(dist, order + 1)
    in_marks = np.array([k in marks for k in range(order + 2)])
    marked = np.where(in_marks[: order + 1], xs[: order + 1], 0.0)
    unmarked = np.where(~in_marks[1 : order + 2], xs[1 : order + 2], 0.0)
    # out = marked / (1 - unmarked): (1-u) * out = a gives the recurrence
    out = np.zeros(order + 1)
    inv = 1.0 / (1.0 - unmarked[0])
    out[0] = marked[0] * inv
    for m in range(1, order + 1):
        out[m] = (marked[m] + np.dot(unmarked[1 : m + 1], out[m - 1 :: -1])) * inv
    return np.clip(out, 0.0, None)


class Moments(NamedTuple):
    mean: Fraction
    variance: Fraction
    size_biased: Callable[[int], Fraction]


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
    return Fraction(1), dist.variance() / marks.mass(dist)

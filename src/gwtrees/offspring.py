"""Offspring distributions on {0,1,2,...} and the collapsed offspring law.

Every law is exact: its probabilities are rationals (a finite list or the
geometric family), put over one denominator here alone (generating_function,
integer_masses), and float_pmf gives the float masses that float sampler
tables start from.  The collapsed offspring law is the child distribution of
the tree obtained by block-summing a depth-first queue at successive first
hits of a marked degree; its generating function is

    z * a(z) / (z - u(z))

where a collects the marked coefficients of the original law and u the
unmarked ones; collapsed_pair gives it as the integer pair that the exact
engine walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd

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
    """

    family: str  # "finite" or "geometric"
    probs: tuple = ()
    param: Fraction | None = None

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
        nums, (den,) = self.generating_function
        return list(accumulate(nums)), den

    @cached_property
    def generating_function(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The generating function of the law as integer polynomials (N, M),
        lowest degree first, with value N(s)/M(s) and M[0] > 0.

        A finite law gives its numerators over their lcm and (lcm,); the
        geometric law with p = a/b gives (a,) and (b, a - b).
        """
        if self.family == "geometric":
            a, b = self.param.numerator, self.param.denominator
            return (a,), (b, a - b)
        nums, den = common_denominator(self.probs)
        return tuple(nums), (den,)

    def integer_masses(self, order: int) -> tuple[list[int], int]:
        """The masses at degrees 0..order as integer numerators over one
        denominator: nums[k] / den == pmf(k).

        A finite law gives its generating function's numerators, cut or
        padded with zeros to order + 1 entries, over their lcm; the
        geometric law with p = a/b gives a (b - a)^k b^(order - k) over
        b^(order + 1).
        """
        if self.family == "geometric":
            a, b = self.param.numerator, self.param.denominator
            return [a * (b - a) ** k * b ** (order - k) for k in range(order + 1)], b ** (order + 1)
        nums, (den,) = self.generating_function
        return [*nums[: order + 1], *[0] * (order + 1 - len(nums))], den

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
        """Exact mean."""
        if self.family == "geometric":
            return (1 - self.param) / self.param
        return sum((k * p for k, p in enumerate(self.probs)), start=Fraction(0))

    def variance(self):
        if self.family == "geometric":
            return (1 - self.param) / self.param**2
        m = self.mean()
        m2 = sum((k * k * p for k, p in enumerate(self.probs)), start=Fraction(0))
        return m2 - m * m

    # -- conversions --------------------------------------------------------

    @staticmethod
    def from_json(spec) -> OffspringDist:
        """Accept {"family":"binary"}, {"family":"geometric","p":"1/2"} or
        {"probs":[...]}, as a parsed JSON object: one spelling per law."""
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
    import numpy as np
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


def collapsed_pair(dist: OffspringDist, marks: DegreeSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The collapsed law a / (1 - u) as an integer pair (N, M), the input of
    the exact engine's walk (exact._walk): the law's own generating function
    when the set covers its support, and otherwise built from that pair.

    P = Np / L is the polynomial of the degrees the set lists: the marked
    ones of a finite set, the unmarked ones of a cofinite set.  With
    R = L M (xi - P) = N L - M Np, a finite set gives a = P and
    u = (xi - P) / s, so zeta = Np M / (M L - R/s); a cofinite set gives
    a = xi - P and u = P / s, so zeta = R / (M (L - Np/s)).  R has no
    constant term in the first case, Np none in the second, because degree
    0 is always marked.  The pair is divided by the gcd of its coefficients.
    """
    require_zero(marks)
    if marks.covers_support(dist):
        return dist.generating_function
    num, den = (list(p) for p in dist.generating_function)
    masses, scale = dist.integer_masses(max(marks.members, default=0))
    listed = [x if k in marks.members else 0 for k, x in enumerate(masses)]
    rest = _poly_sub([x * scale for x in num], _poly_mul(den, listed))
    if marks.cofinite:
        num, den = rest, _poly_mul(den, _poly_sub([scale], listed[1:]))
    else:
        num, den = _poly_mul(den, listed), _poly_sub([x * scale for x in den], rest[1:])
    g = gcd(*num, *den)
    return tuple(x // g for x in num), tuple(x // g for x in den)


def collapsed_offspring(dist: OffspringDist, marks: DegreeSet, order: int) -> list[Fraction]:
    """Coefficients 0..order of the collapsed offspring law a / (1 - u),
    with a the marked coefficients and u the unmarked ones shifted down
    once: the first state of the exact walk on collapsed_pair.
    """
    from .exact import _walk  # exact imports this module

    cur, scale, base = next(_walk(collapsed_pair(dist, marks), 1, order))
    return [Fraction(c, scale * base**e) for e, c in enumerate(cur)]


def degree_masks(dist: OffspringDist, marks: DegreeSet, top: int) -> tuple[int, int]:
    """Two bit sets over the degrees 0..top, bit k for degree k: positive
    mass, and marked."""
    full = (1 << (top + 1)) - 1
    if dist.family == "geometric":
        supp = full
    else:
        supp = sum(1 << k for k, p in enumerate(dist.probs[: top + 1]) if p)
    members = sum(1 << k for k in marks.members if k <= top)
    return supp, full ^ members if marks.cofinite else members


def bit_indices(bits: int):
    """The positions of the set bits of bits >= 0, in increasing order."""
    return (k for k, c in enumerate(bin(bits)[:1:-1]) if c == "1")


def bit_list(bits: int, size: int) -> list[bool]:
    """Bits 0..size-1 of bits >= 0 as bools."""
    return [c == "1" for c in bin(bits)[:1:-1].ljust(size, "0")[:size]]


def sums_closure(start: int, gens, size: int) -> int:
    """start + <gens> on the bits 0..size-1 of the bit set `start`.

    <G> is the set of sums of elements of G, 0 included; `gens` must be a
    non-decreasing iterable, read only as far as needed.  Each generator
    closes the set by doubling shifts, so that after the shifts by g, 2g,
    ..., 2^(k-1) g it holds up to 2^k - 1 copies of g.  A generator that is
    already a sum of earlier ones adds nothing, and once every value from
    the current generator on is a sum, so is every later generator: the
    scan stops there.
    """
    full = (1 << size) - 1
    reach = 1  # <generators so far>
    out = start & full
    for g in gens:
        if g >= size:
            break
        if reach >> g & 1:
            continue
        step = g
        while step < size:
            reach |= reach << step & full
            out |= out << step & full
            step *= 2
        if reach >> g == full >> g:
            break
    return out


def collapsed_coeffs_float(dist: OffspringDist, marks: DegreeSet, order: int) -> np.ndarray:
    """Float collapsed offspring coefficients to `order`; on a set covering
    the support, the law's own float masses (float_pmf), bit for bit.

    Otherwise the integer pair N/M of collapsed_pair gives
    them by the deg(M)-term recurrence

        out[e] = (N[e] - sum_(i>=1) M[i] out[e-i]) / M[0]

    on the floats of N and M, exact while their integers stay below 2^53.
    The recurrence leaves values around 1e-18 where the exact coefficient
    is 0, which a float floor could not tell from small true masses; the
    support rule supp zeta = supp a + <supp u> sets them to 0.0, as
    zeta = a (1 + u + u^2 + ...) is a sum of non-negative terms (supp u
    holds d - 1 for the unmarked d).
    """
    import numpy as np
    require_zero(marks)
    if marks.covers_support(dist):
        return float_pmf(dist, order)
    num, den = collapsed_pair(dist, marks)
    # a common power of two keeps the largest coefficient inside float range
    unit = 1 << max(0, max(abs(x) for x in num + den).bit_length() - 1000)
    head = den[0] / unit
    div = [(i, x / unit) for i, x in enumerate(den) if i and x]
    out = [x / unit for x in num[: order + 1]]
    out += [0.0] * (order + 1 - len(out))
    for e in range(order + 1):
        v = out[e]
        for i, x in div:
            if i > e:
                break
            v -= x * out[e - i]
        out[e] = v / head
    out = np.array(out)
    supp, marked = degree_masks(dist, marks, order + 1)
    reach = sums_closure(supp & marked, (d - 1 for d in bit_indices(supp & ~marked)), order + 1)
    bits = np.frombuffer(reach.to_bytes(order // 8 + 1, "little"), dtype=np.uint8)
    out[~np.unpackbits(bits, count=order + 1, bitorder="little").astype(bool)] = 0.0
    return np.clip(out, 0.0, None)


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

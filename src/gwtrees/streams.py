"""Seeded, splittable random streams and exact discrete inversion.

Every sampler takes an explicit stream; identical seeds reproduce identical
output bit for bit.  Child streams are derived by hashing the parent seed
with a label, so parallel arms can own independent deterministic streams.

Exact draws refine a dyadic interval until it separates the rational
cumulative weights, so a draw from an exact pmf has exactly the stated law.
Every one of them goes through draw_weights_int, on one bit schedule (64
bits, then 16 more at a time), with integer cumulative weights over their
integer total, so every decision is an integer comparison; draw_geometric
is its closed form on the geometric pmf, and draw_cdf and draw_weights take
Fraction input and put it over a common denominator first.

Float-mode conditioned trees (samplers.sample_conditioned) seed one numpy
Generator (PCG64) per tree from 128 bits of the stream and draw the tree's
blocks with it: each proposal of the block values takes uniforms from its
random and one multinomial row, the kept values are put in order by its
shuffle, and the block interiors take its uniforms.  Their seeded output,
and its digests, also depend on those numpy streams, which numpy may change
between versions.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import accumulate
from math import lcm


class RandomStream:
    """Deterministic random source with hierarchical splitting."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def split(self, *labels) -> RandomStream:
        """Independent child stream; same (seed, labels) always gives the same child."""
        material = repr((self.seed,) + labels).encode()
        digest = hashlib.sha256(material).digest()
        return RandomStream(int.from_bytes(digest[:8], "big"))

    def random(self) -> float:
        return self._rng.random()

    def getrandbits(self, k: int) -> int:
        return self._rng.getrandbits(k)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection on the next power of two."""
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        bits = (n - 1).bit_length()
        while True:
            v = self._rng.getrandbits(bits) if bits else 0
            if v < n:
                return v


def draw_weights_int(
    cum: list[int], total: int, stream: RandomStream, extend: Callable[[], int | None] | None = None
) -> int:
    """Index of the weight that U*total falls into, decided exactly.

    `cum` holds the cumulative integer weights and `total` their full sum.
    U starts with 64 bits and gains 16 more whenever the dyadic interval
    [num/2^b, (num+1)/2^b) straddles the current cumulative weight; weights
    already passed at the interval's low end are skipped by bisection.  When
    U lies beyond every weight in `cum`, `extend` may append more of them; it
    returns the total over the (possibly rescaled) list, or None when there
    are no more.  Zero weights are never drawn.
    """
    num = stream.getrandbits(64)
    bits = 64
    j = 0
    while True:
        # U*total < cum[j] is certain once cum[j]*2^b >= (num+1)*total, and
        # impossible while cum[j]*2^b <= num*total
        j = bisect_right(cum, (num * total) >> bits, j)
        if j == len(cum):
            total = extend() if extend is not None else None
            if total is None:
                break
            continue
        if cum[j] << bits >= (num + 1) * total:
            return j
        num = (num << 16) | stream.getrandbits(16)
        bits += 16
        if bits >= 1024:
            return j
    if not cum or cum[-1] == 0:
        raise ValueError("all weights vanish")
    return bisect_left(cum, cum[-1])  # U is beyond the last positive weight


def draw_geometric(a: int, b: int, stream: RandomStream) -> int:
    """Failures before the first success, with success probability a/b.

    The same decisions on the same bits as draw_weights over the pmf
    (a/b)(1-a/b)^j with total 1, but in closed form: the weight up to j is
    (b^(j+1) - (b-a)^(j+1)) / b^(j+1), all on integers.
    """
    fail = b - a
    num = stream.getrandbits(64)
    bits = 64
    j = 0
    power, fail_power = b, fail  # b^(j+1), (b-a)^(j+1)
    while True:
        acc = power - fail_power
        if acc << bits >= (num + 1) * power:
            return j
        if acc << bits <= num * power:
            j += 1
            power *= b
            fail_power *= fail
            continue
        num = (num << 16) | stream.getrandbits(16)
        bits += 16
        if bits >= 1024:
            return j


def common_denominator(values: Iterable) -> tuple[list[int], int]:
    """Integer numerators of rational values over the lcm of their denominators."""
    fracs = [Fraction(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def draw_cdf(cum: Sequence, stream: RandomStream) -> int:
    """Index i with cum[i-1] <= U*cum[-1] < cum[i] for a uniform U, decided exactly.

    Works for Fraction, int or float cumulative lists; the values are put
    over their common denominator and drawn by draw_weights_int.
    """
    nums, _den = common_denominator(cum)
    return draw_weights_int(nums, nums[-1], stream)


def draw_weights(weights: Iterable, total, stream: RandomStream) -> int:
    """Draw an index proportionally to a finite sequence of rational weights.

    `total` is the exact sum of all weights.  The weights are put over one
    common denominator and drawn by draw_weights_int.
    """
    nums, _den = common_denominator([*weights, total])
    return draw_weights_int(list(accumulate(nums[:-1])), nums[-1], stream)

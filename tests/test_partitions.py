import math
from collections import Counter
from fractions import Fraction

import pytest

from gwtrees import series
from gwtrees.degree_sets import DegreeSet
from gwtrees.partitions import (
    block_count,
    distinct_arrangements,
    iota,
    partitions_into,
    partitions_of,
    split_partitions,
)

A0 = DegreeSet.of(0)
ALL = DegreeSet.all_degrees()


def test_partition_counts():
    # partition numbers 1..10
    want = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    got = [sum(1 for _ in partitions_of(n)) for n in range(1, 11)]
    assert got == want
    assert list(partitions_of(0)) == [()]


def test_partitions_are_sorted_and_sum():
    for n in range(1, 9):
        seen = set()
        for lam in partitions_of(n):
            assert sum(lam) == n
            assert lam == tuple(sorted(lam, reverse=True))
            seen.add(lam)
        assert len(seen) == sum(1 for _ in partitions_of(n))


def test_partitions_into():
    assert list(partitions_into(5, 2)) == [(4, 1), (3, 2)]
    assert list(partitions_into(0, 0)) == [()]
    assert list(partitions_into(3, 5)) == []
    odd_only = list(partitions_into(8, 2, part_ok=lambda k: k % 2 == 1))
    assert odd_only == [(7, 1), (5, 3)]
    for n in range(1, 9):
        by_parts = sum(sum(1 for _ in partitions_into(n, p)) for p in range(n + 1))
        assert by_parts == sum(1 for _ in partitions_of(n))


def test_block_count_and_arrangements():
    assert block_count(()) == -1
    assert block_count((3, 1)) == 2
    assert distinct_arrangements((3, 1)) == 2
    assert distinct_arrangements((2, 2)) == 1
    assert distinct_arrangements((2, 1, 1)) == 3


def test_distinct_arrangements_matches_multinomial_of_multiplicities():
    for n in range(21):
        for lam in partitions_of(n):
            want = math.factorial(len(lam))
            for m in Counter(lam).values():
                want //= math.factorial(m)
            assert distinct_arrangements(lam) == want, lam


def test_iota():
    assert iota(()) == (1,)
    assert iota((3, 1)) == (3, 1, 1)
    assert iota((1,)) == (1, 1)


def test_split_partitions_definition():
    # block counts outside the set keep partitions of n; marked block counts
    # come from partitions of n-1
    for n in (2, 3, 4, 5):
        for marks in (A0, DegreeSet.of(0, 2), ALL):
            got = set(split_partitions(n, marks))
            want = {lam for lam in partitions_of(n) if block_count(lam) not in marks}
            want |= {lam for lam in partitions_of(n - 1) if block_count(lam) in marks}
            assert got == want
    assert set(split_partitions(1, A0)) == {(), (1,)}
    with pytest.raises(ValueError):
        list(split_partitions(0, A0))


# ---------------------------------------------------------------------------
# series arithmetic


def F(*nums):
    return [Fraction(x) for x in nums]


def test_series_add_sub_scale():
    assert series.add(F(1, 2), F(3, 4)) == F(4, 6)
    assert series.sub(F(1, 2), F(3, 4)) == F(-2, -2)
    assert series.scale(Fraction(1, 2), F(2, 4)) == F(1, 2)
    with pytest.raises(ValueError):
        series.add(F(1), F(1, 2))


def test_series_mul_truncates():
    a = F(1, 1, 0)
    assert series.mul(a, a) == F(1, 2, 1)
    assert series.mul(F(0, 1, 0), F(0, 1, 0)) == F(0, 0, 1)


def test_series_reciprocal_exact_roundtrip():
    a = F(1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4), 0, 7)
    inv = series.reciprocal(a)
    prod = series.mul(a, inv)
    assert prod[0] == 1 and all(c == 0 for c in prod[1:])
    with pytest.raises(ZeroDivisionError):
        series.reciprocal(F(0, 1))


def test_series_reciprocal_known():
    # 1/(1 - z) = 1 + z + z^2 + ...
    geom = series.reciprocal(F(1, -1, 0, 0, 0))
    assert geom == F(1, 1, 1, 1, 1)

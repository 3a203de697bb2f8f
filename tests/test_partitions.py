import math
from collections import Counter
from fractions import Fraction

from gwtrees.partitions import (
    block_count,
    distinct_arrangements,
    iota,
    partitions_into,
    partitions_of,
)


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

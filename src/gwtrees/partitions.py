"""Integer partitions as non-increasing tuples, with the empty partition ().

Conventions used throughout: the block count of () is -1, and the admissible
split partitions at size n consist of partitions of n whose block count is
unmarked together with partitions of n-1 whose block count is marked.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from math import factorial


Partition = tuple[int, ...]

EMPTY: Partition = ()


def block_count(lam: Partition) -> int:
    """Number of parts; -1 for the empty partition by convention."""
    return len(lam) if lam else -1


def distinct_arrangements(lam: Partition) -> int:
    """Number of ordered tuples with the given non-increasing rearrangement.

    Equal parts of a sorted tuple sit in one run; dividing by 2, 3, ..., m
    along a run of length m divides by m!, and every quotient is exact.
    """
    count = factorial(len(lam))
    run = 1
    for i in range(1, len(lam)):
        if lam[i] == lam[i - 1]:
            run += 1
            count //= run
        else:
            run = 1
    return count


def iota(lam: Partition) -> Partition:
    """Append a part equal to 1, keeping the tuple sorted."""
    return tuple(sorted(lam + (1,), reverse=True))


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n in non-increasing tuples; n = 0 yields ()."""
    if n == 0:
        yield EMPTY
        return
    yield from _parts(n, n)


def _parts(n: int, cap: int) -> Iterator[Partition]:
    if n == 0:
        yield EMPTY
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _parts(n - first, first):
            yield (first,) + rest


def partitions_into(n: int, p: int, part_ok: Callable[[int], bool] | None = None) -> Iterator[Partition]:
    """Partitions of n into exactly p positive parts, optionally filtered partwise."""
    if p == 0:
        if n == 0:
            yield EMPTY
        return
    if n < p:
        return
    yield from _parts_exact(n, p, n - p + 1, part_ok)


def _parts_exact(n: int, p: int, cap: int, part_ok) -> Iterator[Partition]:
    if p == 1:
        if n <= cap and (part_ok is None or part_ok(n)):
            yield (n,)
        return
    # each remaining part is at least 1 and at most `first`
    for first in range(min(n - p + 1, cap), 0, -1):
        if first * p < n:
            break
        if part_ok is not None and not part_ok(first):
            continue
        for rest in _parts_exact(n - first, p - 1, first, part_ok):
            yield (first,) + rest

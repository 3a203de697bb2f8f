"""Excursion block transforms and the life-line tree.

The block collapse compresses a depth-first queue along successive stopping
times: each block runs until its stopping rule fires (or the block's own
partial sums hit -1, whichever is first) and is replaced by its sum.  The
resulting sequence is again a valid queue.

The life-line construction produces, for each tree, a tree on its leaves:
leaf k colours the not-yet-coloured edges on its path to the root, and leaf j
attaches below the smallest colour sharing a vertex with colour j.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

from .degree_sets import DegreeSet, require_zero
from .trees import OrderedTree, is_excursion, single_vertex

# A stopping rule sees the block read so far and says whether to stop there.
# Decisions depend on the prefix only, which makes adaptedness structural.
StoppingRule = Callable[[Sequence[int]], bool]


def first_hit_rule(marks: DegreeSet) -> StoppingRule:
    """Stop the first time an increment plus one lands in the marked set.

    With degree 0 marked this always fires no later than the block's own
    first passage, since a -1 increment is a hit.
    """
    require_zero(marks)

    def rule(prefix: Sequence[int]) -> bool:
        return prefix[-1] + 1 in marks

    return rule


def collapse_blocks(seq: Iterable[int], rule: StoppingRule) -> Iterator[int]:
    """Yield block sums; consumes the input lazily, one increment at a time."""
    block: list[int] = []
    total = 0
    for x in seq:
        block.append(x)
        total += x
        if rule(tuple(block)) or total == -1:
            yield total
            block = []
            total = 0
    if block:
        raise ValueError("input ended inside an unfinished block")


def collapse(seq: Sequence[int], rule: StoppingRule) -> tuple[int, ...]:
    """Block-sum compression of a full queue; the result is again a queue."""
    if not is_excursion(seq):
        raise ValueError("collapse requires a valid depth-first queue")
    out: list[int] = []
    psum = 0
    for s in collapse_blocks(seq, rule):
        out.append(s)
        psum += s
        if psum == -1:
            break
    result = tuple(out)
    if not is_excursion(result):
        raise AssertionError("collapsed sequence left the queue space")
    return result


# ---------------------------------------------------------------------------
# life-line construction


def lifeline_coloring(t: OrderedTree) -> tuple[int, ...]:
    """Colour of each vertex's parent edge; index 0 (the root) holds 0.

    Leaves are numbered 1..k by depth-first order; leaf i colours the still
    uncoloured part of its root path.
    """
    parents = t.parents()
    colors = [0] * t.n
    for i, leaf in enumerate(t.leaves(), start=1):
        v = leaf
        while v != 0 and colors[v] == 0:
            colors[v] = i
            v = parents[v]
    return tuple(colors)


def lifeline_tree(t: OrderedTree) -> OrderedTree:
    """Tree on the leaves of t: j sits under the smallest colour meeting it.

    Children are ordered by leaf number, i.e. by the order their leaves
    appear on the depth-first walk of t.
    """
    colors = lifeline_coloring(t)
    k = len(t.leaves())
    if k == 1:
        return single_vertex()
    # incident colour sets per vertex of t: the parent edge plus child edges
    attach: dict[int, int] = {}
    for v, kids in enumerate(t.children):
        incident = [colors[c] for c in kids]
        if v != 0:
            incident.append(colors[v])
        low = min(incident)
        for c in incident:
            if c > low and (c not in attach or low < attach[c]):
                attach[c] = low
    kids_of: list[list[int]] = [[] for _ in range(k + 1)]
    for j in range(2, k + 1):
        kids_of[attach[j]].append(j)
    # degrees in depth-first order from leaf 1; each kids_of list is
    # already in leaf-number order
    degrees: list[int] = []
    stack = [1]
    while stack:
        kids = kids_of[stack.pop()]
        degrees.append(len(kids))
        stack.extend(reversed(kids))
    if len(degrees) != k:
        raise AssertionError("life-line tree lost vertices")
    return OrderedTree.from_degrees(degrees)

"""Excursion block transforms and the life-line tree.

The block collapse cuts a depth-first queue at each first hit of the marked
set: each block runs up to its first increment whose degree (increment + 1)
is marked, and is replaced by its sum.  The result is again a valid queue,
with one entry per marked vertex.

The life-line construction produces, for each tree, a tree on its leaves:
leaf k colours the not-yet-coloured edges on its path to the root, and leaf j
attaches below the smallest colour sharing a vertex with colour j.
"""

from __future__ import annotations

from collections.abc import Sequence

from .degree_sets import DegreeSet, require_zero
from .trees import OrderedTree, decode, single_vertex


def collapse(seq: Sequence[int], marks: DegreeSet) -> tuple[int, ...]:
    """Block sums of a queue cut after each increment whose degree is marked.

    Degree 0 is marked, so an unmarked increment is >= 0 and no block's
    partial sum reaches -1 before its marked end; the queue's last entry, -1,
    ends the last block.  Input and output are both checked by decode.
    """
    require_zero(marks)
    decode(seq)
    out: list[int] = []
    total = 0
    for x in seq:
        total += x
        if x + 1 in marks:
            out.append(total)
            total = 0
    decode(out)
    return tuple(out)


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

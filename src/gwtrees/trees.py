"""Rooted ordered trees in depth-first positional form and their queue encoding.

A tree on n vertices stores, for each vertex, the tuple of its children's
indices; vertices are labelled 0..n-1 by first appearance on the depth-first
walk (the root is 0).  The queue encoding of a tree is the sequence of
out-degrees minus one along that walk; it is an excursion-type integer
sequence whose partial sums stay non-negative until they first hit -1, which
happens exactly at the last entry.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .degree_sets import DegreeSet, require_zero
from .partitions import Partition


@dataclass(frozen=True)
class OrderedTree:
    """Immutable rooted ordered tree; children[v] lists v's children in order."""

    children: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.children)
        if n == 0:
            raise ValueError("a tree has at least its root")
        # verify the labels are exactly the preorder of the stored structure
        seen = 0
        stack = [0]
        while stack:
            v = stack.pop()
            if v != seen:
                raise ValueError("children lists are not in depth-first positional form")
            seen += 1
            kids = self.children[v]
            for c in kids:
                if not (v < c < n):
                    raise ValueError(f"child index {c} of vertex {v} out of range")
            stack.extend(reversed(kids))
        if seen != n:
            raise ValueError("disconnected vertex set")

    @property
    def n(self) -> int:
        return len(self.children)

    def degree(self, v: int) -> int:
        return len(self.children[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.children)

    def parents(self) -> tuple[int, ...]:
        """Parent index per vertex; the root maps to -1."""
        par = [-1] * self.n
        for v, kids in enumerate(self.children):
            for c in kids:
                par[c] = v
        return tuple(par)

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v, kids in enumerate(self.children) if not kids)

    def subtree_sizes(self) -> tuple[int, ...]:
        sizes = [1] * self.n
        for v in range(self.n - 1, -1, -1):
            for c in self.children[v]:
                sizes[v] += sizes[c]
        return tuple(sizes)

    @staticmethod
    def from_degrees(degrees: Sequence[int]) -> OrderedTree:
        """Build from the out-degrees in depth-first order, in one pass.

        Read backwards, each vertex takes the roots of the subtrees that
        follow it as its children, first child on top of the stack.  Raises
        ValueError unless the degrees close the tree exactly at the last
        vertex.
        """
        children: list[tuple[int, ...]] = [()] * len(degrees)
        roots: list[int] = []  # subtrees read so far, first one on top
        for v in range(len(degrees) - 1, -1, -1):
            d = degrees[v]
            if d:
                if not 0 < d <= len(roots):
                    raise ValueError(f"degree {d} at vertex {v} does not fit the vertices after it")
                children[v] = tuple(roots[-1 : -d - 1 : -1])
                del roots[-d:]
            roots.append(v)
        if len(roots) != 1:
            raise ValueError("degree sequence does not close the tree at its last vertex")
        return OrderedTree(tuple(children))

    @staticmethod
    def from_nested(nested: Sequence) -> OrderedTree:
        """Build from nested sequences, e.g. [[], []] is the two-leaf cherry root."""
        children: list[tuple[int, ...]] = []
        # stack holds (node, parent_index); children get indices in preorder
        stack: list[tuple[Sequence, int]] = [(nested, -1)]
        order: list[list[int]] = []
        while stack:
            node, parent = stack.pop()
            idx = len(order)
            order.append([])
            if parent >= 0:
                order[parent].append(idx)
            for child in reversed(list(node)):
                stack.append((child, idx))
        children = [tuple(kids) for kids in order]
        return OrderedTree(tuple(children))

    def __str__(self) -> str:
        return format_tree(self)


def single_vertex() -> OrderedTree:
    return OrderedTree(((),))


def parse_tree(text: str) -> OrderedTree:
    """Parse the nested-parentheses format, e.g. "(()())" is the cherry."""
    text = text.strip()
    if not text:
        raise ValueError("empty tree text")
    children: list[list[int]] = []
    stack: list[int] = []
    for ch in text:
        if ch == "(":
            idx = len(children)
            children.append([])
            if stack:
                children[stack[-1]].append(idx)
            stack.append(idx)
        elif ch == ")":
            if not stack:
                raise ValueError("unbalanced parentheses")
            stack.pop()
        elif not ch.isspace():
            raise ValueError(f"unexpected character {ch!r} in tree text")
    if stack:
        raise ValueError("unbalanced parentheses")
    if not children:
        raise ValueError("empty tree text")
    return OrderedTree(tuple(tuple(kids) for kids in children))


def format_tree(t: OrderedTree) -> str:
    out: list[str] = []
    # emit "(" on entry, ")" after the subtree; explicit stack to avoid recursion
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        v, closing = stack.pop()
        if closing:
            out.append(")")
            continue
        out.append("(")
        stack.append((v, True))
        for c in reversed(t.children[v]):
            stack.append((c, False))
    return "".join(out)


# ---------------------------------------------------------------------------
# queue encoding


def first_passage(seq: Sequence[int]) -> int | None:
    """1-based index where partial sums first hit -1, or None if they never do."""
    s = 0
    for i, x in enumerate(seq, start=1):
        s += x
        if s == -1:
            return i
    return None


def is_excursion(seq: Sequence[int]) -> bool:
    """True if the sequence is a valid queue: entries >= -1, sums hit -1 exactly at the end."""
    s = 0
    for i, x in enumerate(seq, start=1):
        if x < -1:
            return False
        s += x
        if s == -1:
            return i == len(seq)
    return False


def encode(t: OrderedTree) -> tuple[int, ...]:
    """Out-degree minus one along the depth-first walk."""
    return tuple(len(kids) - 1 for kids in t.children)


def decode(seq: Sequence[int]) -> OrderedTree:
    """Inverse of encode; validates that the input is a proper excursion."""
    if not is_excursion(seq):
        raise ValueError(f"not a valid depth-first queue: {tuple(seq)!r}")
    return OrderedTree.from_degrees([x + 1 for x in seq])


def parse_queue(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.strip().split(",") if p.strip())


def format_queue(seq: Sequence[int]) -> str:
    return ",".join(str(x) for x in seq)


def queue_marked_count(seq: Sequence[int], marks: DegreeSet) -> int:
    """Number of entries (up to the first passage) whose value + 1 is marked."""
    require_zero(marks)
    return sum(1 for x in seq if x + 1 in marks)


# ---------------------------------------------------------------------------
# marked-vertex operations


def count_marked(t: OrderedTree, marks: DegreeSet) -> int:
    """Number of vertices whose out-degree lies in the set."""
    require_zero(marks)
    return sum(1 for kids in t.children if len(kids) in marks)


def root_partition(t: OrderedTree, marks: DegreeSet) -> Partition:
    """Non-increasing marked counts of the root subtrees; () for a single vertex.

    The parts sum to the tree's marked count, minus one when the root itself
    is marked.
    """
    require_zero(marks)
    sizes = t.subtree_sizes()
    parts = []
    for c in t.children[0]:
        lo, hi = c, c + sizes[c]
        parts.append(sum(1 for v in range(lo, hi) if t.degree(v) in marks))
    return tuple(sorted(parts, reverse=True))


def leaf_augment(t: OrderedTree, marks: DegreeSet) -> OrderedTree:
    """Attach a new last-child leaf to every non-leaf marked vertex.

    Turns marked-vertex counting into leaf counting: the result has exactly
    count_marked(t, marks) leaves.
    """
    require_zero(marks)
    grows = [bool(kids) and len(kids) in marks for kids in t.children]
    nested: list[list] = [[] for _ in range(t.n)]
    for v in range(t.n - 1, -1, -1):
        nested[v] = [nested[c] for c in t.children[v]]
        if grows[v]:
            nested[v].append([])
    return OrderedTree.from_nested(nested[0])


def depths(t: OrderedTree) -> tuple[int, ...]:
    """Edge distance from the root, per vertex."""
    out = [0] * t.n
    for v, kids in enumerate(t.children):
        for c in kids:
            out[c] = out[v] + 1
    return tuple(out)


def canonical_key(t: OrderedTree) -> str:
    """Canonical string equal for two trees iff they agree as unordered rooted trees."""
    keys: list[str] = [""] * t.n
    for v in range(t.n - 1, -1, -1):
        keys[v] = "(" + "".join(sorted(keys[c] for c in t.children[v])) + ")"
    return keys[0]


def iter_trees(max_vertices: int, degree_ok=None) -> Iterator[OrderedTree]:
    """All ordered trees with at most `max_vertices` vertices.

    `degree_ok` optionally restricts the out-degrees that may appear.
    """
    prefix: list[int] = []

    def walk(total: int, psum: int) -> Iterator[OrderedTree]:
        # after this entry, each remaining unit of partial sum costs a vertex
        for x in range(-1, max_vertices - total - psum - 1):
            if degree_ok is not None and not degree_ok(x + 1):
                continue
            prefix.append(x)
            if psum + x == -1:
                yield decode(tuple(prefix))
            else:
                yield from walk(total + 1, psum + x)
            prefix.pop()

    yield from walk(0, 0)

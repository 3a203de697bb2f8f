"""Rooted ordered trees stored as their depth-first degree sequences.

A tree on n vertices stores the out-degree of each vertex in depth-first
order (the root first); vertex v is the v-th vertex that walk visits.  The
queue encoding of a tree is the sequence of out-degrees minus one along that
walk (the Lukasiewicz path): an excursion-type integer sequence whose
partial sums stay non-negative until they first hit -1, which happens
exactly at the last entry.  Counting, hashing and printing read the degrees;
the children lists are built on first read, for the few passes that walk
parent-child edges.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from .degree_sets import DegreeSet, require_zero
from .partitions import Partition


@dataclass(frozen=True)
class OrderedTree:
    """Immutable rooted ordered tree; degrees[v] is vertex v's out-degree,
    vertices in depth-first order.

    Every construction checks that the degrees are a tree's and raises
    ValueError if not; `children` is derived from them on first read.
    """

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        # a tree's degrees: none negative, partial sums of (d - 1) >= 0
        # before the last vertex and -1 at it.  `pending` counts the vertices
        # announced and not yet read: 1 for the root, d - 1 more per vertex.
        pending = 1
        for d in self.degrees:
            if d < 0 or not pending:
                why = "a negative out-degree" if d < 0 else "vertices after the tree closes"
                raise ValueError(f"degree sequence has {why}")
            pending += d - 1
        if pending:
            raise ValueError("degree sequence does not close the tree at its last vertex")

    @property
    def n(self) -> int:
        return len(self.degrees)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """children[v] lists v's children in order.

        Read backwards, each vertex takes the roots of the subtrees that
        follow it as its children, first child on top of the stack.
        """
        degrees = self.degrees
        children: list[tuple[int, ...]] = [()] * len(degrees)
        roots: list[int] = []  # subtrees read so far, first one on top
        for v in range(len(degrees) - 1, -1, -1):
            d = degrees[v]
            if d:
                children[v] = tuple(roots[-1 : -d - 1 : -1])
                del roots[-d:]
            roots.append(v)
        return tuple(children)

    def parents(self) -> tuple[int, ...]:
        """Parent index per vertex; the root maps to -1."""
        par = [-1] * self.n
        for v, kids in enumerate(self.children):
            for c in kids:
                par[c] = v
        return tuple(par)

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v, d in enumerate(self.degrees) if not d)

    def subtree_sizes(self) -> tuple[int, ...]:
        sizes = [1] * self.n
        for v in range(self.n - 1, -1, -1):
            for c in self.children[v]:
                sizes[v] += sizes[c]
        return tuple(sizes)

    @staticmethod
    def from_degrees(degrees: Sequence[int]) -> OrderedTree:
        """Build from the out-degrees in depth-first order.

        Raises ValueError unless they are a tree's degrees.
        """
        return OrderedTree(tuple(degrees))

    @staticmethod
    def from_children(children: Sequence[Sequence[int]]) -> OrderedTree:
        """Build from children lists in depth-first positional form.

        Raises ValueError unless the labels are the depth-first order: the
        stack pops 0, 1, ..., n-1 in turn and is then empty.  Each child is
        popped after its parent, at its own label, so every child index c of
        v satisfies v < c < n without a check per child.
        """
        if not children:
            raise ValueError("a tree has at least its root")
        stack = [0]
        pop, push = stack.pop, stack.extend
        try:
            for v, kids in enumerate(children):
                if pop() != v:
                    raise ValueError("children lists are not in depth-first positional form")
                push(kids[::-1])
        except IndexError:
            raise ValueError("disconnected vertex set") from None
        if stack:
            raise ValueError(f"{len(stack)} child indices are out of range or repeated")
        return OrderedTree(tuple(map(len, children)))

    @staticmethod
    def from_nested(nested: Sequence) -> OrderedTree:
        """Build from nested sequences, e.g. [[], []] is the two-leaf cherry root."""
        degrees: list[int] = []
        stack: list[Sequence] = [nested]
        while stack:
            kids = list(stack.pop())
            degrees.append(len(kids))
            stack.extend(reversed(kids))
        return OrderedTree(tuple(degrees))

    def __str__(self) -> str:
        return format_tree(self)


def single_vertex() -> OrderedTree:
    return OrderedTree((0,))


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
    return OrderedTree.from_children(children)


def format_tree(t: OrderedTree) -> str:
    """Nested parentheses: "(" on entering a vertex, ")" after its subtree.

    A leaf closes itself and every ancestor whose last child it ends.
    """
    out: list[str] = []
    open_kids: list[int] = []  # children still to enter, per open vertex
    for d in t.degrees:
        if d:
            out.append("(")
            open_kids.append(d)
            continue
        closed = 1
        while open_kids:
            open_kids[-1] -= 1
            if open_kids[-1]:
                break
            open_kids.pop()
            closed += 1
        out.append("(" + ")" * closed)
    return "".join(out)


# ---------------------------------------------------------------------------
# queue encoding


def encode(t: OrderedTree) -> tuple[int, ...]:
    """Out-degree minus one along the depth-first walk."""
    return tuple(d - 1 for d in t.degrees)


def decode(seq: Sequence[int]) -> OrderedTree:
    """Inverse of encode; raises ValueError unless the input is a proper excursion."""
    try:
        return OrderedTree(tuple(x + 1 for x in seq))
    except ValueError:
        raise ValueError(f"not a valid depth-first queue: {tuple(seq)!r}") from None


def parse_queue(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.strip().split(",") if p.strip())


def format_queue(seq: Sequence[int]) -> str:
    return ",".join(str(x) for x in seq)


# ---------------------------------------------------------------------------
# marked-vertex operations


def count_marked(t: OrderedTree, marks: DegreeSet) -> int:
    """Number of vertices whose out-degree lies in the set.

    One C-level `tuple.count` pass over the degrees per listed member: a
    finite set sums the passes, a cofinite set takes them from the number of
    vertices, so `all` makes none.  A set that lists more than two degrees
    first finds the largest degree, in one more pass, and skips the members
    above it, so it makes at most one pass per degree up to the tree's
    largest; with two listed, that pass would cost about what it could save.
    """
    require_zero(marks)
    degrees = t.degrees
    members = marks.members
    if len(members) > 2:
        top = max(degrees)
        members = [k for k in members if k <= top]
    listed = sum(map(degrees.count, members))
    return len(degrees) - listed if marks.cofinite else listed


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
    grows = [bool(d) and d in marks for d in t.degrees]
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
    """Canonical string equal for two trees iff they agree as unordered rooted trees.

    The AHU form (Aho, Hopcroft and Ullman 1974): bottom up, a vertex's key
    is its children's keys, sorted, between one pair of parentheses.  One
    reverse pass over the degrees keeps the newest subtree's key in `top` and
    the keys before it on a stack, over one "" sentinel; a vertex of degree d
    takes `top` and d - 1 keys off the stack and builds one string.  Leaves
    and single children need no sort, and two children are joined in order.
    """
    keys: list[str] = []
    push = keys.append
    pop = keys.pop
    top = ""
    for d in reversed(t.degrees):
        if not d:
            push(top)
            top = "()"
        elif d == 1:
            top = f"({top})"
        elif d == 2:
            a = pop()
            top = f"({top}{a})" if top <= a else f"({a}{top})"
        else:
            sub = keys[1 - d:]
            del keys[1 - d:]
            sub.append(top)
            sub.sort()
            top = "(" + "".join(sub) + ")"
    return top


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

from fractions import Fraction

import pytest

from gwtrees.degree_sets import DegreeSet
from gwtrees.offspring import binary_dist, collapsed_offspring, from_probs, geometric_dist
from gwtrees.transforms import collapse, lifeline_coloring, lifeline_tree
from gwtrees.trees import (
    OrderedTree,
    canonical_key,
    count_marked,
    decode,
    encode,
    format_tree,
    iter_trees,
    parse_tree,
    single_vertex,
)

A0 = DegreeSet.of(0)
A02 = DegreeSet.of(0, 2)
ALL = DegreeSet.all_degrees()


def gw_weight(dist, t):
    mass = Fraction(1)
    for d in t.degrees:
        mass *= dist.pmf(d)
    return mass


def test_collapse_examples():
    assert collapse((1, -1, -1), A0) == (0, -1)
    assert collapse((1, -1, -1), ALL) == (1, -1, -1)
    assert collapse((-1,), A0) == (-1,)
    assert collapse((0, 1, -1, -1), A02) == (1, -1, -1)
    for bad in [(1, -1, 1), (1, -3, 1), (0, 0), (-1, -1)]:
        with pytest.raises(ValueError):
            collapse(bad, A0)
    with pytest.raises(ValueError):
        collapse((1, -1, -1), DegreeSet.of(2))  # degree 0 must be marked


def test_collapse_marked_count_becomes_length():
    for marks in (A0, A02, ALL):
        for t in iter_trees(9):
            assert len(collapse(encode(t), marks)) == count_marked(t, marks)


def test_hitting_rule_fires_at_blocks_end():
    # with degree zero marked no block's partial sum reaches -1 before the
    # block's marked end, and each block sums to its collapsed value
    for marks in (A0, A02):
        for t in iter_trees(8):
            q = encode(t)
            sums = []
            total = 0
            for x in q:
                total += x
                if x + 1 in marks:
                    sums.append(total)
                    total = 0
                else:
                    assert total != -1, "first passage beat the marked end"
            assert total == 0
            assert tuple(sums) == collapse(q, marks)


def test_lifeline_coloring_examples():
    assert lifeline_coloring(single_vertex()) == (0,)
    assert lifeline_coloring(parse_tree("(()())")) == (0, 1, 2)


def figure_tree():
    f = [[], []]
    e = [f, []]
    d = [[]]
    a = [d, e]
    b = [[]]
    c = []
    return OrderedTree.from_nested([a, b, c])


def test_lifeline_coloring_six_leaf_figure():
    t = figure_tree()
    assert lifeline_coloring(t) == (0, 1, 1, 1, 2, 2, 2, 3, 4, 5, 5, 6)


def test_lifeline_tree_six_leaf_figure():
    t = figure_tree()
    assert lifeline_tree(t) == OrderedTree.from_nested([[[], []], [], []])


def test_lifeline_tree_small():
    assert lifeline_tree(single_vertex()) == single_vertex()
    assert lifeline_tree(parse_tree("(()())")) == parse_tree("(())")


def test_coloring_spans_leaf_prefixes():
    # edges coloured <= k are exactly the subtree spanned by the first k leaves
    for t in iter_trees(8):
        colors = lifeline_coloring(t)
        parents = t.parents()
        leaves = t.leaves()
        for k in range(1, len(leaves) + 1):
            spanned = set()
            for leaf in leaves[:k]:
                v = leaf
                while v != 0 and v not in spanned:
                    spanned.add(v)
                    v = parents[v]
            low = {v for v in range(1, t.n) if colors[v] <= k}
            assert low == spanned


def test_exactly_one_junction_edge_per_color():
    # the edge into v is coincident to the edges at v and at its parent
    for t in iter_trees(8):
        colors = lifeline_coloring(t)
        parents = t.parents()
        k = len(t.leaves())
        for j in range(2, k + 1):
            junctions = 0
            for v in range(1, t.n):
                if colors[v] != j:
                    continue
                up = parents[v]
                touching = {colors[c] for c in t.children[v]}
                touching.update(colors[c] for c in t.children[up])
                if up != 0:
                    touching.add(colors[up])
                touching.discard(j)
                if any(c < j for c in touching):
                    junctions += 1
            assert junctions == 1, (format_tree(t), j)


def test_lifeline_pushforward_matches_collapsed_law_binary():
    dist = binary_dist()
    zeta = geometric_dist()
    push = {}
    for t in iter_trees(9, degree_ok=lambda d: d in (0, 2)):
        s = lifeline_tree(t)
        push[s] = push.get(s, Fraction(0)) + gw_weight(dist, t)
    for s in iter_trees(5):
        assert push.get(s, Fraction(0)) == gw_weight(zeta, s)


def test_queue_collapse_pushforward_matches_collapsed_law_mixed():
    # a law with marked degree two: every source tree with n marked vertices
    # fits within n + (n-1)//2 vertices, so the pushforward is complete
    dist = from_probs([Fraction(3, 5), Fraction(0), Fraction(1, 5), Fraction(1, 5)])
    zeta = collapsed_offspring(dist, A02, 16)
    push = {}
    for t in iter_trees(6):
        mass = gw_weight(dist, t)
        if mass == 0:
            continue
        s = decode(collapse(encode(t), A02))
        push[s] = push.get(s, Fraction(0)) + mass
    for s in iter_trees(4):
        expect = Fraction(1)
        for d in s.degrees:
            expect *= zeta[d]
        assert push.get(s, Fraction(0)) == expect


def test_lifeline_vs_collapse_same_unordered_law():
    dist = binary_dist()
    a: dict = {}
    b: dict = {}
    for t in iter_trees(9, degree_ok=lambda d: d in (0, 2)):
        mass = gw_weight(dist, t)
        a_key = canonical_key(lifeline_tree(t))
        b_key = canonical_key(decode(collapse(encode(t), A0)))
        a[a_key] = a.get(a_key, Fraction(0)) + mass
        b[b_key] = b.get(b_key, Fraction(0)) + mass
    assert a == b

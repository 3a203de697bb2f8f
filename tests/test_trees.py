import pytest

from gwtrees.degree_sets import DegreeSet
from gwtrees.trees import (
    OrderedTree,
    canonical_key,
    count_marked,
    decode,
    depths,
    encode,
    format_queue,
    format_tree,
    is_excursion,
    iter_trees,
    leaf_augment,
    parse_queue,
    parse_tree,
    queue_marked_count,
    root_partition,
    single_vertex,
    first_passage,
)

A0 = DegreeSet.of(0)
ALL = DegreeSet.all_degrees()
A01 = DegreeSet.of(0, 1)

CHERRY = parse_tree("(()())")
PATH3 = parse_tree("((()))")


def test_encode_examples():
    assert encode(single_vertex()) == (-1,)
    assert encode(CHERRY) == (1, -1, -1)
    assert encode(PATH3) == (0, 0, -1)


def test_decode_examples():
    assert decode((-1,)) == single_vertex()
    assert decode((1, -1, -1)) == CHERRY
    with pytest.raises(ValueError):
        decode((1, -1, 1))  # partial sums never reach -1
    with pytest.raises(ValueError):
        decode((-1, 0))  # hits -1 before the end
    with pytest.raises(ValueError):
        decode((1, -2, 0))  # entry below -1
    with pytest.raises(ValueError):
        decode((0, 0))  # never closes


def test_from_degrees_builds_every_tree_from_its_degrees():
    for t in iter_trees(8):
        assert OrderedTree.from_degrees(t.degrees()) == t
    star = OrderedTree.from_degrees([5000] + [0] * 5000)
    assert star.children[0] == tuple(range(1, 5001))
    assert decode((4999,) + (-1,) * 5000) == star


@pytest.mark.parametrize("degrees", [(), (1,), (0, 0), (2, 0), (1, 1, 0, 0), (-1,), (1, -1, 0)])
def test_from_degrees_rejects_sequences_that_do_not_close_at_the_end(degrees):
    with pytest.raises(ValueError):
        OrderedTree.from_degrees(degrees)


def test_first_passage():
    assert first_passage((-1,)) == 1
    assert first_passage((1, -1, -1)) == 3
    assert first_passage((0, 1, 0)) is None


def test_bijection_exhaustive():
    seen = set()
    for t in iter_trees(10):
        q = encode(t)
        assert is_excursion(q)
        assert first_passage(q) == t.n
        assert decode(q) == t
        seen.add(q)
    # decode is injective back onto the same set of queues
    assert len(seen) == 1 + 1 + 2 + 5 + 14 + 42 + 132 + 429 + 1430 + 4862


def test_count_marked_examples():
    assert count_marked(CHERRY, A0) == 2
    assert count_marked(CHERRY, ALL) == 3
    assert count_marked(PATH3, A01) == 3
    with pytest.raises(ValueError):
        count_marked(CHERRY, DegreeSet.of(1))  # degree 0 must be marked


def test_queue_marked_count_matches_tree_count():
    for marks in (A0, A01, DegreeSet.of(0, 2), ALL):
        for t in iter_trees(10):
            assert queue_marked_count(encode(t), marks) == count_marked(t, marks)


def test_root_partition_examples():
    assert root_partition(CHERRY, A0) == (1, 1)
    assert root_partition(CHERRY, ALL) == (1, 1)
    assert root_partition(single_vertex(), A0) == ()


def test_root_partition_sum_rule():
    for marks in (A0, DegreeSet.of(0, 2), ALL):
        for t in iter_trees(9):
            parts = root_partition(t, marks)
            root_marked = 1 if t.degree(0) in marks else 0
            assert sum(parts) + root_marked == count_marked(t, marks)
            assert parts == tuple(sorted(parts, reverse=True))


def test_leaf_augment():
    assert leaf_augment(CHERRY, A0) == CHERRY  # root degree 2 is unmarked
    grown = leaf_augment(CHERRY, ALL)
    assert grown.degree(0) == 3
    assert count_marked(grown, A0) == 3
    assert leaf_augment(single_vertex(), ALL) == single_vertex()


def test_leaf_augment_count_identity():
    for marks in (A0, DegreeSet.of(0, 2), ALL):
        for t in iter_trees(9):
            assert count_marked(leaf_augment(t, marks), A0) == count_marked(t, marks)


def test_depths():
    assert depths(single_vertex()) == (0,)
    assert depths(CHERRY) == (0, 1, 1)
    assert depths(PATH3) == (0, 1, 2)


def test_canonical_key_symmetry():
    left = parse_tree("(()(()))")  # leaf then path
    right = parse_tree("((())())")  # path then leaf
    assert canonical_key(left) == canonical_key(right)
    assert canonical_key(PATH3) != canonical_key(CHERRY)
    assert canonical_key(CHERRY) == canonical_key(decode((1, -1, -1)))


def test_canonical_key_exhaustive_classes():
    # keys must be constant on orbits of child reordering: check via sorted
    # nested normal form
    def unordered_form(t: OrderedTree):
        nested = [None] * t.n
        for v in range(t.n - 1, -1, -1):
            nested[v] = tuple(sorted(nested[c] for c in t.children[v]))
        return nested[0]

    forms = {}
    for t in iter_trees(8):
        forms.setdefault(unordered_form(t), set()).add(canonical_key(t))
    for keys in forms.values():
        assert len(keys) == 1
    assert len(forms) == len(set().union(*forms.values()))


def test_text_roundtrip():
    for t in iter_trees(7):
        assert parse_tree(format_tree(t)) == t
    assert parse_queue("1,-1,-1") == (1, -1, -1)
    assert format_queue((0, -1)) == "0,-1"
    with pytest.raises(ValueError):
        parse_tree("(()")
    with pytest.raises(ValueError):
        parse_tree("")


def test_positional_validation():
    with pytest.raises(ValueError):
        OrderedTree(((2,), (), ()))  # first child must be the next index
    with pytest.raises(ValueError):
        OrderedTree(((1,), (0,)))  # cycle

import pytest

from gwtrees.degree_sets import DegreeSet
from gwtrees.offspring import geometric_dist
from gwtrees.samplers import SamplerTables, sample_conditioned
from gwtrees.streams import RandomStream
from gwtrees.trees import (
    OrderedTree,
    canonical_key,
    count_marked,
    decode,
    depths,
    encode,
    format_queue,
    format_tree,
    iter_trees,
    leaf_augment,
    parse_queue,
    parse_tree,
    root_partition,
    single_vertex,
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
        assert OrderedTree.from_degrees(t.degrees) == t
    star = OrderedTree.from_degrees([5000] + [0] * 5000)
    assert star.children[0] == tuple(range(1, 5001))
    assert decode((4999,) + (-1,) * 5000) == star


@pytest.mark.parametrize(
    "degrees", [(), (1,), (0, 0), (2, 0), (1, 1, 0, 0), (-1,), (1, -1, 0), (3, -1, 1, 0)]
)
def test_from_degrees_rejects_sequences_that_do_not_close_at_the_end(degrees):
    with pytest.raises(ValueError):
        OrderedTree.from_degrees(degrees)


def test_bijection_exhaustive():
    seen = set()
    for t in iter_trees(10):
        q = encode(t)
        assert len(q) == t.n and min(q) >= -1
        assert [sum(q[:i]) for i in range(1, t.n + 1)].index(-1) == t.n - 1
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


def test_marked_queue_entries_match_tree_count():
    for marks in (A0, A01, DegreeSet.of(0, 2), ALL):
        for t in iter_trees(10):
            q = encode(t)
            assert count_marked(decode(q), marks) == sum(1 for x in q if x + 1 in marks)


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
        OrderedTree.from_children(((2,), (), ()))  # first child must be the next index
    with pytest.raises(ValueError):
        OrderedTree.from_children(((1,), (0,)))  # cycle


# ---------------------------------------------------------------------------
# the per-tree passes against their plain per-vertex forms


def _count_marked_reference(t: OrderedTree, marks: DegreeSet) -> int:
    return sum(1 for kids in t.children if len(kids) in marks)


def _canonical_key_reference(t: OrderedTree) -> str:
    keys: list[str] = [""] * t.n
    for v in range(t.n - 1, -1, -1):
        keys[v] = "(" + "".join(sorted(keys[c] for c in t.children[v])) + ")"
    return keys[0]


def _validate_reference(children) -> None:
    """The depth-first check with a range test per child."""
    n = len(children)
    if n == 0:
        raise ValueError("a tree has at least its root")
    seen = 0
    stack = [0]
    while stack:
        v = stack.pop()
        if v != seen:
            raise ValueError("children lists are not in depth-first positional form")
        seen += 1
        kids = children[v]
        for c in kids:
            if not (v < c < n):
                raise ValueError(f"child index {c} of vertex {v} out of range")
        stack.extend(reversed(kids))
    if seen != n:
        raise ValueError("disconnected vertex set")


COUNT_SETS = [DegreeSet.parse(spec) for spec in ("0", "0,2", "0,1,3", "geq:3", "not:1", "all")]


@pytest.fixture(scope="module")
def float_trees():
    """30 float trees at n = 2000 for each of geometric/all, {0} and {0,2}."""
    out = []
    for spec in ("all", "0", "0,2"):
        tables = SamplerTables(geometric_dist(), DegreeSet.parse(spec), 2000, exact=False)
        stream = RandomStream(15)
        out += [sample_conditioned(tables, stream) for _ in range(30)]
    return out


def test_count_marked_matches_per_vertex_count():
    for t in iter_trees(8):
        for marks in COUNT_SETS:
            assert count_marked(t, marks) == _count_marked_reference(t, marks)


def test_count_marked_matches_per_vertex_count_on_float_trees(float_trees):
    for t in float_trees:
        for marks in COUNT_SETS:
            assert count_marked(t, marks) == _count_marked_reference(t, marks)


def test_canonical_key_is_byte_identical_to_the_generator_form():
    for t in iter_trees(8):
        assert canonical_key(t) == _canonical_key_reference(t)


def test_canonical_key_is_byte_identical_on_float_trees(float_trees):
    for t in float_trees:
        assert canonical_key(t) == _canonical_key_reference(t)


def test_from_children_inverts_children(float_trees):
    for t in list(iter_trees(8)) + float_trees:
        assert OrderedTree.from_children(t.children) == t


@pytest.mark.parametrize("exact", [False, True])
def test_hot_path_never_builds_children(exact):
    """Sampling, counting, hashing and printing read only the degrees."""
    n = 30 if exact else 2000
    tables = SamplerTables(geometric_dist(), A0, n, exact=exact)
    t = sample_conditioned(tables, RandomStream(16))
    assert count_marked(t, A0) == n
    canonical_key(t)
    format_tree(t)
    assert "children" not in t.__dict__
    assert t.children and "children" in t.__dict__


def _corruptions(t: OrderedTree):
    """Children lists near t: reordered, re-pointed, duplicated, dropped or extended."""
    n, ch = t.n, list(t.children)

    def with_kids(v, kids):
        return tuple(ch[:v] + [tuple(kids)] + ch[v + 1 :])

    for v, kids in enumerate(ch):
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                swapped = list(kids)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                yield with_kids(v, swapped)
            for bad in (n, -1, v):
                yield with_kids(v, kids[:i] + (bad,) + kids[i + 1 :])
            yield with_kids(v, kids[: i + 1] + (kids[i],) + kids[i + 1 :])
            yield with_kids(v, kids[:i] + kids[i + 1 :])
        yield with_kids(v, kids + (v,))
        yield with_kids(v, kids + (n,)) + ((),)  # a new last vertex, hung from v
    yield tuple(ch) + ((),)  # a new vertex hung from nothing


def _outcome(check, children) -> bool:
    """True if accepted; only ValueError counts as a rejection."""
    try:
        check(children)
    except ValueError:
        return False
    return True


def test_validation_rejects_exactly_what_the_per_child_check_rejects():
    accepted = rejected = 0
    for t in iter_trees(6):
        for children in _corruptions(t):
            want = _outcome(_validate_reference, children)
            assert _outcome(OrderedTree.from_children, children) == want, children
            accepted += want
            rejected += not want
    assert accepted and rejected

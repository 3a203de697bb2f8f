import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gwtrees.degree_sets import DegreeSet
from gwtrees.exact import enumerate_mass
from gwtrees.offspring import binary_dist, from_probs, geometric_dist
from gwtrees.partitions import block_count
from gwtrees.samplers import (
    QFamily,
    SamplerTables,
    TryBudgetExceeded,
    VertexBudgetExceeded,
    augmented_family,
    draw_offspring,
    family_from_tables,
    sample_conditioned,
    sample_conditioned_rejection,
    sample_gw,
    sample_hat_offspring,
    sample_marked_depth,
    sample_markov_branching,
    split_measure,
)
from gwtrees.scaling import chi_square_test, depth_law
from gwtrees.streams import RandomStream
from gwtrees.trees import canonical_key, count_marked, leaf_augment, parse_tree, single_vertex

A0 = DegreeSet.of(0)
ALL = DegreeSet.all_degrees()


def stream(seed=1234):
    return RandomStream(seed)


def test_draw_offspring_law():
    s = stream()
    counts = Counter(draw_offspring(binary_dist(), s) for _ in range(20000))
    assert set(counts) == {0, 2}
    assert abs(counts[0] / 20000 - 0.5) < 0.02
    counts = Counter(draw_offspring(geometric_dist(), s) for _ in range(20000))
    stat, df, p = chi_square_test(counts, {k: 0.5**(k + 1) for k in range(12)}, 20000)
    assert p > 0.001


def test_sample_gw_degenerate_and_support():
    s = stream(7)
    assert sample_gw(from_probs([Fraction(1)]), s, 5) == single_vertex()
    got = 0
    while got < 100:
        try:
            t = sample_gw(binary_dist(), s, 2000)
        except VertexBudgetExceeded:
            continue
        got += 1
        assert set(t.degrees()) <= {0, 2}
        assert t.n % 2 == 1


def test_sample_gw_subcritical_mean_size():
    # subcritical with mean offspring 1/2: expected total size 2
    sub = from_probs([Fraction(3, 4), Fraction(0), Fraction(1, 4)])
    s = stream(11)
    m = 20000
    sizes = [sample_gw(sub, s, 10**6).n for _ in range(m)]
    mean = sum(sizes) / m
    se = math.sqrt(sum((x - mean) ** 2 for x in sizes) / (m - 1) / m)
    assert abs(mean - 2) < 3 * se + 1e-9
    # the size table gives the same expectation, up to a tiny truncated tail
    from gwtrees.exact import marked_count_pmf

    table = marked_count_pmf(sub, ALL, 120)
    partial_mean = sum(n * p for n, p in enumerate(table))
    assert abs(float(partial_mean) - 2) < 1e-6


def test_conditioned_deterministic_cases():
    s = stream(3)
    tab = SamplerTables(binary_dist(), A0, 2)
    for _ in range(25):
        assert sample_conditioned(tab, s) == parse_tree("(()())")
    tab = SamplerTables(binary_dist(), ALL, 3)
    for _ in range(25):
        assert sample_conditioned(tab, s) == parse_tree("(()())")


def test_conditioned_two_shapes_balanced():
    s = stream(5)
    tab = SamplerTables(binary_dist(), A0, 3)
    counts = Counter(str(sample_conditioned(tab, s)) for _ in range(10000))
    assert set(counts) == {"((()())())", "(()(()()))"}
    for v in counts.values():
        assert abs(v - 5000) < 3 * 50


def test_conditioned_count_always_exact():
    s = stream(17)
    for dist, marks, n in [
        (binary_dist(), A0, 6),
        (geometric_dist(), A0, 4),
        (geometric_dist(), DegreeSet.of(0, 2), 5),
        (geometric_dist(), ALL, 7),
    ]:
        tab = SamplerTables(dist, marks, n)
        for _ in range(300):
            assert count_marked(sample_conditioned(tab, s), marks) == n


def test_conditioned_rejects_impossible_size():
    with pytest.raises(ValueError):
        SamplerTables(binary_dist(), ALL, 4)  # binary trees have odd size


def test_rejection_sampler_agrees():
    s = stream(23)
    assert sample_conditioned_rejection(binary_dist(), A0, 2, s, 500, 3) == parse_tree("(()())")
    with pytest.raises(TryBudgetExceeded):
        sample_conditioned_rejection(binary_dist(), A0, 5, s, 0, 100)
    # two-sampler chi-square at n=3
    tab = SamplerTables(binary_dist(), A0, 3)
    direct = Counter(canonical_key(sample_conditioned(tab, s)) for _ in range(4000))
    rej = Counter(canonical_key(sample_conditioned_rejection(binary_dist(), A0, 3, s, 10**6, 5)) for _ in range(4000))
    total, shapes = enumerate_mass(binary_dist(), A0, 3, 5)
    expected = {k: float(v / total) for k, v in shapes.items()}
    for observed in (direct, rej):
        _stat, _df, p = chi_square_test(observed, expected, 4000)
        assert p > 0.001


def test_split_family_values():
    fam = family_from_tables(SamplerTables(binary_dist(), A0, 4))
    assert fam.splits[2] == {(1, 1): 1}
    assert fam.splits[3] == {(2, 1): 1}
    # of the five plane trees with four leaves, four split (3,1) at the root
    assert fam.splits[4] == {(3, 1): Fraction(4, 5), (2, 2): Fraction(1, 5)}
    assert fam.q1_empty == 1
    fam_all = family_from_tables(SamplerTables(binary_dist(), ALL, 3))
    assert fam_all.splits[3] == {(1, 1): 1}
    fam_geo = family_from_tables(SamplerTables(geometric_dist(), A0, 3))
    assert fam_geo.q1_empty == Fraction(3, 4)
    for n, atoms in fam_geo.splits.items():
        assert sum(atoms.values()) == 1


def test_split_family_block_marginal_formula():
    # marginal of the block count equals degree weight times the convolution ratio
    tables = SamplerTables(geometric_dist(), DegreeSet.of(0, 2), 6)
    for n in (3, 4, 5, 6):
        atoms = split_measure(tables, n)
        marginal: dict[int, Fraction] = {}
        for lam, w in atoms.items():
            p = block_count(lam)
            marginal[p] = marginal.get(p, Fraction(0)) + w
        for p, got in marginal.items():
            target = n - (1 if p in tables.marks else 0)
            want = tables.dist.pmf(p) * tables.tau(p)[target] / tables.count[n]
            assert got == want


def test_markov_branching_matches_conditioned_law():
    s = stream(29)
    tables = SamplerTables(binary_dist(), A0, 4)
    fam = family_from_tables(tables)
    total, shapes = enumerate_mass(binary_dist(), A0, 4, 7)
    expected = {k: float(v / total) for k, v in shapes.items()}
    observed = Counter(canonical_key(sample_markov_branching(fam, 4, s)) for _ in range(6000))
    _stat, _df, p = chi_square_test(observed, expected, 6000)
    assert p > 0.001


def test_markov_branching_deterministic_family():
    det = QFamily(A0, {3: {(2, 1): Fraction(1)}, 2: {(1, 1): Fraction(1)}}, Fraction(1))
    det.validate()
    s = stream(31)
    want = canonical_key(parse_tree("((()())())"))
    for _ in range(20):
        assert canonical_key(sample_markov_branching(det, 3, s)) == want


def test_markov_branching_stalk_law_size_one():
    # with unmarked degree one, the size-1 tree is a geometric stalk
    fam = family_from_tables(SamplerTables(geometric_dist(), A0, 2))
    s = stream(37)
    lengths = Counter(sample_markov_branching(fam, 1, s).n - 1 for _ in range(20000))
    expected = {j: 0.75 * 0.25**j for j in range(10)}
    _stat, _df, p = chi_square_test(lengths, expected, 20000)
    assert p > 0.001


def test_qfamily_validation_errors():
    with pytest.raises(ValueError):
        QFamily(A0, {2: {(1, 1): Fraction(1, 2)}}, Fraction(1)).validate()  # not normalised
    with pytest.raises(ValueError):
        QFamily(A0, {2: {(2,): Fraction(1)}}, Fraction(1)).validate()  # all mass on whole block
    with pytest.raises(ValueError):
        QFamily(A0, {3: {(2, 1): Fraction(1)}}, Fraction(1)).validate()  # part 2 undefined
    with pytest.raises(ValueError):
        QFamily(A0, {2: {(1,): Fraction(1)}}, Fraction(1)).validate()  # wrong total


def test_augmented_family_cases():
    fam = family_from_tables(SamplerTables(binary_dist(), A0, 3))
    aug = augmented_family(fam)
    assert aug.splits[2] == {(1, 1): 1}  # block count 2 unmarked: untouched
    fam_all = family_from_tables(SamplerTables(binary_dist(), ALL, 3))
    aug_all = augmented_family(fam_all)
    assert aug_all.splits[3] == {(1, 1, 1): 1}  # marked block count: extra part
    assert aug_all.q1_empty == 1
    assert aug_all.marks == A0


def test_augmentation_lemma_by_sampling():
    # leaf-augmenting a branching tree matches sampling from the augmented family
    s = stream(41)
    tables = SamplerTables(binary_dist(), ALL, 5)
    fam = family_from_tables(tables)
    aug = augmented_family(fam)
    a = Counter(canonical_key(leaf_augment(sample_markov_branching(fam, 5, s), ALL)) for _ in range(4000))
    b = Counter(canonical_key(sample_markov_branching(aug, 5, s)) for _ in range(4000))
    keys = sorted(set(a) | set(b))
    expected = {k: b[k] / 4000 for k in keys}
    _stat, _df, p = chi_square_test(a, expected, 4000)
    assert p > 0.001


def test_hat_offspring_sampler_mean():
    s = stream(43)
    vals = [sample_hat_offspring(binary_dist(), A0, s) for _ in range(20000)]
    mean = sum(vals) / len(vals)
    assert abs(mean - 1) < 0.05


# exact depth law of a uniform leaf of a binary tree with 5 leaves, from the
# 14 such trees: P(depth = 1, 2, 3, 4)
DEPTH_LAW_BINARY_5 = {1: Fraction(1, 7), 2: Fraction(2, 7), 3: Fraction(12, 35), 4: Fraction(8, 35)}


def _depth_law_p(counts: Counter, m: int) -> float:
    _stat, _df, p = chi_square_test(counts, DEPTH_LAW_BINARY_5, m)
    return p


def test_sample_marked_depth_matches_tree_route():
    # both routes are tested against the exact law, not against each other
    law = depth_law(binary_dist(), A0, 5)
    assert np.allclose(law, [float(DEPTH_LAW_BINARY_5.get(k, 0)) for k in range(5)], atol=1e-12)
    s = stream(47)
    tab = SamplerTables(binary_dist(), A0, 5)
    from gwtrees.trees import depths

    direct = Counter()
    for _ in range(4000):
        t = sample_conditioned(tab, s)
        d = depths(t)
        marked = [v for v in range(t.n) if t.degree(v) == 0]
        direct[d[marked[s.randbelow(len(marked))]]] += 1
    fast = Counter(sample_marked_depth(tab, s) for _ in range(4000))
    assert _depth_law_p(direct, 4000) > 0.001
    assert _depth_law_p(fast, 4000) > 0.001


def test_depth_check_rejects_uniform_child_descent():
    # the descent must step into a child with probability proportional to
    # its marked count; stepping into a uniform child changes the law
    def uniform_child_depth(tab, s):
        depth, size = 0, tab.n
        while True:
            p = tab.draw_root_degree(size, s)
            marked = tab.marked_degree[p]
            if marked and s.randbelow(size) == 0:
                return depth
            sizes = tab.draw_split_sizes(p, size - 1 if marked else size, s)
            size = sizes[s.randbelow(len(sizes))]
            depth += 1

    s = stream(47)
    tab = SamplerTables(binary_dist(), A0, 5)
    mutant = Counter(uniform_child_depth(tab, s) for _ in range(4000))
    assert _depth_law_p(mutant, 4000) < 1e-6


def test_stream_split_determinism():
    a = RandomStream(99).split("arm", 1)
    b = RandomStream(99).split("arm", 1)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    c = RandomStream(99).split("arm", 2)
    assert a.random() != c.random()


def test_exact_draws_match_fractions():
    # exact inversion must reproduce rational probabilities closely
    from gwtrees.streams import draw_cdf

    cum = [Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    s = stream(53)
    counts = Counter(draw_cdf(cum, s) for _ in range(30000))
    assert abs(counts[0] / 30000 - 1 / 3) < 0.01
    assert abs(counts[1] / 30000 - 1 / 6) < 0.01
    assert abs(counts[2] / 30000 - 1 / 2) < 0.01

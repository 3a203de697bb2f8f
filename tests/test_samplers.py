import dataclasses
import hashlib
import itertools
import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gwtrees import samplers
from gwtrees.degree_sets import DegreeSet
from gwtrees.exact import FLOAT_TABLE_ATOL, FLOAT_TABLE_RTOL, enumerate_mass, marked_count_fixed_point, marked_count_pmf
from gwtrees.offspring import binary_dist, collapsed_offspring, from_probs, geometric_dist
from gwtrees.partitions import block_count, distinct_arrangements, partitions_into
from gwtrees.samplers import (
    QFamily,
    SamplerTables,
    TryBudgetExceeded,
    VertexBudgetExceeded,
    augmented_family,
    draw_offspring,
    family_from_tables,
    marked_vertex_series,
    sample_conditioned,
    sample_conditioned_rejection,
    sample_gw,
    sample_hat_offspring,
    sample_marked_depth,
    sample_markov_branching,
    split_measure,
)
from gwtrees.scaling import chi_square_test, depth_law
from gwtrees.streams import (
    RandomStream,
    common_denominator,
    draw_cdf,
    draw_geometric,
    draw_weights,
    draw_weights_int,
)
from gwtrees.trees import OrderedTree, canonical_key, count_marked, leaf_augment, parse_tree, single_vertex

A0 = DegreeSet.of(0)
ALL = DegreeSet.all_degrees()
MIXED = from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)])


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
        assert set(t.degrees) <= {0, 2}
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


SHAPE_CASES = {
    # law/set: (law, set, n, vertex cap of the enumeration)
    "binary/0": (binary_dist(), "0", 4, 7),
    "geometric/0": (geometric_dist(), "0", 3, 11),
    "geometric/0,2": (geometric_dist(), "0,2", 3, 10),
    "mixed/0": (from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)]), "0", 5, 13),
    "geometric-3/5/0": (geometric_dist(Fraction(3, 5)), "0", 3, 11),
    "geometric/all": (geometric_dist(), "all", 5, 5),
}


def _shape_law_p(case: str, exact: bool, seed: int) -> float:
    """p-value of 4000 trees of one SHAPE_CASES case against the brute-force
    law of unordered shapes; shapes beyond the vertex cap fall in the
    chi-square's "other" cell."""
    dist, spec, n, cap = SHAPE_CASES[case]
    marks = DegreeSet.parse(spec)
    total, shapes = enumerate_mass(dist, marks, n, cap)
    size = marked_count_pmf(dist, marks, n)[n]
    assert total / size > Fraction(99, 100)
    expected = {k: float(w / size) for k, w in shapes.items()}
    tab = SamplerTables(dist, marks, n, exact=exact)
    s = stream(seed)
    m = 4000
    observed = Counter(canonical_key(sample_conditioned(tab, s)) for _ in range(m))
    _stat, _df, p = chi_square_test(observed, expected, m)
    return p


@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
def test_float_trees_match_enumerated_shape_laws(case):
    # float trees (blocks, tilt, multinomial rows, rotation, interiors).
    # mixed/0 at n = 4 is inadmissible: its block values are even and
    # cannot sum to 3
    assert _shape_law_p(case, exact=False, seed=131) > 0.001, case


@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
def test_exact_trees_match_enumerated_shape_laws(case):
    # exact trees (sequential values, rotation, exact interiors)
    assert _shape_law_p(case, exact=True, seed=173) > 0.001, case


def _value_sequence_law(dist, marks, n) -> dict:
    """Law of n i.i.d. collapsed values given that they sum to n - 1, as
    ordered tuples, enumerated in exact arithmetic."""
    zeta = collapsed_offspring(dist, marks, n - 1).coeffs(n - 1)
    weights = {}

    def walk(prefix, rest, w):
        if len(prefix) == n:
            if not rest:
                weights[tuple(prefix)] = w
            return
        for c in range(rest + 1):
            if zeta[c]:
                walk(prefix + [c], rest - c, w * zeta[c])

    walk([], n - 1, Fraction(1))
    total = sum(weights.values())
    return {k: w / total for k, w in weights.items()}


@pytest.mark.parametrize(
    "dist, spec, n",
    [(geometric_dist(), "all", 5), (geometric_dist(), "0", 5), (geometric_dist(), "0,2", 5), (binary_dist(), "0", 5), (MIXED, "0", 7)],
)
def test_sequential_exact_values_match_the_conditional_law(dist, spec, n):
    # the values drawn one at a time from their sequential conditionals,
    # before the rotation, against the law of n i.i.d. collapsed values
    # given their sum n - 1, as a law of ordered tuples
    marks = DegreeSet.parse(spec)
    expected = _value_sequence_law(dist, marks, n)
    assert len(expected) >= 10
    tab = SamplerTables(dist, marks, n)
    s = stream(179)
    m = 20000
    observed = Counter(tuple(tab._draw_values(s)) for _ in range(m))
    assert set(observed) <= set(expected)
    _stat, _df, p = chi_square_test(observed, {k: float(v) for k, v in expected.items()}, m)
    assert p > 0.001, spec


class _CountingStream(RandomStream):
    """A RandomStream that counts its 64-bit draws: one per exact inversion."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def getrandbits(self, k):
        self.draws += k == 64
        return super().getrandbits(k)


def test_binary_exact_trees_draw_only_their_values():
    # on binary/{0} every interior step has one possible degree, so a tree
    # takes the bits of its block values and no more, at most n - 1 draws;
    # on geometric/{0} the interiors draw too
    n = 40
    for dist, certain in ((binary_dist(), True), (geometric_dist(), False)):
        tab = SamplerTables(dist, A0, n)
        values, trees = _CountingStream(71), _CountingStream(71)
        for _ in range(30):
            before = values.draws
            tab._draw_values(values)
            assert values.draws - before <= n - 1
            assert count_marked(sample_conditioned(tab, trees), A0) == n
        assert (values.draws == trees.draws) == certain
        assert (values.getrandbits(64) == trees.getrandbits(64)) == certain
        assert all(len(steps) == 1 for steps in tab._interior_cum.values()) == certain


def test_float_root_degree_matches_exact_law_at_n_200():
    # the root is the first vertex of the rotated block sequence, so its
    # degree checks the rotation at a size no enumeration reaches: against
    # xi_p * tau_p(n - [p in A]) / count[n] from exact tables
    n = 200
    marks = DegreeSet.of(0, 2)
    exact = SamplerTables(geometric_dist(), marks, n)
    law = {}
    for p in itertools.count():
        law[p] = exact.dist.pmf(p) * exact.tau(p)[n - 1 if exact.marked_degree[p] else n] / exact.count[n]
        if 1 - sum(law.values()) < Fraction(1, 10**9):
            break
    tab = SamplerTables(geometric_dist(), marks, n, exact=False)
    s = stream(137)
    m = 2000
    observed = Counter(sample_conditioned(tab, s).degree(0) for _ in range(m))
    _stat, df, p = chi_square_test(observed, {k: float(v) for k, v in law.items()}, m)
    assert df >= 8 and p > 0.001


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


def _reference_split_measure(tables, m):
    """Root-split law by the partition generator, one atom rebuilt at a
    time: the former implementation, kept as the reference."""
    z = tables.count[m]
    nums = [c.numerator for c in tables.count]
    dens = [c.denominator for c in tables.count]
    atoms = {}
    for p in tables.dist.support_iter(m):
        xi_p = tables.dist.pmf(p)
        if xi_p == 0:
            continue
        target = m - (1 if p in tables.marks else 0)
        for lam in partitions_into(target, p, part_ok=tables.admissible):
            num = distinct_arrangements(lam) * xi_p.numerator * z.denominator
            den = xi_p.denominator * z.numerator
            for part in lam:
                num *= nums[part]
                den *= dens[part]
            atoms[lam] = Fraction(num, den)
    assert sum(atoms.values()) == 1
    return atoms


SPLIT_LAWS = {
    "binary": binary_dist(),
    "geometric": geometric_dist(),
    "mixed": from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)]),
    "coprime": from_probs([Fraction(1, 2), Fraction(1, 5), Fraction(1, 6), Fraction(2, 15)]),
    # degrees 2 and 5 only: the largest degree sits far below the target
    # sizes, so the part-count bound prunes, and degrees 3 and 4 are skipped
    "gapped": from_probs([Fraction(13, 20), Fraction(0), Fraction(1, 4), Fraction(0), Fraction(0), Fraction(1, 10)]),
}


@pytest.mark.parametrize("law", sorted(SPLIT_LAWS))
def test_split_measure_matches_partition_enumeration(law):
    # keys, exact values and their order, at every admissible size up to 24
    dist = SPLIT_LAWS[law]
    for spec in ("0", "0,1", "0,2", "all", "not:1,3"):
        marks = DegreeSet.parse(spec)
        table = marked_count_pmf(dist, marks, 24)
        tables = SamplerTables(dist, marks, max(m for m in range(25) if table[m]))
        for m in range(1, tables.n + 1):
            if tables.admissible(m):
                got = list(split_measure(tables, m).items())
                assert got == list(_reference_split_measure(tables, m).items()), (spec, m)


def test_split_measure_matches_partition_enumeration_on_the_benchmark_sweep():
    # the law and set of the benchmark's root-split sweep, to a larger size
    tables = SamplerTables(geometric_dist(), ALL, 28)
    for m in range(1, 29):
        got = list(split_measure(tables, m).items())
        assert got == list(_reference_split_measure(tables, m).items()), m


def test_split_measure_matches_partition_enumeration_on_the_statistics_arm():
    # binary/{0}, the criterion-5 statistics arm of the benchmark, at its
    # size: one degree, so every partition ends in the two-parts-left branch
    tables = SamplerTables(binary_dist(), A0, 100)
    for m in range(1, 101):
        if tables.admissible(m):
            got = list(split_measure(tables, m).items())
            assert got == list(_reference_split_measure(tables, m).items()), m


@pytest.mark.parametrize("spec", ["0", "0,2", "all"])
def test_split_measure_matches_partition_enumeration_on_the_gapped_law_to_40(spec):
    marks = DegreeSet.parse(spec)
    table = marked_count_pmf(SPLIT_LAWS["gapped"], marks, 40)
    tables = SamplerTables(SPLIT_LAWS["gapped"], marks, max(m for m in range(41) if table[m]))
    for m in range(1, tables.n + 1):
        if tables.admissible(m):
            got = list(split_measure(tables, m).items())
            assert got == list(_reference_split_measure(tables, m).items()), m


LAGRANGE_LAWS = {**SPLIT_LAWS, "geometric-2/3": geometric_dist(Fraction(2, 3)), "geometric-3/5": geometric_dist(Fraction(3, 5))}


@pytest.mark.parametrize("law", sorted(LAGRANGE_LAWS))
def test_lagrange_ints_scale_the_count_table(law):
    # count[j] = t_j / (D^j E^(j-1)) with integer t_j, (D, E) from the first
    # walk state of the collapsed law to order n - 1
    dist = LAGRANGE_LAWS[law]
    for spec in ("0", "0,1", "0,2", "all", "not:1,3", "0,3"):
        marks = DegreeSet.parse(spec)
        table = marked_count_pmf(dist, marks, 24)
        tables = SamplerTables(dist, marks, max(m for m in range(25) if table[m]))
        n = tables.n
        t, d, e = tables.lagrange_ints()
        _state, want_d, want_e = next(samplers._walk(collapsed_offspring(dist, marks, n - 1), 1, n - 1))
        assert (d, e) == (want_d, want_e)
        assert len(t) == n + 1 and t[0] == 0
        for j in range(1, n + 1):
            assert type(t[j]) is int and tables.count[j] == Fraction(t[j], d**j * e ** (j - 1)), (spec, j)
        assert tables.lagrange_ints() is tables.lagrange_ints()
        if (law, spec) in (("geometric", "0,3"), ("geometric-3/5", "not:1,3")):
            assert e == {"geometric": 24, "geometric-3/5": 2375}[law]


@pytest.mark.parametrize("law", sorted(LAGRANGE_LAWS))
def test_exact_count_equals_the_functional_equation(law):
    # the count read off the table's block rows against the route that never
    # builds the collapsed law
    dist = LAGRANGE_LAWS[law]
    for spec in ("0", "0,1", "0,2", "all", "not:1,3", "0,3"):
        marks = DegreeSet.parse(spec)
        table = marked_count_fixed_point(dist, marks, 24)
        n = max(m for m in range(25) if table[m])
        assert SamplerTables(dist, marks, n).count == table[: n + 1], spec


def test_an_exact_table_walks_the_collapsed_law_once(monkeypatch):
    # count, tau, the Lagrange integers, trees and root splits all read the
    # states of the one walk the table makes at construction
    walks = []
    walk = samplers._walk

    def counting(dist, k, top):
        walks.append((k, top))
        return walk(dist, k, top)

    monkeypatch.setattr(samplers, "_walk", counting)
    monkeypatch.setattr("gwtrees.exact._walk", counting)
    n = 12
    tables = SamplerTables(geometric_dist(), A0, n)
    s = stream(8)
    for _ in range(3):
        assert count_marked(sample_conditioned(tables, s), A0) == n
    tables.tau(2)
    tables.lagrange_ints()
    for m in range(1, n + 1):
        if tables.admissible(m):
            split_measure(tables, m)
    assert walks == [(n, n - 1)]


def test_lagrange_ints_need_the_whole_first_state():
    # the gcd of the first state cut at order 0 leaves D = 2 on coprime/all,
    # where the state to order n - 1 has D = 30: then t_2 = 2/5
    dist = SPLIT_LAWS["coprime"]
    tables = SamplerTables(dist, ALL, 24)
    t, d, e = tables.lagrange_ints()
    _state, short_d, short_e = next(samplers._walk(collapsed_offspring(dist, ALL, 0), 1, 0))
    assert (d, e, short_d, short_e) == (30, 1, 2, 1)
    assert tables.count[2] * short_d**2 * short_e == Fraction(2, 5)
    assert t[2] == tables.count[2] * d**2 * e


def test_split_measure_rejects_a_count_table_perturbed_in_lagrange_form():
    # count[3] + 1/(D^3 E^2) keeps t_3 an integer, so only the sum-to-one
    # check can see it; the Lagrange integers are derived from the count
    # table on the first split, so a table perturbed before it carries them
    t, d, e = SamplerTables(geometric_dist(), A0, 8).lagrange_ints()
    perturbed = SamplerTables(geometric_dist(), A0, 8)
    perturbed.count[3] += Fraction(1, d**3 * e**2)
    assert perturbed.lagrange_ints()[0][3] == t[3] + 1
    with pytest.raises(AssertionError, match="split weights at 8 sum to"):
        split_measure(perturbed, 8)


@pytest.mark.parametrize("entry, m", [(3, 8), (8, 8), (1, 2)])
def test_split_measure_rejects_a_perturbed_count_table(entry, m):
    # one count entry off by a factor 1001/1000, in a part (3, 1) or in the
    # size's own probability (8), before the first split: it no longer
    # scales to a Lagrange integer, or the weights no longer sum to one
    tables = SamplerTables(geometric_dist(), A0, 8)
    tables.count[entry] *= Fraction(1001, 1000)
    with pytest.raises(AssertionError, match="split weights"):
        split_measure(tables, m)


def test_split_measure_rejects_float_tables_and_inadmissible_sizes():
    with pytest.raises(ValueError):
        split_measure(SamplerTables(binary_dist(), A0, 6, exact=False), 4)
    with pytest.raises(ValueError):
        split_measure(SamplerTables(binary_dist(), ALL, 7), 4)


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
    # families hold exact rationals only
    with pytest.raises(ValueError, match="rational"):
        QFamily(A0, {2: {(1, 1): 1.0}}, Fraction(1)).validate()
    with pytest.raises(ValueError, match="rational"):
        QFamily(A0, {2: {(1, 1): Fraction(1)}}, 1.0).validate()


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
    # both routes are tested against the exact law, not against each other;
    # trees are drawn on exact tables, depths on float tables
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
    float_tab = SamplerTables(binary_dist(), A0, 5, exact=False)
    fast = Counter(sample_marked_depth(float_tab, s) for _ in range(4000))
    assert _depth_law_p(direct, 4000) > 0.001
    assert _depth_law_p(fast, 4000) > 0.001


def test_depth_check_rejects_uniform_child_descent():
    # a descent through the whole-tree draws must step into a child with
    # probability proportional to its marked count; stepping into a uniform
    # child changes the law, and the n=5 chi-square sees it
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


def test_depth_check_rejects_chain_without_size_bias():
    # the chain must step into size s' in proportion to G[s - s'] times
    # s' * count[s'], the subtree's trees with a pointed marked vertex;
    # weighting by count[s'] alone changes the law; the mutant reads the
    # exact series, the sampler draws on float tables
    tab = SamplerTables(binary_dist(), A0, 5)
    _w, g, stop = marked_vertex_series(tab)

    def unbiased_chain_depth(s):
        depth, size = 0, tab.n
        while True:
            weights = [stop[size], *(g[size - m] * tab.count[m] for m in range(1, size + 1))]
            size = draw_weights(weights, sum(weights), s)
            if not size:
                return depth
            depth += 1

    s = stream(47)
    mutant = Counter(unbiased_chain_depth(s) for _ in range(4000))
    assert _depth_law_p(mutant, 4000) < 1e-6
    float_tab = SamplerTables(binary_dist(), A0, 5, exact=False)
    right = Counter(sample_marked_depth(float_tab, s) for _ in range(4000))
    assert _depth_law_p(right, 4000) > 0.001


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


# ---------------------------------------------------------------------------
# exact draws on integers: same decisions on the same random bits


def _fraction_draw_weights(weights, total, stream):
    """Reference: draw_weights as a lazy loop over Fraction partial sums."""
    num = stream.getrandbits(64)
    bits = 64
    acc = total * 0
    last_positive = None
    for i, w in enumerate(weights):
        if w == 0:
            continue
        acc += w
        last_positive = i
        while True:
            den = 1 << bits
            if acc * den >= (num + 1) * total:
                return i
            if acc * den <= num * total:
                break
            num = (num << 16) | stream.getrandbits(16)
            bits += 16
            if bits >= 1024:
                return i
    if last_positive is None:
        raise ValueError("all weights vanish")
    return last_positive


def _random_weights(rng, many=(1000, 4000)):
    """Rational weights of two kinds: a few with large unrelated
    denominators, or `many` small ones; with thousands, a 16-bit dyadic
    interval often straddles a cumulative weight."""
    if rng.random() < 0.5:
        ws = [
            Fraction(rng.choice((0, 0, 1, 2, 3, 7, 10**9 + 7)), rng.randint(1, 10 ** rng.randint(1, 30)))
            for _ in range(rng.randint(1, 8))
        ]
    else:
        den = rng.randint(2**15, 2**17)
        ws = [Fraction(rng.randint(0, 3), den) for _ in range(rng.randint(*many))]
    if not any(ws):
        ws[0] = Fraction(1, 3)
    return ws


def test_integer_weight_draws_match_fraction_loop():
    rng = random.Random(73)
    for case in range(60):
        ws = _random_weights(rng, many=(20, 200))
        # every third case has a total above the sum: U may pass every weight
        total = sum(ws) * (2 if case % 3 == 0 else 1)
        nums, den = common_denominator([*ws, total])
        cum = list(itertools.accumulate(nums[:-1]))
        seed = rng.randrange(2**32)
        a, b, c = RandomStream(seed), RandomStream(seed), RandomStream(seed)
        for _ in range(40):
            want = _fraction_draw_weights(ws, total, a)
            assert draw_weights_int(cum, nums[-1], b) == want
            assert draw_weights(ws, total, c) == want
        assert a.getrandbits(64) == b.getrandbits(64) == c.getrandbits(64)
    with pytest.raises(ValueError):
        draw_weights([Fraction(0)] * 3, Fraction(1), stream())


def test_public_cdf_draw_matches_fraction_loop():
    cum = [Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    steps = [hi - lo for lo, hi in zip([0, *cum], cum)]
    a, b = stream(79), stream(79)
    assert [_fraction_draw_weights(steps, 1, a) for _ in range(2000)] == [draw_cdf(cum, b) for _ in range(2000)]
    assert a.getrandbits(64) == b.getrandbits(64)


@pytest.mark.parametrize("dist", [binary_dist(), MIXED], ids=["binary", "mixed"])
def test_finite_offspring_draws_match_fraction_loop(dist):
    a, b = stream(89), stream(89)
    for _ in range(2000):
        assert draw_offspring(dist, b) == _fraction_draw_weights(dist.probs, 1, a)
    assert a.getrandbits(64) == b.getrandbits(64)


def test_conditioned_split_draws_match_fraction_loop():
    fam = family_from_tables(SamplerTables(geometric_dist(), A0, 9))
    a, b = stream(97), stream(97)
    for n in sorted(fam.splits):
        atoms = sorted((lam, w) for lam, w in fam.splits[n].items() if lam != (n,) and w > 0)
        for _ in range(200):
            i = _fraction_draw_weights([w for _, w in atoms], 1 - fam.whole_mass(n), a)
            assert fam.draw_conditioned(n, b) == atoms[i][0]
    assert a.getrandbits(64) == b.getrandbits(64)


@pytest.mark.parametrize("p", ["1/2", "1/3", "2/3", "999/1000", "1/10", "1"])
def test_closed_form_geometric_matches_lazy_weights(p):
    p = Fraction(p)
    a, b = stream(83), stream(83)
    for _ in range(400):
        want = _fraction_draw_weights((p * (1 - p) ** j for j in itertools.count()), Fraction(1), a)
        assert draw_geometric(p.numerator, p.denominator, b) == want
    assert a.getrandbits(64) == b.getrandbits(64)


def test_extending_a_degree_cdf_keeps_its_total(monkeypatch):
    # the root-degree oracle weighs degree p by xi_p tau_p(s - [p marked]);
    # its weights must sum exactly to count[s], the total it draws against
    mixed = from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)])
    seen = []

    def recording(weights, total, s):
        seen.append((list(weights), total))
        return draw_weights(seen[-1][0], total, s)

    monkeypatch.setattr(samplers, "draw_weights", recording)
    for dist, marks, n in [(mixed, A0, 21), (geometric_dist(), DegreeSet.of(0, 2), 20)]:
        tab = SamplerTables(dist, marks, n)
        for s in range(1, n + 1):
            if tab.admissible(s):
                seen.clear()
                tab.draw_root_degree(s, stream(s))
                [(weights, total)] = seen
                assert total == tab.count[s] == sum(weights)


def test_completed_value_cdfs_end_at_their_total():
    # a block-value CDF grown to its end lands exactly on its integer total,
    # and total / (dens[1] dens[k-1] base^r) is zeta^{*k}[r], from Fractions
    mixed = from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)])
    for dist, marks, n in [(mixed, A0, 13), (geometric_dist(), DegreeSet.of(0, 2), 12), (binary_dist(), A0, 12)]:
        tab = SamplerTables(dist, marks, n)
        tab._draw_values(stream(3))
        dens, base = tab._dens, tab._base
        zeta = collapsed_offspring(dist, marks, n - 1).coeffs(n - 1)
        power = [Fraction(1)] + [Fraction(0)] * (n - 1)
        powers = [power]
        for _ in range(n):
            power = [sum((power[i] * zeta[e - i] for i in range(e + 1)), Fraction(0)) for e in range(n)]
            powers.append(power)
        for k in range(2, n + 1):
            for r in range(n):
                if not powers[k][r]:
                    continue
                cum, total, extend = tab._value_cdf(k, r)
                while extend() is not None:
                    pass
                assert cum[-1] == total
                assert Fraction(total, dens[1] * dens[k - 1] * base**r) == powers[k][r]


TAU_CASES = {
    "binary-0": (binary_dist(), "0"),
    "geometric-0": (geometric_dist(), "0"),
    "geometric-0,2": (geometric_dist(), "0,2"),
    "mixed-0": (MIXED, "0"),
    "geometric-2/3-not:1,3": (geometric_dist(Fraction(2, 3)), "not:1,3"),
    "geometric-3/5-0": (geometric_dist(Fraction(3, 5)), "0"),
    "binary-all": (binary_dist(), "all"),
    "geometric-all": (geometric_dist(), "all"),
}


@pytest.mark.parametrize("case", TAU_CASES)
def test_exact_tau_rows_are_convolution_powers(case):
    # exact tau reads the block rows by the generalised Otter-Dwass formula;
    # the powers it must equal come from the functional equation, which
    # builds neither the walk nor the collapsed law
    dist, spec = TAU_CASES[case]
    marks = DegreeSet.parse(spec)
    n = 25
    tab = SamplerTables(dist, marks, n)
    # float tau powers the float count by np.convolve
    floats = SamplerTables(dist, marks, n, exact=False)
    count = marked_count_fixed_point(dist, marks, n)
    row = [Fraction(1)] + [Fraction(0)] * n
    for p in range(n + 2):
        assert tab.tau(p) == row, p
        if p <= 4:
            want = np.array(row, dtype=float)
            assert (abs(floats.tau(p) - want) <= FLOAT_TABLE_RTOL * want + FLOAT_TABLE_ATOL).all(), p
        row = [sum((row[i] * count[s - i] for i in range(s + 1)), Fraction(0)) for s in range(n + 1)]


@pytest.mark.parametrize("spec", ["all", "0", "0,2"])
def test_float_trees_build_no_degree_or_split_cdfs(spec):
    # float trees are drawn by the block law: no exact block row or value
    # CDF, and at most one interior CDF of r + 2 entries per block value r,
    # none when every degree is marked
    n = 2000
    tab = SamplerTables(geometric_dist(), DegreeSet.parse(spec), n, exact=False)
    s = stream(97)
    for _ in range(20):
        assert count_marked(sample_conditioned(tab, s), tab.marks) == n
    stats = tab.stats()
    assert stats["rows"] == stats["value_cdfs"] == stats["chain_cdfs"] == 0
    assert stats["interior_entries"] == sum(map(len, tab._interior_cum.values()))
    assert stats["interior_entries"] <= sum(r + 2 for r in tab._interior_cum)
    assert (stats["interior_cdfs"] == 0) == (spec == "all")
    with pytest.raises(ValueError, match="exact tables"):
        tab.draw_root_degree(n, s)
    with pytest.raises(ValueError, match="exact tables"):
        tab.draw_split_sizes(2, n, s)


def test_float_table_zeros_come_from_the_exact_support():
    tab = SamplerTables(binary_dist(), ALL, 2001, exact=False)
    assert not tab.count[0::2].any()
    assert (tab.count[1::2] > 0).all()
    with pytest.raises(ValueError):
        SamplerTables(binary_dist(), ALL, 2000, exact=False)


def test_block_interior_cdf_short_of_the_block_law_raises():
    tab = SamplerTables(geometric_dist(), A0, 50, exact=False)
    tab.block_law().hat[30] *= 1 + 1e-9  # a block value the interior weights cannot reach
    with pytest.raises(ArithmeticError, match="value 30"):
        tab._interior_cdf(30)
    tab._interior_cdf(29)


class _CountingGenerator:
    """A numpy Generator that counts block proposals (multinomial calls
    with no size) and single uniforms."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.proposals = self.uniforms = 0

    def multinomial(self, n, pvals, size=None):
        self.proposals += size is None
        return self.gen.multinomial(n, pvals, size=size)

    def random(self, size=None):
        self.uniforms += size is None
        return self.gen.random(size)

    def __getattr__(self, name):
        return getattr(self.gen, name)


@pytest.mark.parametrize("p,n", [(Fraction(11, 20), 400), (Fraction(3, 5), 300)])
def test_float_subcritical_cdfs_end_within_the_absolute_error(p, n):
    # subcritical block laws decay exponentially, far below the FFT's
    # absolute error at large values; the interior CDF of every block value
    # must still end within FLOAT_TABLE_RTOL * hat[r] of hat[r], a relative
    # bound, and the tilt to mean (n - 1) / n (theta about 1.27 for 3/5)
    # keeps the two-cell proposals per tree few
    tab = SamplerTables(geometric_dist(p), A0, n, exact=False)
    law = tab.block_law()
    assert law.theta > 1.1
    for r in law.values.tolist():
        tab._interior_cdf(r)  # raises ArithmeticError past the tolerance
    gen = _CountingGenerator(41)
    trees = 20
    for _ in range(trees):
        values = tab.draw_block_values(gen)
        assert len(values) == n and values.sum() == n - 1
    assert trees <= gen.proposals <= 10 * trees
    s = stream(41)
    for _ in range(3):
        assert count_marked(sample_conditioned(tab, s), A0) == n


@pytest.mark.parametrize("spec, n", [("0", 3), ("all", 5)])
def test_block_tail_cell_draws_the_same_law(spec, n):
    # with every value but the pair in the tail cell, each proposal draws
    # the other values from tail_cdf; the shape law must not move
    marks = DegreeSet.parse(spec)
    tab = SamplerTables(geometric_dist(), marks, n, exact=False)
    law = tab.block_law()
    others = np.append(law.pair.others, law.pair.tail)
    masses = law.probs[np.isin(law.values, others)]
    tail_cdf = np.cumsum(masses) / masses.sum()
    tail_cdf[-1] = 1.0
    law.pair = dataclasses.replace(law.pair, others=others[:0], cells=np.ones(1), tail=others, tail_cdf=tail_cdf)
    total, shapes = enumerate_mass(geometric_dist(), marks, n, 11)
    size = marked_count_pmf(geometric_dist(), marks, n)[n]
    expected = {k: float(w / size) for k, w in shapes.items()}
    s = stream(139)
    observed = Counter(canonical_key(sample_conditioned(tab, s)) for _ in range(4000))
    _stat, _df, p = chi_square_test(observed, expected, 4000)
    assert p > 0.001


@pytest.mark.parametrize(
    "dist, spec, n",
    [(geometric_dist(), "all", 2000), (geometric_dist(), "0,2", 500), (SPLIT_LAWS["mixed"], "0", 301), (binary_dist(), "all", 201)],
)
def test_tilted_block_law_has_mean_one_step_short(dist, spec, n):
    # n values summing to n - 1 are likeliest when their mean is (n - 1) / n;
    # the pair are the two values of largest mass, and the tail holds the
    # largest other values whose mass times n^2 is at most 1
    law = SamplerTables(dist, DegreeSet.parse(spec), n, exact=False).block_law()
    assert abs(law.probs @ law.values - (n - 1) / n) < 1e-12
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert (law.values < n).all() and (law.probs > 0).all()
    pair = law.pair
    mass = dict(zip(law.values.tolist(), law.probs.tolist()))
    assert pair.a < pair.b and sorted((mass[pair.a], mass[pair.b])) == sorted(law.probs)[-2:]
    assert pair.m_cdf[-1] == 1.0 and len(pair.m_cdf) <= n + 1
    others = [*pair.others.tolist(), *pair.tail.tolist()]
    assert others == sorted(set(mass) - {pair.a, pair.b})
    tail = sum(mass[c] for c in pair.tail.tolist())
    if pair.tail.size:
        assert tail * n * n <= 1.0 and pair.tail_cdf[-1] == 1.0
    if pair.tail.size and pair.others.size:  # the cut is the first such value
        assert (tail + mass[int(pair.others[-1])]) * n * n > 1.0
    if others:
        rest = sum(mass[c] for c in others)
        cells = [mass[c] / rest for c in pair.others.tolist()] + ([tail / rest] if pair.tail.size else [])
        assert pair.cells.tolist() == pytest.approx(cells, rel=1e-12)


def _sorted_block_law(law, n: int) -> dict:
    """Law of the sorted values of n i.i.d. draws from the block law given
    that they sum to n - 1, enumerated over their counts."""
    values, probs = law.values.tolist(), law.probs.tolist()
    weights = {}

    def walk(i, left, rest, prefix, w):
        if i == len(values):
            if left == rest == 0:
                weights[tuple(prefix)] = w
            return
        v = values[i]
        for c in range(left + 1):
            if c * v > rest:
                break
            walk(i + 1, left - c, rest - c * v, prefix + [v] * c, w * probs[i] ** c / math.factorial(c))

    walk(0, n, n - 1, [], 1.0)
    total = sum(weights.values())
    return {k: w / total for k, w in weights.items()}


@pytest.mark.parametrize(
    "dist, spec, n",
    [(geometric_dist(), "all", 8), (geometric_dist(), "0", 7), (geometric_dist(), "0,2", 7), (SPLIT_LAWS["mixed"], "0", 11)],
)
def test_block_values_match_the_conditional_multinomial_law(dist, spec, n):
    # the two-cell rejection against the law it must draw: n i.i.d. values
    # of block_law() given their sum n - 1, as a law of sorted tuples
    tab = SamplerTables(dist, DegreeSet.parse(spec), n, exact=False)
    expected = _sorted_block_law(tab.block_law(), n)
    assert len(expected) >= 4
    gen = np.random.default_rng(151)
    m = 20000
    observed = Counter(tuple(sorted(tab.draw_block_values(gen).tolist())) for _ in range(m))
    assert set(observed) <= set(expected)
    _stat, _df, p = chi_square_test(observed, expected, m)
    assert p > 0.001, spec


@pytest.mark.parametrize("spec", ["0", "0,2"])
def test_one_block_value_matches_the_exact_marginal_at_n_60(spec):
    # a block picked by an independent uniform index has value c with
    # probability pi_c tau_{n-1}(n-1-c) / tau_n(n-1), tau_j the j-th
    # convolution power of the collapsed law, here in exact integers
    n, marks = 60, DegreeSet.parse(spec)
    nums, _den = common_denominator(collapsed_offspring(geometric_dist(), marks, n - 1).coeffs(n - 1))
    power = [1] + [0] * (n - 1)
    for _ in range(n - 1):
        power = [sum(power[i] * nums[s - i] for i in range(s + 1)) for s in range(n)]
    weights = [nums[c] * power[n - 1 - c] for c in range(n)]
    total = sum(weights)
    expected = {c: w / total for c, w in enumerate(weights) if w}
    tab = SamplerTables(geometric_dist(), marks, n, exact=False)
    assert tab.block_law().pair.tail.size  # the tail cell is exercised
    gen, pick = np.random.default_rng(157), np.random.default_rng(163)
    m = 6000
    observed = Counter(int(tab.draw_block_values(gen)[pick.integers(n)]) for _ in range(m))
    _stat, df, p = chi_square_test(observed, expected, m)
    assert df >= 5 and p > 0.001, spec


def test_block_values_at_the_edges():
    # n = 1 is one block of value 0; at n = 2 the values are 1 then 0
    for spec in ("0", "all", "0,2"):
        one = SamplerTables(geometric_dist(), DegreeSet.parse(spec), 1, exact=False)
        assert one.block_law().pair is None
        assert one.draw_block_values(np.random.default_rng(1)).tolist() == [0]
    for spec in ("0", "all"):  # {0,2} has no block of value 1, so no n = 2
        two = SamplerTables(geometric_dist(), DegreeSet.parse(spec), 2, exact=False)
        gen = np.random.default_rng(2)
        assert all(two.draw_block_values(gen).tolist() == [1, 0] for _ in range(20))
    # binary/all has the values {0, 2} only: M = n, no multinomial, and
    # N_2 = (n - 1) / 2 is the mode, so the one proposal is accepted
    n = 201
    tab = SamplerTables(binary_dist(), ALL, n, exact=False)
    pair = tab.block_law().pair
    assert (pair.a, pair.b) == (0, 2) and not pair.cells.size
    assert bisect_right(pair.m_cdf, 0.0) == n
    gen = _CountingGenerator(167)
    for _ in range(10):
        assert sorted(tab.draw_block_values(gen).tolist()) == [0] * 101 + [2] * 100
    assert gen.proposals == 0 and gen.uniforms == 2 * 10
    # a pair two apart: the mixed law's values are even
    pair = SamplerTables(SPLIT_LAWS["mixed"], A0, 301, exact=False).block_law().pair
    assert (pair.a, pair.b) == (0, 2) and pair.others.tolist()[:2] == [4, 6]


@pytest.mark.parametrize("spec", ["0", "all", "0,1"])
def test_float_trees_of_one_and_two_marked_vertices(spec):
    marks = DegreeSet.parse(spec)
    s = stream(7)
    for n in (1, 2):
        tab = SamplerTables(geometric_dist(), marks, n, exact=False)
        for _ in range(50):
            assert count_marked(sample_conditioned(tab, s), marks) == n
    for n, want in ((1, "()"), (2, "(()())")):
        tab = SamplerTables(binary_dist(), A0, n, exact=False)
        assert sample_conditioned(tab, s) == parse_tree(want)


def test_depth_draws_build_no_block_state():
    tab = SamplerTables(geometric_dist(), DegreeSet.of(0, 2), 300, exact=False)
    s = stream(11)
    for _ in range(50):
        sample_marked_depth(tab, s)
    assert tab._blocks is None and not tab._interior_cum
    sample_conditioned(tab, s)
    assert tab._blocks is not None


def test_float_table_below_its_absolute_error_is_a_value_error():
    # geometric(2/3)/all masses near n=281 are about 4e-19, inside the FFT's
    # noise, and from n=281 on they come back as zero at admissible sizes
    with pytest.raises(ValueError, match="cannot resolve"):
        SamplerTables(geometric_dist(Fraction(2, 3)), ALL, 300, exact=False)


def test_stats_follow_the_caches():
    n = 60
    tab = SamplerTables(geometric_dist(), A0, n)
    empty = tab.stats()
    # the block rows are the table's one walk, kept from construction
    assert empty["rows"] == len(tab._rows) == n + 1
    assert empty["value_cdfs"] == empty["interior_cdfs"] == 0
    assert empty["cache_bytes"] == 8 * (n + 1) * n
    s = stream(5)
    for _ in range(5):
        sample_conditioned(tab, s)
    stats = tab.stats()
    assert stats["rows"] == len(tab._rows) == n + 1
    assert stats["value_cdfs"] == len(tab._value_cum) > 0
    assert stats["value_entries"] == sum(len(cum) for cum, _total, _extend in tab._value_cum.values())
    assert stats["interior_cdfs"] == len(tab._interior_cum) > 0
    assert stats["interior_entries"] == sum(map(len, tab._interior_cum.values()))
    assert stats["chain_cdfs"] == stats["chain_entries"] == 0
    assert tab._lagrange is None  # trees never build split_measure's integers
    assert tab.stats() == stats  # reading them changes nothing
    entries = stats["rows"] * n + stats["value_entries"] + stats["interior_entries"]
    assert stats["cache_bytes"] == 8 * entries
    # tau and root splits read the block rows that trees draw on, and build
    # nothing; the integer step law of the interiors waits for a tree
    shared = SamplerTables(geometric_dist(), A0, n)
    rows = shared._rows
    shared.tau(3)
    split_measure(shared, 7)
    assert shared.stats() == empty
    assert shared._steps is None
    sample_conditioned(shared, s)
    assert shared._rows is rows
    assert shared._interiors and shared._steps is not None
    float_tab = SamplerTables(geometric_dist(), A0, n, exact=False)
    for _ in range(5):
        sample_conditioned(float_tab, s)
    stats = float_tab.stats()
    assert stats["interior_cdfs"] == len(float_tab._interior_cum) > 0
    assert stats["rows"] == stats["value_cdfs"] == stats["chain_cdfs"] == stats["chain_entries"] == 0
    assert stats["cache_bytes"] == 8 * stats["interior_entries"]
    for _ in range(5):
        sample_marked_depth(float_tab, s)
    stats = float_tab.stats()
    assert stats["chain_cdfs"] == len(float_tab._chain_cum) > 0
    assert stats["chain_entries"] == sum(map(len, float_tab._chain_cum.values()))
    assert stats["cache_bytes"] == 8 * (stats["interior_entries"] + stats["chain_entries"])


# each id names an entry point of one mode, tried on tables of the other:
# (exact, the call), with None for a method that the other mode lacks
OTHER_MODE = {
    "draw_root_degree": (False, lambda tab: tab.draw_root_degree(5, stream())),
    "draw_split_sizes": (False, lambda tab: tab.draw_split_sizes(2, 4, stream())),
    "split_measure": (False, lambda tab: split_measure(tab, 5)),
    "sample_marked_depth": (True, lambda tab: sample_marked_depth(tab, stream())),
    "block_law": (True, None),
    "draw_block_values": (True, None),
    "_chain_cdf": (True, None),
    "lagrange_ints": (False, None),
    "_draw_values": (False, None),
}


@pytest.mark.parametrize("name", OTHER_MODE)
def test_draws_of_the_other_mode_are_value_errors(name):
    # SamplerTables returns one class per mode, and a method of the other
    # mode is absent; the two module functions of one mode and the float
    # stubs of the exact oracles raise ValueError before they build anything
    exact, draw = OTHER_MODE[name]
    tab = SamplerTables(binary_dist(), A0, 5, exact=exact)
    assert isinstance(tab, samplers.ExactTables if exact else samplers.FloatTables)
    assert isinstance(tab, SamplerTables)
    # the benchmark times every whole build by wrapping SamplerTables.__init__,
    # so the subclasses build in _build and define no __init__ of their own
    assert "__init__" not in vars(type(tab))
    if draw is None:
        assert not hasattr(tab, name)
        return
    before = tab.stats()
    with pytest.raises(ValueError, match="need"):
        draw(tab)
    assert tab.stats() == before
    assert all(vars(tab).get(cache) is None for cache in ("_chain", "_blocks", "_lagrange"))


def test_float_depths_build_only_chain_cdfs():
    # the size chain draws no root degree and no sibling size, and holds at
    # most one CDF of s + 1 entries per size s
    n = 2000
    tab = SamplerTables(geometric_dist(), ALL, n, exact=False)
    s = stream(101)
    for _ in range(400):
        sample_marked_depth(tab, s)
    stats = tab.stats()
    assert stats["rows"] == stats["value_cdfs"] == stats["interior_cdfs"] == 0
    assert 0 < stats["chain_entries"] <= (n + 1) * (n + 2) // 2


# the three criterion-7 arms at a small size (binary/all needs an odd one)
CHAIN_ARMS = {
    "binary/0": (binary_dist(), A0, 200),
    "binary/all": (binary_dist(), ALL, 201),
    "geometric/all": (geometric_dist(), ALL, 200),
}


def _chain_weights(series, s):
    w, g, stop = series
    return np.concatenate([[stop[s]], g[s - 1 :: -1] * w[1 : s + 1]])


@pytest.mark.parametrize("name", CHAIN_ARMS)
def test_float_chain_cdfs_are_unit_cdfs_of_the_series(name):
    # each cached float chain CDF is divided by its sum: it rises, ends at
    # exactly 1.0 on a positive weight, and its increments times W(s) are
    # Phi_A[s] and G[s - s'] W(s') within the chain's sum check
    tab = SamplerTables(*CHAIN_ARMS[name], exact=False)
    s = stream(211)
    for _ in range(300):
        sample_marked_depth(tab, s)
    series = marked_vertex_series(tab)
    w = series[0]
    assert len(tab._chain_cum) > 10
    for size, cdf in tab._chain_cum.items():
        cum = np.array(cdf)
        steps = np.diff(cum, prepend=0.0)
        weights = _chain_weights(series, size)
        assert (steps >= 0).all() and steps[-1] > 0 and cum[-1] == 1.0
        assert not weights[len(cum) :].any()
        tol = FLOAT_TABLE_RTOL * w[size] + FLOAT_TABLE_ATOL
        assert np.abs(steps * w[size] - weights[: len(cum)]).max() <= tol, size


class _EdgeStream:
    """A stream whose first uniform is the largest double below 1.0 and
    whose every later uniform is 0.0."""

    def __init__(self):
        self.calls = 0

    def random(self):
        self.calls += 1
        return math.nextafter(1.0, 0.0) if self.calls == 1 else 0.0


@pytest.mark.parametrize("name", CHAIN_ARMS)
def test_float_chain_edge_uniforms_land_on_positive_weights(name):
    # a uniform just below 1.0 steps to the last positive weight and 0.0 to
    # the first, never past the CDF's end nor onto a zero weight; a size
    # whose only weight is the stop returns without a uniform
    tab = SamplerTables(*CHAIN_ARMS[name], exact=False)
    series = marked_vertex_series(tab)
    path = [tab.n]
    uniforms = 0
    while True:
        positive = np.flatnonzero(_chain_weights(series, path[-1]))
        if positive[-1] == 0:
            break
        uniforms += 1
        step = positive[-1] if uniforms == 1 else positive[0]
        if not step:
            break
        path.append(int(step))
    edge = _EdgeStream()
    assert sample_marked_depth(tab, edge) == len(path) - 1
    assert edge.calls == uniforms
    assert sorted(tab._chain_cum) == sorted(path)


DIGEST_ARMS = {
    "binary/0": (binary_dist(), A0),
    "geometric/0": (geometric_dist(), A0),
    "geometric/0,2": (geometric_dist(), DegreeSet.of(0, 2)),
    "mixed/0": (MIXED, A0),
}
# SHA-256 of seeded exact-mode output as drawn by the Fraction loops above;
# the integer draws must reproduce it byte for byte.  A changed digest is a
# changed stream: it is pinned again only with a new draw route, once
# independent checks of the law hold for it.  The trees entries are drawn by
# the recursive route on the oracle methods (_recursive_tree), as exact trees
# were drawn before they were drawn by blocks, so every later draw of an arm
# stays where it was pinned; the blocks entries pin sample_conditioned on a
# stream of their own.  The finite-law offspring and hat entries and every mb
# entry come from draw_weights_int, the one exact inversion, matched draw for
# draw against _fraction_draw_weights above.  mb.binary/0 was pinned again
# when stalks of success probability 1 stopped taking a draw
# (test_markov_branching_skips_only_the_certain_stalk_draws).  Depths are
# drawn on float tables only, so their digests are in FLOAT_PINNED_DIGESTS.
PINNED_DIGESTS = {
    "trees.binary/0": "a7cdee6a70c26ec468df8dc72f0cc041da2310ef17df978dfdf9e91bda81b789",
    "hat.binary/0": "c92e3d9111fb7de3b1a2e92f1eb37e14a631d64db88a1b69ea2305de6cc3f507",
    "offspring.binary/0": "38c1d2c2a32bd12db99120d2cca531559c26627a3c4542f834fe6fe95dcfe46c",
    "mb.binary/0": "726c4898d24a79cdf0ea20e8c6836d9b078b38c6bab51a1bb7c6bf6e36b55e68",
    "blocks.binary/0": "47c9c16b9d0e603d997405228d9220fde24475dcd8960d3d7bb4c3b56671ea53",
    "trees.geometric/0": "58ea315139e6717142bb1c049296daadad05163fd8cd38b35824933badb23d5a",
    "hat.geometric/0": "9b7c8a68fb5db1f8030ac76c7b20d04246e2fc762a898da1cc9e127e5aafb318",
    "offspring.geometric/0": "f6e27d2103de127898e1899aafca5c56c546122e21d7cce8eb222d4f42dacb09",
    "mb.geometric/0": "ae0187a588bb3f2e96534fbec0cef2d216b5ba853a5bdcfd652746baa4163006",
    "blocks.geometric/0": "48834a953d89f19c64221a29b3258d26ab4c0a2db1c7404f450848b1976796fc",
    "trees.geometric/0,2": "26f9229b1fdf31340380d07dbab71fef4c36711591aef9dbb288d061c8a981cb",
    "hat.geometric/0,2": "1571f0daf177db28961c4e275d2665ba6104953c20d5b77a29735ff2701f1798",
    "offspring.geometric/0,2": "9f9ad6d5d19ebdda100ad62d2f67c69dc39fa71e110237381ab982de1f41ae99",
    "mb.geometric/0,2": "850a88468245cf563a29ad50187e2d624d7c3c53ae18bf5b773dc514a3d2f971",
    "blocks.geometric/0,2": "500cf41c2560b99d385b5e25ae125a02aaf95d040f64cf50ebe81a0c2791051c",
    "trees.mixed/0": "46b9e3f776de730c0c0eaf543e5e979f906fb24f23387f8b4b025cde683e2c64",
    "hat.mixed/0": "5c576928ba01c00bcb3ab26202866344763e9404d422b23fde52e661d4c19a2b",
    "offspring.mixed/0": "3c1066b06c018760abc0400953689c8a5e95f7405de54ce018205fb33952923f",
    "mb.mixed/0": "8ed8ea3d8680ea60e7d0506ecfdb33c08eb88998a70aef96f741259d9ba997da",
    "blocks.mixed/0": "3dfa4cfc6b319a5f5b5e25fc32e1700c4436bf6d02c784ea30100e687959bdd4",
    "offspring.geometric-1/3": "f6124ed0ed37003781b4c8c1da9fc2c7bd33449ef19b3c5bf7990989980e5a4b",
}
# mb.binary/0 as pinned while every stalk took a draw, certain ones included
MB_BINARY_WITH_CERTAIN_STALK_DRAWS = "edd9c8f362a729f8f96bc352c8fd30c6d780fd39f5d103cb933ac02783cc9002"
# The hat, offspring and mb digests were pinned with 100 depths drawn between
# the trees and them, by a spine descent that took this many 32-bit words of
# each arm's stream.  Skipping as many words keeps those draws where they
# were pinned.
DESCENT_WORDS = {"binary/0": 5482, "geometric/0": 5282, "geometric/0,2": 4577, "mixed/0": 5223}
# the three criterion-7 arms, on float tables
FLOAT_DIGEST_ARMS = {
    "binary/0": (binary_dist(), A0, 2000),
    "binary/all": (binary_dist(), ALL, 2001),
    "geometric/all": (geometric_dist(), ALL, 2000),
}
# SHA-256 of seeded float-mode output.  The depths are those of the size
# chain.  The trees are those of the block route with the two-cell
# rejection, pinned once the block-value law tests, the shape-law and the
# root-degree chi-squares above held for it; they also depend on numpy's
# Generator (PCG64, multinomial, shuffle and random), which numpy may change
# between versions, so a new numpy can move this digest alone.
FLOAT_PINNED_DIGESTS = {
    "depths.binary/0": "c6054acedd7cf51d227b88f254a04cbc5465173f60821f8cf3a92d04d09fad16",
    "depths.binary/all": "5d808382097403f3034ce73bbc9b4379ea2b242157442e3403de050e347adcd2",
    "depths.geometric/all": "7224ab9542c3b9b0aa0981c2dbfc4cc6990acc8ada6c268212bacbe53c2b4183",
    "trees.geometric/all": "430e83c2542fa1e7415e1c7e84a2d223240d36bfec9cb70aa6ebbda586557c9c",
}


def _sha(items) -> str:
    return hashlib.sha256("\n".join(map(str, items)).encode()).hexdigest()


def _changed(got: dict, pinned: dict) -> str:
    """Each changed key with its new digest, one line of the pinned dict each."""
    return "".join(f'\n    "{k}": "{got[k]}",' for k in sorted(pinned) if got[k] != pinned[k])


def _recursive_tree(tab: SamplerTables, s) -> OrderedTree:
    """A conditioned tree by the recursive route, on the oracle methods: each
    vertex draws its degree given its subtree's marked count, then its
    children's counts, depth first."""
    degrees = []
    stack = [tab.n]  # marked counts of the subtrees still to draw
    while stack:
        size = stack.pop()
        p = tab.draw_root_degree(size, s)
        degrees.append(p)
        stack.extend(reversed(tab.draw_split_sizes(p, size - 1 if tab.marked_degree[p] else size, s)))
    return OrderedTree.from_degrees(degrees)


def _stalk_draws_kept(q: QFamily, n: int, s, certain) -> OrderedTree:
    """sample_markov_branching as it was while every stalk took a draw:
    stalks of success probability 1 draw their length, always 0, from
    `certain`, the others from `s`."""

    def stalk(p) -> int:
        return draw_geometric(p.numerator, p.denominator, certain if p == 1 else s)

    stalks = 1 not in q.marks
    degrees = []
    stack = [n]
    while stack:
        size = stack.pop()
        if size == 1:
            degrees += [1] * (stalk(q.q1_empty) if stalks else 0) + [0]
            continue
        lam = q.draw_conditioned(size, s)
        degrees += [1] * (stalk(q.split_mass(size)) if stalks else 0) + [len(lam)]
        stack.extend(reversed(lam))
    return OrderedTree.from_degrees(degrees)


def _pinned_exact_draws(name: str, mb=sample_markov_branching) -> dict:
    """The seeded exact-mode digests of one arm, its Markov branching trees
    drawn by `mb`."""
    dist, marks = DIGEST_ARMS[name]
    got = {}
    s = RandomStream(61).split(name)
    got[f"trees.{name}"] = _sha(_recursive_tree(SamplerTables(dist, marks, 25), s) for _ in range(20))
    for _ in range(DESCENT_WORDS[name]):
        s.getrandbits(32)
    got[f"hat.{name}"] = _sha(sample_hat_offspring(dist, marks, s) for _ in range(200))
    got[f"offspring.{name}"] = _sha(draw_offspring(dist, s) for _ in range(300))
    fam = family_from_tables(SamplerTables(dist, marks, 9))
    got[f"mb.{name}"] = _sha(mb(fam, 9, s) for _ in range(40))
    tab = SamplerTables(dist, marks, 25)
    s = RandomStream(61).split(name, "blocks")
    got[f"blocks.{name}"] = _sha(sample_conditioned(tab, s) for _ in range(20))
    return got


def test_seeded_exact_output_is_pinned():
    got = {}
    for name in DIGEST_ARMS:
        got.update(_pinned_exact_draws(name))
    s = RandomStream(62)
    got["offspring.geometric-1/3"] = _sha(draw_offspring(geometric_dist(Fraction(1, 3)), s) for _ in range(300))
    changed = _changed(got, PINNED_DIGESTS)
    assert not changed, f"seeded exact output changed:{changed}"


def test_markov_branching_skips_only_the_certain_stalk_draws():
    # with its certain stalk draws on the stream, _stalk_draws_kept is the
    # sampler that pinned mb.binary/0 before; with them on another stream it
    # draws what sample_markov_branching draws, tree for tree, and leaves the
    # stream where it does
    kept = _pinned_exact_draws("binary/0", mb=lambda q, n, s: _stalk_draws_kept(q, n, s, s))
    assert kept["mb.binary/0"] == MB_BINARY_WITH_CERTAIN_STALK_DRAWS
    for name, (dist, marks) in DIGEST_ARMS.items():
        fam = family_from_tables(SamplerTables(dist, marks, 9))
        a, b, certain = RandomStream(67).split(name), RandomStream(67).split(name), RandomStream(0)
        for _ in range(40):
            assert sample_markov_branching(fam, 9, a) == _stalk_draws_kept(fam, 9, b, certain)
        assert a.getrandbits(64) == b.getrandbits(64)
        # only binary has no mass at degree one, and so certain stalks
        assert (certain.getrandbits(64) != RandomStream(0).getrandbits(64)) == (name == "binary/0")


def test_seeded_float_output_is_pinned():
    got = {}
    for name, (dist, marks, n) in FLOAT_DIGEST_ARMS.items():
        tab = SamplerTables(dist, marks, n, exact=False)
        s = RandomStream(64).split(name)
        got[f"depths.{name}"] = _sha(sample_marked_depth(tab, s) for _ in range(400))
    tab = SamplerTables(*FLOAT_DIGEST_ARMS["geometric/all"], exact=False)
    s = RandomStream(65)
    got["trees.geometric/all"] = _sha(sample_conditioned(tab, s) for _ in range(5))
    changed = _changed(got, FLOAT_PINNED_DIGESTS)
    assert not changed, f"seeded float output changed:{changed}"

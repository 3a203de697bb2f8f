import dataclasses
import hashlib
import itertools
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gwtrees import samplers
from gwtrees.degree_sets import DegreeSet
from gwtrees.exact import FLOAT_TABLE_ATOL, FLOAT_TABLE_RTOL, enumerate_mass, marked_count_pmf
from gwtrees.offspring import binary_dist, from_probs, geometric_dist
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
    draw_cdf_int,
    draw_geometric,
    draw_weights,
    draw_weights_int,
)
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


FLOAT_SHAPE_CASES = {
    # law/set: (law, set, n, vertex cap of the enumeration)
    "binary/0": (binary_dist(), "0", 4, 7),
    "geometric/0": (geometric_dist(), "0", 3, 11),
    "geometric/0,2": (geometric_dist(), "0,2", 3, 10),
    "mixed/0": (from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)]), "0", 5, 13),
    "geometric-3/5/0": (geometric_dist(Fraction(3, 5)), "0", 3, 11),
    "geometric/all": (geometric_dist(), "all", 5, 5),
}


@pytest.mark.parametrize("case", sorted(FLOAT_SHAPE_CASES))
def test_float_trees_match_enumerated_shape_laws(case):
    # float trees (blocks, tilt, multinomial rows, rotation, interiors)
    # against the brute-force law of unordered shapes; shapes beyond the
    # vertex cap fall in the chi-square's "other" cell.  mixed/0 at n = 4 is
    # inadmissible: its block values are even and cannot sum to 3
    dist, spec, n, cap = FLOAT_SHAPE_CASES[case]
    marks = DegreeSet.parse(spec)
    total, shapes = enumerate_mass(dist, marks, n, cap)
    size = marked_count_pmf(dist, marks, n)[n]
    assert total / size > Fraction(99, 100)
    expected = {k: float(w / size) for k, w in shapes.items()}
    tab = SamplerTables(dist, marks, n, exact=False)
    s = stream(131)
    m = 4000
    observed = Counter(canonical_key(sample_conditioned(tab, s)) for _ in range(m))
    _stat, _df, p = chi_square_test(observed, expected, m)
    assert p > 0.001, case


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


@pytest.mark.parametrize("entry, m", [(3, 8), (8, 8), (1, 2)])
def test_split_measure_rejects_a_perturbed_count_table(monkeypatch, entry, m):
    # one count entry off by a factor 1001/1000, in a part (3, 1) or in the
    # size's own probability (8): the weights no longer sum to one
    table = marked_count_pmf(geometric_dist(), A0, 8)
    table[entry] *= Fraction(1001, 1000)
    monkeypatch.setattr(samplers, "marked_count_pmf", lambda *args: list(table))
    tables = SamplerTables(geometric_dist(), A0, 8)
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
    # weighting by count[s'] alone changes the law
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
    right = Counter(sample_marked_depth(tab, s) for _ in range(4000))
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


def _fraction_draw_cdf(cum, stream):
    """Reference: draw_cdf as a loop over Fraction comparisons."""
    num = 0
    bits = 0
    while True:
        num = (num << 16) | stream.getrandbits(16)
        bits += 16
        den = 1 << bits
        i_lo = bisect_right(cum, Fraction(num, den))
        i_hi = bisect_left(cum, Fraction(num + 1, den))
        if i_lo >= i_hi or bits >= 1024:
            return min(i_lo, len(cum) - 1)


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


def _cdf_mismatches(core, cases=60, draws=40) -> int:
    """Draws of `core` on integer CDFs that differ from the Fraction loop,
    index for index or in the random bits consumed."""
    rng = random.Random(71)
    bad = 0
    for _ in range(cases):
        ws = _random_weights(rng)
        total = sum(ws)
        cum = list(itertools.accumulate(w / total for w in ws))
        nums, den = common_denominator(cum)
        seed = rng.randrange(2**32)
        a, b = RandomStream(seed), RandomStream(seed)
        bad += sum(_fraction_draw_cdf(cum, a) != core(nums, den, b) for _ in range(draws))
        bad += a.getrandbits(64) != b.getrandbits(64)
    return bad


def test_integer_cdf_core_matches_fraction_loop():
    assert _cdf_mismatches(draw_cdf_int) == 0


def test_cdf_check_rejects_floor_upper_threshold():
    # cum[i]/den < (num+1)/2^b needs cum[i] < ceil((num+1)*den / 2^b); with
    # the floor the draw stops while the interval still straddles cum[i]
    def floor_mutant(cum, den, stream):
        num = 0
        bits = 0
        while True:
            num = (num << 16) | stream.getrandbits(16)
            bits += 16
            i_lo = bisect_right(cum, (num * den) >> bits)
            i_hi = bisect_left(cum, ((num + 1) * den) >> bits)
            if i_lo >= i_hi or bits >= 1024:
                return min(i_lo, len(cum) - 1)

    assert _cdf_mismatches(floor_mutant) > 0


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
    a, b = stream(79), stream(79)
    assert [_fraction_draw_cdf(cum, a) for _ in range(2000)] == [draw_cdf(cum, b) for _ in range(2000)]


@pytest.mark.parametrize("p", ["1/2", "1/3", "2/3", "999/1000", "1/10", "1"])
def test_closed_form_geometric_matches_lazy_weights(p):
    p = Fraction(p)
    a, b = stream(83), stream(83)
    for _ in range(400):
        want = _fraction_draw_weights((p * (1 - p) ** j for j in itertools.count()), Fraction(1), a)
        assert draw_geometric(p.numerator, p.denominator, b) == want
    assert a.getrandbits(64) == b.getrandbits(64)


def test_extending_a_degree_cdf_keeps_its_total():
    # degree CDFs grow one weight at a time and rescale to a common
    # denominator; growing one completely must land exactly on count[s]
    mixed = from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)])
    for dist, marks, n in [(mixed, A0, 21), (geometric_dist(), DegreeSet.of(0, 2), 20)]:
        tab = SamplerTables(dist, marks, n)
        for s in range(1, n + 1):
            if tab.admissible(s):
                tab.draw_root_degree(s, stream(s))
                entry = tab._degree_cum[s]
                while tab._grow_degrees(s, entry) is not None:
                    pass
                assert Fraction(entry.cum[-1], entry.den) == tab.count[s]


def test_exact_tau_rows_are_convolution_powers():
    mixed = from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)])
    tab = SamplerTables(mixed, A0, 15)
    row = [Fraction(1)] + [Fraction(0)] * 15
    for p in range(6):
        assert tab.tau(p) == row
        row = [sum((row[i] * tab.count[s - i] for i in range(s + 1)), Fraction(0)) for s in range(16)]


def test_root_degree_cdf_builds_only_the_powers_it_reaches():
    # a complete root-degree CDF at the top size would need every power up
    # to n; draws that stop early leave the higher powers unbuilt
    tab = SamplerTables(geometric_dist(), A0, 120)
    s = stream(89)
    for _ in range(20):
        sample_conditioned(tab, s)
    assert len(tab._tau) < 40


@pytest.mark.parametrize("spec", ["all", "0", "0,2"])
def test_float_trees_build_no_degree_or_split_cdfs(spec):
    # float trees are drawn by blocks: no convolution power beyond tau_1, no
    # root-degree or split CDF, and at most one interior CDF of r + 2
    # entries per block value r, none when every degree is marked
    n = 2000
    tab = SamplerTables(geometric_dist(), DegreeSet.parse(spec), n, exact=False)
    s = stream(97)
    for _ in range(20):
        assert count_marked(sample_conditioned(tab, s), tab.marks) == n
    stats = tab.stats()
    assert stats["powers"] == 2
    assert stats["degree_cdfs"] == stats["split_cdfs"] == stats["chain_cdfs"] == 0
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
    """A numpy Generator that counts the multinomial rows drawn from it."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.rows = 0

    def multinomial(self, n, pvals, size):
        self.rows += size
        return self.gen.multinomial(n, pvals, size=size)

    def __getattr__(self, name):
        return getattr(self.gen, name)


@pytest.mark.parametrize("p,n", [(Fraction(11, 20), 400), (Fraction(3, 5), 300)])
def test_float_subcritical_cdfs_end_within_the_absolute_error(p, n):
    # subcritical block laws decay exponentially, far below the FFT's
    # absolute error at large values; the interior CDF of every block value
    # must still end within FLOAT_TABLE_RTOL * hat[r] of hat[r], a relative
    # bound, and the tilt to mean (n - 1) / n (theta about 1.27 for 3/5)
    # keeps the rows per tree near one batch
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
    assert gen.rows <= 3 * trees * law.batch
    assert law.batch <= 2 * math.sqrt(2 * math.pi * n * 8) + 1
    s = stream(41)
    for _ in range(3):
        assert count_marked(sample_conditioned(tab, s), A0) == n


@pytest.mark.parametrize("spec, n", [("0", 3), ("all", 5)])
def test_block_tail_cell_draws_the_same_law(spec, n):
    # with every value but 0 in the tail cell, each row's block values come
    # from tail_cdf; the shape law must not move
    marks = DegreeSet.parse(spec)
    tab = SamplerTables(geometric_dist(), marks, n, exact=False)
    law = tab.block_law()
    rest = law.probs[1:].sum()
    tab._blocks = dataclasses.replace(
        law, head=1, cells=np.array([law.probs[0], rest]), tail_cdf=np.cumsum(law.probs[1:]) / rest
    )
    tab._blocks.tail_cdf[-1] = 1.0
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
    # n values summing to n - 1 are likeliest when their mean is (n - 1) / n
    law = SamplerTables(dist, DegreeSet.parse(spec), n, exact=False).block_law()
    assert abs(law.probs @ law.values - (n - 1) / n) < 1e-12
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert (law.values < n).all() and (law.probs > 0).all()
    assert law.cells.sum() == pytest.approx(1.0, abs=1e-15)
    if law.head < len(law.values):
        assert law.cells[-1] * n * law.batch <= 1.0 and law.tail_cdf[-1] == 1.0


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
    # geometric(2/3)/all masses near n=282 are about 1e-17, inside the FFT's
    # noise, and some come back as zero at admissible sizes
    with pytest.raises(ValueError, match="cannot resolve"):
        SamplerTables(geometric_dist(Fraction(2, 3)), ALL, 300, exact=False)


def test_stats_follow_the_caches():
    tab = SamplerTables(geometric_dist(), A0, 60)
    empty = tab.stats()
    assert empty["powers"] == 2 and empty["degree_cdfs"] == empty["split_cdfs"] == 0
    s = stream(5)
    for _ in range(5):
        sample_conditioned(tab, s)
    stats = tab.stats()
    assert stats["powers"] == len(tab._tau)
    assert stats["degree_cdfs"] == len(tab._degree_cum) > 0
    assert stats["degree_entries"] == sum(len(e.cum) for e in tab._degree_cum.values())
    assert stats["split_entries"] == sum(map(len, tab._split_cum.values())) > 0
    assert stats["chain_cdfs"] == stats["chain_entries"] == stats["interior_cdfs"] == 0
    assert stats["cache_bytes"] > empty["cache_bytes"]
    assert tab.stats() == stats  # reading them changes nothing
    for _ in range(5):
        sample_marked_depth(tab, s)
    stats = tab.stats()
    assert stats["chain_cdfs"] == len(tab._chain_cum) > 0
    assert stats["chain_entries"] == sum(map(len, tab._chain_cum.values()))
    assert stats["cache_bytes"] == 8 * (
        stats["powers"] * 61 + stats["degree_entries"] + stats["split_entries"] + stats["chain_entries"]
    )
    float_tab = SamplerTables(geometric_dist(), A0, 60, exact=False)
    for _ in range(5):
        sample_conditioned(float_tab, s)
    stats = float_tab.stats()
    assert stats["interior_cdfs"] == len(float_tab._interior_cum) > 0
    assert stats["cache_bytes"] == 8 * (stats["powers"] * 61 + stats["interior_entries"])


def test_float_depths_build_only_chain_cdfs():
    # the size chain draws no root degree and no sibling size, and holds at
    # most one CDF of s + 1 entries per size s
    n = 2000
    tab = SamplerTables(geometric_dist(), ALL, n, exact=False)
    s = stream(101)
    for _ in range(400):
        sample_marked_depth(tab, s)
    stats = tab.stats()
    assert stats["split_cdfs"] == stats["degree_cdfs"] == 0
    assert stats["powers"] == 2
    assert 0 < stats["chain_entries"] <= (n + 1) * (n + 2) // 2


MIXED = from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)])
DIGEST_ARMS = {
    "binary/0": (binary_dist(), A0),
    "geometric/0": (geometric_dist(), A0),
    "geometric/0,2": (geometric_dist(), DegreeSet.of(0, 2)),
    "mixed/0": (MIXED, A0),
}
# SHA-256 of seeded exact-mode output as drawn by the Fraction loops above;
# the integer draws must reproduce it byte for byte.  A changed digest is a
# changed stream: it is pinned again only with a new draw route, once
# independent checks of the law hold for it (the depth entries moved to the
# size chain with the n=5 chi-square, the exact depth-law tests and the
# rotation oracles in tests/test_depth_oracle.py).
PINNED_DIGESTS = {
    "trees.binary/0": "a7cdee6a70c26ec468df8dc72f0cc041da2310ef17df978dfdf9e91bda81b789",
    "depths.binary/0": "f9eb952ecd819183eaab3e8144a3f379ed0287abc11d19ba6225ebb0ab1d3d14",
    "hat.binary/0": "aee3a0d2c57d8c41a7915f31702fb26a4886cc311f34424b516f099ef0db18ce",
    "offspring.binary/0": "1062bbc44417f5c349d6c7686968307afb602296501ecafeb63e39ddf925d6f3",
    "mb.binary/0": "df25aa0473d1dff1a6dad49728d557ec2322f7e5516f60704f7f91be6bd625aa",
    "trees.geometric/0": "58ea315139e6717142bb1c049296daadad05163fd8cd38b35824933badb23d5a",
    "depths.geometric/0": "9c8efd58ef80150712b6dcaeedcf8941c1df1b57081af200f5f70213c676380e",
    "hat.geometric/0": "9b7c8a68fb5db1f8030ac76c7b20d04246e2fc762a898da1cc9e127e5aafb318",
    "offspring.geometric/0": "f6e27d2103de127898e1899aafca5c56c546122e21d7cce8eb222d4f42dacb09",
    "mb.geometric/0": "024687c96f7d97c9f5559cad4882b80c931026bc61785df496c33f3901483845",
    "trees.geometric/0,2": "26f9229b1fdf31340380d07dbab71fef4c36711591aef9dbb288d061c8a981cb",
    "depths.geometric/0,2": "021672a45cd803b7b5c870f695d11ce2841579fb944a01623208ff156a1b9171",
    "hat.geometric/0,2": "1571f0daf177db28961c4e275d2665ba6104953c20d5b77a29735ff2701f1798",
    "offspring.geometric/0,2": "9f9ad6d5d19ebdda100ad62d2f67c69dc39fa71e110237381ab982de1f41ae99",
    "mb.geometric/0,2": "a1f4bee44f9cb6c9161c63f9d29fdcd3c853bece4d8246619da39d8fd8c3d296",
    "trees.mixed/0": "46b9e3f776de730c0c0eaf543e5e979f906fb24f23387f8b4b025cde683e2c64",
    "depths.mixed/0": "732f7205ed6bce9fd704db9d653352ae52f73740b3de0c05fd088d8e8b8c12e5",
    "hat.mixed/0": "c626855ce3c5cffdebe666985624007d6fe1d1546b64e4ec8415c7ce25484fb0",
    "offspring.mixed/0": "4ecff3e4df38723ea9f1c9cc92706c552bc5ed1d667fa1fcc4a2953f0e031d1e",
    "mb.mixed/0": "56f0967a2c19eb03a81c23cf7c895ba4e997791289c4d684c1b61a7eb14a2065",
    "offspring.geometric-1/3": "f6124ed0ed37003781b4c8c1da9fc2c7bd33449ef19b3c5bf7990989980e5a4b",
}
# The hat, offspring and mb digests were pinned with 100 depths drawn between
# the trees and them, by a spine descent that took this many 32-bit words of
# each arm's stream.  Skipping as many words keeps those draws where they
# were pinned; the depths, now drawn by the size chain, come last.
DESCENT_WORDS = {"binary/0": 5482, "geometric/0": 5282, "geometric/0,2": 4577, "mixed/0": 5223}
# the three criterion-7 arms, on float tables
FLOAT_DIGEST_ARMS = {
    "binary/0": (binary_dist(), A0, 2000),
    "binary/all": (binary_dist(), ALL, 2001),
    "geometric/all": (geometric_dist(), ALL, 2000),
}
# SHA-256 of seeded float-mode output.  The depths are those of the size
# chain.  The trees are those of the block route, pinned once the shape-law
# and root-degree chi-squares above held for it; they also depend on numpy's
# Generator (PCG64, multinomial, shuffle and random), which numpy may change
# between versions, so a new numpy can move this digest alone.
FLOAT_PINNED_DIGESTS = {
    "depths.binary/0": "c6054acedd7cf51d227b88f254a04cbc5465173f60821f8cf3a92d04d09fad16",
    "depths.binary/all": "5d808382097403f3034ce73bbc9b4379ea2b242157442e3403de050e347adcd2",
    "depths.geometric/all": "7224ab9542c3b9b0aa0981c2dbfc4cc6990acc8ada6c268212bacbe53c2b4183",
    "trees.geometric/all": "f9f57e554cdf4630f807e2bf5c52a5ef7f7f82f55c6ade16be927d15345709df",
}


def _sha(items) -> str:
    return hashlib.sha256("\n".join(map(str, items)).encode()).hexdigest()


def test_seeded_exact_output_is_pinned():
    got = {}
    for name, (dist, marks) in DIGEST_ARMS.items():
        s = RandomStream(61).split(name)
        got[f"trees.{name}"] = _sha(sample_conditioned(SamplerTables(dist, marks, 25), s) for _ in range(20))
        for _ in range(DESCENT_WORDS[name]):
            s.getrandbits(32)
        got[f"hat.{name}"] = _sha(sample_hat_offspring(dist, marks, s) for _ in range(200))
        got[f"offspring.{name}"] = _sha(draw_offspring(dist, s) for _ in range(300))
        fam = family_from_tables(SamplerTables(dist, marks, 9))
        got[f"mb.{name}"] = _sha(sample_markov_branching(fam, 9, s) for _ in range(40))
        tab = SamplerTables(dist, marks, 61)
        got[f"depths.{name}"] = _sha(sample_marked_depth(tab, s) for _ in range(100))
    s = RandomStream(62)
    got["offspring.geometric-1/3"] = _sha(draw_offspring(geometric_dist(Fraction(1, 3)), s) for _ in range(300))
    changed = sorted(k for k in PINNED_DIGESTS if got[k] != PINNED_DIGESTS[k])
    assert not changed, f"seeded exact output changed: {changed}"


def test_seeded_float_output_is_pinned():
    got = {}
    for name, (dist, marks, n) in FLOAT_DIGEST_ARMS.items():
        tab = SamplerTables(dist, marks, n, exact=False)
        s = RandomStream(64).split(name)
        got[f"depths.{name}"] = _sha(sample_marked_depth(tab, s) for _ in range(400))
    tab = SamplerTables(*FLOAT_DIGEST_ARMS["geometric/all"], exact=False)
    s = RandomStream(65)
    got["trees.geometric/all"] = _sha(sample_conditioned(tab, s) for _ in range(5))
    changed = sorted(k for k in FLOAT_PINNED_DIGESTS if got[k] != FLOAT_PINNED_DIGESTS[k])
    assert not changed, f"seeded float output changed: {changed}"

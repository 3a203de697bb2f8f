"""A seeded sweep of random laws and sets through every exact route.

The hand-picked laws of the other tests miss shapes such as periodic
supports, a marked or unmarked degree 1 with positive mass, cofinite sets
that leave out support degrees and collapsed pairs with a large M[0].  Each
seed draws finite laws on at most 6 degrees below 8, with denominators up to
12, critical about 60% of the time and subcritical otherwise, and finite or
cofinite sets that contain 0.  A case that fails here is fixed in src/; the
generator is not narrowed to hide it.

The float half takes the critical laws of the same generator through every
float route: the float table at n near 300 against the exact one, and at n
near 2000 float trees, depths and, for the first draws of each seed, the
exact depth law the depths must fall on.  Subcritical laws are left out there, as
their float masses at such sizes fall below the FFT's absolute error.

At n <= 4 the laws of unordered shapes of exact and float conditioned trees
are checked against brute-force enumeration, on the pairs whose enumeration
to at most SHAPE_CAP vertices covers at least 0.999 of the size's mass.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from gwtrees.degree_sets import DegreeSet
from gwtrees.exact import (
    FLOAT_TABLE_ATOL,
    FLOAT_TABLE_RTOL,
    enumerate_mass,
    marked_count_fixed_point,
    marked_count_support,
)
from gwtrees.offspring import from_probs
from gwtrees.samplers import SamplerTables, sample_conditioned, sample_marked_depth, split_measure
from gwtrees.scaling import chi_square_test, depth_law
from gwtrees.streams import RandomStream
from gwtrees.trees import canonical_key, count_marked

SEEDS = range(12)
CASES = 80  # per seed
MAX_N = 24
MAX_SPLIT = 9
TREES = 3
FLOAT_CASES = 16  # draws per seed, of which the critical ones run
FLOAT_N = range(260, 341)  # sizes of the float table checked against the exact one
LARGE_N = range(1960, 2041)  # sizes of the float trees and depths
FLOAT_TREES = 2
DEPTHS = 3
DEPTH_LAWS = 4  # the first draws of a seed also check their depths against depth_law
SHAPE_CASES = 6  # draws per seed at tiny n
SHAPE_N = 4
SHAPE_CAP = 12  # vertex cap of the enumeration; a deeper one can take seconds
SHAPE_TREES = 1000  # per mode


def random_law(rng: random.Random):
    """A finite law with integer weights over a denominator of 2..12 on 0
    and up to 5 degrees in 1..7, critical with probability 0.6."""
    critical = rng.random() < 0.6
    while True:
        den = rng.randint(2, 12)
        degrees = [0, *sorted(rng.sample(range(1, 8), rng.randint(1, 5)))]
        if len(degrees) > den:
            continue
        cuts = sorted(rng.sample(range(1, den), len(degrees) - 1))
        weights = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
        mean = sum(d * w for d, w in zip(degrees, weights))
        if mean == den if critical else mean < den:
            probs = [Fraction(0)] * (degrees[-1] + 1)
            for d, w in zip(degrees, weights):
                probs[d] = Fraction(w, den)
            return from_probs(probs)


def random_set(rng: random.Random) -> DegreeSet:
    """{0} and some of 1..8, or all degrees but some of 1..8."""
    some = frozenset(rng.sample(range(1, 9), rng.randint(0, 4)))
    return DegreeSet(some, cofinite=True) if rng.random() < 0.5 else DegreeSet(some | {0})


def convolution_powers(count: list[Fraction], top: int) -> list[list[Fraction]]:
    """count^{*p} for p = 0..top, in Fractions."""
    n = len(count) - 1
    powers = [[Fraction(1)] + [Fraction(0)] * n]
    for _ in range(top):
        last = powers[-1]
        powers.append([sum((last[i] * count[s - i] for i in range(s + 1)), Fraction(0)) for s in range(n + 1)])
    return powers


@pytest.mark.parametrize("seed", SEEDS)
def test_random_laws_through_the_exact_routes(seed):
    rng = random.Random(seed)
    for case in range(CASES):
        dist, marks = random_law(rng), random_set(rng)
        where = (seed, case, dist.probs, marks.spec())
        support = marked_count_support(dist, marks, MAX_N)
        n = rng.choice([m for m in range(1, MAX_N + 1) if support[m]])
        tables = SamplerTables(dist, marks, n)
        # the walk's table against the functional equation, and positivity
        # against the integer support rule
        assert tables.count == marked_count_fixed_point(dist, marks, n), where
        assert [tables.admissible(m) for m in range(n + 1)] == [False] + support[1 : n + 1], where
        assert [c > 0 for c in tables.count] == support[: n + 1], where
        for p, power in enumerate(convolution_powers(tables.count, 3)):
            assert tables.tau(p) == power, (*where, p)
        s = RandomStream(1000 * seed + case)
        for _ in range(TREES):
            assert count_marked(sample_conditioned(tables, s), marks) == n, where
        # split_measure completes prefixes by ones without testing t_1:
        # xi_0 > 0 makes count[1] and so t_1 positive
        assert tables.lagrange_ints()[0][1] > 0, where
        for m in range(1, min(n, MAX_SPLIT) + 1):
            if tables.admissible(m):
                assert sum(split_measure(tables, m).values()) == 1, (*where, m)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_critical_laws_through_the_float_routes(seed):
    rng = random.Random(100 + seed)
    for case in range(FLOAT_CASES):
        dist, marks = random_law(rng), random_set(rng)
        if dist.mean() != 1:
            continue
        where = (seed, case, dist.probs, marks.spec())
        support = marked_count_support(dist, marks, LARGE_N[-1])
        n = rng.choice([m for m in FLOAT_N if support[m]])
        exact = SamplerTables(dist, marks, n).count
        got = SamplerTables(dist, marks, n, exact=False).count
        for m, (x, y) in enumerate(zip(exact, got.tolist())):
            assert abs(y - float(x)) <= FLOAT_TABLE_RTOL * float(x) + FLOAT_TABLE_ATOL, (*where, n, m)
            assert (y > 0) == support[m], (*where, n, m)
        n = rng.choice([m for m in LARGE_N if support[m]])
        tables = SamplerTables(dist, marks, n, exact=False)
        s = RandomStream(1000 * seed + case)
        for _ in range(FLOAT_TREES):
            assert count_marked(sample_conditioned(tables, s), marks) == n, (*where, n)
        # an ancestor with one child is unmarked only on a stalk; any other
        # ancestor is marked or has a sibling subtree with a marked leaf
        stalks = dist.pmf(1) > 0 and 1 not in marks
        depths = [sample_marked_depth(tables, s) for _ in range(DEPTHS)]
        assert all(d >= 0 and (stalks or d < n) for d in depths), (*where, n, depths)
        if case < DEPTH_LAWS:
            law = depth_law(dist, marks, n)
            assert all(d < law.size and law[d] > 0 for d in depths), (*where, n, depths)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_laws_tree_shapes_at_tiny_n(seed):
    rng = random.Random(300 + seed)
    for case in range(SHAPE_CASES):
        dist, marks = random_law(rng), random_set(rng)
        support = marked_count_support(dist, marks, SHAPE_N)
        n = rng.choice([m for m in range(1, SHAPE_N + 1) if support[m]])
        where = (seed, case, dist.probs, marks.spec(), n)
        size = SamplerTables(dist, marks, n).count[n]
        # the least cap that covers the mass: the enumeration's time grows
        # exponentially with it, so the smaller caps add little
        for cap in range(n, SHAPE_CAP + 1):
            total, shapes = enumerate_mass(dist, marks, n, cap)
            if total >= size * Fraction(999, 1000):
                break
        else:
            continue
        # shapes beyond the cap fall in the chi-square's "other" cell
        expected = {k: float(w / size) for k, w in shapes.items()}
        for exact in (True, False):
            tables = SamplerTables(dist, marks, n, exact=exact)
            s = RandomStream(1000 * seed + case)
            observed = Counter(canonical_key(sample_conditioned(tables, s)) for _ in range(SHAPE_TREES))
            _stat, _df, p = chi_square_test(observed, expected, SHAPE_TREES)
            assert p > 0.001, (*where, exact, p)

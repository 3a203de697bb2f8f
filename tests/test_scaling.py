import math
from collections import Counter
from fractions import Fraction

import pytest

from gwtrees.degree_sets import DegreeSet
from gwtrees.offspring import binary_dist, geometric_dist
from gwtrees.samplers import SamplerTables
from gwtrees.scaling import (
    ExperimentReport,
    SplitMeasure,
    TestFunction,
    brownian_dislocation,
    brownian_dislocation_riemann,
    chi_square_test,
    damped_mean,
    depth_experiment,
    ecdf,
    ks_threshold,
    ks_two_sample,
    root_limit_statistic,
    root_split_measure,
    size_biased_expectation,
    size_biased_reorder,
    top_share_mean,
)
from gwtrees.streams import RandomStream

A0 = DegreeSet.of(0)
ALL = DegreeSet.all_degrees()
ONE = TestFunction(lambda s: Fraction(1), name="one")
ZERO = TestFunction(lambda s: Fraction(0), name="zero")


def test_root_split_measure_small():
    tab = SamplerTables(binary_dist(), A0, 3)
    assert root_split_measure(tab, 2).atoms == {(1, 1): 1}
    assert root_split_measure(tab, 3).atoms == {(2, 1): 1}
    tab_all = SamplerTables(binary_dist(), ALL, 3)
    assert root_split_measure(tab_all, 3).atoms == {(1, 1): 1}


def test_root_limit_statistic_examples():
    tab = SamplerTables(binary_dist(), A0, 3)
    v3 = root_limit_statistic(root_split_measure(tab, 3), ONE)
    v2 = root_limit_statistic(root_split_measure(tab, 2), ONE)
    assert abs(v3 - math.sqrt(3) / 3) < 1e-12
    assert abs(v2 - math.sqrt(2) / 2) < 1e-12
    assert root_limit_statistic(root_split_measure(tab, 3), ZERO) == 0.0


@pytest.mark.parametrize("law, spec", [("binary", "0"), ("geometric", "0"), ("geometric", "all"), ("geometric", "0,2")])
def test_constant_one_statistic_is_one_minus_top_share(law, spec):
    # root-partition and the root-limit suite compute the f = 1 statistic
    # from the top share; it must equal the damped mean exactly, so that
    # their output does not move by one bit
    dist = binary_dist() if law == "binary" else geometric_dist()
    tab = SamplerTables(dist, DegreeSet.parse(spec), 16)
    for m in range(1, 17):
        if tab.admissible(m):
            meas = root_split_measure(tab, m)
            top = top_share_mean(meas)
            assert damped_mean(meas, ONE) == 1 - top
            assert root_limit_statistic(meas, ONE) == math.sqrt(m) * float(1 - top)


def test_damped_mean_exact():
    meas = SplitMeasure(3, {(2, 1): Fraction(1)})
    assert damped_mean(meas, ONE) == Fraction(1, 3)
    assert damped_mean(meas, TestFunction(lambda s: s[0], name="s1")) == Fraction(1, 3) * Fraction(2, 3)


def test_brownian_dislocation_closed_form():
    val = brownian_dislocation(ONE)
    assert abs(val - 2 * math.sqrt(2 / math.pi)) < 1e-8
    assert brownian_dislocation(ZERO) == 0.0


def test_brownian_dislocation_riemann_oracle():
    f = TestFunction(lambda s: s[0], name="s1")
    quad = brownian_dislocation(f)
    brute = brownian_dislocation_riemann(f, points=1_000_000)
    assert 0 < quad < 2 * math.sqrt(2 / math.pi)
    assert abs(quad - brute) < 1e-6


def test_size_biased_reorder():
    s = RandomStream(2)
    assert size_biased_reorder((Fraction(1),), s) == (Fraction(1),)
    assert size_biased_reorder((Fraction(1, 2), Fraction(1, 2)), s)[0] == Fraction(1, 2)
    m = 30000
    hits = sum(size_biased_reorder((Fraction(2, 3), Fraction(1, 3)), s)[0] == Fraction(2, 3) for _ in range(m))
    se = math.sqrt((2 / 3) * (1 / 3) / m)
    assert abs(hits / m - 2 / 3) < 3 * se
    with pytest.raises(ValueError):
        size_biased_reorder((0,), s)


def test_size_biased_expectation_matches_monte_carlo():
    weights = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    f = lambda v: float(v[0]) - float(v[-1])
    exact = size_biased_expectation(weights, lambda v: Fraction(v[0]) - Fraction(v[-1]))
    s = RandomStream(77)
    m = 40000
    vals = [f(size_biased_reorder(weights, s)) for _ in range(m)]
    mean = sum(vals) / m
    sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (m - 1))
    assert abs(mean - float(exact)) < 3 * sd / math.sqrt(m)


def test_size_biased_measure_of_split_law():
    # size-biased mean of a split measure: exact computation vs reordering draws
    tab = SamplerTables(binary_dist(), A0, 6)
    meas = root_split_measure(tab, 6)
    g = lambda v: (1 - max(v)) if v else Fraction(0)
    exact = Fraction(0)
    for lam, w in meas.atoms.items():
        exact += w * size_biased_expectation(meas.pushed(lam), g)
    s = RandomStream(13)
    m = 20000
    atoms = sorted(meas.atoms.items())
    import itertools

    cum = list(itertools.accumulate(w for _, w in atoms))
    from gwtrees.streams import draw_cdf

    total = 0.0
    for _ in range(m):
        lam = atoms[draw_cdf(cum, s)][0]
        total += float(g(size_biased_reorder(meas.pushed(lam), s)))
    mean = total / m
    assert abs(mean - float(exact)) < 3 * 0.5 / math.sqrt(m)


def test_ks_examples():
    assert ks_two_sample([1, 2, 3], [1, 2, 3]) == 0.0
    assert ks_two_sample([0.0, 0.5], [2.0, 3.0]) == 1.0
    assert abs(ks_two_sample([1, 2], [1.5, 2.5]) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        ks_two_sample([], [1])
    assert abs(ks_threshold(5000, 5000) - 1.358 * math.sqrt(2 / 5000)) < 1e-12


def test_ecdf():
    xs, fs = ecdf([3, 1, 2])
    assert list(xs) == [1, 2, 3]
    assert list(fs) == [1 / 3, 2 / 3, 1.0]


def test_chi_square_detects_mismatch():
    s = RandomStream(5)
    obs = Counter()
    for _ in range(20000):
        obs["a" if s.random() < 0.5 else "b"] += 1
    _s1, _d1, p_good = chi_square_test(obs, {"a": 0.5, "b": 0.5}, 20000)
    _s2, _d2, p_bad = chi_square_test(obs, {"a": 0.3, "b": 0.7}, 20000)
    assert p_good > 0.001
    assert p_bad < 1e-6


def test_depth_experiment_trivial_size():
    arm = depth_experiment(binary_dist(), A0, 1, 30, RandomStream(9), exact=True)
    assert arm.samples == [0.0] * 30
    assert arm.marked_mass == 0.5
    assert arm.sigma1 == 1.0


def test_depth_experiment_reproducible():
    a = depth_experiment(binary_dist(), A0, 20, 50, RandomStream(4))
    b = depth_experiment(binary_dist(), A0, 20, 50, RandomStream(4))
    assert a.samples == b.samples


def test_report_roundtrip_and_determinism():
    arm = depth_experiment(binary_dist(), A0, 10, 20, RandomStream(8))
    rep = ExperimentReport(config={"n": 10}, seed=8, arms=[arm], tests=[{"name": "t", "pass": True}], version="x")
    blob1 = rep.to_json()
    blob2 = rep.to_json()
    assert blob1 == blob2
    import json

    parsed = json.loads(blob1)
    assert parsed["seed"] == 8
    assert parsed["arms"][0]["samples"] == 20
    csv = rep.samples_csv()
    assert csv.splitlines()[0] == "arm,sample_index,value"
    assert len(csv.splitlines()) == 21

import math
from collections import Counter
from fractions import Fraction

import pytest

from gwtrees.degree_sets import DegreeSet
from gwtrees.exact import marked_count_pmf
from gwtrees.offspring import binary_dist, geometric_dist
from gwtrees.samplers import SamplerTables
from gwtrees.scaling import (
    ExperimentReport,
    SplitMeasure,
    TestFunction,
    block_count_marginal,
    chi_square_sf,
    chi_square_test,
    damped_mean,
    depth_experiment,
    ecdf,
    ks_threshold,
    ks_two_sample,
    root_limit_statistic,
    root_split_measure,
    top_share_mean,
)
from gwtrees.streams import RandomStream
from gwtrees.suites import LIPSCHITZ_SUITE

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


def _reference_damped_mean(measure, f):
    """The former damped_mean, one Fraction added per atom: the reference."""
    total = Fraction(0)
    for lam, w in measure.atoms.items():
        if w == 0:
            continue
        t = sum(lam)
        s = tuple(Fraction(part, t) for part in lam) if t else ()
        total += w * (1 - (s[0] if s else Fraction(0))) * f(s)
    return total


def _reference_top_share_mean(measure):
    """The former top_share_mean, one Fraction per total: the reference."""
    by_total = {}
    for lam, w in measure.atoms.items():
        if lam:
            t = sum(lam)
            by_total[t] = by_total.get(t, 0) + w * lam[0]
    return sum((v / t for t, v in by_total.items()), Fraction(0))


def _reference_block_count_marginal(measure):
    """The former block_count_marginal, one Fraction added per atom: the reference."""
    out = {}
    for lam, w in measure.atoms.items():
        p = len(lam) if lam else -1
        out[p] = out.get(p, Fraction(0)) + w
    return out


def _assert_statistics_match_references(meas):
    for f in LIPSCHITZ_SUITE:
        got = damped_mean(meas, f)
        assert type(got) is Fraction and got == _reference_damped_mean(meas, f), (meas.size, f.name)
    # the reference divides an int sum by its total when every weight of
    # that total is an int, so it sees the weights as Fractions
    as_fractions = SplitMeasure(meas.size, {lam: Fraction(w) for lam, w in meas.atoms.items()})
    got = top_share_mean(meas)
    assert type(got) is Fraction and got == _reference_top_share_mean(as_fractions)
    got = list(block_count_marginal(meas).items())
    assert got == list(_reference_block_count_marginal(meas).items()), meas.size


@pytest.mark.parametrize(
    "law, spec", [("binary", "0"), ("binary", "all"), ("geometric", "0"), ("geometric", "0,2"), ("geometric", "all")]
)
def test_statistics_match_per_atom_fraction_sums(law, spec):
    # every value exact and equal, and the block-count keys in the same order
    dist = binary_dist() if law == "binary" else geometric_dist()
    marks = DegreeSet.parse(spec)
    table = marked_count_pmf(dist, marks, 16)
    tab = SamplerTables(dist, marks, max(m for m in range(17) if table[m]))
    assert () in root_split_measure(tab, 1).atoms
    for m in range(1, tab.n + 1):
        if tab.admissible(m):
            _assert_statistics_match_references(root_split_measure(tab, m))


def test_statistics_match_references_on_zero_and_int_weights():
    meas = SplitMeasure(4, {(3,): 0, (2, 1, 1): Fraction(1, 2), (): Fraction(0), (2, 2): 1, (1, 1): Fraction(1, 6)})
    _assert_statistics_match_references(meas)
    assert list(block_count_marginal(meas)) == [1, 3, -1, 2]
    calls = []
    damped_mean(meas, TestFunction(lambda s: calls.append(s) or Fraction(1), name="count"))
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert calls == [(half, quarter, quarter), (half, half), (half, half)]
    assert damped_mean(SplitMeasure(1, {}), ONE) == 0 and top_share_mean(SplitMeasure(1, {})) == 0


def test_damped_mean_rejects_a_float_test_function():
    meas = SplitMeasure(3, {(2, 1): Fraction(1)})
    with pytest.raises(TypeError, match="float-half"):
        damped_mean(meas, TestFunction(lambda s: 0.5, name="float-half"))
    assert damped_mean(meas, TestFunction(lambda s: 2, name="int-two")) == Fraction(2, 3)


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


# (x, df, Q) with Q = scipy.stats.chi2.sf(x, df) from scipy 1.17.1
CHI_SQUARE_SF = [
    (0.5, 1, 0.47950012218695337),
    (3.84, 1, 0.05004352124870519),
    (10.0, 1, 0.001565402258002549),
    (0.1, 2, 0.951229424500714),
    (5.99, 2, 0.05003662708658629),
    (30.0, 2, 3.0590232050182594e-07),
    (7.81, 3, 0.05010605635000589),
    (2.0, 4, 0.7357588823428847),
    (11.07, 5, 0.050009618622405425),
    (18.3, 10, 0.050109061411462506),
    (3.0, 11, 0.9907258863657353),
    (60.0, 25, 0.00010455486131526446),
    (100.0, 59, 0.0006869731108532106),
    (124.3, 100, 0.050266398300158416),
    (250.0, 200, 0.009379131668826098),
    (916.0, 400, 1.8021673643927733e-42),
]


@pytest.mark.parametrize("x, df, q", CHI_SQUARE_SF)
def test_chi_square_sf_matches_scipy(x, df, q):
    assert chi_square_sf(x, df) == pytest.approx(q, rel=1e-12)


def test_chi_square_sf_closed_forms():
    # one degree of freedom is erfc(sqrt(x/2)), two are exp(-x/2); a
    # statistic of zero has tail one
    for x in (1e-9, 0.3, 1.0, 4.0, 25.0, 300.0):
        assert chi_square_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-14)
        assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-14)
    assert [chi_square_sf(0.0, df) for df in (1, 2, 7)] == [1.0, 1.0, 1.0]


def test_depth_experiment_trivial_size():
    arm = depth_experiment(binary_dist(), A0, 1, 30, RandomStream(9))
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


def test_all_names_resolve():
    # `from gwtrees.scaling import *` fails on a stale entry
    import gwtrees.scaling as scaling

    missing = [name for name in scaling.__all__ if not hasattr(scaling, name)]
    assert missing == []
    namespace: dict = {}
    exec("from gwtrees.scaling import *", namespace)
    assert set(scaling.__all__) <= set(namespace)

import json
from fractions import Fraction
from math import comb

import pytest

from gwtrees.suites import (
    SUITES,
    run_checkmap,
    run_follower,
    run_hat_law,
    run_otter_dwass,
    run_universality,
    snap_admissible,
    wald_moments,
)
from gwtrees.degree_sets import DegreeSet
from gwtrees.offspring import binary_dist, geometric_dist


def test_suite_registry_names():
    assert set(SUITES) == {
        "otter-dwass",
        "checkmap",
        "hat-law",
        "mb-equivalence",
        "follower",
        "root-limit",
        "universality",
    }


def test_otter_dwass_small():
    result = run_otter_dwass(max_n=12, enum_n=4)
    assert result.ok(), [c.name for c in result.checks if not c.passed]


def test_otter_dwass_mismatch_names_first_size(monkeypatch):
    # one engine entry perturbed past the enumeration sizes: both exact
    # checks fail and report where, with both values as p/q
    from gwtrees import suites

    engine = suites.marked_count_pmf

    def perturbed(dist, marks, max_n):
        table = engine(dist, marks, max_n)
        if max_n == 12:
            table[7] += Fraction(1, 10**6)
        return table

    monkeypatch.setattr(suites, "marked_count_pmf", perturbed)
    result = run_otter_dwass(max_n=12, enum_n=4, dists=["binary"], set_specs=["0"])
    failed = {c.name: c.detail for c in result.checks if not c.passed}
    assert set(failed) == {"walk-formula[binary/0]", "functional-equation[binary/0]"}
    want = Fraction(comb(12, 6), 7 * 2**13)
    got = want + Fraction(1, 10**6)
    for detail in failed.values():
        assert detail["first_mismatch"] == {
            "n": 7,
            "expected": f"{want.numerator}/{want.denominator}",
            "got": f"{got.numerator}/{got.denominator}",
        }


def test_checkmap_small():
    result = run_checkmap(max_vertices=7)
    assert result.ok()


@pytest.mark.parametrize("seed", [2, 3])
def test_hat_law_passes_where_the_plug_in_error_was_zero(seed):
    # binary/{0,2} has the two-point hat law on {0, 2}, where m4 - s2^2 is 0
    result = run_hat_law(seed)
    assert result.ok(), [c.name for c in result.checks if not c.passed]


def test_wald_variance_rejects_a_tilted_two_point_law():
    # P(2) = 0.51 has variance 0.9996, not the target 1; P(2) = 1/2 has 1
    n = 100_000
    _m, s2, se = wald_moments([2] * 51_000 + [0] * 49_000, 1.0)
    assert abs(s2 - 1.0) > 3 * se
    _m, s2, se = wald_moments([2] * 50_000 + [0] * 50_000, 1.0)
    assert abs(s2 - 1.0) <= 3 * se
    assert abs(se - 2**0.5 / n) < 1e-7


def test_follower_small():
    result = run_follower(max_n=8)
    assert result.ok()


def test_snap_admissible_parity():
    assert snap_admissible(binary_dist(), DegreeSet.all_degrees(), 2000) == 2001
    assert snap_admissible(binary_dist(), DegreeSet.all_degrees(), 51) == 51
    assert snap_admissible(binary_dist(), DegreeSet.of(0), 50) == 50
    assert snap_admissible(geometric_dist(), DegreeSet.all_degrees(), 50) == 50


def test_suite_result_serialises():
    result = run_checkmap(max_vertices=5)
    blob = result.to_json()
    parsed = json.loads(blob)
    assert parsed["suite"] == "checkmap"
    assert parsed["ok"] is True
    assert all("name" in c and "pass" in c for c in parsed["checks"])


def test_universality_report_carries_every_check(tmp_path):
    from gwtrees.cli import main

    result = run_universality(seed=3, n=30, samples=80)
    tests = result.report.tests
    assert [t["name"] for t in tests] == [c.name for c in result.checks]
    assert [t["pass"] for t in tests] == [c.passed for c in result.checks]
    assert all("statistic" in t and "threshold" in t for t in tests)
    kinds = {t["name"].split("[")[0] for t in tests}
    assert kinds == {"ks-exact", "ks-across-sets", "ks-across-laws", "mean-scaling"}
    path = tmp_path / "report.json"
    path.write_text(result.report.to_json())
    # `gwtrees report` reaches the same verdict as `gwtrees verify`
    assert main(["report", str(path)]) == (0 if result.ok() else 1)

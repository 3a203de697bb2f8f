from fractions import Fraction

import pytest

from gwtrees.degree_sets import DegreeSet
from gwtrees.offspring import (
    InvalidDistribution,
    OffspringDist,
    binary_dist,
    collapsed_coeffs_float,
    collapsed_moments,
    collapsed_offspring,
    float_pmf,
    from_probs,
    geometric_dist,
    moments,
    validate,
)

A0 = DegreeSet.of(0)
ALL = DegreeSet.all_degrees()


def test_degree_set_parse_roundtrip():
    for spec in ("0", "0,2", "all", "not:1,3", "geq:3"):
        assert DegreeSet.parse(spec).spec() in ("0", "0,2", "all", "not:1,3", "not:1,2")
    assert 5 in DegreeSet.parse("all")
    assert -1 not in DegreeSet.parse("all")
    s = DegreeSet.parse("geq:3")
    assert 0 in s and 3 in s and 2 not in s


def test_validate_accepts_and_rejects():
    validate(binary_dist())
    validate(geometric_dist())
    with pytest.raises(InvalidDistribution) as err:
        validate(from_probs([Fraction(1, 5), Fraction(0), Fraction(4, 5)]))  # mean 8/5
    assert err.value.code == "supercritical"
    with pytest.raises(InvalidDistribution) as err:
        validate(from_probs([Fraction(0), Fraction(1, 2), Fraction(1, 2)]))
    assert err.value.code == "xi0_zero"
    with pytest.raises(InvalidDistribution) as err:
        validate(from_probs([Fraction(1, 2), Fraction(1, 4)]))
    assert err.value.code == "not_normalized"


def test_validate_all_mass_on_one_child():
    with pytest.raises(InvalidDistribution) as err:
        validate(OffspringDist("finite", (Fraction(0), Fraction(1), Fraction(0))))
    assert err.value.code == "xi1_is_one"
    with pytest.raises(InvalidDistribution) as err:
        validate(OffspringDist("finite", (Fraction(0), Fraction(1, 2), Fraction(1, 2))))
    assert err.value.code == "xi0_zero"


def test_collapsed_offspring_binary_leaves():
    zeta = collapsed_offspring(binary_dist(), A0, 12)
    assert zeta.truncated
    assert zeta.coeffs(12) == [Fraction(1, 2 ** (k + 1)) for k in range(13)]


def test_collapsed_offspring_geometric_leaves():
    zeta = collapsed_offspring(geometric_dist(), A0, 12)
    expect = [Fraction(2, 3)] + [Fraction(1, 9) * Fraction(2, 3) ** (k - 1) for k in range(1, 13)]
    assert list(zeta.probs) == expect


def test_collapsed_offspring_identity_when_covered():
    assert collapsed_offspring(binary_dist(), ALL, 6) is binary_dist() or collapsed_offspring(
        binary_dist(), ALL, 6
    ) == binary_dist()
    assert collapsed_offspring(binary_dist(), DegreeSet.of(0, 2), 6) == binary_dist()
    assert collapsed_offspring(geometric_dist(), ALL, 6) == geometric_dist()


def test_collapsed_offspring_requires_zero():
    with pytest.raises(ValueError):
        collapsed_offspring(binary_dist(), DegreeSet.of(2), 6)


def _series_mul(a, b):
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


def _series_reciprocal(a):
    out = [Fraction(1) / a[0]]
    for m in range(1, len(a)):
        out.append(-sum(a[k] * out[m - k] for k in range(1, m + 1)) / a[0])
    return out


def _reference_collapsed(dist, marks, order):
    """The collapsed law a / (1 - u) by Fraction series arithmetic."""
    xs = dist.coeffs(order + 1)
    marked = [xs[k] if k in marks else Fraction(0) for k in range(order + 1)]
    one_minus_u = [(k == 0) - (xs[k + 1] if k + 1 not in marks else 0) for k in range(order + 1)]
    return _series_mul(marked, _series_reciprocal(one_minus_u))


@pytest.mark.parametrize(
    "dist",
    [
        binary_dist(),
        geometric_dist(),
        geometric_dist(Fraction(2, 3)),
        from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)]),
        from_probs([Fraction(1, 2), Fraction(1, 5), Fraction(1, 6), Fraction(2, 15)]),
    ],
    ids=["binary", "geometric", "geometric-2/3", "mixed", "coprime"],
)
def test_collapsed_offspring_matches_fraction_series(dist):
    for spec in ("0", "0,1", "0,2", "0,3", "not:1,3"):
        marks = DegreeSet.parse(spec)
        zeta = collapsed_offspring(dist, marks, 40)
        if marks.covers_support(dist):
            assert zeta is dist
            continue
        want = _reference_collapsed(dist, marks, 40)
        assert list(zeta.probs) == want, spec
        floats = collapsed_coeffs_float(dist, marks, 40)
        assert all(abs(x - float(w)) <= 1e-12 * float(w) for x, w in zip(floats, want)), spec


def _series_quotient(num, den, order):
    """Coefficients of num/den to `order` by Fraction series division."""
    out = []
    for e in range(order + 1):
        v = Fraction(num[e] if e < len(num) else 0)
        v -= sum(den[i] * out[e - i] for i in range(1, min(e, len(den) - 1) + 1))
        out.append(v / den[0])
    return out


@pytest.mark.parametrize(
    "dist",
    [
        binary_dist(),
        geometric_dist(),
        geometric_dist(Fraction(1, 3)),
        geometric_dist(Fraction(2, 3)),
        from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)]),
        from_probs([Fraction(1, 2), Fraction(1, 5), Fraction(1, 6), Fraction(2, 15)]),
    ],
    ids=["binary", "geometric", "geometric-1/3", "geometric-2/3", "mixed", "coprime"],
)
def test_generating_function_series_matches_pmf(dist):
    pairs = [(dist, dist.coeffs(40))]
    for spec in ("0", "0,1", "0,2", "0,3", "0,3,5", "geq:3", "not:1,3", "all"):
        marks = DegreeSet.parse(spec)
        pairs.append((collapsed_offspring(dist, marks, 40), _reference_collapsed(dist, marks, 40)))
    for law, want in pairs:
        num, den = law.generating_function
        assert all(type(x) is int for x in (*num, *den)) and den[0] > 0
        assert _series_quotient(num, den, 40) == want
        assert law.coeffs(40) == want


def test_generating_function_needs_an_exact_complete_law():
    with pytest.raises(ValueError):
        OffspringDist("finite", (0.5, 0, 0.5)).generating_function
    with pytest.raises(ValueError):
        OffspringDist("finite", (Fraction(1, 2), Fraction(1, 4)), truncated=True).generating_function


def test_moments():
    m = moments(binary_dist())
    assert (m.mean, m.variance) == (1, 1)
    assert m.size_biased(2) == 1
    m = moments(geometric_dist())
    assert (m.mean, m.variance) == (1, 2)
    m = moments(from_probs([Fraction(1)]))
    assert (m.mean, m.variance) == (0, 0)


def test_collapsed_moments():
    assert collapsed_moments(binary_dist(), A0) == (1, 2)
    assert collapsed_moments(binary_dist(), ALL) == (1, 1)
    assert collapsed_moments(geometric_dist(), A0) == (1, 4)
    with pytest.raises(ValueError):
        collapsed_moments(from_probs([Fraction(3, 4), Fraction(0), Fraction(1, 4)]), A0)


def test_collapsed_coefficients_are_subprobability():
    for dist in (binary_dist(), geometric_dist()):
        for marks in (A0, DegreeSet.of(0, 2), DegreeSet.of(0, 1)):
            zeta = collapsed_offspring(dist, marks, 40)
            coeffs = zeta.coeffs(40)
            assert all(c >= 0 for c in coeffs)
            running = Fraction(0)
            for c in coeffs:
                running += c
                assert running <= 1


def test_collapsed_partial_mean_monotone_to_one():
    # float coefficients at truncation order 400: partial means increase to 1
    for dist in (binary_dist(), geometric_dist()):
        zeta = collapsed_coeffs_float(dist, A0, 400).tolist()
        partial = 0.0
        prev = -1.0
        for k, c in enumerate(zeta):
            partial += k * c
            assert partial >= prev
            prev = partial
        assert partial <= 1 + 1e-12
        assert 1 - partial < 1e-6


def test_collapsed_partial_variance_converges():
    for dist, want in ((binary_dist(), 2.0), (geometric_dist(), 4.0)):
        zeta = collapsed_coeffs_float(dist, A0, 400).tolist()
        mean = sum(k * c for k, c in enumerate(zeta))
        second = sum(k * k * c for k, c in enumerate(zeta))
        assert abs(second - mean * mean - want) < 1e-4


def test_json_specs():
    assert OffspringDist.from_json({"family": "binary"}) == binary_dist()
    assert OffspringDist.from_json('{"family":"geometric","p":"1/2"}') == geometric_dist()
    d = OffspringDist.from_json({"probs": ["1/2", "0", "1/2"]})
    assert d == binary_dist()
    assert OffspringDist.from_json(binary_dist().to_json()) == binary_dist()
    with pytest.raises(ValueError):
        OffspringDist.from_json({"family": "cauchy"})
    # JSON numbers are read as the rationals they print as
    assert OffspringDist.from_json({"probs": [0.5, 0, 0.5]}) == binary_dist()
    assert OffspringDist.from_json({"family": "geometric", "p": 0.6}) == geometric_dist(Fraction(3, 5))


def test_laws_must_be_rational():
    for build in (
        lambda: OffspringDist("finite", (0.5, 0, 0.5)),
        lambda: geometric_dist(0.5),
        lambda: from_probs([Fraction(1, 2), 0, 0.5]),
    ):
        with pytest.raises(ValueError, match="rational"):
            build()


@pytest.mark.parametrize(
    "dist",
    [
        binary_dist(),
        geometric_dist(),
        geometric_dist(Fraction(1, 3)),
        geometric_dist(Fraction(3, 5)),
        geometric_dist(Fraction(2, 3)),
        geometric_dist(Fraction(11, 20)),
        from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)]),
        from_probs([Fraction(1, 2), Fraction(1, 5), Fraction(1, 6), Fraction(2, 15)]),
    ],
    ids=["binary", "geometric", "geometric-1/3", "geometric-3/5", "geometric-2/3", "geometric-11/20", "mixed", "coprime"],
)
def test_float_pmf_is_the_float_of_each_mass(dist):
    # bit for bit, so float tables built from it match those built from Fractions
    order = 4096
    assert float_pmf(dist, order).tolist() == [float(dist.pmf(k)) for k in range(order + 1)]

import random
import sys
from fractions import Fraction

import pytest

from gwtrees.degree_sets import DegreeSet
from gwtrees.offspring import (
    InvalidDistribution,
    OffspringDist,
    binary_dist,
    bit_indices,
    bit_list,
    collapsed_coeffs_float,
    collapsed_moments,
    collapsed_offspring,
    collapsed_pair,
    degree_masks,
    float_pmf,
    from_probs,
    geometric_dist,
    sums_closure,
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
    assert zeta == [Fraction(1, 2 ** (k + 1)) for k in range(13)]


def test_collapsed_offspring_geometric_leaves():
    zeta = collapsed_offspring(geometric_dist(), A0, 12)
    expect = [Fraction(2, 3)] + [Fraction(1, 9) * Fraction(2, 3) ** (k - 1) for k in range(1, 13)]
    assert zeta == expect


def test_collapsed_offspring_identity_when_covered():
    for dist, marks in ((binary_dist(), ALL), (binary_dist(), DegreeSet.of(0, 2)), (geometric_dist(), ALL)):
        assert collapsed_pair(dist, marks) == dist.generating_function
        assert collapsed_offspring(dist, marks, 6) == dist.coeffs(6)


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


COLLAPSE_LAWS = pytest.mark.parametrize(
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
COLLAPSE_SPECS = ("0", "0,1", "0,2", "0,3", "not:1,3", "all")


@COLLAPSE_LAWS
def test_collapsed_offspring_matches_fraction_series(dist):
    for spec in COLLAPSE_SPECS:
        marks = DegreeSet.parse(spec)
        zeta = collapsed_offspring(dist, marks, 40)
        if marks.covers_support(dist):
            assert zeta == dist.coeffs(40)
            # bit for bit, so float tables start from the law's own masses
            for order in (10, 4095, 8191):
                got = collapsed_coeffs_float(dist, marks, order)
                assert got.tobytes() == float_pmf(dist, order).tobytes(), (spec, order)
            continue
        want = _reference_collapsed(dist, marks, 40)
        assert zeta == want, spec
        # the first walk state to any order is a prefix of the same series
        assert all(collapsed_offspring(dist, marks, order) == want[: order + 1] for order in (0, 1, 2, 7)), spec
        floats = collapsed_coeffs_float(dist, marks, 40)
        assert all(abs(x - float(w)) <= 1e-12 * float(w) for x, w in zip(floats, want)), spec


@COLLAPSE_LAWS
def test_collapsed_coeffs_float_match_the_exact_law_to_order_1000(dist):
    # 0.0 exactly where the exact mass is 0 (the support rule, not a floor);
    # elsewhere 1e-12 relative, in absolute terms below the smallest normal
    # float, where subcritical masses lose their relative precision
    for spec in COLLAPSE_SPECS:
        marks = DegreeSet.parse(spec)
        if marks.covers_support(dist):
            continue
        exact = collapsed_offspring(dist, marks, 1000)
        floats = collapsed_coeffs_float(dist, marks, 1000)
        for e, (x, w) in enumerate(zip(floats.tolist(), exact)):
            if w == 0:
                assert x == 0.0, (spec, e)
            else:
                assert abs(x - float(w)) <= 1e-12 * max(float(w), sys.float_info.min), (spec, e)


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
    pairs = [(dist.generating_function, dist.coeffs(40))]
    for spec in ("0", "0,1", "0,2", "0,3", "0,3,5", "geq:3", "not:1,3", "all"):
        marks = DegreeSet.parse(spec)
        pairs.append((collapsed_pair(dist, marks), _reference_collapsed(dist, marks, 40)))
    for (num, den), want in pairs:
        assert all(type(x) is int for x in (*num, *den)) and den[0] > 0
        assert _series_quotient(num, den, 40) == want


def test_generating_function_needs_an_exact_complete_law():
    with pytest.raises(ValueError):
        OffspringDist("finite", (0.5, 0, 0.5)).generating_function


@pytest.mark.parametrize(
    "dist",
    [
        binary_dist(),
        from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)]),
        from_probs([Fraction(1, 2), Fraction(1, 5), Fraction(1, 6), Fraction(2, 15), Fraction(0)]),
        geometric_dist(),
        geometric_dist(Fraction(2, 3)),
        geometric_dist(Fraction(3, 5)),
    ],
    ids=["binary", "mixed", "coprime-zero-tail", "geometric", "geometric-2/3", "geometric-3/5"],
)
def test_integer_masses(dist):
    # a finite law below, at and above its last stored degree
    last = len(dist.probs) - 1 if dist.family == "finite" else 5
    for order in (0, 1, last - 1, last, last + 1, 12):
        nums, den = dist.integer_masses(order)
        assert len(nums) == order + 1 and all(type(x) is int for x in (*nums, den))
        assert [Fraction(x, den) for x in nums] == dist.coeffs(order), order
        assert sum(nums) <= den


def test_moments():
    for dist, expected in ((binary_dist(), (1, 1)), (geometric_dist(), (1, 2)), (from_probs([Fraction(1)]), (0, 0))):
        assert (dist.mean(), dist.variance()) == expected


def test_collapsed_moments():
    assert collapsed_moments(binary_dist(), A0) == (1, 2)
    assert collapsed_moments(binary_dist(), ALL) == (1, 1)
    assert collapsed_moments(geometric_dist(), A0) == (1, 4)
    with pytest.raises(ValueError):
        collapsed_moments(from_probs([Fraction(3, 4), Fraction(0), Fraction(1, 4)]), A0)


def test_collapsed_coefficients_are_subprobability():
    for dist in (binary_dist(), geometric_dist()):
        for marks in (A0, DegreeSet.of(0, 2), DegreeSet.of(0, 1)):
            coeffs = collapsed_offspring(dist, marks, 40)
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
    assert OffspringDist.from_json({"family": "geometric", "p": "1/2"}) == geometric_dist()
    # a law has one spelling: JSON text that holds the object is refused
    with pytest.raises(ValueError, match="JSON object"):
        OffspringDist.from_json('{"family":"geometric","p":"1/2"}')
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


def test_sums_closure_on_int_bit_sets_matches_a_set_closure():
    # start + <gens> below size, against adding one generator at a time
    rng = random.Random(7)
    for _ in range(300):
        size = rng.randint(0, 40)
        start = {k for k in range(size) if rng.random() < 0.2}
        gens = sorted(rng.randint(0, 45) for _ in range(rng.randint(0, 4)))
        want = set(start)
        for g in gens:
            if g:
                for k in range(size):
                    if k - g in want:
                        want.add(k)
        got = sums_closure(sum(1 << k for k in start), iter(gens), size)
        assert bit_list(got, size) == [k in want for k in range(size)], (start, gens, size)
        assert list(bit_indices(got)) == sorted(want)


def test_degree_masks_are_int_bit_sets():
    law = from_probs([Fraction(13, 20), 0, Fraction(1, 4), 0, 0, Fraction(1, 10)])
    assert degree_masks(law, DegreeSet.parse("0,2"), 3) == (0b0101, 0b0101)
    assert degree_masks(law, DegreeSet.parse("not:1,3"), 6) == (0b100101, 0b1110101)
    assert degree_masks(geometric_dist(), A0, 2) == (0b111, 0b001)
    assert bit_list(0, 0) == [] and bit_list(0b10, 3) == [False, True, False]

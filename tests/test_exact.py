from fractions import Fraction
from functools import cache
from math import comb

import pytest

from gwtrees.degree_sets import DegreeSet
from gwtrees.exact import (
    FLOAT_TABLE_ATOL,
    FLOAT_TABLE_RTOL,
    _walk,
    enumerate_mass,
    forest_leaf_pmf,
    leaf_pmf_fixed_point,
    marked_count_fixed_point,
    marked_count_pmf,
    marked_count_pmf_float,
    marked_count_support,
    progeny_pmf,
)
from gwtrees.offspring import binary_dist, collapsed_offspring, collapsed_pair, from_probs, geometric_dist

A0 = DegreeSet.of(0)
A02 = DegreeSet.of(0, 2)
ALL = DegreeSet.all_degrees()
SETS = (A0, DegreeSet.of(0, 1), A02, ALL)
# laws whose step denominators are not all powers of two; in COPRIME no
# denominator is a multiple of all the others, so the walk's common
# denominator must be their lcm, not the largest of them
THIRDS = from_probs([Fraction(1, 3)] * 3)
MIXED = from_probs([Fraction(7, 12), Fraction(1, 6), Fraction(0), Fraction(1, 4)])
COPRIME = from_probs([Fraction(1, 2), Fraction(1, 5), Fraction(1, 6), Fraction(2, 15)])
# sets that give the geometric laws' collapsed pairs denominators of degree >= 2
WIDE_SETS = tuple(DegreeSet.parse(spec) for spec in ("geq:3", "0,3,5", "not:1,3"))


def _fraction_walk(coeffs, k, top):
    """Reference walk in Fraction arithmetic on the step law with
    coefficients `coeffs`: the states after steps 1..k, keeping only values
    that can still fall back to top - k."""
    steps = [(j - 1, coeffs[j]) for j in range(max(top - 1, -1) + 2) if coeffs[j] != 0]
    states = []
    cur = {0: Fraction(1)}
    for j in range(1, k + 1):
        nxt = {}
        for s, pr in cur.items():
            for v, pv in steps:
                if s + v > top - j:
                    break
                nxt[s + v] = nxt.get(s + v, Fraction(0)) + pr * pv
        cur = nxt
        states.append(cur)
    return states


def _progeny(pair, max_n):
    """The total-progeny law of one tree of the law with generating function
    `pair` to max_n, by the walk."""
    return progeny_pmf(_walk(pair, max_n, max_n - 1), 1)


def _reference_progeny(coeffs, max_n):
    states = _fraction_walk(coeffs, max_n, max_n - 1)
    return [Fraction(0)] + [st.get(-1, Fraction(0)) / n for n, st in enumerate(states, start=1)]


def _integer_states(pair, k, top):
    """The states of the integer walk after steps 1..k, as _fraction_walk
    gives them: coefficient e of state j is the walk at e - j."""
    return [
        {e - j: Fraction(c, scale * base**e) for e, c in enumerate(cur) if c}
        for j, (cur, scale, base) in enumerate(_walk(pair, k, top), start=1)
    ]


def test_walk_examples():
    states = _integer_states(geometric_dist().generating_function, 2, 2)
    assert states[0][-1] == Fraction(1, 2)
    assert states[1][-1] == Fraction(1, 4)
    assert -3 not in states[1]
    assert _integer_states(binary_dist().generating_function, 0, 0) == []


def test_progeny_pmf_examples():
    pg = _progeny(geometric_dist().generating_function, 4)
    assert pg[1] == Fraction(1, 2)
    assert pg[2] == Fraction(1, 8)
    pd = _progeny(from_probs([Fraction(1)]).generating_function, 4)
    assert pd[1] == 1 and pd[2] == pd[3] == pd[4] == 0


def test_progeny_pmf_of_no_tree_is_the_point_mass():
    # p = 0 reads no state entry, whatever order the states run to
    for dist in (binary_dist(), geometric_dist(), COPRIME):
        assert progeny_pmf(_walk(dist.generating_function, 6, 5), 0) == [1, 0, 0, 0, 0, 0, 0]
        assert progeny_pmf(_walk(dist.generating_function, 6, -1), 0) == [1] + [0] * 6
    assert progeny_pmf(iter(()), 0) == [1]


def test_marked_count_binary_leaves_catalan():
    table = marked_count_pmf(binary_dist(), A0, 10)
    assert table[1] == Fraction(1, 2)
    assert table[2] == Fraction(1, 8)
    assert table[3] == Fraction(1, 16)
    for n in range(1, 11):
        assert table[n] == Fraction(comb(2 * n - 2, n - 1), n * 2 ** (2 * n - 1))
        assert table[n] > 0


def test_marked_count_binary_all():
    table = marked_count_pmf(binary_dist(), ALL, 9)
    assert table[3] == Fraction(1, 8)
    assert table[2] == table[4] == 0  # parity


def test_leaf_routes_agree():
    # walk-formula route vs functional-equation route, exact; the benchmark's
    # table sizes (binary n=100, geometric n=64) and a mixed-denominator law
    for dist, n in ((binary_dist(), 100), (geometric_dist(), 64), (MIXED, 40)):
        assert marked_count_pmf(dist, A0, n) == leaf_pmf_fixed_point(dist, n)


@pytest.mark.parametrize(
    "dist",
    [binary_dist(), geometric_dist(), geometric_dist(Fraction(1, 3)), THIRDS, MIXED, COPRIME],
    ids=["binary", "geometric", "geometric-1/3", "thirds", "mixed", "coprime"],
)
def test_integer_walk_matches_fraction_walk(dist):
    for marks in (*SETS, *WIDE_SETS):
        pair, zeta = collapsed_pair(dist, marks), collapsed_offspring(dist, marks, 40)
        assert _progeny(pair, 40) == _reference_progeny(zeta, 40)
        for k, top in ((40, 40), (20, 30), (1, 1), (0, 0)):
            assert _integer_states(pair, k, top) == _fraction_walk(zeta, k, top)
    assert _progeny(dist.generating_function, 40) == _reference_progeny(dist.coeffs(40), 40)


@cache
def _table_1000(name, spec):
    dist = binary_dist() if name == "binary" else geometric_dist()
    return marked_count_pmf(dist, DegreeSet.parse(spec), 1000)


def _catalan(k):
    return comb(2 * k, k) // (k + 1)


def test_closed_forms_to_n_1000():
    # binary leaves and geometric total progeny: C_(n-1) / 2^(2n-1);
    # binary total progeny: C_k / 2^(2k+1) at n = 2k+1, none at even n
    leaves, progeny = _table_1000("binary", "0"), _table_1000("geometric", "all")
    assert leaves == progeny == [0] + [Fraction(_catalan(n - 1), 2 ** (2 * n - 1)) for n in range(1, 1001)]
    odd = _table_1000("binary", "all")
    assert odd[0::2] == [0] * 501
    assert odd[1::2] == [Fraction(_catalan(k), 2 ** (2 * k + 1)) for k in range(500)]


@pytest.mark.parametrize("name,spec", [("binary", "0"), ("binary", "all"), ("geometric", "0"), ("geometric", "0,2")])
def test_float_table_certified_to_n_1000(name, spec):
    exact = _table_1000(name, spec)
    dist = binary_dist() if name == "binary" else geometric_dist()
    approx = marked_count_pmf_float(dist, DegreeSet.parse(spec), 1000)
    for n in range(1, 1001):
        if exact[n] == 0:
            assert abs(approx[n]) <= 1e-15, n
        else:
            assert abs(approx[n] - float(exact[n])) <= FLOAT_TABLE_RTOL * float(exact[n]), n


@pytest.mark.parametrize("name,spec", [("binary", "0"), ("geometric", "all")])
def test_float_table_certified_to_n_4000(name, spec):
    # a larger FFT than at n = 1000, and 500 blocks of powers: the closed
    # form C_(n-1) / 2^(2n-1) stands in for the exact table
    dist = binary_dist() if name == "binary" else geometric_dist()
    approx = marked_count_pmf_float(dist, DegreeSet.parse(spec), 4000)
    catalan = 1  # C_(n-1)
    for n in range(1, 4001):
        want = catalan / 2 ** (2 * n - 1)
        assert abs(approx[n] - want) <= FLOAT_TABLE_RTOL * want, n
        catalan = catalan * 2 * (2 * n - 1) // (n + 1)


@pytest.mark.parametrize("max_n", [1, 2, 7, 8, 9, 17])
def test_float_table_at_block_edges(max_n):
    # sizes that end inside a block of powers, on its last entry, or one past it
    for name, spec in (("binary", "0"), ("binary", "all"), ("geometric", "0"), ("geometric", "0,2")):
        dist = binary_dist() if name == "binary" else geometric_dist()
        exact = marked_count_pmf(dist, DegreeSet.parse(spec), max_n)
        approx = marked_count_pmf_float(dist, DegreeSet.parse(spec), max_n)
        assert approx.shape == (max_n + 1,) and approx[0] == 0.0
        for n in range(1, max_n + 1):
            if exact[n] == 0:
                assert abs(approx[n]) <= 1e-15, (name, spec, n)
            else:
                assert abs(approx[n] - float(exact[n])) <= FLOAT_TABLE_RTOL * float(exact[n]), (name, spec, n)


@pytest.mark.parametrize("p", [Fraction(11, 20), Fraction(3, 5), Fraction(2, 3)])
@pytest.mark.parametrize("spec", ["0", "all"])
def test_float_table_absolute_error_on_subcritical_laws(p, spec):
    # subcritical masses decay exponentially, so the FFT's error is bounded
    # in absolute terms only; 1.1e-16 is the largest seen here
    exact = marked_count_pmf(geometric_dist(p), DegreeSet.parse(spec), 400)
    approx = marked_count_pmf_float(geometric_dist(p), DegreeSet.parse(spec), 400)
    assert max(abs(approx[n] - float(exact[n])) for n in range(401)) <= FLOAT_TABLE_ATOL


def test_support_matches_exact_table():
    # supp zeta = (supp xi & A) + <d - 1 : d in supp xi - A>; n is admissible
    # iff n - 1 is a sum of nonzero values of zeta
    laws = (
        binary_dist(),
        geometric_dist(),
        MIXED,
        from_probs([Fraction(4, 5), 0, 0, 0, 0, Fraction(1, 5)]),
        from_probs([Fraction(13, 20), 0, Fraction(1, 4), 0, 0, Fraction(1, 10)]),
    )
    specs = ("0", "0,1", "0,2", "all", "not:1,3", "0,3,5")
    for dist in laws:
        for spec in specs:
            marks = DegreeSet.parse(spec)
            table = marked_count_pmf(dist, marks, 60)
            assert marked_count_support(dist, marks, 60) == [c > 0 for c in table], spec


def test_support_parity_of_binary_total_progeny():
    support = marked_count_support(binary_dist(), ALL, 2001)
    assert support == [n % 2 == 1 for n in range(2002)]
    assert marked_count_support(binary_dist(), ALL, 0) == [False]


def test_integer_walk_degenerate_law():
    one = from_probs([1])
    pair, coeffs = one.generating_function, one.coeffs(12)
    assert _progeny(pair, 12) == _reference_progeny(coeffs, 12) == [0, 1] + [0] * 11
    assert _integer_states(pair, 5, 5) == _fraction_walk(coeffs, 5, 5) == [{-j: 1} for j in range(1, 6)]


def test_integer_walk_rejects_float_laws():
    # a law with a float mass cannot be built, so no walk ever sees one
    with pytest.raises(ValueError):
        from_probs([0.5, 0, 0.5])
    with pytest.raises(ValueError):
        geometric_dist(0.5)


def test_marked_count_equals_collapsed_progeny():
    # the engine (walk formula on the collapsed law) against the functional
    # equation of the original law, which never builds the collapsed law
    for dist in (binary_dist(), geometric_dist(), MIXED):
        for marks in (*SETS, DegreeSet.parse("not:1,3")):
            assert marked_count_pmf(dist, marks, 40) == marked_count_fixed_point(dist, marks, 40)


def test_forest_leaf_examples():
    assert forest_leaf_pmf(binary_dist(), 2, 2) == Fraction(1, 4)
    assert forest_leaf_pmf(binary_dist(), 1, 2) == Fraction(1, 8)
    assert forest_leaf_pmf(binary_dist(), 3, 2) == 0
    # one tree: reduces to the leaf-count law
    table = marked_count_pmf(binary_dist(), A0, 6)
    for k in range(1, 7):
        assert forest_leaf_pmf(binary_dist(), 1, k) == table[k]


def test_forest_leaf_pmf_is_a_convolution_power_of_the_leaf_law():
    # one tree of this critical law has an odd number of leaves, so no
    # table is built at an even size, but two trees have an even number
    dist = from_probs([Fraction(2, 3), 0, 0, Fraction(1, 3)])
    top = 21
    table = marked_count_pmf(dist, A0, top)
    assert forest_leaf_pmf(dist, 2, 4) == Fraction(32, 243)
    power = [Fraction(1)] + [Fraction(0)] * top
    for p in range(1, 6):
        power = [sum((power[i] * table[k - i] for i in range(k + 1)), Fraction(0)) for k in range(top + 1)]
        assert [forest_leaf_pmf(dist, p, k) for k in range(1, top + 1)] == power[1:], p


def test_enumeration_examples():
    total, shapes = enumerate_mass(binary_dist(), A0, 2, 5)
    assert total == Fraction(1, 8)
    assert list(shapes.values()) == [Fraction(1, 8)]
    total, _ = enumerate_mass(binary_dist(), ALL, 3, 3)
    assert total == Fraction(1, 8)
    total, _ = enumerate_mass(geometric_dist(), A0, 1, 1)
    assert total == Fraction(1, 2)
    with pytest.raises(ValueError):
        enumerate_mass(binary_dist(), A0, 2, 40)


def test_enumeration_complete_binary():
    table = marked_count_pmf(binary_dist(), A0, 8)
    for n in range(1, 9):
        total, _ = enumerate_mass(binary_dist(), A0, n, 2 * n - 1)
        assert total == table[n]


def test_enumeration_partial_monotone_geometric():
    table = marked_count_pmf(geometric_dist(), A0, 4)
    prev = Fraction(0)
    for cap in (4, 6, 8, 10):
        part, _ = enumerate_mass(geometric_dist(), A0, 2, cap)
        assert prev <= part <= table[2]
        prev = part


def test_float_table_matches_exact():
    for dist in (binary_dist(), geometric_dist()):
        for marks in (A0, A02, ALL):
            exact = marked_count_pmf(dist, marks, 30)
            approx = marked_count_pmf_float(dist, marks, 30)
            for n in range(1, 31):
                if exact[n] == 0:
                    assert abs(approx[n]) < 1e-12
                else:
                    assert abs(approx[n] - float(exact[n])) < 1e-10 * float(exact[n])


def test_mixed_support_law_with_marked_two():
    # critical law on {0,2,3}: marked counting at {0,2} keeps enumeration finite
    dist = from_probs([Fraction(3, 5), Fraction(0), Fraction(1, 5), Fraction(1, 5)])
    table = marked_count_pmf(dist, A02, 8)
    for n in range(1, 5):
        cap = n + (n - 1) // 2
        total, _ = enumerate_mass(dist, A02, n, cap)
        assert total == table[n]

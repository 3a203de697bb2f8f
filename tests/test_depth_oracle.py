"""Cross-validation of the conditioned depth sampler against an independent
cycle-lemma oracle, and of the exact depth law against closed forms and
brute-force enumeration.

The oracle permutes a valid degree multiset (or rejection-samples iid degrees
on their sum), rotates to the unique excursion, and reads depths off the
queue with a plain stack; it shares no code with the library's recursive
decomposition and uses numpy's generator rather than the library streams.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from gwtrees.degree_sets import DegreeSet
from gwtrees.exact import FLOAT_TABLE_RTOL, marked_count_pmf
from gwtrees.offspring import binary_dist, from_probs, geometric_dist
from gwtrees.samplers import SamplerTables, marked_vertex_series, sample_marked_depth
from gwtrees.scaling import depth_experiment, depth_law, ks_one_sample, ks_threshold, ks_two_sample
from gwtrees.streams import RandomStream, common_denominator
from gwtrees.suites import RescaledLaw, depth_convergence
from gwtrees.trees import depths, iter_trees

A0 = DegreeSet.of(0)
ALL = DegreeSet.all_degrees()


def rotate_to_excursion(x: np.ndarray) -> np.ndarray:
    cs = np.cumsum(x)
    pivot = int(np.argmin(cs))
    rolled = np.roll(x, -(pivot + 1))
    cs = np.cumsum(rolled)
    assert cs[-1] == -1 and (cs[:-1] >= 0).all()
    return rolled


def depth_of_uniform_marked(x: np.ndarray, rng, marks) -> int:
    n = len(x)
    depth = [0] * n
    stack: list[list[int]] = []
    marked: list[int] = []
    for k in range(n):
        if k > 0:
            top = stack[-1]
            depth[k] = depth[top[0]] + 1
            top[1] -= 1
            if top[1] == 0:
                stack.pop()
        deg = int(x[k]) + 1
        if deg > 0:
            stack.append([k, deg])
        if deg in marks:
            marked.append(k)
    return depth[marked[rng.integers(0, len(marked))]]


def oracle_binary_all(n, m, rng):
    ups = (n - 1) // 2
    base = np.array([1] * ups + [-1] * (n - ups), dtype=np.int64)
    scale = 1.0 / math.sqrt(n)
    return [depth_of_uniform_marked(rotate_to_excursion(rng.permutation(base)), rng, ALL) * scale for _ in range(m)]


def oracle_binary_leaves(n, m, rng):
    base = np.array([1] * (n - 1) + [-1] * n, dtype=np.int64)
    scale = 1.0 / math.sqrt(n)
    return [depth_of_uniform_marked(rotate_to_excursion(rng.permutation(base)), rng, A0) * scale for _ in range(m)]


def oracle_geometric_all(n, m, rng):
    out = []
    scale = 1.0 / math.sqrt(n)
    while len(out) < m:
        batch = rng.geometric(0.5, size=(400, n)) - 1
        for row in batch[batch.sum(axis=1) == n - 1]:
            if len(out) >= m:
                break
            out.append(depth_of_uniform_marked(rotate_to_excursion(row - 1), rng, ALL) * scale)
    return out


def _mine(dist, marks, n, m, seed):
    tab = SamplerTables(dist, marks, n, exact=False)
    stream = RandomStream(seed)
    scale = 1.0 / math.sqrt(n)
    return [sample_marked_depth(tab, stream) * scale for _ in range(m)]


@pytest.mark.parametrize("exact, n, m", [(False, 200, 4000)])
@pytest.mark.parametrize("marks", [A0, DegreeSet.of(0, 2)], ids=["0", "0,2"])
def test_geometric_depth_sampler_matches_exact_law(marks, exact, n, m):
    # the rotation oracles mark every degree or only leaves of a law without
    # degree one; here {0} leaves unmarked degree-one stalks, so the size
    # chain can step from a size to itself, and {0,2} marks inner vertices,
    # so it can stop above the leaves
    tab = SamplerTables(geometric_dist(), marks, n, exact=exact)
    stream = RandomStream(12)
    depths_ = [sample_marked_depth(tab, stream) for _ in range(m)]
    assert ks_one_sample(depths_, depth_law(geometric_dist(), marks, n)) < ks_threshold(m)


def test_binary_all_matches_rotation_oracle():
    m = 4000
    oracle = oracle_binary_all(201, m, np.random.default_rng(5))
    mine = _mine(binary_dist(), ALL, 201, m, seed=6)
    assert ks_two_sample(oracle, mine) < ks_threshold(m, m)


def test_binary_leaves_matches_rotation_oracle():
    m = 4000
    oracle = oracle_binary_leaves(150, m, np.random.default_rng(7))
    mine = _mine(binary_dist(), A0, 150, m, seed=8)
    assert ks_two_sample(oracle, mine) < ks_threshold(m, m)


def test_geometric_all_matches_rotation_oracle():
    m = 3000
    oracle = oracle_geometric_all(120, m, np.random.default_rng(9))
    mine = _mine(geometric_dist(), ALL, 120, m, seed=10)
    assert ks_two_sample(oracle, mine) < ks_threshold(m, m)


# ---------------------------------------------------------------------------
# the exact depth law


def _power_coeff_half(m, k):
    """[z^m] F^k for F = 1 - sqrt(1 - z), by Lagrange inversion."""
    if not 1 <= k <= m:
        return Fraction(0)
    return Fraction(k, m) * Fraction(2) ** (k - 2 * m) * math.comb(2 * m - k - 1, m - k)


def _power_coeff_binary(m, k):
    """[z^m] F^k for F = z (1 + F^2) / 2, by Lagrange inversion."""
    if not 1 <= k <= m or (m - k) % 2:
        return Fraction(0)
    return Fraction(k, m) * Fraction(1, 2**m) * math.comb(m, (m - k) // 2)


def _normalised(weights):
    total = sum(weights)
    return np.array([float(w / total) for w in weights])


def _assert_same_law(law, expected, tol):
    size = max(len(law), len(expected))
    a = np.zeros(size)
    b = np.zeros(size)
    a[: len(law)] = law
    b[: len(expected)] = expected
    assert np.max(np.abs(np.cumsum(a) - np.cumsum(b))) < tol


def test_depth_law_matches_closed_forms():
    n = 2000
    cases = [
        # P(D = k) proportional to [z^(n-1)] F^k, [z^(n-k)] F^(k+1), [z^(n+k)] F^(2k+1)
        (binary_dist(), A0, n, [_power_coeff_half(n - 1, k) for k in range(n)]),
        (binary_dist(), ALL, n + 1, [_power_coeff_binary(n + 1 - k, k + 1) for k in range(n + 1)]),
        (geometric_dist(), ALL, n, [_power_coeff_half(n + k, 2 * k + 1) for k in range(n)]),
    ]
    for dist, marks, size, weights in cases:
        _assert_same_law(depth_law(dist, marks, size), _normalised(weights), FLOAT_TABLE_RTOL)


def test_depth_law_matches_exact_series():
    # P(depth = k) = [z^n] G^k Phi_A / W[n] in exact rationals, from the
    # exact series of marked_vertex_series; {0} leaves unmarked degree-one
    # stalks, so its depth is unbounded and is compared over the depths
    # depth_law returns.  n = 140 keeps this test under 2 s (1.2 s on a
    # 2-core VM; n = 160 took 2.0-2.2 s).
    n = 140
    for marks in (DegreeSet.of(0, 2), A0):
        w, g, phi_a = marked_vertex_series(SamplerTables(geometric_dist(), marks, n))
        assert min(g) >= 0
        assert all(w[s] == phi_a[s] + sum(g[s - m] * w[m] for m in range(1, s + 1)) for s in range(n + 1))
        law = depth_law(geometric_dist(), marks, n)
        # h / den is G^k Phi_A on integers; G has entries to z^(n-1), all
        # that [z^n] reads because Phi_A has no constant term
        g, g_den = common_denominator(g)
        h, den = common_denominator(phi_a)
        exact = []
        for _ in range(len(law)):
            exact.append(float(Fraction(h[n], den) / w[n]))
            h = [sum(g[i] * h[m - i] for i in range(m)) for m in range(n + 1)]
            den *= g_den
            c = math.gcd(den, *h)
            h = [x // c for x in h]
            den //= c
        _assert_same_law(law, exact, FLOAT_TABLE_RTOL)


def _enumerated_depth_law(dist, marks, n, max_vertices, degree_ok):
    """Mass of (tree, marked vertex at depth k) over all trees with at most
    `max_vertices` vertices and n marked ones, each tree weighted by its
    offspring probabilities and each marked vertex by 1/n."""
    mass: dict[int, Fraction] = {}
    for t in iter_trees(max_vertices, degree_ok=degree_ok):
        degs = t.degrees
        picked = [v for v in range(t.n) if degs[v] in marks]
        if len(picked) != n:
            continue
        weight = Fraction(1)
        for d in degs:
            weight *= dist.pmf(d)
        dep = depths(t)
        for v in picked:
            mass[dep[v]] = mass.get(dep[v], Fraction(0)) + weight / n
    return mass


def test_depth_law_matches_enumeration():
    cases = [
        # every plane tree up to 8 vertices, every full binary tree up to 11
        # vertices, every binary tree up to 6 leaves
        (geometric_dist(), ALL, range(1, 9), lambda n: n, None),
        (binary_dist(), ALL, range(1, 12, 2), lambda n: n, lambda d: d in (0, 2)),
        (binary_dist(), A0, range(1, 7), lambda n: 2 * n - 1, lambda d: d in (0, 2)),
    ]
    for dist, marks, sizes, vertices, degree_ok in cases:
        for n in sizes:
            mass = _enumerated_depth_law(dist, marks, n, vertices(n), degree_ok)
            expected = _normalised([mass.get(k, Fraction(0)) for k in range(n)])
            _assert_same_law(depth_law(dist, marks, n), expected, 1e-12)


def test_depth_law_with_stalks_within_enumeration_bounds():
    # unmarked degree-one vertices make the depth unbounded and no vertex cap
    # complete; capped enumeration gives, for every depth, a lower bound and
    # the missing total mass bounds the remainder
    cases = [
        (from_probs([Fraction(1, 3)] * 3), DegreeSet.of(0, 2), 3, 13, lambda d: d <= 2),
        (geometric_dist(), A0, 2, 10, None),
    ]
    for dist, marks, n, cap, degree_ok in cases:
        z = marked_count_pmf(dist, marks, n)[n]
        mass = _enumerated_depth_law(dist, marks, n, cap, degree_ok)
        deficit = z - sum(mass.values())
        assert 0 < deficit < z / 1000
        law = depth_law(dist, marks, n)
        assert len(law) > cap
        for k in range(cap):
            low = mass.get(k, Fraction(0))
            assert float(low / z) - 1e-12 <= law[k] <= float((low + deficit) / z) + 1e-12


def test_ks_exact_detects_shifted_law():
    m = 2000
    n = 300
    arm = depth_experiment(binary_dist(), A0, n, m, RandomStream(11))
    law = depth_law(binary_dist(), A0, n)
    assert ks_one_sample(arm.depths(), law) < ks_threshold(m)
    shifted = np.concatenate([np.zeros(3), law])
    assert ks_one_sample(arm.depths(), shifted) > ks_threshold(m)


def test_convergence_check_needs_mass_rescaling():
    n = 2000
    thr = ks_threshold(5000, 5000)
    mass = math.sqrt(float(A0.mass(binary_dist())))
    ok, detail = depth_convergence(RescaledLaw(binary_dist(), A0, mass), RescaledLaw(binary_dist(), ALL, 1.0), n, thr)
    assert ok and detail["decreasing"] and detail["statistic"] < thr
    ok, detail = depth_convergence(RescaledLaw(binary_dist(), A0, 1.0), RescaledLaw(binary_dist(), ALL, 1.0), n, thr)
    assert not ok and detail["statistic"] > thr

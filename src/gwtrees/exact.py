"""Exact probabilities for marked-count laws.

Three independent routes live here:
  * first-passage formulas for left-continuous random walks (the total
    progeny of a branching law equals (1/n) P(S_n = -1));
  * coefficient extraction from the marked-count functional equation
    F = sum_k xi_k z^[k in A] F^k, solved one coefficient per step;
  * brute-force enumeration of depth-first queues with their product weights.

The first is the exact engine behind `marked_count_pmf`.  Every law and set
handled here has a collapsed law with a rational generating function N/M of
small integer polynomials, so one walk step multiplies the state's series by
N and divides it by M: O(n) integer operations per step and O(n^2) for a
table, with one gcd pass per step instead of one per Fraction operation.
The other two are oracles for the suites and tests.  A float backend based
on FFT powering covers the truncation orders needed for large-size sampling
tables.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .degree_sets import DegreeSet, require_zero
from .offspring import OffspringDist, collapsed_coeffs_float, collapsed_offspring
from .trees import canonical_key, decode

MAX_ENUM_VERTICES = 16


@dataclass(frozen=True)
class WalkPmf:
    """P(S_k = m) over a window of values, for steps distributed like the law minus 1."""

    steps: int
    lo: int
    hi: int
    probs: dict[int, Fraction]

    def prob(self, m: int) -> Fraction:
        if not (self.lo <= m <= self.hi):
            raise ValueError(f"{m} outside window [{self.lo},{self.hi}]")
        return self.probs.get(m, Fraction(0))


def _walk(dist: OffspringDist, k: int, top: int) -> Iterator[tuple[list[int], int, int]]:
    """Walk states after steps 1..k as (numerators c, denominator D, base E).

    After j steps the walk sits at s with probability [x^(s+j)] zeta(x)^j,
    zeta the step law's generating function N/M, so a state is the series
    zeta^j to order `top`: values above top - j cannot fall back to top - k.
    Coefficient e is c[e] / (D * E^e).  One step multiplies by N and
    divides by M; with E = M[0] both stay on integers:

        q_e = sum_i N_i E^i c_(e-i),   r_e = q_e - sum_(i>=1) M_i E^(i-1) r_(e-i),

    and D becomes D * M[0].  A constant M (every finite law) takes E = 1,
    and the step is the plain convolution with the law's numerators.  After
    each step D and the r_e are divided by their gcd.
    """
    if dist.truncated and len(dist.probs) - 1 < top:
        raise ValueError("distribution prefix too short for the requested window")
    num, den = dist.generating_function
    base = den[0] if len(den) > 1 else 1
    mul = [(i, x * base**i) for i, x in enumerate(num) if x]
    div = [(i, x * base ** (i - 1)) for i, x in enumerate(den) if i and x]
    cur = [1] + [0] * top if top >= 0 else []
    scale = 1
    for _ in range(k):
        nxt = [0] * (top + 1)
        for i, x in mul:
            nxt[i:] = [a + x * b for a, b in zip(nxt[i:], cur)]
        if div:
            for e in range(1, top + 1):
                v = nxt[e]
                for i, x in div:
                    if i > e:
                        break
                    v -= x * nxt[e - i]
                nxt[e] = v
        scale *= den[0]
        # gcd stops combining once it reaches 1; the rest is only type-checked
        g = gcd(scale, *nxt)
        if g > 1:
            nxt = [v // g for v in nxt]
            scale //= g
        cur = nxt
        yield cur, scale, base


def walk_pmf(dist: OffspringDist, k: int, lo: int, hi: int) -> WalkPmf:
    """Exact pmf of the k-step walk on the window [lo, hi]."""
    if k < 0:
        raise ValueError("step count must be non-negative")
    top = hi + k
    cur, scale, base = ([1] + [0] * top if top >= 0 else []), 1, 1
    for cur, scale, base in _walk(dist, k, top):
        pass
    probs = {m: Fraction(cur[m + k], scale * base ** (m + k)) for m in range(max(lo, -k), hi + 1) if cur[m + k]}
    return WalkPmf(k, lo, hi, probs)


def progeny_pmf(dist: OffspringDist, max_n: int) -> list[Fraction]:
    """Total-progeny law: entry n is (1/n) P(S_n = -1); entry 0 is unused (zero)."""
    out = [Fraction(0)]
    for n, (cur, scale, base) in enumerate(_walk(dist, max_n, max_n - 1), start=1):
        out.append(Fraction(cur[n - 1], scale * base ** (n - 1) * n))
    return out


def marked_count_fixed_point(dist: OffspringDist, marks: DegreeSet, max_n: int) -> list[Fraction]:
    """Marked-count law from its functional equation, one coefficient per step.

    Writing F(z) for the generating function of the marked count, the root
    decomposition gives F = sum_k xi_k z^[k in A] F^k.  Maintaining the
    powers of F incrementally fixes exactly one new coefficient per outer
    step: an unmarked k=1 term moves to the left-hand side, a marked one
    contributes xi_1 times the previous coefficient.  Independent of the walk
    route above and of the collapsed offspring law.
    """
    require_zero(marks)
    xs = dist.coeffs(max_n)
    xi0, xi1 = dist.pmf(0), dist.pmf(1)
    if xi1 == 1:
        raise ValueError("degenerate law with all mass on one child")
    one_marked = 1 in marks
    bound = dist.support_bound()
    jmax = max_n if bound is None else min(bound, max_n)
    c = [Fraction(0)] * (max_n + 1)
    # pw[j][m] = coefficient of z^m in F(z)^j, for j >= 1
    pw = [[Fraction(0)] * (max_n + 1) for _ in range(jmax + 1)]
    for m in range(1, max_n + 1):
        for j in range(2, min(m, jmax) + 1):
            acc = Fraction(0)
            row = pw[j - 1]
            for k in range(1, m - j + 2):
                if c[k] != 0 and row[m - k] != 0:
                    acc += c[k] * row[m - k]
            pw[j][m] = acc
        total = xi0 if m == 1 else Fraction(0)
        if one_marked:
            total += xi1 * c[m - 1]
        for j in range(2, min(m, jmax) + 1):
            t = m - 1 if j in marks else m
            if xs[j] != 0 and pw[j][t] != 0:
                total += xs[j] * pw[j][t]
        c[m] = total if one_marked else total / (1 - xi1)
        if jmax >= 1:
            pw[1][m] = c[m]
    return c


def leaf_pmf_fixed_point(dist: OffspringDist, max_n: int) -> list[Fraction]:
    """Leaf-count law from its functional equation: C = z*xi0 + sum_{j>=1} xi_j C^j."""
    return marked_count_fixed_point(dist, DegreeSet.of(0), max_n)


def marked_count_pmf(dist: OffspringDist, marks: DegreeSet, max_n: int) -> list[Fraction]:
    """P(marked count = n) for n <= max_n, exact.

    The one exact route used by the samplers and the CLI: the progeny law of
    the collapsed offspring law, by the first-passage formula on the integer
    walk.  The functional-equation and enumeration routes are oracles for it
    in the otter-dwass suite and the tests.
    """
    require_zero(marks)
    return progeny_pmf(collapsed_offspring(dist, marks, max_n), max_n)


def forest_leaf_pmf(dist: OffspringDist, n_trees: int, k: int) -> Fraction:
    """P(a forest of n independent trees has exactly k leaves).

    Equals (n/k) P(S_k = -n) for the walk with collapsed-law steps; zero
    whenever k < n since every tree contributes a leaf.
    """
    if k < 1 or n_trees < 1:
        raise ValueError("need at least one tree and one leaf")
    zeta = collapsed_offspring(dist, DegreeSet.of(0), k)
    w = walk_pmf(zeta, k, -n_trees, -n_trees)
    return Fraction(n_trees, k) * w.prob(-n_trees)


def marked_count_support(dist: OffspringDist, marks: DegreeSet, max_n: int) -> list[bool]:
    """Entry n is True iff P(marked count = n) > 0, for n = 0..max_n, on integers.

    The marked count is the size of a tree of the collapsed law zeta, whose
    support is (supp xi & A) + <d - 1 : d in supp xi - A>, where <G> is the
    set of sums of elements of G, 0 included.  A tree of n vertices exists
    iff n - 1 is a sum of nonzero values of zeta (the rest are zeros, which
    exist because xi_0 > 0 and 0 is marked).  Those sums are the sums of the
    generators d in supp xi & A and d - 1 for d in supp xi - A, so one bitset
    of the reachable values n - 1 < max_n, closed under each generator by
    doubling shifts, decides every size.
    """
    require_zero(marks)
    if not dist.pmf(0) > 0:
        return [False] * (max_n + 1)
    full = (1 << max_n) - 1
    reach = 1  # bit v: v is a sum of generators
    for d in dist.support_iter(max_n):
        g = d if d in marks else d - 1
        if reach == full:
            break
        if g < 1 or reach >> g & 1 or not dist.pmf(d) > 0:
            continue
        step = g
        # after the shifts by g, 2g, ..., 2^(k-1) g, reach adds up to 2^k - 1 copies of g
        while step < max_n:
            reach |= (reach << step) & full
            step *= 2
    return [False] + [bool(reach >> v & 1) for v in range(max_n)]


# Relative error of marked_count_pmf_float against the exact tables, which
# tests/test_exact.py certifies up to n=1000 on critical laws; float sampler
# CDFs stop there.  Subcritical masses decay exponentially below the FFT's
# absolute error, which the same tests bound by FLOAT_TABLE_ATOL.
FLOAT_TABLE_RTOL = 1e-12
FLOAT_TABLE_ATOL = 1e-15


def marked_count_pmf_float(dist: OffspringDist, marks: DegreeSet, max_n: int) -> np.ndarray:
    """Float marked-count law via FFT powering; entry n is (1/n)[z^{n-1}] zeta(z)^n."""
    require_zero(marks)
    m = 1 << max(8, (2 * max_n + 2).bit_length())
    coeffs = collapsed_coeffs_float(dist, marks, m - 1)
    f = np.fft.fft(coeffs, m)
    twiddle = np.exp(2j * np.pi * np.arange(m) / m)
    g = f * twiddle
    out = np.zeros(max_n + 1)
    h = f.copy()  # h = f * g^(n-1) after the n-th update
    for n in range(1, max_n + 1):
        out[n] = h.mean().real / n
        h *= g
    np.clip(out, 0.0, None, out=out)
    return out


def enumerate_mass(
    dist: OffspringDist, marks: DegreeSet, n: int, max_vertices: int
) -> tuple[Fraction, dict[str, Fraction]]:
    """Sum of tree weights over all ordered trees with at most `max_vertices`
    vertices and marked count exactly n, plus the mass per unordered shape.

    The weight of a tree is the product of its offspring probabilities.  This
    is the brute-force oracle; it iterates over depth-first queues directly.
    """
    require_zero(marks)
    if max_vertices > MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration capped at {MAX_ENUM_VERTICES} vertices")
    total = Fraction(0)
    by_shape: dict[str, Fraction] = {}
    prefix: list[int] = []

    def walk(used: int, psum: int, marked: int, mass: Fraction) -> None:
        nonlocal total
        for deg in dist.support_iter(max_vertices - used - psum - 1):
            x = deg - 1
            w = mass * dist.pmf(deg)
            hit = marked + (1 if deg in marks else 0)
            if hit > n:
                continue
            prefix.append(x)
            if psum + x == -1:
                if hit == n:
                    total += w
                    key = canonical_key(decode(tuple(prefix)))
                    by_shape[key] = by_shape.get(key, Fraction(0)) + w
            else:
                walk(used + 1, psum + x, hit, w)
            prefix.pop()

    walk(0, 0, 0, Fraction(1))
    return total, by_shape

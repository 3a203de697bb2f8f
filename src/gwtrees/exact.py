"""Exact probabilities for marked-count laws.

Three independent routes live here:
  * first-passage formulas for left-continuous random walks: p independent
    trees of a branching law have n vertices in all with probability
    (p/n) P(S_n = -p), the generalised Otter-Dwass formula, which at p = 1
    is the total-progeny law;
  * coefficient extraction from the marked-count functional equation
    F = sum_k xi_k z^[k in A] F^k, solved one coefficient per step;
  * brute-force enumeration of depth-first queues with their product weights.

The first is the one exact engine, with one reader, `progeny_pmf`, for
`marked_count_pmf`, `forest_leaf_pmf` and the count and every convolution
power of exact sampler tables, off their one walk.  Every law and set
handled here has a collapsed law with a rational generating function N/M of
small integer polynomials (offspring.collapsed_pair), and the walk reads
nothing but that pair: one walk step multiplies the state's series by N and
divides it by M, O(n) integer operations per step and O(n^2) for a table,
with one gcd pass per step instead of one per Fraction operation.
The other two are oracles for the suites and tests.  The float table for
large-size sampling evaluates the same formula on the FFT spectrum of the
collapsed law, powered by blocks of sizes: one matrix product per
STACK blocks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import gcd

from .degree_sets import DegreeSet, require_zero
from .offspring import (
    OffspringDist,
    bit_indices,
    bit_list,
    collapsed_coeffs_float,
    collapsed_pair,
    degree_masks,
    sums_closure,
)
from .trees import canonical_key, decode

MAX_ENUM_VERTICES = 16


def _walk(pair: tuple[tuple[int, ...], tuple[int, ...]], k: int, top: int) -> Iterator[tuple[list[int], int, int]]:
    """Walk states after steps 1..k as (numerators c, denominator D, base E),
    for the step law zeta whose generating function is pair = (N, M), two
    integer polynomials with M[0] > 0 (offspring.collapsed_pair).

    After j steps the walk sits at s with probability [x^(s+j)] zeta(x)^j,
    so a state is the series zeta^j to order `top`: values above top - j
    cannot fall back to top - k.
    Coefficient e is c[e] / (D * E^e).  One step multiplies by N and
    divides by M; with E = M[0] both stay on integers:

        q_e = sum_i N_i E^i c_(e-i),   r_e = q_e - sum_(i>=1) M_i E^(i-1) r_(e-i),

    and D becomes D * M[0].  A constant M (every finite law) takes E = 1,
    and the step is the plain convolution with the law's numerators.  After
    each step D and the r_e are divided by their gcd.
    """
    num, den = pair
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


def progeny_pmf(states: Iterable[tuple[list[int], int, int]], p: int) -> list[Fraction]:
    """Total-progeny law of p independent trees, off the walk states of
    steps 1, 2, ... as _walk yields them: by the generalised Otter-Dwass
    formula, entry s >= p is (p/s) zeta^{*s}[s - p] = p c_s[s - p] /
    (s D_s E^(s - p)), so state s must run to order s - p.  The other
    entries are 0, but entry 0 is 1 when p = 0 (no tree)."""
    out = [Fraction(int(not p))]
    for s, (cur, scale, base) in enumerate(states, start=1):
        out.append(Fraction(p * cur[s - p], s * scale * base ** (s - p)) if 0 < p <= s else Fraction(0))
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
    return progeny_pmf(_walk(collapsed_pair(dist, marks), max_n, max_n - 1), 1)


def forest_leaf_pmf(dist: OffspringDist, n_trees: int, k: int) -> Fraction:
    """P(a forest of n independent trees has exactly k leaves).

    Entry k of progeny_pmf with p = n on the walk of the collapsed law
    zeta; zero whenever k < n since every tree contributes a leaf.
    """
    if k < 1 or n_trees < 1:
        raise ValueError("need at least one tree and one leaf")
    return progeny_pmf(_walk(collapsed_pair(dist, DegreeSet.of(0)), k, k - n_trees), n_trees)[k]


def marked_count_support(dist: OffspringDist, marks: DegreeSet, max_n: int) -> list[bool]:
    """Entry n is True iff P(marked count = n) > 0, for n = 0..max_n, on integers.

    The marked count is the size of a tree of the collapsed law zeta, whose
    support is (supp xi & A) + <d - 1 : d in supp xi - A>, where <G> is the
    set of sums of elements of G, 0 included.  A tree of n vertices exists
    iff n - 1 is a sum of nonzero values of zeta (the rest are zeros, which
    exist because xi_0 > 0 and 0 is marked).  Those sums are the sums of the
    generators d in supp xi & A and d - 1 for d in supp xi - A, which
    offspring.sums_closure collects for every n - 1 < max_n at once, on
    the bits of a Python int.
    """
    require_zero(marks)
    if not dist.pmf(0) > 0:
        return [False] * (max_n + 1)
    supp, marked = degree_masks(dist, marks, max_n)
    # d or d - 1 for increasing d: a non-decreasing list of generators
    gens = (d - (not marked >> d & 1) for d in bit_indices(supp))
    return [False] + bit_list(sums_closure(1, gens, max_n), max_n)


# Relative error of marked_count_pmf_float against the exact tables, which
# tests/test_exact.py certifies up to n=1000 on critical laws; float sampler
# CDFs stop there.  Subcritical masses decay exponentially below the FFT's
# absolute error, which the same tests bound by FLOAT_TABLE_ATOL.
FLOAT_TABLE_RTOL = 1e-12
FLOAT_TABLE_ATOL = 1e-15


# spectrum powers per block of sizes in spectral_count, and blocks per
# matrix product
BLOCK = 8
STACK = 16


def fft_points(max_n: int) -> int:
    """FFT size m of the float table to max_n: the least power of two above
    2 max_n + 2, and at least 256."""
    return 1 << max(8, (2 * max_n + 2).bit_length())


def marked_count_pmf_float(dist: OffspringDist, marks: DegreeSet, max_n: int) -> np.ndarray:
    """Float marked-count law by blocked spectral powering; entry n is
    (1/n)[z^{n-1}] zeta(z)^n, the generalised Otter-Dwass formula on the
    collapsed law zeta, whose float coefficients are taken to fft_points(max_n)
    - 1 (see spectral_count)."""
    require_zero(marks)
    return spectral_count(collapsed_coeffs_float(dist, marks, fft_points(max_n) - 1), max_n)


def spectral_count(coeffs: np.ndarray, max_n: int) -> np.ndarray:
    """Entries 0..max_n of the marked-count law from the float collapsed
    coefficients `coeffs` of zeta on m = coeffs.size = fft_points(max_n)
    points.

    With f the FFT of zeta's coefficients on m points and g = f times the
    twiddles exp(2 pi i k / m), entry n is the mean over the bins of
    f g^(n-1), over n.  The coefficients are real, so the spectrum is
    conjugate symmetric, and the mean runs on the m/2 + 1 bins of the real
    FFT.  The powers go by blocks of B = BLOCK sizes: with P[r] = g^r for
    r < B and h_j = weight f g^(jB), block j's entries are the real parts
    of P @ h_j, and h advances by g^B.  That is about n/B + B roundings per
    power where sequential powering takes n - 1.  The h_j of STACK blocks
    are stacked as the rows of H, and H @ P^T gives their entries in one
    matrix product: ceil(max_n / (B STACK)) BLAS calls, where one per block
    made ceil(max_n / B), whose time swung with OpenBLAS's thread count.
    """
    import numpy as np
    m = coeffs.size
    f = np.fft.rfft(coeffs, m)
    g = f * np.exp(2j * np.pi * np.arange(f.size) / m)
    powers = np.empty((BLOCK, f.size), dtype=complex)
    powers[0] = 1.0
    for r in range(1, BLOCK):
        np.multiply(powers[r - 1], g, out=powers[r])
    step = powers[-1] * g
    # the mean over all m bins, as h[m - k] = conj(h[k]): bins 0 and m/2
    # once, the others twice
    h = f * (2.0 / m)
    h[0] /= 2
    h[-1] /= 2
    # whole stacks, the last one cut off at max_n
    out = np.zeros(max_n + STACK * BLOCK)
    hs = np.empty((STACK, f.size), dtype=complex)
    for start in range(1, max_n + 1, STACK * BLOCK):
        for row in hs:
            row[:] = h
            h *= step
        # row j, column r: size start + j B + r
        out[start : start + STACK * BLOCK] = (hs @ powers.T).real.ravel()
    out = out[: max_n + 1]
    out[1:] /= np.arange(1, max_n + 1)
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

"""Tree samplers: plain branching trees, exactly conditioned trees, and
Markov branching families.

Offspring laws and branching families hold exact rationals, so plain trees
and Markov branching trees are drawn by exact inversion;
SamplerTables(exact=) returns exact tables (ExactTables) or float tables
(FloatTables), each with only its own mode's state.
Conditioned trees are drawn by the cycle lemma on blocks in both modes: the
depth-first degrees cut into n runs that each end at a marked degree, whose
collapsed values are i.i.d. given their sum and whose interiors are
independent given their values.  Exact tables draw the values one at a time
from their sequential conditionals, on the integer convolution powers of the
collapsed law (ExactTables._draw_values), and each interior step by exact
inversion; a draw with one possible outcome takes no bits.  Float tables draw
the values by an exact rejection that proposes the counts of all but the two
likeliest values and lets the sum fix those two, a few proposals per tree
whatever n (FloatTables.draw_block_values).  Both are unbiased at every
size, unlike rejection with a vertex cap (kept here only as a
cross-validation oracle for small sizes), and so are the recursive root-degree
and split draws kept as oracles, which read the convolution powers of the
marked-count law off the same integer rows by the generalised Otter-Dwass
formula (ExactTables.tau).  The depth of a uniform marked vertex needs
no tree: it is drawn, on float tables only, as a Markov chain on the sizes of
the subtrees along the vertex's path (sample_marked_depth).
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, exp, gcd, lgamma, log

from .degree_sets import DegreeSet, require_zero
from .exact import (
    FLOAT_TABLE_ATOL,
    FLOAT_TABLE_RTOL,
    _walk,
    fft_points,
    marked_count_support,
    progeny_pmf,
    spectral_count,
)
from .offspring import OffspringDist, collapsed_coeffs_float, collapsed_pair, float_pmf, validate
from .partitions import Partition, block_count, iota
from .streams import (
    RandomStream,
    common_denominator,
    draw_geometric,
    draw_weights,
    draw_weights_int,
)
from .trees import OrderedTree, count_marked, decode


class VertexBudgetExceeded(RuntimeError):
    """A sampled tree grew past the caller's vertex budget."""


class TryBudgetExceeded(RuntimeError):
    """Rejection sampling used up its allowed attempts."""


def draw_offspring(dist: OffspringDist, stream: RandomStream) -> int:
    """One child count with exactly the distribution's law."""
    if dist.family == "finite":
        return draw_weights_int(*dist.integer_cdf, stream)
    return draw_geometric(dist.param.numerator, dist.param.denominator, stream)


def sample_gw(dist: OffspringDist, stream: RandomStream, max_vertices: int) -> OrderedTree:
    """Unconditioned branching tree, built as its own depth-first queue.

    Raises VertexBudgetExceeded rather than silently truncating, so the law
    restricted to returned trees is exact.
    """
    validate(dist)
    seq: list[int] = []
    psum = 0
    while True:
        if len(seq) >= max_vertices:
            raise VertexBudgetExceeded(f"tree exceeded {max_vertices} vertices")
        deg = draw_offspring(dist, stream)
        seq.append(deg - 1)
        psum += deg - 1
        if psum == -1:
            return decode(tuple(seq))


def sample_hat_offspring(dist: OffspringDist, marks: DegreeSet, stream: RandomStream) -> int:
    """One draw from the collapsed offspring law: one plus the running sum of
    (child count - 1) increments up to the first marked child count."""
    require_zero(marks)
    total = 1
    while True:
        deg = draw_offspring(dist, stream)
        total += deg - 1
        if deg in marks:
            return total


# ---------------------------------------------------------------------------
# conditioned sampling


@dataclass(eq=False)
class _TwoCell:
    """Exact rejection proposal for the block values, fixing two cells.

    a < b are the two values of largest mass; q is b's share of their mass
    pi_ab, with `log_q` = (log q, log(1 - q)), and M = N_a + N_b.  `m_cdf`
    is the CDF over M = 0..n of Binomial(n, pi_ab)(M) c(M), where c(M) =
    exp(`log_mode`[M]) is the mass of Binomial(M, q) at its mode
    floor((M + 1) q); `log_fact`[m] is log m!.  The other values, counted
    by one multinomial of n - M draws over `cells`, are `others` one by one,
    then, when `tail` is not empty, one last cell for the values of `tail`,
    which carry at most 1 / n^2 of the mass and are drawn from `tail_cdf`,
    the normalised CDF of their masses.
    """

    a: int
    b: int
    log_q: tuple[float, float]
    log_fact: array
    log_mode: array
    m_cdf: array
    others: np.ndarray
    cells: np.ndarray
    tail: np.ndarray
    tail_cdf: np.ndarray


@dataclass(eq=False)
class _BlockLaw:
    """Float law of the blocks of a conditioned tree with n marked vertices.

    `values` are the block values c in 0..n-1 with positive mass and `probs`
    the collapsed law at them, tilted by theta^c to mean (n - 1) / n and
    normalised; `pair` draws n values from it given their sum n - 1, and is
    None at n = 1, whose one block has value 0.  `hat` is the untilted
    collapsed law on 0..n-1 and `free[u]` the mass of an unmarked degree u,
    which weigh the steps inside a block.
    """

    values: np.ndarray
    probs: np.ndarray
    theta: float
    pair: _TwoCell | None
    hat: np.ndarray
    free: np.ndarray


def _log_binomial(log_fact, m, k, log_q: tuple[float, float]):
    """log of Binomial(m, q) at k, for scalars or arrays alike."""
    return log_fact[m] - log_fact[k] - log_fact[m - k] + k * log_q[0] + (m - k) * log_q[1]


def _block_law(marks: DegreeSet, hat: np.ndarray, pmf: list[float]) -> _BlockLaw:
    """The block law of a law and `marks` at n = hat.size marked vertices;
    `hat` holds the law's float collapsed law at 0..n-1 and `pmf` its float
    masses at 0..n.

    n values summing to n - 1 are all below n, so the collapsed law is cut
    at n - 1; this leaves the law of the values given their sum as it was.
    Tilting by theta^c leaves the law of n i.i.d. values given their sum
    unchanged, so theta only sets the acceptance rate of the proposal (see
    _two_cell).  log theta is found by bisection; the mean grows with it.
    """
    import numpy as np
    n = hat.size
    values = np.flatnonzero(hat)
    log_hat = np.log(hat[values])
    target = (n - 1) / n

    def tilted(t: float) -> np.ndarray:
        x = log_hat + t * values
        w = np.exp(x - x.max())
        return w / w.sum()

    lo, hi = -1.0, 1.0
    while tilted(lo) @ values > target:
        lo *= 2
    while tilted(hi) @ values < target:
        hi *= 2
    for _ in range(64):
        mid = (lo + hi) / 2
        if tilted(mid) @ values < target:
            lo = mid
        else:
            hi = mid
    probs = tilted(hi)
    keep = probs > 0.0  # drop values whose tilted mass underflows
    values, probs = values[keep], probs[keep] / probs[keep].sum()
    pair = _two_cell(values, probs, n) if n > 1 else None
    free = np.where([k not in marks for k in range(n + 1)], pmf[: n + 1], 0.0)
    return _BlockLaw(values, probs, exp(hi), pair, hat, free)


def _two_cell(values: np.ndarray, probs: np.ndarray, n: int) -> _TwoCell:
    """The proposal of FloatTables.draw_block_values for n >= 2 values.

    Given M and the other values' counts, the sum n - 1 fixes N_b = k, so
    the target law of (M, others) is Binomial(n, pi_ab)(M) times the
    multinomial law of the others times Binomial(M, q)(k).  Proposing M from
    Binomial(n, pi_ab)(M) c(M) and the others from their multinomial, then
    accepting with Binomial(M, q)(k) / c(M) <= 1, draws exactly that law;
    the acceptance is about sqrt(pi_ab q (1 - q) / Var), whatever n.  The
    tail starts at the first other value from which the others' mass times
    n^2 is at most 1, so a tail value enters about one proposal in n.
    """
    import numpy as np
    top = np.sort(np.argsort(probs, kind="stable")[-2:])
    a, b = values[top].tolist()
    pi_ab = probs[top].sum()
    q = probs[top[1]] / pi_ab
    log_q = (log(q), log(probs[top[0]] / pi_ab))
    lf = np.array([lgamma(m + 1) for m in range(n + 1)])
    m = np.arange(n + 1)
    mode = np.minimum(np.floor((m + 1) * q).astype(np.int64), m)
    log_mode = _log_binomial(lf, m, mode, log_q)
    rest, others = np.delete(probs, top), np.delete(values, top)
    tail, tail_cdf = others[:0], rest[:0]
    if others.size:
        rest_total = rest.sum()
        log_m = log_mode + _log_binomial(lf, n, m, (log(pi_ab), log(rest_total)))
        above = np.cumsum(rest[::-1])[::-1]  # above[j]: mass of others[j:]
        head = int(np.count_nonzero(above * n * n > 1.0))
        cells, tail, others = rest[:head] / rest_total, others[head:], others[:head]
        if tail.size:
            cells = np.append(cells, above[head] / rest_total)
            tail_cdf = np.cumsum(rest[head:]) / above[head]
            tail_cdf[-1] = 1.0  # a uniform in [0, 1) lands inside
    else:  # two values only: M = n, and there is nothing else to draw
        cells = rest
        log_m = np.where(m == n, 0.0, -np.inf)
    w = np.exp(log_m - log_m.max())
    cum = np.cumsum(w[: np.flatnonzero(w)[-1] + 1])
    cum /= cum[-1]
    cum[-1] = 1.0
    log_fact, log_mode, m_cdf = (array("d", x.tobytes()) for x in (lf, log_mode, cum))
    return _TwoCell(a, b, log_q, log_fact, log_mode, m_cdf, others, cells, tail, tail_cdf)


class SamplerTables:
    """Marked-count law for one (law, set, size), and the state its trees,
    depths and root splits are drawn from.

    SamplerTables(dist, marks, n, exact=) is the one constructor: it returns
    an ExactTables, or a FloatTables when exact is False, and each holds only
    its own mode's state, built by its `_build`.  Trees are drawn by blocks
    in both modes (sample_conditioned), with one interior CDF per remaining
    block value.  `stats()` reports the sizes of the rows and of the tree and
    depth caches.
    """

    def __new__(cls, dist: OffspringDist, marks: DegreeSet, n: int, exact: bool = True) -> SamplerTables:
        if cls is SamplerTables:
            cls = ExactTables if exact else FloatTables
        return super().__new__(cls)

    def __init__(self, dist: OffspringDist, marks: DegreeSet, n: int, exact: bool = True):
        require_zero(marks)
        validate(dist)
        if n < 1:
            raise ValueError("target size must be >= 1")
        self.dist = dist
        self.marks = marks
        self.n = n
        self.marked_degree = [k in marks for k in range(n + 2)]
        # False when the set covers the law's support: every block is then
        # one vertex, and trees draw no interior step
        self._interiors = not marks.covers_support(dist)
        # interior CDFs of the trees, per remaining block value
        self._interior_cum: dict[int, array | list[int]] = {}
        self._build()
        if not self._admissible[n]:
            raise ValueError(f"marked count {n} has probability zero")

    def admissible(self, m: int) -> bool:
        return 1 <= m <= self.n and self._admissible[m]

    def stats(self) -> dict[str, int]:
        """Sizes of the caches, read from them on demand.

        `rows` counts the block rows, n + 1 of n entries on exact tables and
        none on float tables; `*_cdfs` count the cached CDFs (block-value,
        size-chain and block-interior) and `*_entries` their entries;
        `cache_bytes` counts 8 bytes per row and CDF entry, which is what
        float mode's doubles take and a lower bound for exact mode's
        integers.  Nothing on the draw path counts.
        """
        rows, cdfs = self._caches()
        cdfs["interior"] = self._interior_cum.values()
        stats = {"rows": rows}
        for kind in ("value", "chain", "interior"):
            cums = cdfs.get(kind, ())
            stats[f"{kind}_cdfs"] = len(cums)
            stats[f"{kind}_entries"] = sum(map(len, cums))
        entries = rows * self.n + sum(stats[f"{kind}_entries"] for kind in cdfs)
        stats["cache_bytes"] = 8 * entries
        return stats


class ExactTables(SamplerTables):
    """Exact tables: `count` as Fractions, read with every tau off the one
    walk of the collapsed law zeta that the table makes at construction.

    Its states are the block rows: _rows[j][e] / (_dens[j] * _base^e) is
    zeta^{*j}[e], the j-th convolution power of zeta at e, for j = 0..n and
    e = 0..n-1; row 0 is the point mass at 0 and rows 1..n are the states of
    exact._walk on zeta.  n values summing to n - 1 are all below n, so every
    row stops at n - 1.  Trees draw on those rows and keep one CDF of the
    next block value per (values left, their sum) and one interior CDF per
    remaining value, integer lists drawn by exact dyadic inversion that grow
    only as far as draws reach; the law's integer masses that weigh the
    interiors are built on the first tree.  Root splits (split_measure) weigh
    parts by the Lagrange integers of the count table (lagrange_ints),
    derived from `count` on the first split; tables that only draw trees
    never build them.
    """

    def _build(self) -> None:
        n = self.n
        # the table's one walk: its states are the block rows
        rows, dens, base = [[1] + [0] * (n - 1)], [1], 1
        for row, den, base in _walk(collapsed_pair(self.dist, self.marks), n, n - 1):
            rows.append(row)
            dens.append(den)
        self._rows, self._dens, self._base = rows, dens, base
        self.count = self.tau(1)
        self._admissible = [bool(c > 0) for c in self.count]
        # split_measure's Lagrange integers (t, D, E), built on its first call
        self._lagrange: tuple[list[int], int, int] | None = None
        # the value CDFs, built as draws reach them, and the law's integer
        # masses (xi, xi_den) at degrees 0..n, built on the first tree
        self._value_cum: dict[int, tuple] = {}
        self._steps: tuple[list[int], int] | None = None

    def _caches(self) -> tuple[int, dict]:
        return len(self._rows), {"value": [cum for cum, _total, _extend in self._value_cum.values()]}

    def _mass(self, k: int) -> Fraction:
        return self.dist.pmf(k)

    def lagrange_ints(self) -> tuple[list[int], int, int]:
        """(t, D, E) with count[j] == t[j] / (D^j E^(j-1)) for j = 1..n,
        built from the count table on the first call and cached.

        D and E are the denominator and base of block row 1, the first walk
        state of the collapsed law zeta, so psi(y) = D zeta(E y) has its
        integer coefficients, and t_j = (1/j)[y^(j-1)] psi(y)^j is an integer
        by Lagrange inversion over the integers.  The state runs to order
        n - 1: the gcd of a shorter one can divide out a factor that a later
        coefficient keeps.  A count entry with no integer t_j raises
        AssertionError; t[0] is 0.
        """
        if self._lagrange is None:
            d, e = self._dens[1], self._base
            t, scale = [0], d
            for j, c in enumerate(self.count[1:], start=1):
                v, r = divmod(c.numerator * scale, c.denominator)
                if r:
                    raise AssertionError(f"split weights: count[{j}] = {c} is not an integer over D^{j} E^{j - 1}")
                t.append(v)
                scale *= d * e
            self._lagrange = (t, d, e)
        return self._lagrange

    def tau(self, p: int) -> list[Fraction]:
        """P(sum of p independent marked counts = s), s = 0..n, read off the
        block rows by exact.progeny_pmf: the counts are the sizes of p trees
        of the collapsed law.  tau_0 is the point mass at 0 and tau_1 is
        `count`."""
        return progeny_pmf(zip(self._rows[1:], self._dens[1:], itertools.repeat(self._base)), p)

    # -- draws ---------------------------------------------------------------

    def draw_root_degree(self, s: int, stream: RandomStream) -> int:
        """Root degree conditional on the subtree's marked count being s:
        degree p has weight xi_p * tau_p(s - [p marked]).

        An uncached oracle of the recursive route, for tests: trees are drawn
        by blocks.
        """
        degrees = list(self.dist.support_iter(s))
        weights = [self.dist.pmf(p) * self.tau(p)[s - 1 if self.marked_degree[p] else s] for p in degrees]
        return degrees[draw_weights(weights, self.count[s], stream)]

    def draw_split_sizes(self, p: int, target: int, stream: RandomStream) -> list[int]:
        """Marked counts of p subtrees with total `target`, drawn one at a
        time: with k subtrees left that hold r, the next holds m with weight
        count[m] * tau_{k-1}(r - m).  An uncached oracle, like
        draw_root_degree."""
        sizes: list[int] = []
        r = target
        for k in range(p, 1, -1):
            rest = self.tau(k - 1)
            m = 1 + draw_weights([self.count[j] * rest[r - j] for j in range(1, r - k + 2)], self.tau(k)[r], stream)
            sizes.append(m)
            r -= m
        return sizes + [r] if p else sizes

    def _degrees(self, stream: RandomStream) -> list[int]:
        """Depth-first degrees of an exactly conditioned tree.

        The values of _draw_values are rotated to start just after the first
        minimum of the walk of (c - 1), the one rotation that the cycle lemma
        leaves a tree (see FloatTables.draw_block_values).  A block of value
        r is then a run of unmarked degrees closed by a marked one, drawn step
        by step from _interior_steps by draw_weights_int; a step with one
        positive weight takes no bits, so binary/{0} trees draw their values
        only.  When the set covers the law's support every block is one
        vertex of degree r.
        """
        values = self._draw_values(stream)
        walk = low = start = 0
        for i, c in enumerate(values, 1):
            walk += c - 1
            if walk < low:
                low, start = walk, i
        values = values[start:] + values[:start]
        if not self._interiors:
            return values
        cdfs = self._interior_cum
        build = self._interior_steps
        degrees: list[int] = []
        append = degrees.append
        for r in values:
            while True:
                steps = cdfs.get(r) or build(r)
                u = steps[0] if len(steps) == 1 else draw_weights_int(steps, steps[-1], stream)
                if not u:
                    append(r)
                    break
                append(u)
                r += 1 - u
        return degrees

    def _draw_values(self, stream: RandomStream) -> list[int]:
        """Collapsed values of the n blocks of an exact tree, before their
        rotation: n i.i.d. values of zeta given that they sum to n - 1.

        They are drawn one at a time, each from its conditional given the
        values before it (_value_cdf), by exact inversion.  Once the values
        left sum to 0 they are all 0, and the last value is what is left, so
        neither takes bits.
        """
        n = self.n
        cdfs = self._value_cum
        values: list[int] = []
        r = n - 1
        for k in range(n, 1, -1):
            if not r:
                break
            cum, total, extend = cdfs.get(k * n + r) or self._value_cdf(k, r)
            c = draw_weights_int(cum, total, stream, extend)
            values.append(c)
            r -= c
        values.append(r)
        values += [0] * (n - len(values))
        return values

    def _value_cdf(self, k: int, r: int) -> tuple:
        """(cum, total, extend): the CDF of the next block value when k >= 2
        values are left that sum to r, built as far as draws reach and cached.

        Value c has weight rows[1][c] * rows[k-1][r-c], which is zeta_c
        zeta^{*(k-1)}[r-c] times dens[1] dens[k-1] base^r, a factor that does
        not depend on c; so the weights sum to the integer total
        rows[k][r] dens[1] dens[k-1] / dens[k].  cum[c] is the weight of the
        values 0..c; each call of `extend` appends the next value's, and
        once every value is in, the CDF must end exactly at the total.
        """
        rows, dens = self._rows, self._dens
        total, rem = divmod(rows[k][r] * dens[1] * dens[k - 1], dens[k])
        if rem:
            raise AssertionError(f"block value weights at {k} values summing to {r} have no integer total")
        first, rest = rows[1], rows[k - 1]
        cum: list[int] = []
        todo = iter(range(r + 1))

        def extend() -> int | None:
            for c in todo:
                cum.append((cum[-1] if cum else 0) + first[c] * rest[r - c])
                return total
            if cum[-1] != total:
                raise AssertionError(f"block value weights at {k} values summing to {r} do not sum to their total")
            return None

        entry = (cum, total, extend)
        self._value_cum[k * self.n + r] = entry
        return entry

    def _interior_steps(self, r: int) -> list[int]:
        """Exact CDF of one step inside a block whose remaining value is r,
        built on the first visit to r and cached: the exact twin of
        FloatTables._interior_cdf.  The first call builds the law's integer
        masses, xi[u] / xi_den at degree u = 0..n.

        Entry 0 closes the block with marked degree r, with weight
        xi_r [r in A]; entry u >= 1 is an unmarked degree u, with weight
        xi_u * zeta_{r-u+1}, after which r - u + 1 remains.  Times
        xi_den dens[1] base^r they are the integers xi[r] dens[1] base^r and
        xi[u] rows[1][r-u+1] base^(u-1), which must sum to exactly
        xi_den * rows[1][r], zeta_r times the same factor.  The CDF is cut at
        the last positive weight, so its last entry is the total; a step
        with one positive weight is kept as [its index] instead, and is
        taken without a draw.
        """
        if self._steps is None:
            self._steps = self.dist.integer_masses(self.n)
        xi, xi_den = self._steps
        first, base = self._rows[1], self._base
        weights = [xi[r] * self._dens[1] * base**r if self.marked_degree[r] else 0]
        weights += [0 if self.marked_degree[u] else xi[u] * first[r - u + 1] * base ** (u - 1) for u in range(1, r + 2)]
        cum = list(itertools.accumulate(weights))
        if cum[-1] != xi_den * first[r]:
            raise AssertionError(f"block weights at value {r} do not sum to zeta[{r}]")
        positive = [u for u, w in enumerate(weights) if w]
        steps = positive if len(positive) == 1 else cum[: positive[-1] + 1]
        self._interior_cum[r] = steps
        return steps


class FloatTables(SamplerTables):
    """Float tables: `count` as doubles, from the float collapsed law, and
    the state that float trees and depths draw from.

    Trees keep the block law and its per-value interior CDFs, arrays of
    doubles that end at exactly 1.0, each drawn by one bisect of a uniform;
    the block law reads the float collapsed law that the table was built
    from, cut at n - 1.  Depths are drawn on float tables only: the size
    chain of sample_marked_depth is built on its first call, so tree
    sampling never pays for it, and depth draws never build the block law.
    """

    def _build(self) -> None:
        import numpy as np

        dist, marks, n = self.dist, self.marks, self.n
        # one run of the collapsed coefficients serves the table and, cut at
        # n - 1, the block law
        coeffs = collapsed_coeffs_float(dist, marks, fft_points(n) - 1)
        self.count = spectral_count(coeffs, n)
        self._hat = coeffs[:n]
        # the FFT returns structural zeros as noise around 1e-17; the integer
        # support decides which sizes are zero
        self._admissible = marked_count_support(dist, marks, n)
        support = np.array(self._admissible)
        self.count[~support] = 0.0
        lost = np.flatnonzero(support & (self.count <= 0.0))
        if lost.size:
            raise ValueError(
                f"float table cannot resolve the marked count at sizes {lost[:5].tolist()}: "
                f"their mass is below its absolute error {FLOAT_TABLE_ATOL}; use a smaller n"
            )
        self._pmf_f = float_pmf(dist, n + 1)
        # the block law, built on the first tree
        self._blocks: _BlockLaw | None = None
        # the size chain of sample_marked_depth, built on its first call
        self._chain: tuple | None = None
        self._chain_cum: dict[int, array] = {}

    def _caches(self) -> tuple[int, dict]:
        return 0, {"chain": self._chain_cum.values()}

    def _mass(self, k: int) -> float:
        return self._pmf_f[k]

    def tau(self, p: int) -> np.ndarray:
        """P(sum of p independent marked counts = s), s = 0..n: the p-th
        convolution power of `count`, cut at z^n, by repeated np.convolve.
        tau_0 is the point mass at 0 and tau_1 a copy of `count`."""
        import numpy as np
        if not p:
            return np.eye(1, self.n + 1)[0]
        power = self.count.copy()
        for _ in range(p - 1):
            power = np.convolve(power, self.count)[: self.n + 1]
        return power

    # The recursive oracles are exact only.  The benchmark's tracer reads
    # both names on every table, so they stay until its refresh (ROADMAP
    # item 1) deletes the oracles.
    def draw_root_degree(self, *args) -> None:
        raise ValueError("root-degree and split draws need exact tables")

    draw_split_sizes = draw_root_degree

    def block_law(self) -> _BlockLaw:
        """The block law of float trees, built on the first call and cached."""
        if self._blocks is None:
            self._blocks = _block_law(self.marks, self._hat, self._pmf_f)
        return self._blocks

    def draw_block_values(self, gen: np.random.Generator) -> np.ndarray:
        """Collapsed values of the n blocks of a conditioned tree, in
        depth-first order.

        Their counts have the law of n i.i.d. values given that they sum to
        n - 1, drawn by the exact rejection of _two_cell: each proposal
        takes one uniform for M, one multinomial of the other values (none
        when the law has two values), uniforms for the rare tail values, and
        one uniform to accept; the sum then fixes N_b = k, which must be an
        integer in [0, M].  Shuffled, the values are a uniform arrangement
        of the counts; by the cycle lemma exactly one rotation keeps the walk
        of (c - 1) above -1 until its last step, the one that starts just
        after the walk's first minimum.
        """
        import numpy as np
        law = self.block_law()
        pair = law.pair
        if pair is None:
            return law.values.copy()
        n, a, b, others = self.n, pair.a, pair.b, pair.others
        counts = tail = others[:0]
        rand = gen.random
        while True:
            m = bisect_right(pair.m_cdf, rand())
            t = n - 1 - a * m  # minus the other values: (b - a) N_b
            if pair.cells.size:
                counts = gen.multinomial(n - m, pair.cells)
                t -= int(counts[: others.size] @ others)
                tail = others[:0]
                if pair.tail.size and counts[-1]:
                    tail = pair.tail[np.searchsorted(pair.tail_cdf, rand(int(counts[-1])), side="right")]
                    t -= int(tail.sum())
            k, r = divmod(t, b - a)
            if r or not 0 <= k <= m:
                continue
            # a uniform below exp(log ratio), so that a zero uniform is safe
            if rand() < exp(_log_binomial(pair.log_fact, m, k, pair.log_q) - pair.log_mode[m]):
                break
        values = np.repeat(np.append([a, b], others), np.append([m - k, k], counts[: others.size]))
        values = np.concatenate((values, tail))
        gen.shuffle(values)
        start = int(np.argmin(np.cumsum(values - 1))) + 1
        return np.concatenate((values[start:], values[:start]))

    def _degrees(self, stream: RandomStream) -> list[int]:
        """Depth-first degrees of a conditioned tree, drawn with a numpy
        Generator seeded from 128 bits of the stream.

        The block values come from draw_block_values.  A block of value r is
        a run of unmarked degrees closed by a marked one, drawn step by step
        from _interior_cdf, one uniform per vertex; the uniforms come from
        the Generator in chunks of n.  When the set covers the law's support
        every block is one vertex of degree r.
        """
        import numpy as np

        gen = np.random.default_rng(stream.getrandbits(128))
        values = self.draw_block_values(gen)
        if not self._interiors:
            return values.tolist()
        n = self.n
        cdfs = self._interior_cum
        build = self._interior_cdf
        uniforms: list[float] = []
        k = 0
        degrees: list[int] = []
        append = degrees.append
        for r in values.tolist():
            while True:
                if k == len(uniforms):
                    uniforms = gen.random(n).tolist()
                    k = 0
                u = bisect_right(cdfs.get(r) or build(r), uniforms[k])
                k += 1
                if not u:
                    append(r)
                    break
                append(u)
                r += 1 - u
        return degrees

    def _interior_cdf(self, r: int) -> array:
        """CDF of one step inside a block whose remaining value is r, built on
        the first visit to r and cached.

        Entry 0 closes the block with marked degree r, with weight
        xi_r [r in A]; entry u >= 1 is an unmarked degree u, with weight
        xi_u * hat[r - u + 1], after which r - u + 1 remains.  The weights
        must sum to hat[r] within FLOAT_TABLE_RTOL * hat[r], else
        ArithmeticError: hat comes from a recurrence on non-negative terms,
        so its error is relative even where it is tiny.  Like the chain
        CDFs it is a unit CDF (_unit_cdf): it ends at exactly 1.0 at the
        last positive weight, so a uniform in [0, 1) indexes it directly.
        """
        import numpy as np
        law = self.block_law()
        weights = np.empty(r + 2)
        weights[0] = self._pmf_f[r] if self.marked_degree[r] else 0.0
        weights[1:] = law.free[1 : r + 2] * law.hat[r::-1]
        want = law.hat[r]
        cdf = _unit_cdf(weights, want, FLOAT_TABLE_RTOL * want, f"block weights at value {r}", f"hat[{r}]")
        self._interior_cum[r] = cdf
        return cdf

    def _chain_cdf(self, s: int) -> array:
        """CDF of one step of sample_marked_depth's size chain from size s,
        built on the first visit to s and cached.

        Entry 0 is the stop, with weight Phi_A[s]; entry s' in [1, s] is the
        step into a subtree of size s', with weight G[s - s'] * W(s') (see
        marked_vertex_series).  The weights must sum to W(s) within
        FLOAT_TABLE_RTOL * W(s) + FLOAT_TABLE_ATOL; their CDF is then cut at
        the last positive weight and divided by that sum, so it ends at
        exactly 1.0 (_unit_cdf) and one bisect of a uniform draws a step.
        """
        import numpy as np
        if self._chain is None:
            self._chain = marked_vertex_series(self)
        w, g, stop = self._chain
        weights = np.empty(s + 1)
        weights[0] = stop[s]
        weights[1:] = g[s - 1 :: -1] * w[1 : s + 1]
        tol = FLOAT_TABLE_RTOL * w[s] + FLOAT_TABLE_ATOL
        cdf = _unit_cdf(weights, w[s], tol, f"chain weights at size {s}", f"W({s})")
        self._chain_cum[s] = cdf
        return cdf


def _unit_cdf(weights: np.ndarray, want: float, tol: float, what: str, name: str) -> array:
    """The CDF of non-negative float weights that must sum to `want` within
    `tol`, else ArithmeticError, as an array of doubles: cut at the last
    positive weight and divided by its own last entry, which makes that
    entry exactly 1.0.  A uniform u in [0, 1) then indexes it as
    bisect_right(cdf, u), which never passes the last entry and never
    lands on a zero weight."""
    cum = weights.cumsum()
    if abs(cum[-1] - want) > tol:
        raise ArithmeticError(f"{what} sum to {cum[-1]}, not {name} = {want}")
    last = len(weights) - 1
    while last and not weights[last]:
        last -= 1
    return array("d", (cum[: last + 1] / cum[last]).tobytes())


def sample_conditioned(tables: SamplerTables, stream: RandomStream) -> OrderedTree:
    """A tree conditioned to have exactly the tables' marked count, drawn by
    blocks: exact tables draw every value and step from the stream by exact
    inversion (ExactTables._degrees), float tables with a numpy Generator
    seeded from 128 bits of the stream per tree (FloatTables._degrees).
    """
    t = OrderedTree.from_degrees(tables._degrees(stream))
    if count_marked(t, tables.marks) != tables.n:
        raise AssertionError("conditioned sampler produced a wrong marked count")
    return t


def marked_vertex_series(tables: SamplerTables) -> tuple:
    """(W, G, Phi_A) of the tables' law, set and size: the series of trees
    with one marked vertex pointed out.

    With F the marked-count generating function and
    Phi(z, s) = sum_j xi_j z^[j in A] s^j, so that F = Phi(z, F),
    differentiating gives W = Phi_A + G W, where W = z F' (W[s] is
    s * count[s]), G = dPhi/ds(z, F) and Phi_A = z Phi_z(z, F) =
    z sum_{j in A} xi_j F^j.  Pointing at a marked vertex, Phi_A is the
    root itself and G W a root with the pointed vertex in one child's
    subtree: G[k] weighs the root, its other children and the marked
    vertices they hold, k of them.

    G is found by series division, G = 1 - Phi_z / F'.  Phi_z comes from
    the rows F^j = tables.tau(j) of the marked degrees of a finite set, or
    as (F - sum_{j not in A} xi_j F^j) / z for a cofinite one, with xi_j the
    tables' own law mass.  F' is known to z^(n-1) only, so G has entries
    0..n-1; W and Phi_A have 0..n.  Exact tables give numpy arrays of
    Fractions, float tables of doubles, with G clipped at zero against
    rounding.
    """
    import numpy as np
    n = tables.n
    marks = tables.marks
    count = np.asarray(tables.count)
    xi = tables._mass
    zero = count[0]  # no tree has no marked vertex
    # the marked part of Phi over z, to z^(n-1); F^j starts at z^j
    if marks.cofinite:
        rest = count.copy()
        for j in sorted(marks.members):
            if j <= n and xi(j):
                rest -= xi(j) * np.asarray(tables.tau(j))
        phi_z = rest[1:]
    else:
        phi_z = np.zeros(n, dtype=count.dtype)
        for j in sorted(marks.members):
            if j < n and xi(j):
                phi_z += xi(j) * np.asarray(tables.tau(j))[:n]
    deriv = np.arange(1, n + 1) * count[1:]  # F', to z^(n-1)
    # quotient = phi_z / deriv, one coefficient at a time
    quotient = np.empty_like(phi_z)
    for k in range(n):
        quotient[k] = (phi_z[k] - np.dot(quotient[:k], deriv[k:0:-1])) / deriv[0]
    g = -quotient
    g[0] = zero if 1 in marks else xi(1)  # 1 - quotient[0], without its rounding
    if g.dtype != object:
        np.maximum(g, 0.0, out=g)
    return np.arange(n + 1) * count, g, np.concatenate([[zero], phi_z])


def sample_marked_depth(tables: SamplerTables, stream: RandomStream) -> int:
    """Depth of a uniformly chosen marked vertex of a conditioned tree.
    Float tables only.

    Along the path from the root to a uniform marked vertex, the marked
    counts of the subtrees entered form a Markov chain
    (marked_vertex_series): from size s it stops, the root being the chosen
    vertex, or steps into a child subtree of size s' <= s, where s' = s is
    an unmarked degree-one stalk.  The depth is the number of steps: one
    bisect of one uniform per level, on one cached CDF per size that ends
    at 1.0 (FloatTables._chain_cdf), and no root degree or sibling size
    is drawn.  At n about 2000 a depth takes about 39, 55 and 78 uniforms on
    geometric/all, binary/all and binary/{0}.  A size whose only weight is
    the stop returns without a draw.
    """
    if not isinstance(tables, FloatTables):
        raise ValueError("depth draws need float tables")
    cdfs = tables._chain_cum
    build = tables._chain_cdf
    rand = stream.random
    depth = 0
    s = tables.n
    while True:
        cum = cdfs.get(s) or build(s)
        if len(cum) == 1:
            return depth
        s = bisect_right(cum, rand())
        if not s:
            return depth
        depth += 1


def sample_conditioned_rejection(
    dist: OffspringDist,
    marks: DegreeSet,
    n: int,
    stream: RandomStream,
    try_budget: int,
    max_vertices: int,
) -> OrderedTree:
    """Resample unconditioned trees until the marked count hits n.

    Bias-free whenever every tree with marked count n fits under the vertex
    cap (true for finite-support laws with a suitable cap); otherwise only an
    approximate cross-check.
    """
    for _ in range(try_budget):
        try:
            t = sample_gw(dist, stream, max_vertices)
        except VertexBudgetExceeded:
            continue
        if count_marked(t, marks) == n:
            return t
    raise TryBudgetExceeded(f"no hit in {try_budget} tries")


# ---------------------------------------------------------------------------
# Markov branching families


@dataclass
class QFamily:
    """Split distributions per size: the root partition law of a Markov
    branching family, plus the chance that the size-1 tree is a bare vertex."""

    marks: DegreeSet
    splits: dict[int, dict[Partition, Fraction]]
    q1_empty: Fraction
    _cond_cum: dict[int, tuple] = field(default_factory=dict, repr=False)

    def whole_mass(self, n: int):
        """Mass on the undivided partition (n,), which feeds the stalk law."""
        return self.splits[n].get((n,), Fraction(0))

    def validate(self) -> None:
        if not isinstance(self.q1_empty, (int, Fraction)) or not 0 < self.q1_empty <= 1:
            raise ValueError("size-1 bare-vertex probability must be a rational in (0,1]")
        defined = set(self.splits) | {1}
        for n, atoms in sorted(self.splits.items()):
            if n < 2:
                raise ValueError("split distributions start at size 2")
            total = sum(atoms.values())
            if total != 1:
                raise ValueError(f"split weights at size {n} sum to {total}")
            if 1 not in self.marks and atoms.get((n,), 0) == 1:
                raise ValueError(f"size {n} keeps all mass on the whole block")
            for lam, w in atoms.items():
                if not isinstance(w, (int, Fraction)) or w < 0:
                    raise ValueError(f"split weight {w!r} is not a non-negative rational")
                if lam == ():
                    raise ValueError("empty partition is only allowed at size 1")
                p = block_count(lam)
                want = n - 1 if p in self.marks else n
                if sum(lam) != want:
                    raise ValueError(f"partition {lam} inadmissible at size {n}")
                if w > 0 and any(part not in defined for part in lam):
                    raise ValueError(f"partition {lam} uses sizes without a split law")

    def _conditioned(self, n: int) -> tuple:
        """(partitions, CDF, mass off the whole block) at size n.

        The atoms' cumulative weights and the mass off (n,) are put over one
        lcm denominator, so the CDF is integers ending at that mass.
        """
        entry = self._cond_cum.get(n)
        if entry is None:
            atoms = sorted((lam, w) for lam, w in self.splits[n].items() if lam != (n,) and w > 0)
            rest = 1 - self.whole_mass(n)
            nums, _den = common_denominator([*(w for _, w in atoms), rest])
            entry = ([lam for lam, _ in atoms], list(itertools.accumulate(nums[:-1])), rest)
            self._cond_cum[n] = entry
        return entry

    def split_mass(self, n: int):
        """Mass off the undivided partition (n,): the success probability of
        the stalk above a branch vertex of size n."""
        return self._conditioned(n)[2]

    def draw_conditioned(self, n: int, stream: RandomStream) -> Partition:
        """Draw a partition at size n conditioned away from the whole block (n,)."""
        lams, cum, _rest = self._conditioned(n)
        if not lams:
            raise ValueError(f"no admissible split at size {n}")
        return lams[draw_weights_int(cum, cum[-1], stream)]


def split_measure(tables: SamplerTables, m: int) -> dict[Partition, Fraction]:
    """Exact root-split law at size m induced by the conditioned tree.

    The weight of a partition is the number of its orderings times the root
    degree probability times the product of part probabilities, normalised by
    the size-m probability.  Exact tables only.

    A degree p >= 2 splits m - 1 if p is marked and m if not, so each of the
    at most two targets is walked once, depth first, over non-increasing
    prefixes of parts >= 2 shared by all of its degrees.  A prefix's
    extensions come in decreasing order of their next part, and its
    completion by ones, the only partition below it with that many parts,
    comes last; so each degree's bucket fills in decreasing lexicographic
    order, and the buckets are joined in support order.  No prefix outgrows
    the largest wanted degree or lets its completion fall below the
    smallest; a part that leaves nothing, or room for one more part, ends
    its partition without another call.

    The parts are weighed by the Lagrange integers of the count table
    (ExactTables.lagrange_ints), count[j] = t_j / (D^j E^(j-1)), so p
    parts summing to the target s have count product
    prod t_(lambda_i) E^p / (D E)^s.  A prefix carries its arrangement
    count, updated from the run of equal parts that ends it, and the
    product of its parts' t; an atom's integer v is the two multiplied, and
    its weight is v K_p, with K_p = xi_p E^p / ((D E)^s count[m]) one
    reduced fraction per degree, computed on integers from the law's masses
    over one denominator.  The degrees 0 and 1 have one atom each at most,
    () at size 1 and (s,), with v = 1 and t_s in the same formula.  The
    v summed per degree give the exact sum-to-one check, on integers too.

    Per call, a target's wanted degrees are three flat lists indexed by part
    count (the bucket, and K_p's numerator and denominator, None where the
    degree is not wanted), and the completions by r ones read the tuples
    (1,)*r and the powers t_1^r from two lists built for r up to the
    largest wanted degree.  No completion tests t_1: validate requires
    xi_0 > 0, so count[1] >= xi_0 and t_1 = D count[1] > 0.
    """
    if not isinstance(tables, ExactTables):
        raise ValueError("split_measure needs exact tables")
    if not tables.admissible(m):
        raise ValueError(f"size {m} has probability zero")
    ints, d, e = tables.lagrange_ints()  # zero marks an inadmissible part
    xs, x_den = tables.dist.integer_masses(m)  # xi_p = xs[p] / x_den
    z = tables.count[m]
    de = d * e
    marked = tables.marked_degree
    buckets: dict[int, dict[Partition, Fraction]] = {}  # per degree in consts, in support order
    by_target: dict[int, list[int]] = {}  # target size -> the degrees p >= 2 that split it
    consts: dict[int, tuple[int, int]] = {}  # K_p per degree that can have atoms, reduced
    sums = [0] * (m + 1)  # per degree: the atoms' integers v, summed
    for p, x in enumerate(xs):
        if not x:
            continue
        target = m - 1 if marked[p] else m
        if p > target or (p == 1 and not ints[target]) or (p == 0 and target):
            continue
        buckets[p] = {}
        kn, kd = x * e**p * z.denominator, x_den * de**target * z.numerator
        g = gcd(kn, kd)
        kn, kd = kn // g, kd // g
        consts[p] = (kn, kd)
        if p >= 2:
            by_target.setdefault(target, []).append(p)
        else:
            # the single part (target,), or () at size 1
            sums[p] = ints[target] if p else 1
            buckets[p][(target,) * p] = Fraction(sums[p] * kn, kd)
    # a completion by r ones has r <= top parts
    r_top = max((degrees[-1] for degrees in by_target.values()), default=0)
    ones = [(1,) * r for r in range(r_top + 1)]
    t1_pow = [ints[1] ** r for r in range(r_top + 1)]

    def walk(prefix, i, rest, prev, run, arr, prod) -> None:
        """Add the wanted atoms below prefix, whose i parts end in `run`
        copies of prev and leave rest >= 1 to place."""
        i1 = i + 1
        i2 = i + 2
        # the next part leaves room for `low` parts in all, and at most
        # top - i parts no larger than it must cover rest
        hi = i1 + rest - low
        if prev < hi:
            hi = prev
        if rest < hi:
            hi = rest
        lo = (rest - 1) // (top - i)
        if lo < 1:
            lo = 1
        for first in range(hi, lo, -1):
            c = ints[first]
            if not c:
                continue
            r = run + 1 if first == prev else 1
            a = arr * i1 // r
            last = rest - first
            if not last:
                # first closes the partition
                bucket = bucket_at[i1]
                if bucket is not None:
                    v = a * prod * c
                    bucket[prefix + (first,)] = Fraction(v * kn_at[i1], kd_at[i1])
                    sums[i1] += v
            elif last == 1 or i2 == top:
                # exactly one part is left, and it is last <= first
                c_last = ints[last]
                if c_last:
                    bucket = bucket_at[i2]
                    if bucket is not None:
                        v = a * i2 // (r + 1 if last == first else 1) * prod * c * c_last
                        bucket[prefix + (first, last)] = Fraction(v * kn_at[i2], kd_at[i2])
                        sums[i2] += v
            else:
                walk(prefix + (first,), i1, last, first, r, a, prod * c)
        p = i + rest
        if p <= top:
            bucket = bucket_at[p]
            if bucket is not None:
                v = arr * comb(p, rest) * prod * t1_pow[rest]
                bucket[prefix + ones[rest]] = Fraction(v * kn_at[p], kd_at[p])
                sums[p] += v

    for target, degrees in by_target.items():
        top, low = degrees[-1], degrees[0]
        bucket_at, kn_at, kd_at = [None] * (top + 1), [None] * (top + 1), [None] * (top + 1)
        for p in degrees:
            bucket_at[p] = buckets[p]
            kn_at[p], kd_at[p] = consts[p]
        walk((), 0, target, target, 0, 1, 1)
    # walk reaches itself through its closure; breaking that cycle frees the
    # closure, and the atoms it holds, as soon as the caller drops them
    del walk
    # sum_p K_p S_p == 1 with count[m] = zn / zd, times x_den (D E)^m zn:
    # degree p adds xs[p] E^p S_p (D E)^(m - s) zd, and m - s is 1 on a
    # marked degree and 0 otherwise
    total = sum(xs[p] * e**p * sums[p] * (de if marked[p] else 1) for p in consts) * z.denominator
    whole = x_den * de**m * z.numerator
    if total != whole:
        raise AssertionError(f"split weights at {m} sum to {Fraction(total, whole)}")
    atoms: dict[Partition, Fraction] = {}
    for bucket in buckets.values():
        atoms.update(bucket)
    return atoms


def family_from_tables(tables: SamplerTables) -> QFamily:
    """The Markov branching family matched to the conditioned tree's law."""
    splits = {m: split_measure(tables, m) for m in range(2, tables.n + 1) if tables.admissible(m)}
    q1 = split_measure(tables, 1).get((), Fraction(0)) if tables.admissible(1) else Fraction(1)
    fam = QFamily(tables.marks, splits, q1)
    fam.validate()
    return fam


def sample_markov_branching(q: QFamily, n: int, stream: RandomStream) -> OrderedTree:
    """One tree of size n from the Markov branching family.

    Size one is a stalk of geometric length ending in a leaf; larger sizes
    draw a split partition, attach recursively sampled subtrees to a branch
    vertex, and put a geometric stalk above it.  A stalk whose success
    probability is 1 (a law with no mass at degree one) is empty and takes
    no draw.  The degrees are appended in depth-first order, from a stack of
    the subtree sizes still to draw.
    """
    marks = q.marks
    stalks = 1 not in marks
    q1 = q.q1_empty
    leaf_stalks = stalks and q1 != 1
    degrees: list[int] = []
    stack = [n]
    while stack:
        s = stack.pop()
        if s == 1:
            length = draw_geometric(q1.numerator, q1.denominator, stream) if leaf_stalks else 0
            degrees += [1] * length + [0]
            continue
        lam = q.draw_conditioned(s, stream)
        below = 1
        if stalks:
            rest = q.split_mass(s)
            if rest != 1:
                below += draw_geometric(rest.numerator, rest.denominator, stream)
        degrees += [1] * (below - 1) + [len(lam)]
        stack.extend(reversed(lam))
    t = OrderedTree.from_degrees(degrees)
    if count_marked(t, marks) != n:
        raise AssertionError("branching sampler produced a wrong marked count")
    return t


def augmented_family(q: QFamily) -> QFamily:
    """Split family of the leaf-augmented trees, counted by leaves.

    Partitions whose block count is marked move to their image with an extra
    part equal to 1; everything else stays put.  The result is a family for
    the leaf set.
    """
    out: dict[int, dict[Partition, Fraction]] = {}
    for m, atoms in q.splits.items():
        dest: dict[Partition, Fraction] = {}
        for lam, w in atoms.items():
            tgt = iota(lam) if block_count(lam) in q.marks else lam
            dest[tgt] = dest.get(tgt, 0) + w
        out[m] = dest
    q1 = q.q1_empty if 1 not in q.marks else Fraction(1)
    fam = QFamily(DegreeSet.of(0), out, q1)
    fam.validate()
    return fam

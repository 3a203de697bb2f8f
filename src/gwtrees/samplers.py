"""Tree samplers: plain branching trees, exactly conditioned trees, and
Markov branching families.

Offspring laws and branching families hold exact rationals, so plain trees
and Markov branching trees are drawn by exact inversion;
SamplerTables(exact=) is the one switch between exact and float work.
Exact-mode conditioned sampling works by recursive decomposition: draw the
root degree from its conditional law, then the child subtree sizes one at a
time from their sequential conditionals, and recurse.  This needs the
marked-count table up to the target size and iterated convolutions of it, but
is unbiased at every size, unlike rejection with a vertex cap (kept here only
as a cross-validation oracle for small sizes).  Float mode uses the cycle
lemma on blocks instead (SamplerTables.draw_block_values): the depth-first
degrees cut into n runs that each end at a marked degree, whose collapsed
values are i.i.d. given their sum and whose interiors are independent given
their values.  The depth of a uniform marked vertex needs neither: it is
drawn as a Markov chain on the sizes of the subtrees along the vertex's path
(sample_marked_depth).
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import ceil, comb, exp, gcd, lcm, pi, sqrt

import numpy as np

from .degree_sets import DegreeSet, require_zero
from .exact import (
    FLOAT_TABLE_ATOL,
    FLOAT_TABLE_RTOL,
    marked_count_pmf,
    marked_count_pmf_float,
    marked_count_support,
)
from .offspring import OffspringDist, collapsed_coeffs_float, float_pmf, validate
from .partitions import Partition, block_count, iota
from .streams import (
    RandomStream,
    common_denominator,
    draw_cdf_int,
    draw_geometric,
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
        return draw_cdf_int(*dist.integer_cdf, stream)
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
class _DegreeCdf:
    """Exact root-degree CDF at one size, built only as far as draws reach.

    cum[i] / den is the weight of degrees[0..i] and total / den the size's
    probability.  A weight whose denominator does not divide den rescales
    the list in place, which leaves every ratio, and so every draw, as it was.
    """

    degrees: list[int]
    cum: list[int]
    den: int
    total: int
    todo: Iterator[int]


@dataclass(eq=False)
class _BlockLaw:
    """Float law of the blocks of a conditioned tree with n marked vertices.

    `values` are the block values c in 0..n-1 with positive mass and `probs`
    the collapsed law at them, tilted by theta^c to mean (n - 1) / n and
    normalised; `batch` multinomial rows are drawn at a time.  The rows count
    the first `head` values one by one and the rest, which carry at most
    1 / (n * batch) of the mass, in one last cell of `cells`; the values in
    that cell are drawn from `tail_cdf`, the normalised CDF of the rest.
    `hat` is the untilted collapsed law on 0..n-1 and `free[u]` the mass of
    an unmarked degree u, which weigh the steps inside a block; `interiors`
    is False when the set covers the law's support and every block is one
    vertex.
    """

    values: np.ndarray
    probs: np.ndarray
    theta: float
    batch: int
    head: int
    cells: np.ndarray
    tail_cdf: np.ndarray
    hat: np.ndarray
    free: np.ndarray
    interiors: bool


def _block_law(dist: OffspringDist, marks: DegreeSet, n: int, pmf: list[float]) -> _BlockLaw:
    """The block law of `dist` and `marks` at n marked vertices; `pmf` holds
    the law's float masses at 0..n.

    n values summing to n - 1 are all below n, so the collapsed law is cut
    at n - 1; this leaves the law of the values given their sum as it was.
    Tilting by theta^c leaves the law of n i.i.d. values given their sum
    unchanged, so theta only sets the acceptance rate: with mean (n - 1) / n
    a row hits the sum n - 1 with chance about 1 / sqrt(2 pi n Var), and a
    batch of twice that many rows usually holds a hit.  log theta is found
    by bisection; the mean grows with it.
    """
    hat = collapsed_coeffs_float(dist, marks, n - 1)
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
    var = probs @ values**2 - (probs @ values) ** 2
    batch = max(1, ceil(2 * sqrt(2 * pi * n * var)))
    rest = np.cumsum(probs[::-1])[::-1]  # rest[k]: mass of values[k:]
    head = int(np.argmax(rest * (n * batch) <= 1.0)) or len(values)
    cells, tail_cdf = probs, probs[:0]
    if head < len(values):
        cells = np.append(probs[:head], rest[head])
        tail_cdf = np.cumsum(probs[head:]) / rest[head]
        tail_cdf[-1] = 1.0  # a uniform in [0, 1) lands inside
    free = np.where([k not in marks for k in range(n + 1)], pmf[: n + 1], 0.0)
    return _BlockLaw(
        values, probs, exp(hi), batch, head, cells, tail_cdf, hat, free, not marks.covers_support(dist)
    )


class SamplerTables:
    """Marked-count law and its convolution powers for one (law, set, size).

    Exact mode keeps each power as integer numerators over one denominator
    per row, caches root-degree, split and size-chain CDFs as integer lists
    and draws them with exact dyadic inversion; float mode keeps each power
    once, as a numpy vector, and float CDFs as arrays of doubles.  Float
    trees need no power and no root-degree or split CDF: they are drawn from
    the block law and its per-value interior CDFs, built on the first tree
    draw.  `stats()` reports the sizes of the caches.  The size chain of
    sample_marked_depth is built on its first call, so tree sampling never
    pays for it, and depth draws never build the block law.
    """

    def __init__(self, dist: OffspringDist, marks: DegreeSet, n: int, exact: bool = True):
        require_zero(marks)
        validate(dist)
        if n < 1:
            raise ValueError("target size must be >= 1")
        self.dist = dist
        self.marks = marks
        self.n = n
        self.exact = exact
        if exact:
            self.count = marked_count_pmf(dist, marks, n)
            self._admissible = [bool(c > 0) for c in self.count]
        else:
            self.count = marked_count_pmf_float(dist, marks, n)
            # the FFT returns structural zeros as noise around 1e-17; the
            # integer support decides which sizes are zero
            self._admissible = marked_count_support(dist, marks, n)
            support = np.array(self._admissible)
            self.count[~support] = 0.0
            lost = np.flatnonzero(support & (self.count <= 0.0))
            if lost.size:
                raise ValueError(
                    f"float table cannot resolve the marked count at sizes {lost[:5].tolist()}: "
                    f"their mass is below its absolute error {FLOAT_TABLE_ATOL}; use a smaller n"
                )
        if not self._admissible[n]:
            raise ValueError(f"marked count {n} has probability zero")
        self._split_cum: dict[tuple[int, int], list[int]] = {}
        self._degree_cum: dict[int, _DegreeCdf] = {}
        # float trees: the block law and the interior CDFs, built on the first tree
        self._blocks: _BlockLaw | None = None
        self._interior_cum: dict[int, array] = {}
        # the size chain of sample_marked_depth, built on its first call
        self._chain: tuple | None = None
        self._chain_cum: dict[int, list[int] | array] = {}
        self.marked_degree = [k in marks for k in range(n + 2)]
        if exact:
            # row p of _tau: numerators of the p-th convolution power, and
            # their denominator, both divided by their gcd
            self._tau: list = [([1] + [0] * n, 1), common_denominator(self.count)]
            self._pmf_q = [(q.numerator, q.denominator) for q in map(Fraction, dist.coeffs(n + 1))]
        else:
            self._tau = [np.zeros(n + 1), np.array(self.count)]
            self._tau[0][0] = 1.0
            self._pmf_f = float_pmf(dist, n + 1)

    def admissible(self, m: int) -> bool:
        return 1 <= m <= self.n and self._admissible[m]

    def _power(self, p: int):
        """Row p of the convolution powers, built on first use."""
        tau = self._tau
        while len(tau) <= p:
            if self.exact:
                last, den = tau[-1]
                count, count_den = tau[1]
                n = self.n
                nxt = [0] * (n + 1)
                for i, ai in enumerate(last):
                    if ai:
                        for j in range(1, n - i + 1):
                            cj = count[j]
                            if cj:
                                nxt[i + j] += ai * cj
                den *= count_den
                g = gcd(den, *nxt)
                tau.append(([c // g for c in nxt], den // g))
            else:
                tau.append(np.convolve(tau[-1], self.count)[: self.n + 1])
        return tau[p]

    def tau(self, p: int):
        """P(sum of p independent marked counts = s), s = 0..n."""
        row = self._power(p)
        if self.exact:
            nums, den = row
            return [Fraction(c, den) for c in nums]
        return row

    def stats(self) -> dict[str, int]:
        """Sizes of the caches, read from them on demand.

        `powers` counts the convolution powers held (tau_0 and tau_1
        included), `*_cdfs` the cached CDFs (root-degree, split, size-chain
        and block-interior) and `*_entries` their entries; `cache_bytes`
        counts 8 bytes per power and CDF entry, which is what float mode's
        doubles take and a lower bound for exact mode's integers.  Nothing on
        the draw path counts.
        """
        cdfs = {
            "degree": [e.cum for e in self._degree_cum.values()],
            "split": self._split_cum.values(),
            "chain": self._chain_cum.values(),
            "interior": self._interior_cum.values(),
        }
        stats = {"powers": len(self._tau)}
        for kind, cums in cdfs.items():
            stats[f"{kind}_cdfs"] = len(cums)
            stats[f"{kind}_entries"] = sum(map(len, cums))
        entries = stats["powers"] * (self.n + 1) + sum(stats[f"{k}_entries"] for k in cdfs)
        stats["cache_bytes"] = 8 * entries
        return stats

    # -- draws ---------------------------------------------------------------

    def draw_root_degree(self, s: int, stream: RandomStream) -> int:
        """Root degree conditional on the subtree's marked count being s.

        The weight of degree p is xi_p * tau_p(s - [p marked]); its CDF, over
        one denominator, grows only as far as draws reach.  Exact tables
        only: float trees are drawn by blocks.
        """
        if not self.exact:
            raise ValueError("root-degree draws need exact tables")
        entry = self._degree_cum.get(s)
        if entry is None:
            size = self.count[s]
            entry = _DegreeCdf([], [], size.denominator, size.numerator, self.dist.support_iter(s))
            self._degree_cum[s] = entry
        i = draw_weights_int(entry.cum, entry.total, stream, partial(self._grow_degrees, s, entry))
        return entry.degrees[i]

    def _grow_degrees(self, s: int, entry: _DegreeCdf) -> int | None:
        """Append the next positive root-degree weight at size s to its CDF.

        Returns the total over the CDF's denominator, or None once every
        degree is in; the complete CDF must then end exactly at the total.
        """
        for p in entry.todo:
            x, x_den = self._pmf_q[p]
            nums, den = self._power(p)
            w = x * nums[s - 1 if self.marked_degree[p] else s]
            if not w:
                continue
            den *= x_den
            common = lcm(entry.den, den)
            if common != entry.den:
                # in place: the draw in progress holds this list
                scale = common // entry.den
                entry.cum[:] = [c * scale for c in entry.cum]
                entry.total *= scale
                entry.den = common
            entry.degrees.append(p)
            entry.cum.append((entry.cum[-1] if entry.cum else 0) + w * (common // den))
            return entry.total
        if not entry.cum or entry.cum[-1] != entry.total:
            raise AssertionError(f"root-degree weights at size {s} do not sum to its probability")
        return None

    def _draw_first_part(self, k: int, r: int, stream: RandomStream) -> int:
        """First of k sizes summing to r, from its sequential conditional."""
        key = (k, r)
        cum = self._split_cum.get(key)
        if cum is None:
            # weights count[m] * tau(k-1)[r-m] over one denominator; their
            # sum is tau(k)[r], so the list's last entry is the total
            count = self._tau[1][0]
            prev = self._power(k - 1)[0]
            cum = list(itertools.accumulate(count[m] * prev[r - m] for m in range(1, r - k + 2)))
            self._split_cum[key] = cum
        return 1 + draw_weights_int(cum, cum[-1], stream)

    def draw_split_sizes(self, p: int, target: int, stream: RandomStream) -> list[int]:
        """Sizes of p subtrees with total marked count `target`, drawn one at
        a time from their sequential conditionals.  Exact tables only."""
        if not self.exact:
            raise ValueError("split draws need exact tables")
        sizes: list[int] = []
        r = target
        for k in range(p, 1, -1):
            m = self._draw_first_part(k, r, stream)
            sizes.append(m)
            r -= m
        if p >= 1:
            sizes.append(r)
        return sizes

    def block_law(self) -> _BlockLaw:
        """The block law of float trees, built on the first call and cached.
        Float tables only."""
        if self._blocks is None:
            self._blocks = _block_law(self.dist, self.marks, self.n, self._pmf_f)
        return self._blocks

    def draw_block_values(self, gen: np.random.Generator) -> np.ndarray:
        """Collapsed values of the n blocks of a conditioned tree, in
        depth-first order.

        Multinomial rows of n values are drawn in batches, and the first row
        whose values sum to n - 1 is kept: its counts have the law of n
        i.i.d. values given that sum.  A row's values in the tail cell are
        i.i.d. from the tail law given their number, and are drawn for the
        rare rows that have any.  Shuffled, the values are a uniform
        arrangement of the kept row; by the cycle lemma exactly one rotation
        keeps the walk of (c - 1) above -1 until its last step, the one that
        starts just after the walk's first minimum.
        """
        law = self.block_law()
        head = law.values[: law.head]
        while True:
            rows = gen.multinomial(self.n, law.cells, size=law.batch)
            sums = rows[:, : law.head] @ head
            tails = {}
            for i in np.flatnonzero(rows[:, law.head :].any(axis=1)):
                u = gen.random(rows[i, law.head])
                tails[i] = law.values[law.head + np.searchsorted(law.tail_cdf, u, side="right")]
                sums[i] += tails[i].sum()
            hits = np.flatnonzero(sums == self.n - 1)
            if hits.size:
                break
        i = hits[0]
        values = np.repeat(head, rows[i, : law.head])
        if i in tails:
            values = np.concatenate((values, tails[i]))
        gen.shuffle(values)
        start = int(np.argmin(np.cumsum(values - 1))) + 1
        return np.concatenate((values[start:], values[:start]))

    def _interior_cdf(self, r: int) -> array:
        """CDF of one step inside a block whose remaining value is r, built on
        the first visit to r and cached.

        Entry 0 closes the block with marked degree r, with weight
        xi_r [r in A]; entry u >= 1 is an unmarked degree u, with weight
        xi_u * hat[r - u + 1], after which r - u + 1 remains.  The weights
        must sum to hat[r] within FLOAT_TABLE_RTOL * hat[r], else
        ArithmeticError: hat comes from a recurrence on non-negative terms,
        so its error is relative even where it is tiny.  The CDF is divided
        by its sum and ends at exactly 1.0 at the last positive weight, so a
        uniform in [0, 1) indexes it directly.
        """
        law = self.block_law()
        weights = np.empty(r + 2)
        weights[0] = self._pmf_f[r] if self.marked_degree[r] else 0.0
        weights[1:] = law.free[1 : r + 2] * law.hat[r::-1]
        cum = np.cumsum(weights)
        want = law.hat[r]
        if abs(cum[-1] - want) > FLOAT_TABLE_RTOL * want:
            raise ArithmeticError(f"block weights at value {r} sum to {cum[-1]}, not hat[{r}] = {want}")
        last = int(np.flatnonzero(weights)[-1])
        cum = cum[: last + 1] / cum[-1]
        cum[-1] = 1.0
        cdf = array("d", cum.tobytes())
        self._interior_cum[r] = cdf
        return cdf

    def _chain_cdf(self, s: int):
        """CDF of one step of sample_marked_depth's size chain from size s,
        built on the first visit to s and cached.

        Entry 0 is the stop, with weight Phi_A[s]; entry s' in [1, s] is the
        step into a subtree of size s', with weight G[s - s'] * W(s') (see
        marked_vertex_series), and the list ends at the last positive
        weight.  The weights sum to W(s).  Exact CDFs are integers over one
        denominator and must end exactly at W(s); float CDFs are arrays of
        doubles and must end within FLOAT_TABLE_RTOL * W(s) +
        FLOAT_TABLE_ATOL of it.
        """
        if self._chain is None:
            w, g, stop = marked_vertex_series(self)
            if self.exact:
                # stop / den_a, g / den_g and s * count[s] = s * ints[s] / int_den,
                # all scaled by int_den * den_g * den_a
                ints, int_den = self._tau[1]
                a, den_a = common_denominator(stop)
                g, den_g = common_denominator(g)
                self._chain = (
                    [x * den_g * int_den for x in a],
                    [x * den_a for x in g],
                    [m * c for m, c in enumerate(ints)],
                    den_g * den_a,
                )
            else:
                self._chain = (stop, g, w, None)
        stop, g, w, scale = self._chain
        if self.exact:
            weights = [stop[s], *(g[s - m] * w[m] for m in range(1, s + 1))]
            cum = list(itertools.accumulate(weights))
            if cum[-1] != w[s] * scale:
                raise AssertionError(f"chain weights at size {s} do not sum to W({s})")
        else:
            weights = np.empty(s + 1)
            weights[0] = stop[s]
            weights[1:] = g[s - 1 :: -1] * w[1 : s + 1]
            cum = array("d", np.cumsum(weights).tobytes())
            if abs(cum[-1] - w[s]) > FLOAT_TABLE_RTOL * w[s] + FLOAT_TABLE_ATOL:
                raise ArithmeticError(f"chain weights at size {s} sum to {cum[-1]}, not W({s}) = {w[s]}")
        last = len(weights) - 1
        while last and not weights[last]:
            last -= 1
        del cum[last + 1 :]
        self._chain_cum[s] = cum
        return cum


def sample_conditioned(tables: SamplerTables, stream: RandomStream) -> OrderedTree:
    """A tree conditioned to have exactly the tables' marked count.

    Exact tables draw it by recursive decomposition; float tables by blocks
    (SamplerTables.draw_block_values), with a numpy Generator seeded from
    128 bits of the stream per tree.
    """
    if tables.exact:
        degrees = _recursive_degrees(tables, stream)
    else:
        gen = np.random.default_rng(stream.getrandbits(128))
        degrees = _block_degrees(tables, tables.draw_block_values(gen), gen)
    t = OrderedTree.from_degrees(degrees)
    if count_marked(t, tables.marks) != tables.n:
        raise AssertionError("conditioned sampler produced a wrong marked count")
    return t


def _recursive_degrees(tables: SamplerTables, stream: RandomStream) -> list[int]:
    """Depth-first degrees of an exactly conditioned tree: each vertex draws
    its degree given its subtree's marked count, then its children's counts."""
    marked_degree = tables.marked_degree
    degrees: list[int] = []
    stack = [tables.n]  # marked counts of the subtrees still to draw
    while stack:
        s = stack.pop()
        p = tables.draw_root_degree(s, stream)
        degrees.append(p)
        sizes = tables.draw_split_sizes(p, s - 1 if marked_degree[p] else s, stream)
        stack.extend(reversed(sizes))
    return degrees


def _block_degrees(tables: SamplerTables, values: np.ndarray, gen: np.random.Generator) -> list[int]:
    """Depth-first degrees of the blocks with the given values.

    A block of value r is a run of unmarked degrees closed by a marked one,
    drawn step by step from SamplerTables._interior_cdf, one uniform per
    vertex; the uniforms come from `gen` in chunks of n.  When the set
    covers the law's support every block is one vertex of degree r.
    """
    if not tables.block_law().interiors:
        return values.tolist()
    n = tables.n
    cdfs = tables._interior_cum
    build = tables._interior_cdf
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
    the rows F^j of the marked degrees of a finite set, or as
    (F - sum_{j not in A} xi_j F^j) / z for a cofinite one.  F' is known to
    z^(n-1) only, so G has entries 0..n-1; W and Phi_A have 0..n.  Exact
    tables give numpy arrays of Fractions, float tables of doubles, with G
    clipped at zero against rounding.
    """
    n = tables.n
    marks = tables.marks
    if tables.exact:
        count = np.array(tables.count, dtype=object)

        def row(p: int) -> np.ndarray:
            nums, den = tables._power(p)
            return np.array([Fraction(c, den) for c in nums], dtype=object)

        xi = tables.dist.pmf
    else:
        count = tables.count
        row = tables._power
        xi = tables._pmf_f.__getitem__
    zero = count[0]  # no tree has no marked vertex
    # the marked part of Phi over z, to z^(n-1); F^j starts at z^j
    if marks.cofinite:
        rest = count.copy()
        for j in sorted(marks.members):
            if j <= n and xi(j):
                rest -= xi(j) * row(j)
        phi_z = rest[1:]
    else:
        phi_z = np.zeros(n, dtype=count.dtype)
        for j in sorted(marks.members):
            if j < n and xi(j):
                phi_z += xi(j) * row(j)[:n]
    deriv = np.arange(1, n + 1) * count[1:]  # F', to z^(n-1)
    # quotient = phi_z / deriv, one coefficient at a time
    quotient = np.empty_like(phi_z)
    for k in range(n):
        quotient[k] = (phi_z[k] - np.dot(quotient[:k], deriv[k:0:-1])) / deriv[0]
    g = -quotient
    g[0] = zero if 1 in marks else xi(1)  # 1 - quotient[0], without its rounding
    if not tables.exact:
        np.maximum(g, 0.0, out=g)
    return np.arange(n + 1) * count, g, np.concatenate([[zero], phi_z])


def sample_marked_depth(tables: SamplerTables, stream: RandomStream) -> int:
    """Depth of a uniformly chosen marked vertex of a conditioned tree.

    Along the path from the root to a uniform marked vertex, the marked
    counts of the subtrees entered form a Markov chain
    (marked_vertex_series): from size s it stops, the root being the chosen
    vertex, or steps into a child subtree of size s' <= s, where s' = s is
    an unmarked degree-one stalk.  The depth is the number of steps: one
    draw per level from one cached CDF per size (SamplerTables._chain_cdf),
    about sqrt(n) draws, and no root degree or sibling size is drawn.
    """
    cdfs = tables._chain_cum
    build = tables._chain_cdf
    depth = 0
    s = tables.n
    if tables.exact:
        while True:
            cum = cdfs.get(s) or build(s)
            if len(cum) == 1:
                return depth
            s = draw_weights_int(cum, cum[-1], stream)
            if not s:
                return depth
            depth += 1
    rand = stream.random
    while True:
        cum = cdfs.get(s) or build(s)
        if len(cum) == 1:
            return depth
        s = min(bisect_right(cum, rand() * cum[-1]), len(cum) - 1)
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

    def sizes(self) -> list[int]:
        return [1] + sorted(self.splits)

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
        """(partitions, CDF, CDF denominator, mass off the whole block) at size n.

        The atoms' cumulative weights and the mass off (n,) are put over one
        lcm denominator, so the CDF is integers over that mass.
        """
        entry = self._cond_cum.get(n)
        if entry is None:
            atoms = sorted((lam, w) for lam, w in self.splits[n].items() if lam != (n,) and w > 0)
            rest = 1 - self.whole_mass(n)
            nums, _den = common_denominator([*(w for _, w in atoms), rest])
            entry = ([lam for lam, _ in atoms], list(itertools.accumulate(nums[:-1])), nums[-1], rest)
            self._cond_cum[n] = entry
        return entry

    def split_mass(self, n: int):
        """Mass off the undivided partition (n,): the success probability of
        the stalk above a branch vertex of size n."""
        return self._conditioned(n)[3]

    def draw_conditioned(self, n: int, stream: RandomStream) -> Partition:
        """Draw a partition at size n conditioned away from the whole block (n,)."""
        lams, cum, den, _rest = self._conditioned(n)
        if not lams:
            raise ValueError(f"no admissible split at size {n}")
        return lams[draw_cdf_int(cum, den, stream)]


def split_measure(tables: SamplerTables, m: int) -> dict[Partition, Fraction]:
    """Exact root-split law at size m induced by the conditioned tree.

    The weight of a partition is the number of its orderings times the root
    degree probability times the product of part probabilities, normalised by
    the size-m probability.  Exact tables only.

    Each degree's partitions come from one depth-first enumeration, in
    decreasing lexicographic order, in which a prefix carries running integer
    state: its arrangement count, updated from the run of equal parts that
    ends it, the products of its parts' reduced numerators and denominators,
    which give each atom's Fraction, and the product of its parts' integer
    numerators over the count table's common denominator, which gives the
    exact sum-to-one check with one Fraction per degree.
    """
    if not tables.exact:
        raise ValueError("split_measure needs exact tables")
    if not tables.admissible(m):
        raise ValueError(f"size {m} has probability zero")
    count = tables.count
    nums = [c.numerator for c in count]
    dens = [c.denominator for c in count]
    ints, int_den = tables._tau[1]  # count[j] == ints[j] / int_den; zero marks an inadmissible part
    atoms: dict[Partition, Fraction] = {}

    def place(prefix, i, rest, k, prev, run, arr, num, den, prod) -> int:
        """Add the atoms that complete prefix, whose i parts end in `run`
        copies of prev, with k >= 2 more parts summing to rest, none above
        prev.  Returns the sum over them of arrangements times the product
        of the parts' integer numerators."""
        if rest == k:
            # only ones are left, and every part before them is larger
            if not ints[1]:
                return 0
            arr *= comb(i + k, k)
            atoms[prefix + (1,) * k] = Fraction(arr * num * nums[1] ** k, den * dens[1] ** k)
            return arr * prod * ints[1] ** k
        total = 0
        # the next part leaves at least 1 for each later part and is at least rest / k
        for first in range(min(rest - k + 1, prev), (rest - 1) // k, -1):
            c = ints[first]
            if not c:
                continue
            r = run + 1 if first == prev else 1
            a = arr * (i + 1) // r
            if k > 2:
                total += place(
                    prefix + (first,), i + 1, rest - first, k - 1, first, r, a,
                    num * nums[first], den * dens[first], prod * c,
                )
                continue
            last = rest - first  # at most first, because first >= rest / 2
            c_last = ints[last]
            if c_last:
                a = a * (i + 2) // (r + 1 if last == first else 1)
                atoms[prefix + (first, last)] = Fraction(
                    a * num * nums[first] * nums[last], den * dens[first] * dens[last]
                )
                total += a * prod * c * c_last
        return total

    z = count[m]
    mass = Fraction(0)
    for p in tables.dist.support_iter(m):
        xi = tables.dist.pmf(p)
        if xi == 0:
            continue
        target = m - 1 if tables.marked_degree[p] else m
        if p >= 2:
            if target >= p:
                # prev = target only caps the first part, which is smaller
                s = place(
                    (), 0, target, p, target, 0, 1, xi.numerator * z.denominator, xi.denominator * z.numerator, 1
                )
                mass += Fraction(xi.numerator * s, xi.denominator * int_den**p)
        elif (ints[target] if p == 1 else target == 0):
            # the single part (target,), or () at size 1
            w = xi * count[target] if p == 1 else xi
            atoms[(target,) * p] = w / z
            mass += w
    # place reaches itself through its closure; breaking that cycle frees the
    # closure, and the atoms it holds, as soon as the caller drops them
    del place
    if mass != z:
        raise AssertionError(f"split weights at {m} sum to {mass / z}")
    return atoms


def family_from_tables(tables: SamplerTables, max_size: int | None = None) -> QFamily:
    """The Markov branching family matched to the conditioned tree's law."""
    top = tables.n if max_size is None else max_size
    splits = {m: split_measure(tables, m) for m in range(2, top + 1) if tables.admissible(m)}
    q1 = split_measure(tables, 1).get((), Fraction(0)) if tables.admissible(1) else Fraction(1)
    fam = QFamily(tables.marks, splits, q1)
    fam.validate()
    return fam


def sample_markov_branching(q: QFamily, n: int, stream: RandomStream) -> OrderedTree:
    """One tree of size n from the Markov branching family.

    Size one is a stalk of geometric length ending in a leaf; larger sizes
    draw a split partition, attach recursively sampled subtrees to a branch
    vertex, and put a geometric stalk above it.  The degrees are appended in
    depth-first order, from a stack of the subtree sizes still to draw.
    """
    marks = q.marks
    stalks = 1 not in marks
    q1 = q.q1_empty
    degrees: list[int] = []
    stack = [n]
    while stack:
        s = stack.pop()
        if s == 1:
            length = draw_geometric(q1.numerator, q1.denominator, stream) if stalks else 0
            degrees += [1] * length + [0]
            continue
        lam = q.draw_conditioned(s, stream)
        below = 1
        if stalks:
            rest = q.split_mass(s)
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

"""Tree samplers: plain branching trees, exactly conditioned trees, and
Markov branching families.

Conditioned sampling works by exact recursive decomposition: draw the root
degree from its conditional law, then the child subtree sizes one at a time
from their sequential conditionals, and recurse.  This needs the marked-count
table up to the target size and iterated convolutions of it, but is unbiased
at every size, unlike rejection with a vertex cap (kept here only as a
cross-validation oracle for small sizes).
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd, lcm

import numpy as np

from .degree_sets import DegreeSet, require_zero
from .exact import marked_count_pmf, marked_count_pmf_float
from .offspring import OffspringDist, validate
from .partitions import (
    Partition,
    block_count,
    distinct_arrangements,
    iota,
    partitions_into,
)
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
    if dist.family == "finite" and dist.exact:
        return draw_cdf_int(*dist.integer_cdf, stream)
    if dist.exact:
        return draw_geometric(dist.param.numerator, dist.param.denominator, stream)
    u = stream.random()
    acc = 0.0
    k = 0
    while True:
        acc += float(dist.pmf(k))
        if u < acc or acc >= 1.0:
            return k
        k += 1


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


class SamplerTables:
    """Marked-count law and its convolution powers for one (law, set, size).

    Exact mode keeps each power as integer numerators over one denominator
    per row, caches root-degree and split CDFs as integer lists and draws
    them with exact dyadic inversion; float mode keeps numpy vectors and
    float CDFs.  Both modes cache the CDFs per key in the same dicts.
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
        else:
            self.count = marked_count_pmf_float(dist, marks, n)
            # structural zeros come back from the FFT as noise around 1e-15;
            # genuine masses at the sizes used here sit far above this floor
            self.count[self.count <= 1e-10] = 0.0
        if self.count[n] == 0:
            raise ValueError(f"marked count {n} has probability zero")
        self._admissible = [bool(c > 0) for c in self.count]
        self._split_cum: dict[tuple[int, int], list[int] | array] = {}
        self._degree_cum: dict[int, _DegreeCdf | tuple[list[int], list[float]]] = {}
        self.marked_degree = [k in marks for k in range(n + 2)]
        if exact:
            # row p of _tau: numerators of the p-th convolution power, and
            # their denominator, both divided by their gcd
            self._tau: list = [([1] + [0] * n, 1), common_denominator(self.count)]
            self._pmf_q = [(q.numerator, q.denominator) for q in map(Fraction, dist.coeffs(n + 1))]
        else:
            self._tau = [np.zeros(n + 1), np.array(self.count)]
            self._tau[0][0] = 1.0
            # flat float mirrors keep the per-vertex draw loops cheap
            self._pmf_f = [float(dist.pmf(k)) for k in range(n + 2)]
            self._count_l: list[float] = self.count.tolist()
            self._tau_l: list[list[float]] = [self._tau[0].tolist(), self._count_l]

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
                nxt = np.convolve(tau[-1], self.count)[: self.n + 1]
                tau.append(nxt)
                self._tau_l.append(nxt.tolist())
        return tau[p]

    def tau(self, p: int):
        """P(sum of p independent marked counts = s), s = 0..n."""
        row = self._power(p)
        if self.exact:
            nums, den = row
            return [Fraction(c, den) for c in nums]
        return row

    def tau_list(self, p: int) -> list[float]:
        self._power(p)
        return self._tau_l[p]

    # -- draws ---------------------------------------------------------------

    def draw_root_degree(self, s: int, stream: RandomStream) -> int:
        """Root degree conditional on the subtree's marked count being s."""
        entry = self._degree_cum.get(s)
        if self.exact:
            if entry is None:
                size = self.count[s]
                entry = _DegreeCdf([], [], size.denominator, size.numerator, self.dist.support_iter(s))
                self._degree_cum[s] = entry
            i = draw_weights_int(entry.cum, entry.total, stream, partial(self._grow_degrees, s, entry))
            return entry.degrees[i]
        if entry is None:
            degrees: list[int] = []
            cum: list[float] = []
            acc = 0.0
            total = self._count_l[s]
            pmf = self._pmf_f
            marked = self.marked_degree
            for p in self.dist.support_iter(s):
                w = pmf[p] * self.tau_list(p)[s - 1 if marked[p] else s]
                if w > 0.0:
                    acc += w
                    degrees.append(p)
                    cum.append(acc)
                    if acc >= total * (1.0 - 1e-15):
                        break
            if not degrees:
                raise ValueError(f"no admissible root degree at size {s}")
            entry = (degrees, cum)
            self._degree_cum[s] = entry
        degrees, cum = entry
        if len(degrees) == 1:
            return degrees[0]
        u = stream.random() * cum[-1]
        return degrees[min(bisect_right(cum, u), len(degrees) - 1)]

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
        if self.exact:
            if cum is None:
                # weights count[m] * tau(k-1)[r-m] over one denominator; their
                # sum is tau(k)[r], so the list's last entry is the total
                count = self._tau[1][0]
                prev = self._power(k - 1)[0]
                cum = list(itertools.accumulate(count[m] * prev[r - m] for m in range(1, r - k + 2)))
                self._split_cum[key] = cum
            return 1 + draw_weights_int(cum, cum[-1], stream)
        if cum is None:
            tau_prev = self._power(k - 1)
            stop = k - 2  # slice runs over tau_prev[r-1] down to tau_prev[k-1]
            w = np.asarray(self.count[1 : r - k + 2]) * tau_prev[r - 1 : stop if stop >= 0 else None : -1]
            # 8 bytes per entry instead of a list of float objects; bisect
            # reads it unchanged and returns the same index
            cum = array("d", np.cumsum(w).tobytes())
            self._split_cum[key] = cum
        if len(cum) == 1:
            return 1
        u = stream.random() * cum[-1]
        i = bisect_right(cum, u)
        return 1 + min(i, len(cum) - 1)

    def draw_split_sizes(self, p: int, target: int, stream: RandomStream) -> list[int]:
        sizes: list[int] = []
        r = target
        for k in range(p, 1, -1):
            m = self._draw_first_part(k, r, stream)
            sizes.append(m)
            r -= m
        if p >= 1:
            sizes.append(r)
        return sizes


def sample_conditioned(tables: SamplerTables, stream: RandomStream) -> OrderedTree:
    """A tree conditioned to have exactly the tables' marked count."""
    marks = tables.marks
    marked_degree = tables.marked_degree
    children: list[list[int]] = []
    stack: list[tuple[int, int]] = [(-1, tables.n)]  # (parent index, target count)
    while stack:
        parent, s = stack.pop()
        idx = len(children)
        children.append([])
        if parent >= 0:
            children[parent].append(idx)
        p = tables.draw_root_degree(s, stream)
        target = s - 1 if marked_degree[p] else s
        sizes = tables.draw_split_sizes(p, target, stream)
        for size in reversed(sizes):
            stack.append((idx, size))
    t = OrderedTree(tuple(tuple(kids) for kids in children))
    if count_marked(t, marks) != tables.n:
        raise AssertionError("conditioned sampler produced a wrong marked count")
    return t


def sample_marked_depth(tables: SamplerTables, stream: RandomStream) -> int:
    """Depth of a uniformly chosen marked vertex of a conditioned tree.

    Picks the marked vertex by its rank in preorder, then descends only the
    branch that holds it: at each level it draws the root degree and the
    child sizes, and steps into the child whose marked range contains the
    rank.  This is exact because a subtree's marked count is its target
    size, so the sizes alone locate the rank, and the subtrees off the path
    are independent of the path given their sizes and need not be drawn.
    The cost is O(height), about sqrt(n) levels, against O(n) for building
    the whole tree.
    """
    pick = stream.randbelow(tables.n)
    marked_degree = tables.marked_degree
    depth = 0
    s = tables.n
    while True:
        p = tables.draw_root_degree(s, stream)
        if marked_degree[p]:
            if pick == 0:
                return depth
            pick -= 1
        for size in tables.draw_split_sizes(p, s - 1 if marked_degree[p] else s, stream):
            if pick < size:
                break
            pick -= size
        else:
            raise AssertionError("conditioned descent produced a wrong marked count")
        depth += 1
        s = size


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
    splits: dict[int, dict[Partition, Fraction | float]]
    q1_empty: Fraction | float
    _cond_cum: dict[int, tuple] = field(default_factory=dict, repr=False)

    def sizes(self) -> list[int]:
        return [1] + sorted(self.splits)

    def whole_mass(self, n: int):
        """Mass on the undivided partition (n,), which feeds the stalk law."""
        return self.splits[n].get((n,), Fraction(0) if self.is_exact else 0.0)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.q1_empty, (Fraction, int))

    def validate(self) -> None:
        if not 0 < self.q1_empty <= 1:
            raise ValueError("size-1 bare-vertex probability must lie in (0,1]")
        defined = set(self.splits) | {1}
        for n, atoms in sorted(self.splits.items()):
            if n < 2:
                raise ValueError("split distributions start at size 2")
            total = sum(atoms.values())
            tol = 0 if self.is_exact else 1e-9
            if abs(total - 1) > tol:
                raise ValueError(f"split weights at size {n} sum to {total}")
            if 1 not in self.marks and atoms.get((n,), 0) == 1:
                raise ValueError(f"size {n} keeps all mass on the whole block")
            for lam, w in atoms.items():
                if w < 0:
                    raise ValueError("negative split weight")
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

        Exact entries put the atoms' cumulative weights and the mass off (n,)
        over one lcm denominator, so the CDF is integers over that mass; float
        entries hold a normalised CDF and no denominator.
        """
        entry = self._cond_cum.get(n)
        if entry is None:
            atoms = sorted((lam, w) for lam, w in self.splits[n].items() if lam != (n,) and w > 0)
            rest = 1 - self.whole_mass(n)
            lams = [lam for lam, _ in atoms]
            if self.is_exact:
                nums, _den = common_denominator([*(w for _, w in atoms), rest])
                entry = (lams, list(itertools.accumulate(nums[:-1])), nums[-1], rest)
            else:
                entry = (lams, list(itertools.accumulate(w / rest for _, w in atoms)), None, rest)
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
        if den is not None:
            return lams[draw_cdf_int(cum, den, stream)]
        return lams[min(bisect_right(cum, stream.random()), len(lams) - 1)]


def _draw_geometric0(success, stream: RandomStream) -> int:
    """Number of failures before the first success; exact when `success` is."""
    if isinstance(success, Fraction):
        return draw_geometric(success.numerator, success.denominator, stream)
    u = stream.random()
    acc = 0.0
    j = 0
    fail = 1.0 - float(success)
    term = float(success)
    while True:
        acc += term
        if u < acc or term == 0.0:
            return j
        term *= fail
        j += 1


def split_measure(tables: SamplerTables, m: int) -> dict[Partition, Fraction]:
    """Exact root-split law at size m induced by the conditioned tree.

    The weight of a partition is the number of its orderings times the root
    degree probability times the product of part probabilities, normalised by
    the size-m probability.  Exact tables only: each weight is a product of
    integer numerators over a product of denominators, made a Fraction once.
    """
    if not tables.exact:
        raise ValueError("split_measure needs exact tables")
    if not tables.admissible(m):
        raise ValueError(f"size {m} has probability zero")
    marks = tables.marks
    z = tables.count[m]
    nums = [c.numerator for c in tables.count]
    dens = [c.denominator for c in tables.count]
    atoms: dict[Partition, Fraction] = {}
    for p in tables.dist.support_iter(m):
        xi_p = tables.dist.pmf(p)
        if xi_p == 0:
            continue
        target = m - (1 if p in marks else 0)
        # a partition has p parts, so each one is reached from one degree only
        for lam in partitions_into(target, p, part_ok=tables.admissible):
            num = distinct_arrangements(lam) * xi_p.numerator * z.denominator
            den = xi_p.denominator * z.numerator
            for part in lam:
                num *= nums[part]
                den *= dens[part]
            atoms[lam] = Fraction(num, den)
    total = sum(atoms.values())
    if total != 1:
        raise AssertionError(f"split weights at {m} sum to {total}")
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
    vertex, and put a geometric stalk below it.
    """
    marks = q.marks
    stalks = 1 not in marks
    root: list = []
    stack: list[tuple[list, int]] = [(root, n)]
    while stack:
        node, s = stack.pop()
        if s == 1:
            length = _draw_geometric0(q.q1_empty, stream) if stalks else 0
            cur = node
            for _ in range(length):
                nxt: list = []
                cur.append(nxt)
                cur = nxt
            continue
        lam = q.draw_conditioned(s, stream)
        if stalks:
            below = 1 + _draw_geometric0(q.split_mass(s), stream)
        else:
            below = 1
        cur = node
        for _ in range(below - 1):
            nxt = []
            cur.append(nxt)
            cur = nxt
        kids = []
        for _ in lam:
            child: list = []
            cur.append(child)
            kids.append(child)
        for child, part in zip(reversed(kids), reversed(lam)):
            stack.append((child, part))
    t = OrderedTree.from_nested(root)
    if count_marked(t, marks) != n:
        raise AssertionError("branching sampler produced a wrong marked count")
    return t


def augmented_family(q: QFamily) -> QFamily:
    """Split family of the leaf-augmented trees, counted by leaves.

    Partitions whose block count is marked move to their image with an extra
    part equal to 1; everything else stays put.  The result is a family for
    the leaf set.
    """
    out: dict[int, dict[Partition, Fraction | float]] = {}
    for m, atoms in q.splits.items():
        dest: dict[Partition, Fraction | float] = {}
        for lam, w in atoms.items():
            tgt = iota(lam) if block_count(lam) in q.marks else lam
            dest[tgt] = dest.get(tgt, 0) + w
        out[m] = dest
    q1 = q.q1_empty if 1 not in q.marks else Fraction(1) if q.is_exact else 1.0
    fam = QFamily(DegreeSet.of(0), out, q1)
    fam.validate()
    return fam

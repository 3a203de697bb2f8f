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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

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
from .streams import RandomStream, draw_cdf, draw_weights
from .trees import OrderedTree, count_marked, decode


class VertexBudgetExceeded(RuntimeError):
    """A sampled tree grew past the caller's vertex budget."""


class TryBudgetExceeded(RuntimeError):
    """Rejection sampling used up its allowed attempts."""


@lru_cache(maxsize=64)
def _finite_cum(dist: OffspringDist) -> tuple:
    probs = dist.probs
    cum = list(itertools.accumulate(probs))
    return tuple(cum)


def draw_offspring(dist: OffspringDist, stream: RandomStream) -> int:
    """One child count with exactly the distribution's law."""
    if dist.family == "finite" and dist.exact:
        return draw_cdf(_finite_cum(dist), stream)
    if dist.exact:
        return draw_weights((dist.pmf(k) for k in itertools.count()), Fraction(1), stream)
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


class SamplerTables:
    """Marked-count law and its convolution powers for one (law, set, size).

    Exact mode stores rationals and draws with exact inversion; float mode
    stores numpy vectors and memoizes split tables for large sizes.
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
        self._tau: list = [self._tau_zero(), list(self.count) if exact else np.array(self.count)]
        self._split_cum: dict[tuple[int, int], array] = {}
        self._degree_cum: dict[int, tuple[list[int], list[float]]] = {}
        self.marked_degree = [k in marks for k in range(n + 2)]
        if not exact:
            # flat float mirrors keep the per-vertex draw loops cheap
            self._pmf_f = [float(dist.pmf(k)) for k in range(n + 2)]
            self._count_l: list[float] = self.count.tolist()
            self._tau_l: list[list[float]] = [self._tau[0].tolist(), self._count_l]

    def _tau_zero(self):
        if self.exact:
            row = [Fraction(0)] * (self.n + 1)
            row[0] = Fraction(1)
            return row
        row = np.zeros(self.n + 1)
        row[0] = 1.0
        return row

    def admissible(self, m: int) -> bool:
        return 1 <= m <= self.n and self._admissible[m]

    def tau(self, p: int):
        """P(sum of p independent marked counts = s), s = 0..n."""
        while len(self._tau) <= p:
            last = self._tau[-1]
            if self.exact:
                nxt = [Fraction(0)] * (self.n + 1)
                for i, ai in enumerate(last):
                    if ai:
                        for j in range(1, self.n - i + 1):
                            cj = self.count[j]
                            if cj:
                                nxt[i + j] += ai * cj
            else:
                nxt = np.convolve(last, self.count)[: self.n + 1]
                self._tau_l.append(nxt.tolist())
            self._tau.append(nxt)
        return self._tau[p]

    def tau_list(self, p: int) -> list[float]:
        self.tau(p)
        return self._tau_l[p]

    # -- draws ---------------------------------------------------------------

    def draw_root_degree(self, s: int, stream: RandomStream) -> int:
        """Root degree conditional on the subtree's marked count being s."""
        if self.exact:
            total = self.count[s]
            weights = (
                self.dist.pmf(p) * self.tau(p)[s - (1 if p in self.marks else 0)]
                for p in self.dist.support_iter(s)
            )
            degrees = list(self.dist.support_iter(s))
            return degrees[draw_weights(weights, total, stream)]
        entry = self._degree_cum.get(s)
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

    def _draw_first_part(self, k: int, r: int, stream: RandomStream) -> int:
        """First of k sizes summing to r, from its sequential conditional."""
        if self.exact:
            tau_prev = self.tau(k - 1)
            weights = (self.count[m] * tau_prev[r - m] for m in range(1, r - k + 2))
            return 1 + draw_weights(weights, self.tau(k)[r], stream)
        key = (k, r)
        cum = self._split_cum.get(key)
        if cum is None:
            tau_prev = self.tau(k - 1)
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
    _cond_cum: dict[int, tuple[list[Partition], list]] = field(default_factory=dict, repr=False)

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

    def draw_conditioned(self, n: int, stream: RandomStream) -> Partition:
        """Draw a partition at size n conditioned away from the whole block (n,)."""
        entry = self._cond_cum.get(n)
        if entry is None:
            atoms = sorted((lam, w) for lam, w in self.splits[n].items() if lam != (n,) and w > 0)
            rest = 1 - self.splits[n].get((n,), 0)
            lams = [lam for lam, _ in atoms]
            cum = list(itertools.accumulate(w / rest for _, w in atoms))
            entry = (lams, cum)
            self._cond_cum[n] = entry
        lams, cum = entry
        if not lams:
            raise ValueError(f"no admissible split at size {n}")
        if self.is_exact:
            return lams[draw_cdf(cum, stream)]
        return lams[min(bisect_right(cum, stream.random()), len(lams) - 1)]


def _draw_geometric0(success, stream: RandomStream) -> int:
    """Number of failures before the first success; exact when `success` is."""
    if isinstance(success, Fraction):
        fail = 1 - success
        return draw_weights((success * fail**j for j in itertools.count()), Fraction(1), stream)
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
            below = 1 + _draw_geometric0(1 - q.whole_mass(s), stream)
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

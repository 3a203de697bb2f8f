"""Numerical checks of the asymptotic behaviour: the rescaled root-split
statistic, the binary dislocation integral it converges to, size-biased
reordering, rescaled depth experiments with the exact depth law they are
checked against, and the small test-statistics toolbox (empirical CDFs, KS
distances, chi-square)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .degree_sets import DegreeSet
from .offspring import OffspringDist
from .partitions import Partition, block_count
from .samplers import SamplerTables, marked_vertex_series, sample_marked_depth, split_measure
from .streams import RandomStream

__all__ = [
    "SplitMeasure",
    "TestFunction",
    "root_split_measure",
    "damped_mean",
    "root_limit_statistic",
    "top_share_mean",
    "block_count_marginal",
    "brownian_dislocation",
    "brownian_dislocation_riemann",
    "size_biased_reorder",
    "size_biased_expectation",
    "ks_two_sample",
    "ks_threshold",
    "sup_distance",
    "ks_one_sample",
    "depth_law",
    "ecdf",
    "chi_square_test",
    "DepthArm",
    "depth_experiment",
    "ExperimentReport",
]


@dataclass(frozen=True)
class SplitMeasure:
    """A probability measure over split partitions at a given size."""

    size: int
    atoms: dict[Partition, Fraction]

    def pushed(self, lam: Partition) -> tuple:
        """Normalise a partition to a mass vector; the empty one maps to zeros."""
        total = sum(lam)
        if total == 0:
            return ()
        return tuple(Fraction(part, total) for part in lam)


@dataclass(frozen=True)
class TestFunction:
    """A named evaluator on mass vectors."""

    __test__ = False  # not a pytest case

    fn: object
    name: str = "f"

    def __call__(self, s: tuple):
        return self.fn(s)


def root_split_measure(tables: SamplerTables, m: int) -> SplitMeasure:
    """Exact root-split law at size m (conditioned-tree root decomposition)."""
    return SplitMeasure(m, split_measure(tables, m))


def _top(lam_pushed: tuple):
    return lam_pushed[0] if lam_pushed else Fraction(0)


def damped_mean(measure: SplitMeasure, f) -> Fraction:
    """Mean of (1 - s1) f(s) under the pushed-forward split measure; exact
    whenever the atoms and f are exact."""
    total = Fraction(0)
    for lam, w in measure.atoms.items():
        if w == 0:
            continue
        s = measure.pushed(lam)
        total += w * (1 - _top(s)) * f(s)
    return total


def root_limit_statistic(measure: SplitMeasure, f) -> float:
    """sqrt(size) times the damped mean.  For f = 1 it is exactly
    sqrt(size) * (1 - top_share_mean), which is how the root-limit suite and
    `gwtrees root-partition` compute it before checking it against its
    closed-form limit sigma * sqrt(marked mass) * sqrt(2/pi); no suite
    evaluates the dislocation integral."""
    return math.sqrt(measure.size) * float(damped_mean(measure, f))


def top_share_mean(measure: SplitMeasure) -> Fraction:
    """Mean of the largest normalised part; tends to one as sizes grow.

    Only each atom's top part counts, so w * lam[0] is summed per total
    sum(lam) and divided by it once per total; the empty partition adds 0.
    """
    by_total: dict[int, Fraction] = {}
    for lam, w in measure.atoms.items():
        if lam:
            t = sum(lam)
            by_total[t] = by_total.get(t, 0) + w * lam[0]
    return sum((v / t for t, v in by_total.items()), Fraction(0))


def block_count_marginal(measure: SplitMeasure) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for lam, w in measure.atoms.items():
        p = block_count(lam)
        out[p] = out.get(p, Fraction(0)) + w
    return out


# ---------------------------------------------------------------------------
# the binary dislocation integral


def _density(s: float) -> float:
    return math.sqrt(2.0 / (math.pi * s**3 * (1.0 - s) ** 3))


def brownian_dislocation(f, rel_tol: float = 1e-9) -> float:
    """Integral of the binary dislocation density against (1-s) f(s, 1-s, 0...).

    The (1-s) damping makes the s -> 1 endpoint integrable; adaptive
    quadrature handles the remaining inverse-square-root singularity.
    """
    # scipy is imported here and in chi_square_test only: at module level it
    # would cost about 1 s and 65 MB in every process that imports gwtrees.
    from scipy import integrate

    def integrand(s: float) -> float:
        return _density(s) * (1.0 - s) * float(f((s, 1.0 - s)))

    value, _err = integrate.quad(integrand, 0.5, 1.0, epsabs=0.0, epsrel=rel_tol, limit=200)
    return value


def brownian_dislocation_riemann(f, points: int = 1_000_000) -> float:
    """Brute midpoint oracle for the same integral, in the variable u = sqrt(1-s).

    The substitution removes the endpoint singularity, so a plain midpoint
    sum converges; this stays independent of the adaptive quadrature route.
    """
    # s = 1 - u^2, ds = -2u du, u from sqrt(1/2) down to 0
    hi = math.sqrt(0.5)
    h = hi / points
    total = 0.0
    for i in range(points):
        u = (i + 0.5) * h
        s = 1.0 - u * u
        total += _density(s) * (1.0 - s) * float(f((s, 1.0 - s))) * 2.0 * u
    return total * h


# ---------------------------------------------------------------------------
# size-biased reordering


def size_biased_reorder(s, stream: RandomStream) -> tuple:
    """Permutation of a mass vector where each pick is proportional to the
    remaining masses; exhausted or zero entries keep their order at the end."""
    remaining = list(s)
    total = sum(remaining)
    if total <= 0:
        raise ValueError("need positive total mass")
    out = []
    while remaining and total > 0:
        u = stream.random() * float(total)
        acc = 0.0
        pick = len(remaining) - 1
        for i, w in enumerate(remaining):
            acc += float(w)
            if u < acc:
                pick = i
                break
        chosen = remaining.pop(pick)
        out.append(chosen)
        total -= chosen
    out.extend(remaining)
    return tuple(out)


def size_biased_expectation(s, f) -> Fraction:
    """Exact mean of f over size-biased orderings of a finite mass vector."""
    entries = list(s)
    total = sum(entries)
    positive = [x for x in entries if x > 0]
    zeros = [x for x in entries if x <= 0]

    def rec(prefix: list, rest: list, weight: Fraction, mass) -> Fraction:
        if not rest:
            return weight * f(tuple(prefix + zeros))
        acc = Fraction(0)
        seen = set()
        for i, x in enumerate(rest):
            if x in seen:
                continue
            seen.add(x)
            mult = rest.count(x)
            acc += rec(prefix + [x], rest[:i] + rest[i + 1 :], weight * mult * x / mass, mass - x)
        return acc

    if total == 0:
        return Fraction(f(tuple(entries)))
    return rec([], positive, Fraction(1), total)


# ---------------------------------------------------------------------------
# test statistics


def ecdf(xs) -> tuple[np.ndarray, np.ndarray]:
    xs = np.sort(np.asarray(xs, dtype=float))
    return xs, np.arange(1, len(xs) + 1) / len(xs)


def ks_two_sample(xs, ys) -> float:
    """Sup distance between the two empirical CDFs."""
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("need non-empty samples")
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / len(xs)
    fy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))


def ks_threshold(m: int, n: int | None = None, alpha: float = 0.05) -> float:
    """Asymptotic KS critical value; 1.358 corresponds to alpha = 0.05.

    Two-sample for sample sizes m and n; one-sample (against an exact law)
    when n is None.
    """
    coeff = {0.05: 1.358, 0.01: 1.628}.get(alpha)
    if coeff is None:
        raise ValueError("only alpha in {0.05, 0.01} supported")
    if n is None:
        return coeff / math.sqrt(m)
    return coeff * math.sqrt((m + n) / (m * n))


def sup_distance(xa, pa, xb, pb) -> float:
    """Sup distance between the CDFs of two discrete laws, given as atoms and
    their probabilities (atoms need not be sorted or distinct).

    Both CDFs are step functions that only jump at atoms, so evaluating them
    on the union of atoms covers every atom and every left limit: the left
    limit at an atom is the value at the previous atom of the union, or 0.
    """
    xa, pa = np.asarray(xa, dtype=float), np.asarray(pa, dtype=float)
    xb, pb = np.asarray(xb, dtype=float), np.asarray(pb, dtype=float)
    grid = np.union1d(xa, xb)

    def cdf(x: np.ndarray, p: np.ndarray) -> np.ndarray:
        order = np.argsort(x, kind="stable")
        cum = np.concatenate([[0.0], np.cumsum(p[order])])
        return cum[np.searchsorted(x[order], grid, side="right")]

    return float(np.max(np.abs(cdf(xa, pa) - cdf(xb, pb))))


def ks_one_sample(values, law) -> float:
    """One-sample KS statistic of integer samples against a pmf on 0, 1, ...;
    `law[k]` is the probability of k."""
    atoms, counts = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
    law = np.asarray(law, dtype=float)
    return sup_distance(atoms, counts / counts.sum(), np.arange(len(law)), law)


# ---------------------------------------------------------------------------
# the exact depth law


def depth_law(dist: OffspringDist, marks: DegreeSet, n: int) -> np.ndarray:
    """Law of the depth of a uniform marked vertex in a tree conditioned to
    have n marked vertices; entry k is P(depth = k).

    Cutting a tree along the path from the root to a marked vertex at
    depth k gives

        P(depth = k) proportional to [z^n] G^k Phi_A,

    with G and Phi_A the series of samplers.marked_vertex_series on float
    tables: G = dPhi/ds(z, F) accounts for each ancestor (its degree, its
    child on the path, and independent subtrees off it) and Phi_A for the
    chosen vertex itself.  Summed over k this is W[n] = n P(count = n),
    which the float series must reproduce.  Series products are truncated
    at z^n and done by FFT; G is known to z^(n-1), which is all they read
    because Phi_A has no constant term.  Depths are added until the
    remaining mass is below 1e-13 of the total, which ends the loop also
    when unmarked degree-one stalks make the support unbounded.
    """
    tables = SamplerTables(dist, marks, n, exact=False)
    w, g, h = marked_vertex_series(tables)
    total = w[n]
    size = 1 << (2 * n + 1).bit_length()  # linear, not cyclic, products up to z^n
    g_spec = np.fft.rfft(g, size)
    # without unmarked stalks every ancestor adds a marked vertex or a branch
    stalks = g[0] > 0
    max_depth = 64 * (n + 1) if stalks else n
    out: list[float] = []
    covered = 0.0
    for _ in range(max_depth + 1):
        out.append(h[n])
        covered += h[n]
        if total - covered <= 1e-13 * total:
            break
        h = np.fft.irfft(np.fft.rfft(h, size) * g_spec, size)[: n + 1]
    law = np.clip(np.array(out), 0.0, None)
    if abs(law.sum() - total) > 1e-9 * total:
        raise ArithmeticError(f"depth law sums to {law.sum()}, expected {total}")
    return law / law.sum()


def chi_square_test(observed: dict, expected_probs: dict, total: int, min_expected: float = 5.0):
    """Goodness-of-fit statistic and p-value, merging thin cells.

    `expected_probs` may sum to less than one; the remainder becomes an
    "other" cell collecting observations outside the listed keys.
    """
    from scipy.stats import chi2 as chi2_dist  # see brownian_dislocation

    keys = sorted(expected_probs, key=repr)
    exp = [float(expected_probs[k]) * total for k in keys]
    obs = [float(observed.get(k, 0)) for k in keys]
    other_exp = (1.0 - float(sum(expected_probs.values()))) * total
    other_obs = float(total) - sum(obs)
    if other_exp > 1e-12 or other_obs > 0:
        exp.append(max(other_exp, 0.0))
        obs.append(other_obs)
    # merge cells with small expectation into their neighbour
    m_obs: list[float] = []
    m_exp: list[float] = []
    carry_o = carry_e = 0.0
    for o, e in zip(obs, exp):
        carry_o += o
        carry_e += e
        if carry_e >= min_expected:
            m_obs.append(carry_o)
            m_exp.append(carry_e)
            carry_o = carry_e = 0.0
    if carry_e > 0 or carry_o > 0:
        if m_exp:
            m_obs[-1] += carry_o
            m_exp[-1] += carry_e
        else:
            m_obs.append(carry_o)
            m_exp.append(carry_e)
    if len(m_exp) < 2:
        return 0.0, 0, 1.0
    stat = sum((o - e) ** 2 / e for o, e in zip(m_obs, m_exp))
    df = len(m_exp) - 1
    return stat, df, float(chi2_dist.sf(stat, df))


# ---------------------------------------------------------------------------
# depth experiments


@dataclass
class DepthArm:
    """Rescaled depth sample for one (law, set, size) configuration."""

    label: str
    n: int
    sigma1: float
    marked_mass: float
    samples: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples)) if self.samples else 0.0

    def rescaled(self, by_mass: bool = True, by_sigma: bool = False) -> np.ndarray:
        out = np.asarray(self.samples)
        if by_mass:
            out = out * math.sqrt(self.marked_mass)
        if by_sigma:
            out = out * self.sigma1
        return out

    def depths(self) -> np.ndarray:
        """The integer depths behind the samples (each is depth / sqrt(n))."""
        return np.rint(np.asarray(self.samples) * math.sqrt(self.n)).astype(np.int64)

    def ecdf_grid(self, points: int = 257) -> list[list[float]]:
        xs, fs = ecdf(self.samples)
        if len(xs) <= points:
            return [[float(x), float(v)] for x, v in zip(xs, fs)]
        idx = np.linspace(0, len(xs) - 1, points).astype(int)
        return [[float(xs[i]), float(fs[i])] for i in idx]


def depth_experiment(
    dist: OffspringDist,
    marks: DegreeSet,
    n: int,
    samples: int,
    stream: RandomStream,
    label: str | None = None,
) -> DepthArm:
    """Depth of a uniform marked vertex, divided by sqrt(size), over many
    conditioned trees, from float tables.  One depth is drawn per sampled
    tree."""
    tables = SamplerTables(dist, marks, n, exact=False)
    scale = 1.0 / math.sqrt(n)
    out = [sample_marked_depth(tables, stream) * scale for _ in range(samples)]
    return DepthArm(
        label=label or f"{dist.family}:{marks.spec()}:n={n}",
        n=n,
        sigma1=math.sqrt(float(dist.variance())),
        marked_mass=float(marks.mass(dist)),
        samples=out,
    )


# ---------------------------------------------------------------------------
# reports


@dataclass
class ExperimentReport:
    """Reproducible record of one experiment: config, seed, arms, tests.

    Wall-clock time is deliberately not part of the canonical serialisation
    so runs with the same config and seed are byte-identical.
    """

    config: dict
    seed: int
    arms: list[DepthArm] = field(default_factory=list)
    tests: list[dict] = field(default_factory=list)
    version: str = ""

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "arms": [
                {
                    "label": a.label,
                    "n": a.n,
                    "samples": len(a.samples),
                    "mean": a.mean,
                    "sigma1": a.sigma1,
                    "marked_mass": a.marked_mass,
                    "ecdf": a.ecdf_grid(),
                }
                for a in self.arms
            ],
            "tests": self.tests,
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def samples_csv(self) -> str:
        lines = ["arm,sample_index,value"]
        for a in self.arms:
            for i, v in enumerate(a.samples):
                lines.append(f"{a.label},{i},{v!r}")
        return "\n".join(lines) + "\n"

    def all_passed(self) -> bool:
        return all(t.get("pass", False) for t in self.tests)

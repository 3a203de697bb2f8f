"""Named verification suites shared by the CLI and the acceptance tests.

Each suite returns a SuiteResult with one Check per assertion; the CLI turns
these into exit codes and the test module into pytest assertions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .degree_sets import DegreeSet
from .exact import enumerate_mass, marked_count_fixed_point, marked_count_pmf, marked_count_support
from .offspring import OffspringDist, binary_dist, collapsed_moments, collapsed_offspring, geometric_dist
from .samplers import (
    SamplerTables,
    augmented_family,
    family_from_tables,
    sample_conditioned,
    sample_hat_offspring,
    sample_markov_branching,
)
from .scaling import (
    ExperimentReport,
    SplitMeasure,
    TestFunction,
    block_count_marginal,
    chi_square_test,
    damped_mean,
    depth_experiment,
    depth_law,
    ks_one_sample,
    ks_threshold,
    ks_two_sample,
    root_split_measure,
    sup_distance,
    top_share_mean,
)
from .streams import RandomStream
from .transforms import collapse, lifeline_tree
from .trees import canonical_key, decode, encode, iter_trees

BINARY = "binary"
GEOMETRIC = "geometric"


def named_dist(name: str) -> OffspringDist:
    if name == BINARY:
        return binary_dist()
    if name == GEOMETRIC:
        return geometric_dist()
    raise ValueError(f"unknown distribution name {name!r}")


@dataclass
class Check:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class SuiteResult:
    suite: str
    seed: int | None
    checks: list[Check] = field(default_factory=list)
    report: ExperimentReport | None = None
    elapsed: float = 0.0

    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, **detail) -> None:
        self.checks.append(Check(name, bool(passed), detail))

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "ok": self.ok(),
            "checks": [{"name": c.name, "pass": c.passed, "detail": c.detail} for c in self.checks],
        }
        if self.report is not None:
            out["report"] = self.report.to_dict()
        return out

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True, indent=2, default=str) + "\n"


def _gw_weight(dist: OffspringDist, t) -> Fraction:
    mass = Fraction(1)
    for d in t.degrees:
        mass *= dist.pmf(d)
    return mass


def _first_mismatch(got: list[Fraction], expected: list[Fraction]) -> dict:
    """The first size at which two exact tables differ, with both values as
    p/q; empty when they agree."""
    for n, (g, e) in enumerate(zip(got, expected)):
        if g != e:
            mismatch = {"n": n, "expected": f"{e.numerator}/{e.denominator}", "got": f"{g.numerator}/{g.denominator}"}
            return {"first_mismatch": mismatch}
    return {}


# ---------------------------------------------------------------------------


def run_otter_dwass(
    max_n: int = 60,
    enum_n: int = 8,
    dists: list[str] | None = None,
    set_specs: list[str] | None = None,
) -> SuiteResult:
    """Exact first-passage identities vs enumeration and the functional equation."""
    res = SuiteResult("otter-dwass", None)
    t0 = time.time()
    specs = set_specs or ["0", "0,1", "0,2", "all"]
    sets = {spec: DegreeSet.parse(spec) for spec in specs}
    for dist_name in dists or (BINARY, GEOMETRIC):
        dist = named_dist(dist_name)
        for set_name, marks in sets.items():
            label = f"{dist_name}/{set_name}"
            table = marked_count_pmf(dist, marks, max_n)
            # the walk formula on the collapsed law must reproduce the law
            # solved from the functional equation of the original law, which
            # at the leaf set is also the leaf-count equation
            alt = marked_count_fixed_point(dist, marks, max_n)
            detail = _first_mismatch(table, alt)
            res.add(f"walk-formula[{label}]", table == alt, n=max_n, **detail)
            if set_name == "0":
                res.add(f"functional-equation[{label}]", table == alt, n=max_n, **detail)
            # enumeration oracle: complete wherever the vertex count is forced
            mismatches = []
            complete_cases = 0
            for n in range(1, min(enum_n, max_n) + 1):
                if dist_name == BINARY:
                    if table[n] == 0:
                        continue
                    cap = 2 * n - 1  # every binary tree with n marked vertices fits
                elif set_name == "all":
                    cap = n
                else:
                    continue  # stalks make the enumeration incomplete
                complete_cases += 1
                total, _ = enumerate_mass(dist, marks, n, cap)
                if total != table[n]:
                    mismatches.append({"n": n, "expected": str(table[n]), "got": str(total)})
            res.add(f"enumeration[{label}]", not mismatches, cases=complete_cases, mismatches=mismatches)
            if dist_name == GEOMETRIC and set_name == "0":
                # enumeration is never complete here; partial mass grows monotonically
                k = min(3, max_n)
                prev = Fraction(0)
                good = True
                for cap in (6, 8, 10):
                    part, _ = enumerate_mass(dist, marks, k, cap)
                    good = good and prev <= part <= table[k]
                    prev = part
                res.add(f"partial-mass-monotone[{label}]", good, n=k, final=float(prev), bound=float(table[k]))
    # spot values: binary leaves start 1/2, 1/8, 1/16
    tb = marked_count_pmf(binary_dist(), DegreeSet.of(0), 3)
    res.add(
        "binary-leaf-values",
        tb[1:] == [Fraction(1, 2), Fraction(1, 8), Fraction(1, 16)],
        values=[str(v) for v in tb[1:]],
    )
    res.elapsed = time.time() - t0
    return res


def run_checkmap(max_vertices: int = 9) -> SuiteResult:
    """Push the binary tree weight through the life-line map and compare with
    the collapsed law, tree by tree, exactly."""
    res = SuiteResult("checkmap", None)
    t0 = time.time()
    dist = binary_dist()
    zeta = geometric_dist()  # collapsed law of binary at the leaf set
    leaves = DegreeSet.of(0)
    # pushforward laws of both routes, on ordered trees and on unordered shapes
    push: dict = {}
    push_queue: dict = {}
    by_key_life: dict = {}
    by_key_queue: dict = {}
    for t in iter_trees(max_vertices, degree_ok=lambda d: d in (0, 2)):
        mass = _gw_weight(dist, t)
        s1 = lifeline_tree(t)
        s2 = decode(collapse(encode(t), leaves))
        push[s1] = push.get(s1, Fraction(0)) + mass
        push_queue[s2] = push_queue.get(s2, Fraction(0)) + mass
        k1, k2 = canonical_key(s1), canonical_key(s2)
        by_key_life[k1] = by_key_life.get(k1, Fraction(0)) + mass
        by_key_queue[k2] = by_key_queue.get(k2, Fraction(0)) + mass
    target_max = (max_vertices + 1) // 2
    ok_life = ok_queue = True
    count = 0
    for s in iter_trees(target_max):
        gw = _gw_weight(zeta, s)
        count += 1
        ok_life = ok_life and push.get(s, Fraction(0)) == gw
        ok_queue = ok_queue and push_queue.get(s, Fraction(0)) == gw
    res.add("lifeline-pushforward-exact", ok_life, targets=count, source_cap=max_vertices)
    res.add("queue-collapse-pushforward-exact", ok_queue, targets=count)
    # the two transform routes agree in law on unordered shapes
    res.add("lifeline-vs-collapse-same-shape-law", by_key_life == by_key_queue)
    res.elapsed = time.time() - t0
    return res


def run_hat_law(seed: int, samples: int = 100_000) -> SuiteResult:
    """Monte-Carlo collapsed offspring against its exact coefficients."""
    res = SuiteResult("hat-law", seed)
    t0 = time.time()
    configs = [
        (BINARY, DegreeSet.of(0), Fraction(2)),
        (GEOMETRIC, DegreeSet.of(0), Fraction(4)),
        (BINARY, DegreeSet.of(0, 2), Fraction(1)),
    ]
    stream = RandomStream(seed)
    for dist_name, marks, want_var in configs:
        dist = named_dist(dist_name)
        label = f"{dist_name}/{marks.spec()}"
        arm = stream.split("hat", label)
        draws = [sample_hat_offspring(dist, marks, arm) for _ in range(samples)]
        top = max(draws)
        zeta = collapsed_offspring(dist, marks, max(top + 1, 64))
        expected = {k: float(zeta[k]) for k in range(top + 2)}
        observed: dict[int, int] = {}
        for v in draws:
            observed[v] = observed.get(v, 0) + 1
        stat, df, pval = chi_square_test(observed, expected, samples)
        res.add(f"chi-square[{label}]", pval > 0.001, stat=stat, df=df, p=pval)
        mean_hat, var_hat = collapsed_moments(dist, marks)
        assert var_hat == want_var
        m, s2, se_var = wald_moments(draws, float(var_hat))
        res.add(
            f"wald-variance[{label}]",
            abs(s2 - float(var_hat)) <= 3 * se_var,
            empirical=s2,
            target=float(var_hat),
            se=se_var,
        )
        res.add(f"wald-mean[{label}]", abs(m - 1.0) <= 3 * math.sqrt(s2 / samples), empirical=m)
    res.elapsed = time.time() - t0
    return res


def wald_moments(draws: list[int], var: float) -> tuple[float, float, float]:
    """Sample mean, sample variance s2, and the standard error of s2 when
    the law's variance is `var`.

    The error is the finite-sample one, Var(s2) = (m4 - var^2 (n-3)/(n-1)) / n
    with m4 the sample fourth central moment.  The plug-in m4 - s2^2 is 0
    for a symmetric two-point law, whose s2 would then have to equal var
    exactly.
    """
    n = len(draws)
    mean = sum(draws) / n
    s2 = sum((v - mean) ** 2 for v in draws) / (n - 1)
    m4 = sum((v - mean) ** 4 for v in draws) / n
    return mean, s2, math.sqrt(max(m4 - var * var * (n - 3) / (n - 1), 0.0) / n)


def _shape_law_from_enumeration(dist, marks, n, cap):
    total, shapes = enumerate_mass(dist, marks, n, cap)
    z = marked_count_pmf(dist, marks, n)[n]
    return {k: w / z for k, w in shapes.items()}, total / z


def run_mb_equivalence(seed: int, samples: int = 10_000) -> SuiteResult:
    """Exact enumeration law vs the conditioned sampler vs the branching family."""
    res = SuiteResult("mb-equivalence", seed)
    t0 = time.time()
    stream = RandomStream(seed)
    configs = [
        (BINARY, DegreeSet.of(0), 4, 7),
        (BINARY, DegreeSet.all_degrees(), 3, 3),
        (GEOMETRIC, DegreeSet.of(0), 3, 11),
    ]
    for dist_name, marks, n, cap in configs:
        dist = named_dist(dist_name)
        label = f"{dist_name}/{marks.spec()}/n={n}"
        expected, covered = _shape_law_from_enumeration(dist, marks, n, cap)
        expected_f = {k: float(v) for k, v in expected.items()}
        tables = SamplerTables(dist, marks, n)
        arm = stream.split("mb", label)
        obs_cond: dict[str, int] = {}
        for _ in range(samples):
            t = sample_conditioned(tables, arm)
            k = canonical_key(t)
            obs_cond[k] = obs_cond.get(k, 0) + 1
        stat, df, pval = chi_square_test(obs_cond, expected_f, samples)
        res.add(f"enumeration-vs-conditioned[{label}]", pval > 0.001, stat=stat, df=df, p=pval, covered=float(covered))
        fam = family_from_tables(tables)
        obs_mb: dict[str, int] = {}
        for _ in range(samples):
            t = sample_markov_branching(fam, n, arm)
            k = canonical_key(t)
            obs_mb[k] = obs_mb.get(k, 0) + 1
        stat, df, pval = chi_square_test(obs_mb, expected_f, samples)
        res.add(f"enumeration-vs-branching[{label}]", pval > 0.001, stat=stat, df=df, p=pval)
    res.elapsed = time.time() - t0
    return res


LIPSCHITZ_SUITE: list[TestFunction] = [
    TestFunction(lambda s: Fraction(1), name="const-1"),
    TestFunction(lambda s: Fraction(0), name="const-0"),
    TestFunction(lambda s: Fraction(-1), name="const-neg"),
    TestFunction(lambda s: Fraction(1, 2), name="const-half"),
    TestFunction(lambda s: s[0] if s else Fraction(0), name="s1"),
    TestFunction(lambda s: s[1] if len(s) > 1 else Fraction(0), name="s2"),
    TestFunction(lambda s: s[2] if len(s) > 2 else Fraction(0), name="s3"),
    TestFunction(lambda s: s[3] if len(s) > 3 else Fraction(0), name="s4"),
    TestFunction(lambda s: s[4] if len(s) > 4 else Fraction(0), name="s5"),
    TestFunction(lambda s: 1 - (s[0] if s else Fraction(0)), name="1-s1"),
    TestFunction(lambda s: min(s[0] if s else Fraction(0), Fraction(1, 2)), name="min-s1-half"),
    TestFunction(lambda s: min(s[0] if s else Fraction(0), Fraction(1, 3)), name="min-s1-third"),
    TestFunction(lambda s: min(s[0] if s else Fraction(0), Fraction(3, 4)), name="min-s1-3quarter"),
    TestFunction(lambda s: max(s[0] if s else Fraction(0), Fraction(1, 2)), name="max-s1-half"),
    TestFunction(
        lambda s: ((s[0] if s else Fraction(0)) + (s[1] if len(s) > 1 else Fraction(0))) / 2, name="avg-s1-s2"
    ),
    TestFunction(
        lambda s: ((s[0] if s else Fraction(0)) - (s[1] if len(s) > 1 else Fraction(0))) / 2, name="half-gap"
    ),
    TestFunction(lambda s: (s[0] if s else Fraction(0)) ** 2 / 2, name="half-s1-sq"),
    TestFunction(lambda s: abs((s[0] if s else Fraction(0)) - Fraction(1, 2)), name="dist-to-half"),
    TestFunction(lambda s: max(Fraction(1, 2) - (s[0] if s else Fraction(0)), Fraction(0)), name="below-half"),
    TestFunction(lambda s: (1 - (s[0] if s else Fraction(0))) * (s[0] if s else Fraction(0)), name="s1-damped"),
]


def run_follower(max_n: int = 12) -> SuiteResult:
    """Exact bound |mean under augmented family - mean under family| <= 3/(n+1)
    for damped Lipschitz test functions."""
    res = SuiteResult("follower", None)
    t0 = time.time()
    dist = binary_dist()
    assert len(LIPSCHITZ_SUITE) == 20
    for marks in (DegreeSet.of(0), DegreeSet.of(0, 2)):
        probe = marked_count_pmf(dist, marks, max_n)
        top = max(m for m in range(1, max_n + 1) if probe[m] > 0)
        tables = SamplerTables(dist, marks, top)
        fam = family_from_tables(tables)
        aug = augmented_family(fam)
        worst = Fraction(0)
        worst_at = None
        ok = True
        checked = 0
        for n in sorted(fam.splits):
            base = SplitMeasure(n, fam.splits[n])
            lifted = SplitMeasure(n, aug.splits[n])
            bound = Fraction(3, n + 1)
            for f in LIPSCHITZ_SUITE:
                gap = abs(damped_mean(lifted, f) - damped_mean(base, f))
                checked += 1
                if gap > bound:
                    ok = False
                if worst == 0 or gap * (n + 1) > worst:
                    worst = gap * (n + 1)
                    worst_at = (n, f.name)
        res.add(
            f"follower-bound[{marks.spec()}]",
            ok,
            checked=checked,
            worst_scaled_gap=float(worst),
            worst_at=worst_at,
            sizes=sorted(fam.splits),
        )
    res.elapsed = time.time() - t0
    return res


def snap_admissible(dist: OffspringDist, marks: DegreeSet, n: int) -> int:
    """Smallest admissible size >= n, up to n + 8, from the exact support."""
    support = marked_count_support(dist, marks, n + 8)
    for m in range(n, len(support)):
        if support[m]:
            return m
    raise ValueError("no admissible size found near the target")


def run_root_limit(sizes=(25, 50, 100, 200)) -> SuiteResult:
    """Exact rescaled root-split statistic for f = 1 against its closed-form
    limit sigma * sqrt(marked mass) * sqrt(2/pi), with the top-share mean
    and the block-count marginal."""
    res = SuiteResult("root-limit", None)
    t0 = time.time()
    dist = binary_dist()
    for marks in (DegreeSet.of(0), DegreeSet.all_degrees()):
        snapped = [snap_admissible(dist, marks, m) for m in sizes]
        tables = SamplerTables(dist, marks, snapped[-1])
        sigma1 = math.sqrt(float(dist.variance()))
        target = sigma1 * math.sqrt(float(marks.mass(dist))) * math.sqrt(2.0 / math.pi)
        errors = []
        tops = []
        for m in snapped:
            meas = root_split_measure(tables, m)
            top = top_share_mean(meas)
            # sqrt(m) * E[1 - s1], exactly sqrt(m) * (1 - top share)
            val = math.sqrt(m) * float(1 - top)
            errors.append(abs(val - target) / target)
            tops.append(float(top))
        monotone = all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))
        res.add(
            f"statistic-converges[{marks.spec()}]",
            monotone and errors[-1] < 0.15,
            sizes=snapped,
            relative_errors=[round(e, 5) for e in errors],
            target=target,
        )
        res.add(
            f"top-share-increasing[{marks.spec()}]",
            all(tops[i] < tops[i + 1] for i in range(len(tops) - 1)) and tops[-1] > 0.9,
            values=[round(v, 5) for v in tops],
        )
        # the loop ends on the largest size, whose measure it keeps
        marg = block_count_marginal(meas)
        xi_hat_2 = float(2 * dist.pmf(2))
        got = float(marg.get(2, Fraction(0)))
        res.add(
            f"block-count-marginal[{marks.spec()}]",
            abs(got - xi_hat_2) < 0.05,
            got=got,
            target=xi_hat_2,
            size=snapped[-1],
        )
    res.elapsed = time.time() - t0
    return res


CONVERGENCE_DIVISORS = (4, 2, 1)  # exact distances at n/4, n/2 and n


@dataclass(frozen=True)
class RescaledLaw:
    """One side of a convergence check: the depth of a uniform marked vertex
    under `dist` conditioned on `marks`, times `factor` / sqrt(size)."""

    dist: OffspringDist
    marks: DegreeSet
    factor: float


def depth_convergence(a: RescaledLaw, b: RescaledLaw, n: int, threshold: float, law=depth_law) -> tuple[bool, dict]:
    """Check that two rescaled depth laws approach each other as the size grows.

    The theorem is a limit statement: both laws tend to the same Rayleigh
    law, but they differ at every finite size.  So the exact sup distance d
    is computed at n/4, n/2 and n (each size snapped to an admissible one per
    side).  The check passes if d decreases strictly and 2 d(n) - d(n/4),
    which cancels a c / sqrt(n) term and so estimates the limit distance, is
    below `threshold`.  `law(dist, marks, size)` supplies the exact laws.
    """
    import numpy as np
    distances = []
    sizes = []
    for q in CONVERGENCE_DIVISORS:
        m = max(1, n // q)
        ma, mb = snap_admissible(a.dist, a.marks, m), snap_admissible(b.dist, b.marks, m)
        pa, pb = law(a.dist, a.marks, ma), law(b.dist, b.marks, mb)
        xa = np.arange(len(pa)) * (a.factor / math.sqrt(ma))
        xb = np.arange(len(pb)) * (b.factor / math.sqrt(mb))
        distances.append(sup_distance(xa, pa, xb, pb))
        sizes.append([ma, mb])
    decreasing = all(x > y for x, y in zip(distances, distances[1:]))
    gap = 2 * distances[-1] - distances[0]
    return decreasing and gap < threshold, {
        "statistic": gap,
        "threshold": threshold,
        "decreasing": decreasing,
        "distances": distances,
        "sizes": sizes,
    }


def run_universality(seed: int, n: int = 2000, samples: int = 5000) -> SuiteResult:
    """Rescaled depth of a uniform marked vertex across degree sets and laws.

    Each arm's sampled depths are tested against its own exact law
    (one-sample KS); universality is checked as convergence of the exact
    rescaled laws towards each other (see depth_convergence), with the
    sampled two-sample KS statistic kept in the details; the fully rescaled
    mean of each arm must be near the common limit sqrt(pi/2).
    """
    import numpy as np
    res = SuiteResult("universality", seed)
    t0 = time.time()
    binary = binary_dist()
    geometric = geometric_dist()
    all_deg = DegreeSet.all_degrees()
    leaves = DegreeSet.of(0)
    stream = RandomStream(seed)
    n_all = snap_admissible(binary, all_deg, n)
    specs = [
        ("binary/leaves", binary, leaves, n),
        ("binary/all", binary, all_deg, n_all),
        ("geometric/all", geometric, all_deg, n),
    ]
    arms = [
        depth_experiment(dist, marks, size, samples, stream.split("arm", label), label=label)
        for label, dist, marks, size in specs
    ]
    by_label = {a.label: a for a in arms}
    # each exact law is computed once: the size-n laws serve ks-exact and
    # both convergence checks, and binary/all enters both of those
    law = lru_cache(maxsize=None)(depth_law)
    thr_one = ks_threshold(samples)
    for (label, dist, marks, size), arm in zip(specs, arms):
        stat = ks_one_sample(arm.depths(), law(dist, marks, size))
        res.add(f"ks-exact[{label}]", stat < thr_one, statistic=stat, threshold=thr_one, size=size)
    thr = ks_threshold(samples, samples)

    def mass_scaled(dist, marks):
        return RescaledLaw(dist, marks, math.sqrt(float(marks.mass(dist))))

    def sigma_scaled(dist, marks):
        return RescaledLaw(dist, marks, math.sqrt(float(dist.variance())))

    ok, detail = depth_convergence(mass_scaled(binary, leaves), mass_scaled(binary, all_deg), n, thr, law)
    sampled = ks_two_sample(by_label["binary/leaves"].rescaled(), by_label["binary/all"].rescaled())
    res.add("ks-across-sets[binary]", ok, sampled=sampled, **detail)
    ok, detail = depth_convergence(sigma_scaled(binary, all_deg), sigma_scaled(geometric, all_deg), n, thr, law)
    sampled = ks_two_sample(
        by_label["binary/all"].rescaled(by_mass=False, by_sigma=True),
        by_label["geometric/all"].rescaled(by_mass=False, by_sigma=True),
    )
    res.add("ks-across-laws[all]", ok, sampled=sampled, **detail)
    # the fully rescaled mean identifies the universal constant: every arm's
    # sigma1 * sqrt(mass) * depth / sqrt(n) tends to sqrt(pi/2)
    limit_mean = math.sqrt(math.pi / 2.0)
    for arm in arms:
        got = float(np.mean(arm.rescaled(by_mass=True, by_sigma=True)))
        gap = abs(got - limit_mean)
        res.add(f"mean-scaling[{arm.label}]", gap < 0.10, statistic=gap, threshold=0.10, mean=got, limit=limit_mean)
    report = ExperimentReport(
        config={"n": n, "samples": samples, "arms": [s[0] for s in specs]},
        seed=seed,
        arms=arms,
        tests=[{"name": c.name, "pass": c.passed, **c.detail} for c in res.checks],
        version=__version__,
    )
    res.report = report
    res.elapsed = time.time() - t0
    return res


SUITES = {
    "otter-dwass": lambda seed, **kw: run_otter_dwass(**kw),
    "checkmap": lambda seed, **kw: run_checkmap(**kw),
    "hat-law": lambda seed, **kw: run_hat_law(seed, **kw),
    "mb-equivalence": lambda seed, **kw: run_mb_equivalence(seed, **kw),
    "follower": lambda seed, **kw: run_follower(**kw),
    "root-limit": lambda seed, **kw: run_root_limit(**kw),
    "universality": lambda seed, **kw: run_universality(seed, **kw),
}

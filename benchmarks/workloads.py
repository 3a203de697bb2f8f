"""The three gwtrees benchmark workloads and the checks on their outputs.

Each workload is a `setup` that builds tables (and warms their caches) and a
`work` list of timed operations; one pass runs both on fresh objects, so
every pass starts from the same state.  Sizes live in CONFIGS; the tests run
the same code on tiny configurations.

* exact-tables: exact marked-count tables and root-split statistics, shaped
  like `gwtrees exact` and `gwtrees root-partition`.  All time is Fraction
  arithmetic in exact/offspring/partitions; the seed only orders the jobs.
* depth-large: depths of a uniform marked vertex at n~2000 on float tables
  (the three criterion-7 arms).  Time sits in the float draw path.
* tree-sample: whole conditioned trees in exact and float mode and Markov
  branching trees, each checked and keyed.  Every vertex is built, so a
  change that only skips vertices leaves it unchanged.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from gwtrees import samplers, scaling, trees
from gwtrees.degree_sets import DegreeSet
from gwtrees.offspring import binary_dist, format_rational, geometric_dist

LAWS = {"binary": binary_dist, "geometric": geometric_dist}

# a depth-mean check fails beyond this many standard errors of the difference
DEPTH_MEAN_SIGMAS = 5.0

# While a pass runs, a timer signal takes a sample of a fixed calibration job
# every CALIBRATE_EVERY_S, so the samples are spread evenly over the pass,
# inside long operations too; their time is left out of every timed
# quantity.  A shared machine switches between a slow and a fast state (about
# 2x apart) within seconds, and the share of time in each drifts over
# minutes: raw times of one job moved by up to 25% between 30-second windows.
# The job's mean time and the calibration's mean time are both linear in that
# share, so their ratio stayed within 2-4%.  Times are divided by the pass's
# mean calibration sample and scaled to seconds on a machine where one sample
# takes CALIBRATION_REF_S.
CALIBRATE_EVERY_S = 0.1
CALIBRATION_REF_S = 0.0016


def calibration_sample() -> float:
    """Seconds for a fixed pure-Python job: Fraction sums and dict work."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        seen = {}
        for i in range(1, 300):
            acc += Fraction(i % 7 + 1, i)
            seen[acc.denominator % 101] = i
        sorted(seen.values())
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


@dataclass(frozen=True)
class Arm:
    """One (law, degree set, size) configuration."""

    law: str
    marks: str
    n: int

    @property
    def label(self) -> str:
        return f"{self.law}-{self.marks.replace(',', '_')}-{self.n}"

    @property
    def degree_set(self) -> DegreeSet:
        return DegreeSet.parse(self.marks)

    def dist(self):
        return LAWS[self.law]()


CONFIGS = {
    "exact-tables": {
        "tables": [Arm("binary", "0", 100), Arm("geometric", "0", 64), Arm("geometric", "all", 32), Arm("binary", "0,2", 201)],
        # split_measure at every admissible m <= n, as `gwtrees root-partition` sweeps
        "sweep": Arm("geometric", "all", 32),
        # criterion-5 statistics at every admissible m <= n; both arms are in "tables"
        "stats": Arm("binary", "0", 100),
    },
    "depth-large": {
        "arms": [Arm("binary", "0", 2000), Arm("binary", "all", 2001), Arm("geometric", "all", 2000)],
        "warmup": 100,
        "samples": 300,
    },
    "tree-sample": {
        "exact": [(Arm("binary", "0", 60), 60), (Arm("geometric", "0", 30), 100)],
        "float": (Arm("geometric", "all", 2000), 20, 60),  # arm, warm-up trees, timed trees
        "mb": (Arm("binary", "0", 30), 300),
    },
}


class OpFailed(Exception):
    """An operation returned a wrong result."""


class Recorder:
    """Times one pass: set-up steps, timed operations and checks.

    An operation that raises or fails `require` is counted as failed and the
    pass goes on; set-up errors propagate.  With a tracer, the recorder also
    tells it the phase, arm label and operation id of what runs.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.setups: list[tuple[str, str, float]] = []
        self.ops: list[tuple[str, str, float]] = []
        self.memory: dict[str, int] = {}  # label -> resident bytes its set-up steps added
        self.checks = 0
        self.failed = 0
        self.notes: dict = {}
        self.wall_s = 0.0
        self.calibrations: list[float] = []
        self.calibration_s = 0.0  # time spent calibrating, left out of clock()
        self._in_sample = False

    def clock(self) -> float:
        """perf_counter minus the time spent on calibration samples."""
        return time.perf_counter() - self.calibration_s

    def _sample(self, *signal_args) -> None:
        if self._in_sample:
            return
        self._in_sample = True
        start = time.perf_counter()
        self.calibrations.append(calibration_sample())
        self.calibration_s += time.perf_counter() - start
        self._in_sample = False

    @contextmanager
    def calibrating(self):
        """Take calibration samples from a SIGALRM timer while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        try:
            self._sample()
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def speed_factor(self) -> float:
        """Multiplier taking this pass's times to the reference machine speed."""
        return CALIBRATION_REF_S / statistics.fmean(self.calibrations)

    def normalize(self) -> None:
        """Scale wall, set-up and operation times to the reference speed."""
        f = self.speed_factor()
        self.wall_s *= f
        self.setups = [(k, label, s * f) for k, label, s in self.setups]
        self.ops = [(k, label, s * f) for k, label, s in self.ops]

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.checks

    @contextmanager
    def _phase(self, phase: str, kind: str, label: str):
        tr = self.tracer
        if tr is not None:
            tr.phase, tr.label = phase, label
            tr.op_id += 1
            tr.push("bench", f"bench.{kind}", True)
        try:
            yield
        finally:
            if tr is not None:
                tr.pop()

    @contextmanager
    def setup(self, kind: str, label: str):
        resident = resident_bytes()
        start = self.clock()
        with self._phase("setup", kind, label):
            yield
        self.setups.append((kind, label, self.clock() - start))
        self.memory[label] = self.memory.get(label, 0) + resident_bytes() - resident

    @contextmanager
    def op(self, kind: str, label: str):
        start = self.clock()
        try:
            with self._phase("work", kind, label):
                yield
        except Exception as exc:
            self.failed += 1
            print(f"# FAILED {kind} {label}: {exc!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        self.ops.append((kind, label, self.clock() - start))

    @contextmanager
    def checking(self, label: str):
        with self._phase("check", "check", label):
            yield

    def check(self, name: str, ok: bool, detail="") -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            print(f"# FAILED check {name} {detail}", file=sys.stderr)

    @staticmethod
    def require(ok: bool, message: str) -> None:
        if not ok:
            raise OpFailed(message)

    def tables(self, arm: Arm, exact: bool):
        t = samplers.SamplerTables(arm.dist(), arm.degree_set, arm.n, exact=exact)
        if self.tracer is not None:
            self.tracer.instrument(t)
        return t


# ---------------------------------------------------------------------------
# exact digests


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def table_digest(count) -> str:
    """Digest of an exact marked-count table, entries 1..n as p/q."""
    return digest(format_rational(x) for x in count[1:])


def sweep_digest(measures: dict) -> str:
    """Digest of split measures {m: {partition: weight}}."""
    return digest(
        f"{m} {','.join(map(str, lam))} {format_rational(w)}"
        for m in sorted(measures)
        for lam, w in sorted(measures[m].items())
    )


def check_digest(rec: Recorder, reference: dict, key: str, got: str) -> None:
    want = reference["digests"].get(key)
    rec.check(f"digest.{key}", want == got, f"want {want} got {got}")


# ---------------------------------------------------------------------------
# exact-tables


def exact_tables_setup(cfg, stream, rec) -> dict:
    return {}


def exact_tables_work(cfg, state, stream, rec, reference) -> None:
    # the seed fixes the order of the jobs; the jobs and their results do not change
    order = list(cfg["tables"])
    stream_shuffle(order, stream)
    built = {}
    for arm in order:
        with rec.op("table", arm.label):
            built[arm] = rec.tables(arm, exact=True)
    with rec.checking("digests"):
        for arm, t in built.items():
            check_digest(rec, reference, f"table.{arm.label}", table_digest(t.count))
    jobs = [("sweep", cfg["sweep"]), ("stats", cfg["stats"])]
    stream_shuffle(jobs, stream)
    for kind, arm in jobs:
        tables = built.get(arm)
        results = {}
        with rec.op(kind, arm.label):
            rec.require(tables is not None, f"no table for {arm.label}")
            if kind == "sweep":
                results["sweep"] = {
                    m: samplers.split_measure(tables, m) for m in range(1, arm.n + 1) if tables.admissible(m)
                }
            else:
                results.update(root_split_statistics(tables))
        with rec.checking("digests"):
            for name, lines in results.items():
                got = sweep_digest(lines) if name == "sweep" else digest(lines)
                check_digest(rec, reference, f"{name}.{arm.label}", got)


def root_split_statistics(tables) -> dict[str, list[str]]:
    """Criterion-5 statistics at every admissible size, as exact p/q lines."""
    one = scaling.TestFunction(lambda s: Fraction(1), name="const-1")
    out: dict[str, list[str]] = {"root_limit": [], "top_share": [], "block_count": []}
    for m in range(1, tables.n + 1):
        if not tables.admissible(m):
            continue
        meas = scaling.root_split_measure(tables, m)
        out["root_limit"].append(f"{m} {format_rational(Fraction(scaling.root_limit_statistic(meas, one)))}")
        out["top_share"].append(f"{m} {format_rational(scaling.top_share_mean(meas))}")
        marg = scaling.block_count_marginal(meas)
        out["block_count"].append(f"{m} " + " ".join(f"{p}:{format_rational(w)}" for p, w in sorted(marg.items())))
    return out


def stream_shuffle(items: list, stream) -> None:
    """Fisher-Yates shuffle driven by a RandomStream."""
    for i in range(len(items) - 1, 0, -1):
        j = stream.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]


# ---------------------------------------------------------------------------
# depth-large


def depth_large_setup(cfg, stream, rec) -> dict:
    state = {}
    for arm in cfg["arms"]:
        s = stream.split("arm", arm.label)
        with rec.setup("tables", arm.label):
            tables = rec.tables(arm, exact=False)
        with rec.setup("warmup", arm.label):
            for _ in range(cfg["warmup"]):
                samplers.sample_marked_depth(tables, s)
        state[arm] = (tables, s)
    return state


def depth_large_work(cfg, state, stream, rec, reference) -> None:
    rescaled = {}
    for arm, (tables, s) in state.items():
        scale = 1.0 / math.sqrt(arm.n)
        xs = []
        for _ in range(cfg["samples"]):
            with rec.op("depth", arm.label):
                depth = samplers.sample_marked_depth(tables, s)
                rec.require(0 <= depth < arm.n, f"depth {depth} out of range")
                xs.append(depth * scale)
        rescaled[arm] = xs
        with rec.checking(arm.label):
            ok, detail = depth_mean_ok(xs, reference["depth_means"].get(arm.label))
            rec.check(f"depth-mean.{arm.label}", ok, detail)
    # the two-sample KS statistics of criterion 7, on the rescalings it uses
    arms = list(rescaled)
    with rec.checking("ks"):
        for a, b in zip(arms, arms[1:]):
            fa, fb = (_ks_factor(x, by_sigma=a.marks == b.marks) for x in (a, b))
            ks = scaling.ks_two_sample([v * fa for v in rescaled[a]], [v * fb for v in rescaled[b]])
            rec.notes[f"ks.{a.label}.{b.label}"] = ks


def _ks_factor(arm: Arm, by_sigma: bool) -> float:
    dist = arm.dist()
    if by_sigma:
        return math.sqrt(float(dist.variance()))
    return math.sqrt(float(arm.degree_set.mass(dist)))


def depth_mean_ok(xs: list[float], ref: dict | None) -> tuple[bool, str]:
    """Mean of depth/sqrt(n) against a large-sample reference mean.

    Statistical on purpose: a sampler that draws other (equally distributed)
    depths for the same seed must still pass.
    """
    if ref is None or len(xs) < 2:
        return False, "no reference mean"
    mean = statistics.fmean(xs)
    se = math.sqrt(statistics.variance(xs) / len(xs) + ref["sd"] ** 2 / ref["samples"])
    z = (mean - ref["mean"]) / se
    return abs(z) <= DEPTH_MEAN_SIGMAS, f"mean {mean:.5f} ref {ref['mean']:.5f} z {z:.2f}"


# ---------------------------------------------------------------------------
# tree-sample


def tree_sample_setup(cfg, stream, rec) -> dict:
    state = {"exact": []}
    for arm, count in cfg["exact"]:
        with rec.setup("tables", arm.label):
            state["exact"].append((arm, rec.tables(arm, exact=True), count))
    arm, warm, count = cfg["float"]
    s = stream.split("float", arm.label)
    with rec.setup("tables", arm.label):
        tables = rec.tables(arm, exact=False)
    with rec.setup("warmup", arm.label):
        for _ in range(warm):
            samplers.sample_conditioned(tables, s)
    state["float"] = (arm, tables, count, s)
    arm, count = cfg["mb"]
    with rec.setup("tables", arm.label):
        tables = rec.tables(arm, exact=True)
    with rec.setup("family", arm.label):
        state["mb"] = (arm, samplers.family_from_tables(tables), count)
    return state


def _check_tree(rec: Recorder, t, arm: Arm) -> None:
    """Marked count must be n; the canonical key is taken as mb-equivalence does."""
    got = trees.count_marked(t, arm.degree_set)
    rec.require(got == arm.n, f"marked count {got} != {arm.n}")
    trees.canonical_key(t)


def tree_sample_work(cfg, state, stream, rec, reference) -> None:
    for arm, tables, count in state["exact"]:
        s = stream.split("exact", arm.label)
        for _ in range(count):
            with rec.op("exact_tree", arm.label):
                _check_tree(rec, samplers.sample_conditioned(tables, s), arm)
    arm, tables, count, s = state["float"]
    for _ in range(count):
        with rec.op("float_tree", arm.label):
            _check_tree(rec, samplers.sample_conditioned(tables, s), arm)
    arm, family, count = state["mb"]
    s = stream.split("mb", arm.label)
    for _ in range(count):
        with rec.op("mb_tree", arm.label):
            _check_tree(rec, samplers.sample_markov_branching(family, arm.n, s), arm)


WORKLOADS = {
    "exact-tables": (exact_tables_setup, exact_tables_work),
    "depth-large": (depth_large_setup, depth_large_work),
    "tree-sample": (tree_sample_setup, tree_sample_work),
}

"""In-memory spans and counters around calls into the gwtrees modules.

A Tracer rebinds public functions of the library, in every gwtrees module
that holds a reference to them, to wrappers that time each call; `uninstall`
puts the originals back.  Nothing under src/ is edited.  Each wrapped call is
a frame on a stack, so a layer's self time is its frames' durations minus the
child frames they cover.  Coarse calls also keep a span (name, layer, start,
end, parent, operation id); hot calls (per-vertex draws, partition steps)
only add to totals, which keeps memory bounded over thousands of samples.

Stream use is counted, not timed: a draw costs less than the clock reads
that would time it, so its time stays with the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import random
import sys
import time
from collections import Counter, defaultdict

from gwtrees import exact, offspring, partitions, samplers, scaling, trees
from gwtrees.streams import RandomStream

LAYERS = ("exact", "offspring", "partitions", "samplers", "streams", "trees", "scaling")

# (module, attribute, layer, keep a span per call)
FUNCTIONS = [
    (exact, "marked_count_pmf", "exact", True),
    (exact, "progeny_pmf", "exact", True),
    (exact, "leaf_pmf_fixed_point", "exact", True),
    (exact, "marked_count_pmf_float", "exact", True),
    (offspring, "collapsed_offspring", "offspring", True),
    (offspring, "validate", "offspring", True),
    (partitions, "partitions_into", "partitions", False),
    (partitions, "distinct_arrangements", "partitions", False),
    (samplers, "split_measure", "samplers", True),
    (samplers, "family_from_tables", "samplers", True),
    (samplers, "sample_conditioned", "samplers", True),
    (samplers, "sample_marked_depth", "samplers", True),
    (samplers, "sample_markov_branching", "samplers", True),
    (trees, "count_marked", "trees", True),
    (trees, "canonical_key", "trees", True),
    (scaling, "root_split_measure", "scaling", True),
    (scaling, "damped_mean", "scaling", True),
    (scaling, "root_limit_statistic", "scaling", True),
    (scaling, "top_share_mean", "scaling", True),
    (scaling, "block_count_marginal", "scaling", True),
    (scaling, "ks_two_sample", "scaling", True),
]

# (class, method, layer, metric name): patched on the class itself
CLASS_METHODS = [
    (samplers.SamplerTables, "__init__", "samplers", "samplers.tables_build"),
    (samplers.QFamily, "draw_conditioned", "samplers", "samplers.draw_conditioned"),
    (trees.OrderedTree, "__post_init__", "trees", "trees.tree_validate"),
]

# public SamplerTables methods wrapped on each table instance
TABLE_METHODS = ("draw_root_degree", "draw_split_sizes", "tau")


class Tracer:
    """Frame stack, per-pass totals and the span log of one traced run.

    `phase` ("setup", "work" or "check") and `label` (the arm being served)
    are set by the benchmark around each piece of work; totals are keyed by
    them so one pass can be split by phase and by arm.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "setup"
        self.label = ""
        self.op_id = 0
        self._stack: list[list] = []
        self._next_span = 1
        self._undo: list[tuple] = []
        self.clock = time.perf_counter  # the benchmark sets a clock that skips calibration samples
        self.reset()

    def reset(self) -> None:
        """Start new per-pass totals; spans are kept for the whole run."""
        self.self_s: defaultdict = defaultdict(float)  # (phase, layer) -> s
        self.fn_s: defaultdict = defaultdict(float)  # (phase, label, name) -> inclusive s
        self.calls: Counter = Counter()  # (phase, label, name) -> calls
        self.counts: Counter = Counter()  # (phase, name) -> stream draws, generator items

    def count(self, name: str, k: int = 1) -> None:
        self.counts[self.phase, name] += k

    # -- frames ---------------------------------------------------------------

    def push(self, layer: str, name: str, span: bool) -> None:
        parent = self._stack[-1][5] if self._stack else 0
        sid = 0
        if span:
            sid = self._next_span
            self._next_span += 1
        self._stack.append([layer, name, self.clock(), 0.0, span, sid or parent, parent])

    def pop(self) -> None:
        end = self.clock()
        layer, name, start, child, span, sid, parent = self._stack.pop()
        dur = end - start
        self.self_s[self.phase, layer] += dur - child
        key = (self.phase, self.label, name)
        self.fn_s[key] += dur
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][3] += dur
        if span:
            self.spans.append(
                {
                    "id": sid,
                    "parent": parent,
                    "op": self.op_id,
                    "name": name,
                    "layer": layer,
                    "label": self.label,
                    "start": start,
                    "end": end,
                }
            )

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, span: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.push(layer, name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop()

        return wrapper

    def wrap_generator(self, fn, layer: str, name: str):
        """Times each step of a generator; items are counted as `<name>.items`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.push(layer, name, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.pop()
                self.count(name + ".items")
                yield item

        return wrapper

    def instrument(self, tables) -> None:
        """Wrap the public draw methods of one SamplerTables instance."""
        for attr in TABLE_METHODS:
            setattr(tables, attr, self.wrap(getattr(tables, attr), "samplers", f"samplers.{attr}", False))

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "gwtrees" or key.startswith("gwtrees.")]
        for module, attr, layer, span in FUNCTIONS:
            orig = getattr(module, attr)
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(orig):
                wrapped = self.wrap_generator(orig, layer, name)
            else:
                wrapped = self.wrap(orig, layer, name, span)
            for m in modules:
                if m.__dict__.get(attr) is orig:
                    self._undo.append((m, attr, orig))
                    setattr(m, attr, wrapped)
        for cls, attr, layer, name in CLASS_METHODS:
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(orig, layer, name, attr == "__init__"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


class _CountingRandom(random.Random):
    def __init__(self, seed: int, tracer: Tracer):
        self._tracer = tracer
        super().__init__(seed)

    def random(self) -> float:
        self._tracer.count("streams.random")
        return super().random()

    def getrandbits(self, k: int) -> int:
        self._tracer.count("streams.getrandbits")
        self._tracer.count("streams.bits", k)
        return super().getrandbits(k)


class CountingStream(RandomStream):
    """A RandomStream that reports every draw to a tracer.

    It yields exactly the draws of a plain RandomStream with the same seed,
    and its split children count into the same tracer.
    """

    def __init__(self, seed: int, tracer: Tracer):
        super().__init__(seed)
        self._tracer = tracer
        self._rng = _CountingRandom(self.seed, tracer)

    def split(self, *labels) -> CountingStream:
        return CountingStream(super().split(*labels).seed, self._tracer)

"""Tests of the benchmark itself: tiny runs of every workload, the names it
emits, the exact digest gate and the counting stream.

    python3 -m pytest benchmarks
"""

import copy
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import harness
from gwtrees import samplers
from gwtrees.streams import RandomStream, draw_cdf, draw_weights
from tracing import CountingStream, Tracer
from workloads import Arm, digest, root_split_statistics, sweep_digest, table_digest

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH_DIR = Path(harness.__file__).resolve().parent

TINY = {
    "exact-tables": {
        "tables": [Arm("binary", "0", 12), Arm("geometric", "0", 8), Arm("geometric", "all", 6), Arm("binary", "0,2", 21)],
        "sweep": Arm("geometric", "all", 6),
        "stats": Arm("binary", "0", 12),
    },
    "depth-large": {
        "arms": [Arm("binary", "0", 40), Arm("binary", "all", 41), Arm("geometric", "all", 40)],
        "warmup": 5,
        "samples": 30,
    },
    "tree-sample": {
        "exact": [(Arm("binary", "0", 10), 5), (Arm("geometric", "0", 6), 5)],
        "float": (Arm("geometric", "all", 40), 3, 5),
        "mb": (Arm("binary", "0", 8), 5),
    },
}

# one name per workload that only a working traced run produces
TRACED_NAMES = {
    "exact-tables": "exact.progeny_pmf_s.binary-0-12",
    "depth-large": "samplers.vertices_per_depth.binary-0-40",
    "tree-sample": "trees.canonical_key_s",
}


@pytest.fixture(scope="module")
def reference():
    """Digests and depth means of the tiny configurations."""
    cfg = TINY["exact-tables"]
    built = {arm: samplers.SamplerTables(arm.dist(), arm.degree_set, arm.n) for arm in cfg["tables"]}
    digests = {f"table.{arm.label}": table_digest(t.count) for arm, t in built.items()}
    t = built[cfg["sweep"]]
    measures = {m: samplers.split_measure(t, m) for m in range(1, t.n + 1) if t.admissible(m)}
    digests[f"sweep.{cfg['sweep'].label}"] = sweep_digest(measures)
    for name, lines in root_split_statistics(built[cfg["stats"]]).items():
        digests[f"{name}.{cfg['stats'].label}"] = digest(lines)
    means = {}
    for arm in TINY["depth-large"]["arms"]:
        t = samplers.SamplerTables(arm.dist(), arm.degree_set, arm.n, exact=False)
        s = RandomStream(99).split(arm.label)
        xs = [samplers.sample_marked_depth(t, s) / math.sqrt(arm.n) for _ in range(4000)]
        means[arm.label] = {"samples": len(xs), "mean": statistics.fmean(xs), "sd": statistics.stdev(xs)}
    return {"digests": digests, "depth_means": means}


def _run(workload, trace, reference):
    result = harness.run(workload, 3, 0, trace, cfg=TINY[workload], reference=reference)
    return result, *harness.report(result)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_run(workload, trace, reference):
    result, line, record = _run(workload, trace, reference)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    assert record["metrics"]["fail_rate"]["value"] == 0
    emitted = list(line["metrics"]) + list(record["metrics"]) + list(record["layers"]) + list(record["notes"])
    assert all(NAME.fullmatch(name) for name in emitted), [n for n in emitted if not NAME.fullmatch(n)]
    if trace:
        assert TRACED_NAMES[workload] in record["layers"]
        ops = {}
        for span in result["spans"]:
            ops.setdefault(span["op"], set()).add(span["name"])
        # spans of one operation share its id: the benchmark's own span and the library's
        assert any(len(names) > 1 for names in ops.values())


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(TINY)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)


def test_digest_gate_fails_on_one_perturbed_rational(reference):
    arm = TINY["exact-tables"]["tables"][0]
    count = list(samplers.SamplerTables(arm.dist(), arm.degree_set, arm.n).count)
    count[5] += Fraction(1, 10**40)
    assert table_digest(count) != reference["digests"][f"table.{arm.label}"]
    perturbed = copy.deepcopy(reference)
    perturbed["digests"][f"table.{arm.label}"] = table_digest(count)
    result, line, _ = _run("exact-tables", False, perturbed)
    assert not line["correct"]
    assert line["failed"] == len(result["passes"])


def test_counting_stream_draws_like_a_plain_stream():
    tracer = Tracer()
    plain, counting = RandomStream(7), CountingStream(7, tracer)

    def draws(s):
        child = s.split("child", 2)
        cum = [Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        return (
            [s.random() for _ in range(5)]
            + [s.getrandbits(13) for _ in range(5)]
            + [s.randbelow(1000) for _ in range(5)]
            + [draw_cdf(cum, s), draw_weights([Fraction(1, 7)] * 7, Fraction(1), s)]
            + [child.random(), child.getrandbits(64)]
        )

    assert draws(plain) == draws(counting)
    assert tracer.counts["setup", "streams.random"] == 6
    assert tracer.counts["setup", "streams.getrandbits"] >= 13


def test_exits_without_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "exact-tables", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

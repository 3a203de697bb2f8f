"""Run loop, metrics and result output of the gwtrees benchmark.

One run serves one workload in a closed loop from a single thread: a pass
(fresh set-up, then the timed operations, then the checks) starts only after
the previous one ended, until the next pass would overrun `seconds`.  A
traced run alternates untraced and traced passes.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy
import scipy

from gwtrees.streams import RandomStream
from tracing import LAYERS, CountingStream, Tracer
from workloads import CALIBRATION_REF_S, CONFIGS, WORKLOADS, Recorder

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
MIN_PASSES = 2
IMPORT_RUNS = 3

# the metrics of the last JSON line, as BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.mean": "ms",
    "op_ms.tail_mean": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "exact.self_s": "s",
    "offspring.self_s": "s",
    "samplers.self_s": "s",
    "partitions.atoms": "count",
    "samplers.draw_root_degree.calls": "count",
    "samplers.draw_split_sizes.calls": "count",
    "samplers.tau.calls": "count",
    "samplers.cache_mb": "MB",
    "streams.random_calls_per_op": "calls/op",
    "streams.getrandbits_calls_per_op": "calls/op",
    "streams.bits_per_op": "bits/op",
    "trace.overhead_s": "s",
    "trace.layer_share": "%",
}
# timed operation kinds reported per arm as samplers.<kind>_ms.<arm>
SAMPLER_OPS = ("depth", "exact_tree", "float_tree", "mb_tree")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def import_seconds() -> float:
    """Time to import the library in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import gwtrees.samplers, gwtrees.scaling, gwtrees.trees\n"
        "print(time.perf_counter() - t)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def environment(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# the run loop


def run(workload: str, seed: int, seconds: float, trace: bool, cfg=None, reference=None) -> dict:
    """Run one workload; returns the result record (see `report`)."""
    cfg = CONFIGS[workload] if cfg is None else cfg
    reference = load_reference() if reference is None else reference
    setup, work = WORKLOADS[workload]
    root = RandomStream(seed)
    imports = [import_seconds() for _ in range(IMPORT_RUNS)]
    tracer = Tracer() if trace else None
    passes: list[tuple[Recorder, dict | None]] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        i = len(passes)
        traced = tracer is not None and i % 2 == 1  # a traced run alternates untraced and traced passes
        stream = root.split("pass", i)
        if traced:
            stream = CountingStream(stream.seed, tracer)
            tracer.reset()
            tracer.phase, tracer.label = "setup", ""
        rec = Recorder(tracer if traced else None)
        if traced:
            tracer.clock = rec.clock
        with rec.calibrating(), tracer if traced else nullcontext():
            t0 = rec.clock()
            state = setup(cfg, stream, rec)
            work(cfg, state, stream, rec, reference)
            del state
            rec.wall_s = rec.clock() - t0
        rec.normalize()
        passes.append((rec, _snapshot(tracer, rec.speed_factor()) if traced else None))
        durations.append(time.perf_counter() - pass_start)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "imports": imports,
        "passes": passes,
        "spans": tracer.spans if tracer is not None else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _snapshot(tracer: Tracer, factor: float) -> dict:
    """The tracer's per-pass totals, times scaled to the reference speed."""
    return {
        "self_s": {k: v * factor for k, v in tracer.self_s.items()},
        "fn_s": {k: v * factor for k, v in tracer.fn_s.items()},
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
    }


# ---------------------------------------------------------------------------
# metrics


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _tail_mean(values: list[float]) -> float:
    """Mean of the slowest tenth of the values (at least one)."""
    tail = sorted(values)[-max(1, len(values) // 10):]
    return statistics.fmean(tail)


def _median_of(dicts: list[dict]) -> dict:
    keys = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def end_to_end(result: dict) -> dict[str, float]:
    """The gated metrics, from the untraced passes."""
    recs = [r for r, snap in result["passes"] if snap is None]
    ops_ms = [[sec * 1e3 for _, _, sec in r.ops] for r in recs]
    imports = statistics.median(result["imports"]) * CALIBRATION_REF_S / _calibration(result)
    return {
        "setup_s": imports + statistics.median(sum(s for *_, s in r.setups) for r in recs),
        "wall_s": statistics.median(r.wall_s for r in recs),
        "op_ms.mean": statistics.median(statistics.fmean(ms) for ms in ops_ms),
        "op_ms.tail_mean": statistics.median(_tail_mean(ms) for ms in ops_ms),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _calibration(result: dict) -> float:
    """Mean calibration sample over the whole run, in seconds."""
    return statistics.fmean(c for r, _ in result["passes"] for c in r.calibrations)


def named_metrics(result: dict) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric that applies to the workload, by its own name."""
    recs = [r for r, snap in result["passes"] if snap is None]
    gate = end_to_end(result)
    attempted = sum(r.attempted for r, _ in result["passes"])
    failed = sum(r.failed for r, _ in result["passes"])
    out = {
        "setup_s": (gate["setup_s"], "s"),
        "wall_s": (gate["wall_s"], "s"),
        "peak_rss_mb": (gate["peak_rss_mb"], "MB"),
        "fail_rate": (failed / attempted, "ratio"),
        "ops": (attempted, "count"),
        "calibration_ms": (_calibration(result) * 1e3, "ms"),
    }

    def per_pass(kinds) -> float:
        return statistics.median(sum(s for k, _, s in r.ops if k in kinds) for r in recs)

    def ops_of(kind) -> list[float]:
        return [s for r in recs for k, _, s in r.ops if k == kind]

    workload = result["workload"]
    if workload == "exact-tables":
        out["exact_table_s"] = (per_pass({"table"}), "s")
        out["root_split_s"] = (per_pass({"sweep", "stats"}), "s")
    elif workload == "depth-large":
        ms = [s * 1e3 for s in ops_of("depth")]
        out["depth_samples_per_s"] = (len(ms) / (sum(ms) / 1e3), "1/s")
        out["depth_sample_ms.p50"] = (statistics.median(ms), "ms")
        out["depth_sample_ms.p99"] = (_quantile(ms, 99), "ms")
        out["depth_samples"] = (len(ms), "count")
    elif workload == "tree-sample":
        for kind in ("exact", "float", "mb"):
            secs = ops_of(f"{kind}_tree")
            out[f"{kind}_trees_per_s"] = (len(secs) / sum(secs), "1/s")
    return out


def layer_metrics(result: dict) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the traced passes (medians over passes)."""
    untraced = [r for r, snap in result["passes"] if snap is None]
    traced = [(r, snap) for r, snap in result["passes"] if snap is not None]
    rows = []
    for rec, snap in traced:
        row: dict[str, float] = {}
        for layer in LAYERS + ("bench",):
            row[f"{layer}.self_s"] = sum(v for (_, lay), v in snap["self_s"].items() if lay == layer)
        covered = sum(v for (phase, lay), v in snap["self_s"].items() if lay != "bench" and phase != "setup")
        setup_s = sum(s for *_, s in rec.setups)
        row["trace.layer_share"] = 100.0 * covered / (rec.wall_s - setup_s)
        row["trace.overhead_s"] = rec.wall_s - statistics.median(r.wall_s for r in untraced)
        for (_, label, name), secs in snap["fn_s"].items():
            row[f"{name}_s"] = row.get(f"{name}_s", 0.0) + secs
            if label:
                row[f"{name}_s.{label}"] = row.get(f"{name}_s.{label}", 0.0) + secs
        for (_, _, name), calls in snap["calls"].items():
            row[f"{name}.calls"] = row.get(f"{name}.calls", 0) + calls
        work_ops = len(rec.ops)
        for name in ("random", "getrandbits"):
            row[f"streams.{name}_calls_per_op"] = snap["counts"].get(("work", f"streams.{name}"), 0) / work_ops
        row["streams.bits_per_op"] = snap["counts"].get(("work", "streams.bits"), 0) / work_ops
        row["partitions.atoms"] = sum(v for (_, name), v in snap["counts"].items() if name == "partitions.partitions_into.items")
        for kind, label, secs in rec.setups:
            if kind == "warmup":
                row[f"samplers.warmup_s.{label}"] = secs
        by_kind: dict[str, list[float]] = {}
        for kind, label, secs in rec.ops:
            if kind in SAMPLER_OPS:
                by_kind.setdefault(f"samplers.{kind}_ms.{label}", []).append(secs * 1e3)
                by_kind.setdefault(f"samplers.{kind}_ms", []).append(secs * 1e3)
        row.update({k: statistics.median(v) for k, v in by_kind.items()})
        for label, n in Counter(label for kind, label, _ in rec.ops if kind == "depth").items():
            calls = snap["calls"].get(("work", label, "samplers.draw_root_degree"), 0)
            row[f"samplers.vertices_per_depth.{label}"] = calls / n
        rows.append(row)
    out = {}
    for name, value in _median_of(rows).items():
        out[name] = (value, _unit(name))
    # the first pass's set-up is the first to allocate in this process, so its
    # growth in resident memory is what the tables and their caches hold
    held = result["passes"][0][0].memory
    for label, size in held.items():
        out[f"samplers.cache_mb.{label}"] = (size / 2**20, "MB")
    out["samplers.cache_mb"] = (sum(held.values()) / 2**20, "MB")
    for name in PER_LAYER:
        out.setdefault(name, (0, PER_LAYER[name]))
    return out


def _unit(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith(".calls") or name.startswith("samplers.vertices_per_depth"):
        return "count"
    if "_ms" in name:
        return "ms"
    return "s"


# ---------------------------------------------------------------------------
# output


def report(result: dict) -> tuple[dict, dict]:
    """(last-line object, full record) for one run."""
    attempted = sum(r.attempted for r, _ in result["passes"])
    failed = sum(r.failed for r, _ in result["passes"])
    if result["trace"]:
        layers = layer_metrics(result)
        metrics = {name: {"value": layers[name][0], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        layers = {}
        gate = end_to_end(result)
        metrics = {name: {"value": gate[name], "unit": unit} for name, unit in END_TO_END.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    notes: dict = {}
    for rec, _ in result["passes"]:
        for key, value in rec.notes.items():
            notes.setdefault(key, []).append(value)
    record = {
        "workload": result["workload"],
        "seed": result["seed"],
        "seconds": result["seconds"],
        "trace": result["trace"],
        "passes": len(result["passes"]),
        "env": environment(result["seed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named_metrics(result).items()},
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "notes": notes,
        "result": line,
    }
    return line, record


def write_outputs(result: dict, record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if result["spans"]:
        t0 = result["spans"][0]["start"]
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in result["spans"]:
                fh.write(json.dumps({**span, "start": span["start"] - t0, "end": span["end"] - t0}) + "\n")


def print_record(record: dict) -> None:
    print(f"# workload={record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={int(record['trace'])} passes={record['passes']}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for section in ("metrics", "layers"):
        for name, m in sorted(record[section].items()):
            print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, values in sorted(record["notes"].items()):
        print(f"# {name} " + " ".join(f"{v:.6g}" for v in values))

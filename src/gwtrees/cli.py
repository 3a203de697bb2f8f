"""Command-line frontend.

Subcommands: exact tables, tree sampling, queue/tree transforms, root-split
statistics, named verification suites, and report rendering.  Exit status is
0 on success, 1 when a requested verification fails, 2 for configuration
errors; configuration errors also print a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .degree_sets import DegreeSet, require_zero
from .exact import marked_count_pmf
from .offspring import OffspringDist, format_rational, validate
from .samplers import SamplerTables, sample_conditioned
from .scaling import root_split_measure, top_share_mean
from .streams import RandomStream
from .suites import SUITES
from .transforms import collapse, first_hit_rule, lifeline_tree
from .trees import format_queue, format_tree, parse_queue, parse_tree


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors (a non-integer --n, an unknown flag) raise ConfigError, so
    they exit 2 with the JSON error object like every other misuse."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@dataclass
class RunConfig:
    """Flags shared by the table- and sampling-oriented subcommands."""

    command: str
    dist: dict | None = None
    degree_set: str = "0"
    n: int | None = None
    max_n: int | None = None
    count: int = 1
    seed: int | None = None
    cache_dir: str | None = None
    out_format: str = "text"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> RunConfig:
        return RunConfig(**json.loads(text))


# the fields a config file may set and their JSON types; _dist checks dist
CONFIG_FIELDS = dict(dist=object, degree_set=str, n=int, max_n=int, count=int, seed=int, cache_dir=str, out_format=str)


def _load_config(args: argparse.Namespace) -> RunConfig:
    """Merge an optional config file with flags; explicit flags win."""
    base: dict = {}
    if getattr(args, "config", None):
        try:
            base = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(base, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(base).__name__}")
    fields = {k: v for k, v in base.items() if k in CONFIG_FIELDS and v is not None}
    for name, val in fields.items():
        if not isinstance(val, CONFIG_FIELDS[name]):
            raise ConfigError(f"config field {name!r} must be of type {CONFIG_FIELDS[name].__name__}, got {val!r}")
    cfg = RunConfig(command=args.command, **fields)
    if getattr(args, "dist", None):
        try:
            cfg.dist = json.loads(args.dist)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--dist is not valid JSON: {exc}") from exc
    if getattr(args, "degree_set", None):
        cfg.degree_set = args.degree_set
    for name in ("n", "max_n", "count", "seed", "cache_dir"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    if getattr(args, "out_format", None):
        cfg.out_format = args.out_format
    return cfg


def _require(cfg: RunConfig, *fields: str) -> None:
    """Each field must be set; the sizes and --count must also be at least 1."""
    for f in fields:
        val = getattr(cfg, f)
        if val is None:
            raise ConfigError(f"missing required option --{f.replace('_', '-')}")
        if f in ("n", "max_n", "count") and val < 1:
            raise ConfigError(f"--{f.replace('_', '-')} must be at least 1, got {val}")


def _dist(cfg: RunConfig) -> OffspringDist:
    if cfg.dist is None:
        raise ConfigError("missing required option --dist")
    try:
        dist = OffspringDist.from_json(cfg.dist)
        validate(dist)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad distribution spec: {exc}") from exc
    return dist


def _marks(text: str) -> DegreeSet:
    """A degree set that contains 0, as every counting construction needs."""
    try:
        marks = DegreeSet.parse(text)
        require_zero(marks)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return marks


def cmd_exact(cfg: RunConfig) -> int:
    _require(cfg, "max_n")
    dist = _dist(cfg)
    marks = _marks(cfg.degree_set)
    cache_file = None
    if cfg.cache_dir:
        tag = f"exact-{json.dumps(cfg.dist, sort_keys=True)}-{marks.spec()}-{cfg.max_n}"
        safe = "".join(c if c.isalnum() or c in ".,-" else "_" for c in tag)
        cache_file = Path(cfg.cache_dir) / f"{safe}.json"
        if cache_file.exists():
            values = json.loads(cache_file.read_text())["values"]
            _emit_exact(cfg, values)
            return 0
    table = marked_count_pmf(dist, marks, cfg.max_n)
    values = [format_rational(v) for v in table[1:]]
    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        payload = {"dist": cfg.dist, "set": marks.spec(), "max_n": cfg.max_n, "values": values}
        cache_file.write_text(json.dumps(payload, sort_keys=True))
    _emit_exact(cfg, values)
    return 0


def _emit_exact(cfg: RunConfig, values: list[str]) -> None:
    if cfg.out_format == "json":
        print(json.dumps(values))
    elif cfg.out_format == "csv":
        print("n,probability")
        for i, v in enumerate(values, start=1):
            print(f"{i},{v}")
    else:
        for i, v in enumerate(values, start=1):
            print(f"P(count = {i}) = {v}")


def cmd_sample(cfg: RunConfig) -> int:
    _require(cfg, "seed", "n", "count")
    dist = _dist(cfg)
    marks = _marks(cfg.degree_set)
    try:
        tables = SamplerTables(dist, marks, cfg.n, exact=cfg.n <= 256)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    stream = RandomStream(cfg.seed)
    header = {
        "dist": cfg.dist,
        "set": marks.spec(),
        "n": cfg.n,
        "count": cfg.count,
        "seed": cfg.seed,
        "version": __version__,
    }
    print(json.dumps(header, sort_keys=True))
    for _ in range(cfg.count):
        print(format_tree(sample_conditioned(tables, stream)))
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    marks = _marks(args.degree_set or "0")
    lines = [ln.strip() for ln in sys.stdin if ln.strip()]
    for line in lines:
        try:
            if args.kind == "hat":
                out = collapse(parse_queue(line), first_hit_rule(marks))
                print(format_queue(out))
            else:
                print(format_tree(lifeline_tree(parse_tree(line))))
        except ValueError as exc:
            raise ConfigError(f"bad input line {line!r}: {exc}") from exc
    return 0


def cmd_root_partition(cfg: RunConfig) -> int:
    _require(cfg, "n")
    dist = _dist(cfg)
    marks = _marks(cfg.degree_set)
    try:
        tables = SamplerTables(dist, marks, cfg.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = []
    for m in range(1, cfg.n + 1):
        if not tables.admissible(m):
            continue
        top = top_share_mean(root_split_measure(tables, m))
        # the f = 1 statistic sqrt(m) * E[1 - s1]: the atoms sum to one and
        # s1 of () is 0, so it is exactly sqrt(m) * (1 - top share)
        rows.append({"n": m, "statistic": math.sqrt(m) * float(1 - top), "top_share": float(top)})
    if cfg.out_format == "json":
        print(json.dumps(rows))
    else:
        for row in rows:
            print(f"n={row['n']}: sqrt(n) damped mass = {row['statistic']:.6f}, top share = {row['top_share']:.6f}")
    return 0


def _named_family(spec_text: str) -> str:
    from .offspring import binary_dist, geometric_dist

    try:
        dist = OffspringDist.from_json(spec_text)
    except ValueError as exc:
        raise ConfigError(f"bad distribution spec: {exc}") from exc
    if dist == binary_dist():
        return "binary"
    if dist == geometric_dist():
        return "geometric"
    raise ConfigError("first-passage verification supports the named families binary and geometric(1/2)")


def cmd_verify(args: argparse.Namespace) -> int:
    names = args.suites
    if "all" in names:
        names = list(SUITES)
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suite(s): {', '.join(unknown)}; pick from {', '.join(SUITES)} or 'all'")
    if args.max_n is not None and args.max_n < 1:
        raise ConfigError(f"--max-n must be at least 1, got {args.max_n}")
    needs_seed = {"hat-law", "mb-equivalence", "universality"}
    if needs_seed & set(names) and args.seed is None:
        raise ConfigError("--seed is required for stochastic suites")
    # the first-passage flags are checked before any suite prints
    otter_dwass: dict = {}
    if args.dist:
        otter_dwass["dists"] = [_named_family(args.dist)]
    if args.sets:
        for spec in args.sets:
            _marks(spec)
        otter_dwass["set_specs"] = args.sets
    if args.max_n is not None:
        otter_dwass["max_n"] = args.max_n
    all_ok = True
    results = []
    for name in names:
        t0 = time.time()
        result = SUITES[name](args.seed, **(otter_dwass if name == "otter-dwass" else {}))
        results.append(result)
        all_ok = all_ok and result.ok()
        if args.out_format != "json":
            for check in result.checks:
                status = "PASS" if check.passed else "FAIL"
                detail = json.dumps(check.detail, default=str, sort_keys=True) if check.detail else ""
                print(f"[{status}] {name}: {check.name} {detail}")
            print(f"# suite {name}: {'ok' if result.ok() else 'FAILED'} ({time.time() - t0:.1f}s)", file=sys.stderr)
    if args.out_format == "json":
        print(json.dumps([r.to_dict() for r in results], sort_keys=True, default=str, indent=2))
    if args.report_out:
        for r in results:
            if r.report is not None:
                Path(args.report_out).write_text(r.report.to_json())
    if args.csv_out:
        for r in results:
            if r.report is not None:
                Path(args.csv_out).write_text(r.report.samples_csv())
    return 0 if all_ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report: {exc}") from exc
    try:
        lines, ok = _render_report(payload, args.csv)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"not a report of the expected shape: {exc!r}") from exc
    print("\n".join(lines))
    return 0 if ok else 1


def _render_report(payload: dict, csv: bool) -> tuple[list[str], bool]:
    """The lines of a stored report and whether all its tests passed; a
    payload of another shape raises while nothing is printed yet."""
    if csv:
        # stored reports carry the ECDF grid; raw samples are only available
        # at run time through `verify --csv-out`
        lines = ["arm,x,cdf"]
        for arm in payload.get("arms", []):
            lines += [f"{arm['label']},{x!r},{f!r}" for x, f in arm.get("ecdf", [])]
        return lines, True
    lines = [f"report: seed={payload.get('seed')} version={payload.get('version')}"]
    for arm in payload.get("arms", []):
        lines.append(
            f"  arm {arm['label']}: n={arm['n']} samples={arm['samples']} mean={arm['mean']:.4f} "
            f"sigma1={arm['sigma1']:.4f} marked_mass={arm['marked_mass']:.4f}"
        )
    ok = True
    for test in payload.get("tests", []):
        status = "PASS" if test.get("pass") else "FAIL"
        ok = ok and test.get("pass", False)
        lines.append(
            f"  [{status}] {test['name']}: statistic={test['statistic']:.5f} threshold={test['threshold']:.5f}"
        )
    return lines, ok


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gwtrees", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dist", help='offspring law as JSON, e.g. {"family":"binary"}')
        p.add_argument("--set", dest="degree_set", help='degree set: "0", "0,2", "all", "geq:k", "not:..."')
        p.add_argument("--seed", type=int)
        p.add_argument("--config", help="JSON config file; explicit flags win")
        p.add_argument("--format", dest="out_format", choices=("text", "json", "csv"))

    p = sub.add_parser("exact", help="exact marked-count tables")
    common(p)
    p.add_argument("--max-n", dest="max_n", type=int)
    p.add_argument("--cache-dir", dest="cache_dir")

    p = sub.add_parser("sample", help="sample conditioned trees")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--count", type=int)

    p = sub.add_parser("transform", help="apply a transform to stdin lines")
    p.add_argument("kind", choices=("hat", "check"))
    p.add_argument("--set", dest="degree_set")

    p = sub.add_parser("root-partition", help="exact root-split statistics")
    common(p)
    p.add_argument("--n", type=int)

    p = sub.add_parser("verify", help="run named acceptance suites")
    p.add_argument("suites", nargs="+", help=f"any of: {', '.join(SUITES)}, or 'all'")
    p.add_argument("--seed", type=int)
    p.add_argument("--dist", help="restrict the first-passage suite to one named family")
    p.add_argument("--sets", nargs="+", help="degree-set specs for the first-passage suite")
    p.add_argument("--max-n", dest="max_n", type=int)
    p.add_argument("--format", dest="out_format", choices=("text", "json"))
    p.add_argument("--report-out", dest="report_out")
    p.add_argument("--csv-out", dest="csv_out", help="raw sample CSV for report-backed suites")

    p = sub.add_parser("report", help="render a stored experiment report")
    p.add_argument("path")
    p.add_argument("--csv", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "exact":
            return cmd_exact(_load_config(args))
        if args.command == "sample":
            return cmd_sample(_load_config(args))
        if args.command == "transform":
            return cmd_transform(args)
        if args.command == "root-partition":
            return cmd_root_partition(_load_config(args))
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "report":
            return cmd_report(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())

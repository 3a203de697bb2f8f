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
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .degree_sets import DegreeSet, require_zero
from .exact import marked_count_pmf
from .offspring import OffspringDist, format_rational, validate
from .samplers import SamplerTables, sample_conditioned
from .scaling import root_split_measure, top_share_mean
from .streams import RandomStream
from .suites import SUITES
from .transforms import collapse, lifeline_tree
from .trees import format_queue, format_tree, parse_queue, parse_tree


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors (a non-integer --n, an unknown flag) raise ConfigError, so
    they exit 2 with the JSON error object like every other misuse."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class Option:
    """One option of `exact`, `sample` and `root-partition`, which each take
    exactly their own: a flag, or the same key in a --config file."""

    flag: str
    key: str  # the config-file key and the Namespace attribute
    json_type: type  # in a config file; object for any JSON value, which _dist checks
    commands: tuple[str, ...]
    help: str
    default: object = None
    choices: tuple[str, ...] | None = None


TABLE_COMMANDS = ("exact", "sample", "root-partition")

OPTIONS = (
    Option("--dist", "dist", object, TABLE_COMMANDS, 'offspring law as JSON, e.g. {"family":"binary"}'),
    Option("--set", "degree_set", str, TABLE_COMMANDS, 'degree set: "0", "0,2", "all", "geq:k", "not:..."', "0"),
    Option("--max-n", "max_n", int, ("exact",), "largest marked count"),
    Option("--n", "n", int, ("sample", "root-partition"), "marked count; the largest, for root-partition"),
    Option("--count", "count", int, ("sample",), "number of trees", 1),
    Option("--seed", "seed", int, ("sample",), "seed of the random stream"),
    Option("--cache-dir", "cache_dir", str, ("exact",), "directory that keeps each table as a JSON file"),
    Option("--format", "out_format", str, ("exact", "root-partition"), "print as", "text", ("text", "json", "csv")),
)


def _json_flag(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from exc


def _load_config(args: argparse.Namespace) -> None:
    """Fill in each option of the command that no flag set, from the
    --config file or else from its default: explicit flags win.  The file
    holds a JSON object whose keys are options of the command."""
    given: dict = {}
    if args.config:
        try:
            given = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(given).__name__}")
    options = {opt.key: opt for opt in OPTIONS if args.command in opt.commands}
    unknown = sorted(set(given) - set(options))
    if unknown:
        raise ConfigError(f"config fields {unknown} are not options of {args.command}: it takes {list(options)}")
    for key, opt in options.items():
        val = given.get(key)
        if val is not None and (isinstance(val, bool) or not isinstance(val, opt.json_type)):
            raise ConfigError(f"config field {key!r} must be of type {opt.json_type.__name__}, got {val!r}")
        if val is not None and opt.choices and val not in opt.choices:
            raise ConfigError(f"config field {key!r} {val!r} is not a {opt.flag} choice of {args.command}")
        if getattr(args, key) is None:
            setattr(args, key, opt.default if val is None else val)


def _require(cfg: argparse.Namespace, *fields: str) -> None:
    """Each field must be set; the sizes and --count must also be at least 1."""
    for f in fields:
        val = getattr(cfg, f)
        if val is None:
            raise ConfigError(f"missing required option --{f.replace('_', '-')}")
        if f in ("n", "max_n", "count") and val < 1:
            raise ConfigError(f"--{f.replace('_', '-')} must be at least 1, got {val}")


def _dist(cfg: argparse.Namespace) -> OffspringDist:
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


def cmd_exact(cfg: argparse.Namespace) -> int:
    _require(cfg, "max_n")
    dist = _dist(cfg)
    marks = _marks(cfg.degree_set)
    cache_file = None
    if cfg.cache_dir:
        # named by the law, not by its spelling
        tag = f"exact-{json.dumps(dist.to_json(), sort_keys=True)}-{marks.spec()}-{cfg.max_n}"
        safe = "".join(c if c.isalnum() or c in ".,-" else "_" for c in tag)
        cache_file = Path(cfg.cache_dir) / f"{safe}.json"
        try:
            values = json.loads(cache_file.read_text())["values"]
        except (OSError, ValueError, KeyError, TypeError):
            values = None  # missing, or a file of another shape: a miss
        if isinstance(values, list) and len(values) == cfg.max_n and all(isinstance(v, str) for v in values):
            _emit_exact(cfg, values)
            return 0
    table = marked_count_pmf(dist, marks, cfg.max_n)
    values = [format_rational(v) for v in table[1:]]
    if cache_file is not None:
        payload = {"dist": dist.to_json(), "set": marks.spec(), "max_n": cfg.max_n, "values": values}
        tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")  # written, then renamed: never partial
        try:
            cache_file.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(payload, sort_keys=True))
            tmp.replace(cache_file)
        except OSError as exc:
            raise ConfigError(f"cannot write to --cache-dir: {exc}") from exc
    _emit_exact(cfg, values)
    return 0


def _emit_exact(cfg: argparse.Namespace, values: list[str]) -> None:
    if cfg.out_format == "json":
        print(json.dumps(values))
    elif cfg.out_format == "csv":
        print("n,probability")
        for i, v in enumerate(values, start=1):
            print(f"{i},{v}")
    else:
        for i, v in enumerate(values, start=1):
            print(f"P(count = {i}) = {v}")


def cmd_sample(cfg: argparse.Namespace) -> int:
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
    marks = _marks(args.degree_set)
    lines = [ln.strip() for ln in sys.stdin if ln.strip()]
    for line in lines:
        try:
            if args.kind == "hat":
                out = collapse(parse_queue(line), marks)
                print(format_queue(out))
            else:
                print(format_tree(lifeline_tree(parse_tree(line))))
        except ValueError as exc:
            raise ConfigError(f"bad input line {line!r}: {exc}") from exc
    return 0


def cmd_root_partition(cfg: argparse.Namespace) -> int:
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
    elif cfg.out_format == "csv":
        print("n,statistic,top_share")
        for row in rows:
            print(f"{row['n']},{row['statistic']!r},{row['top_share']!r}")
    else:
        for row in rows:
            print(f"n={row['n']}: sqrt(n) damped mass = {row['statistic']:.6f}, top share = {row['top_share']:.6f}")
    return 0


def _named_family(spec_text: str) -> str:
    from .offspring import binary_dist, geometric_dist

    try:
        dist = OffspringDist.from_json(json.loads(spec_text))
    except ValueError as exc:  # bad JSON too: JSONDecodeError is a ValueError
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
    for flag, value, reader in (
        ("--dist", args.dist, "otter-dwass"),
        ("--sets", args.sets, "otter-dwass"),
        ("--max-n", args.max_n, "otter-dwass"),
        ("--report-out", args.report_out, "universality"),
        ("--csv-out", args.csv_out, "universality"),
    ):
        if value is not None and reader not in names:
            raise ConfigError(f"{flag} is read only by the {reader} suite, which is not selected")
    if args.max_n is not None and args.max_n < 1:
        raise ConfigError(f"--max-n must be at least 1, got {args.max_n}")
    for flag, path in (("--report-out", args.report_out), ("--csv-out", args.csv_out)):
        if path and not Path(path).parent.is_dir():
            raise ConfigError(f"{flag}: directory {str(Path(path).parent)!r} does not exist")
    needs_seed = {"hat-law", "mb-equivalence", "universality"}
    stochastic = needs_seed & set(names)
    if stochastic and args.seed is None:
        raise ConfigError("--seed is required for stochastic suites")
    if not stochastic and args.seed is not None:
        raise ConfigError(f"--seed is read only by the {', '.join(sorted(needs_seed))} suites, none of which is selected")
    # the first-passage flags are checked before any suite prints
    otter_dwass: dict = {}
    if args.dist is not None:
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
        result = SUITES[name](args.seed, **(otter_dwass if name == "otter-dwass" else {}))
        results.append(result)
        all_ok = all_ok and result.ok()
        if args.out_format != "json":
            for check in result.checks:
                status = "PASS" if check.passed else "FAIL"
                detail = json.dumps(check.detail, default=str, sort_keys=True) if check.detail else ""
                print(f"[{status}] {name}: {check.name} {detail}")
            print(f"# suite {name}: {'ok' if result.ok() else 'FAILED'} ({result.elapsed:.1f}s)", file=sys.stderr)
    if args.out_format == "json":
        print(json.dumps([r.to_dict() for r in results], sort_keys=True, default=str, indent=2))
    for r in results:
        if r.report is not None and args.report_out:
            Path(args.report_out).write_text(r.report.to_json())
        if r.report is not None and args.csv_out:
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

    for command, run, text in (
        ("exact", cmd_exact, "exact marked-count tables"),
        ("sample", cmd_sample, "sample conditioned trees"),
        ("root-partition", cmd_root_partition, "exact root-split statistics"),
    ):
        p = sub.add_parser(command, help=text)
        p.set_defaults(run=run)
        for opt in OPTIONS:
            if command in opt.commands:
                kind = _json_flag if opt.json_type is object else opt.json_type
                text = f"{opt.help} (config key {opt.key})"
                p.add_argument(opt.flag, dest=opt.key, type=kind, choices=opt.choices, help=text)
        p.add_argument("--config", help="JSON file: an object of the options above by config key; flags win")

    p = sub.add_parser("transform", help="apply a transform to stdin lines")
    p.set_defaults(run=cmd_transform)
    p.add_argument("kind", choices=("hat", "check"))
    p.add_argument("--set", dest="degree_set", default="0")

    p = sub.add_parser("verify", help="run named acceptance suites")
    p.set_defaults(run=cmd_verify)
    p.add_argument("suites", nargs="+", help=f"any of: {', '.join(SUITES)}, or 'all'")
    p.add_argument("--seed", type=int, help="hat-law, mb-equivalence and universality only: seed of their streams")
    p.add_argument("--dist", help="otter-dwass only: restrict it to one named family")
    p.add_argument("--sets", nargs="+", help="otter-dwass only: its degree-set specs")
    p.add_argument("--max-n", dest="max_n", type=int, help="otter-dwass only: its largest size")
    p.add_argument("--format", dest="out_format", choices=("text", "json"))
    p.add_argument("--report-out", dest="report_out", help="universality only: write its report as JSON")
    p.add_argument("--csv-out", dest="csv_out", help="universality only: write its raw samples as CSV")

    p = sub.add_parser("report", help="render a stored experiment report")
    p.set_defaults(run=cmd_report)
    p.add_argument("path")
    p.add_argument("--csv", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command in TABLE_COMMANDS:
            _load_config(args)
        return args.run(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())

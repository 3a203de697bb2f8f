import argparse
import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwtrees import cli
from gwtrees.cli import OPTIONS, build_parser, main
from gwtrees.degree_sets import DegreeSet
from gwtrees.trees import count_marked, parse_tree

BIN = [sys.executable, "-m", "gwtrees.cli"]


def run_cli(args, stdin=""):
    proc = subprocess.run(BIN + args, input=stdin, capture_output=True, text=True)
    return proc


def test_exact_binary_leaves_json():
    proc = run_cli(
        ["exact", "--dist", '{"family":"binary"}', "--set", "0", "--max-n", "30", "--format", "json"]
    )
    assert proc.returncode == 0
    values = json.loads(proc.stdout)
    assert values[2] == "1/16"  # entry for n = 3
    assert values[0] == "1/2" and values[1] == "1/8"


def test_exact_cache_roundtrip(tmp_path):
    args = [
        "exact",
        "--dist",
        '{"family":"geometric","p":"1/2"}',
        "--set",
        "0,2",
        "--max-n",
        "12",
        "--format",
        "json",
        "--cache-dir",
        str(tmp_path),
    ]
    first = run_cli(args)
    assert first.returncode == 0
    assert list(tmp_path.iterdir())
    second = run_cli(args)
    assert second.stdout == first.stdout


def test_exact_cache_file_is_named_by_the_law(tmp_path):
    # three spellings of geometric(1/2) share one file and one output
    outs = []
    for spec in ('{"family":"geometric"}', '{"family":"geometric","p":"1/2"}', '{"family":"geometric","p":0.5}'):
        code, out, err = _main(["exact", "--dist", spec, "--max-n", "6", "--cache-dir", str(tmp_path)])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    (cache_file,) = tmp_path.iterdir()
    assert json.loads(cache_file.read_text())["dist"] == {"family": "geometric", "p": "1/2"}


@pytest.mark.parametrize("command", ["exact", "sample", "root-partition"])
def test_dist_as_a_json_string_is_refused(tmp_path, command):
    # JSON text holding the law's object is a second spelling of the law,
    # refused as a flag and as a config value
    argv = [command, "--set", "0", "--max-n" if command == "exact" else "--n", "3"]
    if command == "sample":
        argv += ["--seed", "1"]
    text = json.dumps(BINARY)
    code, out, err = _main([*argv, "--dist", text])
    _assert_json_error(code, out, err)
    assert "JSON object" in json.loads(err)["message"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dist": BINARY}))
    _assert_json_error(*_main([*argv, "--config", str(cfg)]))
    cfg.write_text(json.dumps({"dist": json.loads(BINARY)}))
    assert _main([*argv, "--config", str(cfg)])[0] == 0


@pytest.mark.parametrize("under", [False, True], ids=["is-a-file", "under-a-file"])
def test_exact_cache_dir_that_cannot_be_written_is_a_json_error(tmp_path, under):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir = blocker / "cache" if under else blocker
    code, out, err = _main(["exact", "--dist", BINARY, "--set", "0", "--max-n", "5", "--cache-dir", str(cache_dir)])
    _assert_json_error(code, out, err)
    assert "--cache-dir" in json.loads(err)["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["file"] and blocker.read_text() == ""


@pytest.mark.parametrize("flag", ["--report-out", "--csv-out"])
def test_verify_output_into_a_missing_directory_fails_before_any_suite(tmp_path, flag):
    # checked with the other flags, before the missing --seed and before
    # universality runs or prints
    code, out, err = _main(["verify", "universality", flag, str(tmp_path / "missing" / "out")])
    _assert_json_error(code, out, err)
    assert flag in json.loads(err)["message"]


@pytest.mark.parametrize("corrupt", ['{"values": ', "{}"], ids=["truncated", "no-values"])
def test_exact_cache_of_another_shape_is_a_miss(tmp_path, corrupt):
    args = ["exact", "--dist", '{"family":"binary"}', "--set", "0", "--max-n", "9", "--format", "json"]
    plain = run_cli(args)
    assert plain.returncode == 0
    cached = run_cli(args + ["--cache-dir", str(tmp_path)])
    (cache_file,) = tmp_path.iterdir()
    repaired = cache_file.read_text()
    cache_file.write_text(corrupt)
    again = run_cli(args + ["--cache-dir", str(tmp_path)])
    assert (again.returncode, again.stderr) == (0, "")
    assert again.stdout == cached.stdout == plain.stdout
    assert [p.name for p in tmp_path.iterdir()] == [cache_file.name]
    assert cache_file.read_text() == repaired
    assert json.loads(repaired)["values"] == json.loads(plain.stdout)


# each edits the payload of a valid binary/all cache file at max_n = 9,
# whose values are 1/2, 0, 1/8, 0, 1/16, 0, 5/128, 0, 7/256
CORRUPT_PAYLOADS = {
    "other-law": lambda p: p.update(dist={"family": "geometric", "p": "1/2"}),
    "other-set": lambda p: p.update(set="0"),
    "other-max-n": lambda p: p.update(max_n=8),
    "short": lambda p: p["values"].pop(),
    "not-a-string": lambda p: p["values"].__setitem__(0, 0.5),
    "not-a-rational": lambda p: p["values"].__setitem__(0, "banana"),
    "zero-denominator": lambda p: p["values"].__setitem__(0, "7/0"),
    "not-canonical": lambda p: p["values"].__setitem__(0, "2/4"),
    "negative": lambda p: p["values"].__setitem__(1, "-1"),
    "above-one": lambda p: p["values"].__setitem__(0, "3/2"),
    "sum-above-one": lambda p: p["values"].__setitem__(0, "1"),
    "zero-inside-the-support": lambda p: p["values"].__setitem__(2, "0"),
    "mass-outside-the-support": lambda p: p["values"].__setitem__(1, "1/1024"),
}


@pytest.mark.parametrize("corrupt", CORRUPT_PAYLOADS)
def test_exact_cache_that_cannot_be_the_table_is_a_miss(tmp_path, monkeypatch, corrupt):
    # a file of the right shape whose payload is not this request's table,
    # or no table at all, is recomputed and rewritten, never printed
    args = ["exact", "--dist", BINARY, "--set", "all", "--max-n", "9", "--cache-dir", str(tmp_path)]
    code, cached, _err = _main(args)
    assert code == 0
    (cache_file,) = tmp_path.iterdir()
    repaired = cache_file.read_text()
    payload = json.loads(repaired)
    CORRUPT_PAYLOADS[corrupt](payload)
    cache_file.write_text(json.dumps(payload))
    assert _main(args) == (0, cached, "")
    assert cache_file.read_text() == repaired
    # a valid hit computes nothing and prints what the miss printed
    monkeypatch.setattr(cli, "marked_count_pmf", None)
    assert _main(args) == (0, cached, "")


def test_transform_hat_stdin():
    proc = run_cli(["transform", "hat", "--set", "0"], stdin="1,-1,-1\n")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0,-1"


def test_cli_import_loads_no_scipy_submodule():
    # scipy costs about 1 s and 65 MB to import; the package computes the
    # chi-square tail in closed form and never loads it
    code = (
        "import sys\n"
        "import gwtrees.cli\n"
        "heavy = ('scipy.stats', 'scipy.integrate', 'scipy.special')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "from gwtrees.scaling import chi_square_test\n"
        "chi_square_test({0: 6, 1: 4}, {0: 0.5, 1: 0.5}, 10)\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "False"]


def test_import_and_exact_commands_load_no_numpy(tmp_path):
    # numpy serves the float work only: importing the package and running
    # the exact commands in one fresh interpreter never loads it, a cache
    # miss and a checked cache hit included, and the first float table does
    cache = ['exact', '--dist', BINARY, '--set', '0', '--max-n', '20', '--cache-dir', str(tmp_path)]
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "import gwtrees, gwtrees.cli, gwtrees.samplers, gwtrees.scaling, gwtrees.suites\n"
        "loaded = ['numpy' in sys.modules]\n"
        "b = '{\"family\":\"binary\"}'\n"
        "runs = [\n"
        "    ['exact', '--dist', b, '--set', '0', '--max-n', '20'],\n"
        "    ['root-partition', '--dist', b, '--set', '0', '--n', '20'],\n"
        "    ['sample', '--dist', b, '--set', '0', '--n', '50', '--seed', '1'],\n"
        "    ['transform', 'check'],\n"
        "    ['verify', 'otter-dwass', '--max-n', '12'],\n"
        "    ['verify', 'root-limit'],\n"
        f"    {cache!r},\n"
        f"    {cache!r},\n"
        "]\n"
        "sys.stdin = io.StringIO('(()())\\n')\n"
        "for argv in runs:\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        assert gwtrees.cli.main(argv) == 0, argv\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "gwtrees.samplers.SamplerTables(gwtrees.binary_dist(), gwtrees.DegreeSet.of(0), 50, exact=False)\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str([False] * 9 + [True])]
    assert len(list(tmp_path.iterdir())) == 1


def test_transform_check_stdin():
    proc = run_cli(["transform", "check"], stdin="(()())\n")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(())"


def test_sample_embeds_seed_and_reproduces():
    args = [
        "sample",
        "--dist",
        '{"family":"binary"}',
        "--set",
        "0",
        "--n",
        "5",
        "--count",
        "4",
        "--seed",
        "9",
    ]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == 0
    assert a.stdout == b.stdout  # byte-identical for identical config and seed
    header = json.loads(a.stdout.splitlines()[0])
    assert header["seed"] == 9
    assert header["version"]
    assert len(a.stdout.splitlines()) == 5


def test_sample_requires_seed():
    proc = run_cli(["sample", "--dist", '{"family":"binary"}', "--set", "0", "--n", "3"])
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "config"


def test_sample_rejects_impossible_size():
    proc = run_cli(["sample", "--dist", '{"family":"binary"}', "--set", "all", "--n", "4", "--seed", "1"])
    assert proc.returncode == 2


def test_sample_subcritical_float_sizes():
    # n > 256 samples on float tables: a subcritical law works while its
    # masses stay above the FFT's absolute error, and is a config error after
    geo = '{"family":"geometric","p":"%s"}'
    proc = run_cli(["sample", "--dist", geo % "11/20", "--set", "0", "--n", "400", "--seed", "1"])
    assert proc.returncode == 0, proc.stderr
    assert count_marked(parse_tree(proc.stdout.splitlines()[1]), DegreeSet.of(0)) == 400
    _assert_config_error(run_cli(["sample", "--dist", geo % "2/3", "--set", "all", "--n", "300", "--seed", "1"]))


def test_bad_distribution_spec():
    proc = run_cli(["exact", "--dist", '{"family":"cauchy"}', "--set", "0", "--max-n", "4"])
    assert proc.returncode == 2


def _assert_config_error(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert isinstance(err, dict) and err["error"] == "config"


def test_exact_rejects_set_without_zero():
    _assert_config_error(run_cli(["exact", "--dist", '{"family":"binary"}', "--set", "1", "--max-n", "5"]))


def test_exact_rejects_nonpositive_max_n():
    _assert_config_error(run_cli(["exact", "--dist", '{"family":"binary"}', "--set", "0", "--max-n", "0"]))


def test_sample_rejects_nonpositive_size_before_any_output():
    _assert_config_error(run_cli(["sample", "--dist", '{"family":"binary"}', "--set", "0", "--n", "0", "--seed", "1"]))


def test_exact_validates_distribution():
    # probabilities summing to 1/2 are not a law
    proc = run_cli(["exact", "--dist", '{"probs":["1/4","1/4"]}', "--set", "0", "--max-n", "4"])
    _assert_config_error(proc)
    assert "sum" in json.loads(proc.stderr)["message"]


def test_verify_rejects_nonpositive_max_n():
    _assert_config_error(run_cli(["verify", "otter-dwass", "--max-n", "-1"]))


def test_report_rejects_missing_file(tmp_path):
    _assert_config_error(run_cli(["report", str(tmp_path / "missing.json")]))


@pytest.mark.parametrize(
    "payload",
    ['{"tests":[{"name":"a"}]}', "[1,2]", '{"arms":[{"n":3}]}'],
    ids=["test-without-statistic", "array", "arm-without-label"],
)
def test_report_rejects_payload_of_another_shape(tmp_path, payload):
    path = tmp_path / "report.json"
    path.write_text(payload)
    _assert_json_error(*_main(["report", str(path)]))


def test_report_exit_code_follows_its_tests(tmp_path):
    path = tmp_path / "report.json"
    for passed, want in ((True, 0), (False, 1)):
        tests = [{"name": "a", "pass": True, "statistic": 0.1, "threshold": 0.2}]
        tests.append({"name": "b", "pass": passed, "statistic": 0.3, "threshold": 0.2})
        path.write_text(json.dumps({"seed": 1, "version": "x", "arms": [], "tests": tests}))
        code, out, err = _main(["report", str(path)])
        assert (code, err) == (want, "")
        assert "[PASS] a" in out and ("[FAIL] b" in out) != passed


def test_config_file_must_be_an_object_of_known_fields(tmp_path):
    cfg = tmp_path / "cfg.json"
    for text in ("[1]", '{"max_n": "3"}', '{"degree_set": 0}'):
        cfg.write_text(text)
        _assert_json_error(*_main(["exact", "--config", str(cfg), "--dist", BINARY, "--max-n", "3"]))


def test_sample_takes_no_format(tmp_path):
    # sample prints one format; a --format flag or config field would do nothing
    argv = ["sample", "--dist", BINARY, "--set", "0", "--n", "5", "--count", "2", "--seed", "3"]
    for fmt in ("csv", "text"):
        _assert_json_error(*_main([*argv, "--format", fmt]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"out_format": "csv"}')
    _assert_json_error(*_main([*argv, "--config", str(cfg)]))


@pytest.mark.parametrize("command", ["exact", "root-partition"])
def test_config_out_format_must_be_a_format_choice(tmp_path, command):
    argv = [command, "--dist", BINARY, "--set", "0", "--max-n" if command == "exact" else "--n", "3"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"out_format": "xml"}')
    _assert_json_error(*_main([*argv, "--config", str(cfg)]))
    cfg.write_text('{"out_format": "json"}')
    code, out, err = _main([*argv, "--config", str(cfg)])
    assert (code, err) == (0, "")
    assert json.loads(out)


def test_sample_rejects_nonpositive_count():
    for count in ("0", "-2"):
        _assert_json_error(*_main(["sample", "--dist", BINARY, "--n", "3", "--seed", "1", "--count", count]))


@pytest.mark.parametrize(
    "flags",
    [
        ["--dist", "{"],
        ["--dist", "[1]"],
        ["--dist", '"{\\"family\\":\\"binary\\"}"'],
        ["--sets", "x"],
        ["--sets", "0", "1"],
    ],
    ids=["dist-not-json", "dist-not-object", "dist-json-string", "set-not-parsed", "set-without-zero"],
)
def test_verify_rejects_bad_first_passage_flags(flags):
    # checked before any suite runs, so checkmap prints nothing either
    _assert_json_error(*_main(["verify", "checkmap", "otter-dwass", "--max-n", "3", *flags]))


def test_verify_unknown_suite():
    proc = run_cli(["verify", "nonsense", "--seed", "1"])
    assert proc.returncode == 2


def test_verify_requires_seed_for_stochastic():
    proc = run_cli(["verify", "hat-law"])
    assert proc.returncode == 2


def test_verify_checkmap_passes():
    proc = run_cli(["verify", "checkmap"])
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout
    assert "[FAIL]" not in proc.stdout


def test_verify_first_passage_with_flags():
    proc = run_cli(
        ["verify", "otter-dwass", "--dist", '{"family":"binary"}', "--sets", "0", "0,2", "all", "--max-n", "8"]
    )
    assert proc.returncode == 0
    assert "[FAIL]" not in proc.stdout


def test_config_file_merges_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dist": {"family": "binary"}, "degree_set": "0", "max_n": 3}))
    proc = run_cli(["exact", "--config", str(cfg), "--format", "json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == ["1/2", "1/8", "1/16"]
    proc = run_cli(["exact", "--config", str(cfg), "--format", "json", "--max-n", "2"])
    assert json.loads(proc.stdout) == ["1/2", "1/8"]


def test_root_partition_subcommand():
    proc = run_cli(
        ["root-partition", "--dist", '{"family":"binary"}', "--set", "0", "--n", "6", "--format", "json"]
    )
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert rows[0]["n"] == 1
    assert abs(rows[2]["statistic"] - 3**0.5 / 3) < 1e-9


# SHA-256 of root-partition stdout in each format: every root-split law to
# n, through its statistics, byte for byte; "geometric-3/5" is the geometric
# law at p = 3/5, whose integer masses carry powers of b - a = 2
ROOT_PARTITION_DIGESTS = {
    ("geometric", "all", "24", "text"): "a68ad24a95763a6262aaeea0c9176334f830e1c569182f8df0f3767428827273",
    ("geometric", "all", "24", "json"): "b1b876e3c4f6c39c79b8a33c14ce52b38675b303515c5af3e1fe94f2c2ddeb15",
    ("geometric", "all", "24", "csv"): "0bfcd116ef6ffcddb8e4d3d1b62ea7557a324e29fc058218963e218f7b22767e",
    ("binary", "0", "40", "text"): "6023d4584987f2a181663c7f57afecc615276d7bf4c1166e923ff3379071514d",
    ("binary", "0", "40", "json"): "48283afa9d3626763457cdc4b2b6176fedd8f6bd005350495d6a016d58ee3ac4",
    ("binary", "0", "40", "csv"): "ec439e85db1d7d733dd4ab051b03204063ac43a1a9d167b875fec973590381e3",
    ("geometric-3/5", "0", "24", "json"): "587286e43e9def288a53539e537f245e1cd127ec9b4fdaa7d9be9f91f053ba2d",
}


@pytest.mark.parametrize("law, marks, n, fmt", sorted(ROOT_PARTITION_DIGESTS))
def test_root_partition_output_is_pinned(law, marks, n, fmt):
    family, _, p = law.partition("-")
    dist = json.dumps({"family": family, **({"p": p} if p else {})})
    code, out, err = _main(["root-partition", "--dist", dist, "--set", marks, "--n", n, "--format", fmt])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ROOT_PARTITION_DIGESTS[law, marks, n, fmt]


def test_root_partition_csv_rows_match_json():
    args = ["root-partition", "--dist", '{"family":"geometric","p":"1/2"}', "--set", "0,2", "--n", "9"]
    as_json = run_cli(args + ["--format", "json"])
    as_csv = run_cli(args + ["--format", "csv"])
    assert as_json.returncode == as_csv.returncode == 0
    header, *lines = as_csv.stdout.splitlines()
    assert header == "n,statistic,top_share"
    rows = [line.split(",") for line in lines]
    parsed = [{"n": int(n), "statistic": float(stat), "top_share": float(top)} for n, stat, top in rows]
    assert parsed == json.loads(as_json.stdout)


def test_main_entrypoint_inprocess(capsys):
    code = main(["exact", "--dist", '{"family":"binary"}', "--set", "all", "--max-n", "3", "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out) == ["1/2", "0", "1/8"]


def test_verify_otter_dwass_at_small_max_n():
    # the geometric partial-mass check used to read table[3] at every size
    for max_n in ("1", "2"):
        proc = run_cli(["verify", "otter-dwass", "--max-n", max_n])
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "[FAIL]" not in proc.stdout and "[PASS]" in proc.stdout


def _weights_as_law(weights):
    return json.dumps({"probs": [f"{w}/{sum(weights)}" for w in weights]})


LAWS = st.one_of(
    st.sampled_from(
        [
            '{"family":"binary"}',
            '{"family":"geometric"}',
            '{"family":"geometric","p":"2/3"}',
            '{"family":"geometric","p":"1/3"}',
            '{"family":"geometric","p":"0"}',
            '{"family":"cauchy"}',
            '{"probs":["1/0"]}',
            '{"probs":5}',
            '{"probs":[NaN]}',
            "[1, 2]",
            "5",
            "null",
            '"binary"',
            "{",
        ]
    ),
    # normalised laws: valid unless supercritical or without mass at 0
    st.lists(st.integers(0, 9), min_size=1, max_size=5).filter(any).map(_weights_as_law),
    # arbitrary rationals, zero and negative denominators included
    st.lists(st.builds("{}/{}".format, st.integers(-2, 12), st.integers(-1, 12)), max_size=4).map(
        lambda ps: json.dumps({"probs": ps})
    ),
    st.text(max_size=12),
)
SETS = st.one_of(
    st.sampled_from(["0", "0,1", "0,2", "all", "geq:2", "geq:3", "not:1", "not:0", "not:-1", "1", "", "x", "geq:", "not:"]),
    st.lists(st.integers(-1, 5), min_size=1, max_size=4).map(lambda ks: ",".join(map(str, ks))),
)


@settings(max_examples=60, deadline=None, database=None)
@given(dist=st.none() | LAWS, marks=st.none() | SETS, max_n=st.none() | st.integers(-2, 40))
def test_exact_error_contract(dist, marks, max_n):
    # either a table, or exit 2 with a JSON error object and nothing on stdout
    argv = ["exact", "--format", "json"]
    for flag, value in (("--dist", dist), ("--set", marks), ("--max-n", max_n)):
        if value is not None:
            argv.append(f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        table = [Fraction(v) for v in json.loads(out.getvalue())]
        assert len(table) == max_n
        assert all(0 <= p <= 1 for p in table) and sum(table) <= 1
    else:
        assert code == 2
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())
        assert isinstance(error, dict) and error["error"] == "config"


def _main(argv):
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_json_error(code, out, err):
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert isinstance(error, dict) and error["error"] == "config"


BINARY = '{"family":"binary"}'


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--dist", BINARY, "--max-n", "abc"],
        ["sample", "--dist", BINARY, "--n", "2.5", "--seed", "1"],
        ["sample", "--dist", BINARY, "--n", "3", "--count", "x", "--seed", "1"],
        ["sample", "--dist", BINARY, "--n", "3", "--seed", "0x1"],
    ],
    ids=["max-n", "n", "count", "seed"],
)
def test_non_integer_option_is_a_json_error(argv):
    code, out, err = _main(argv)
    _assert_json_error(code, out, err)
    assert "invalid int value" in json.loads(err)["message"]


def test_unknown_option_is_a_json_error():
    _assert_json_error(*_main(["exact", "--dist", BINARY, "--max-n", "3", "--frobnicate"]))


# each table command's flags, as its parser must take them
TABLE_FLAGS = {
    "exact": {"--dist", "--set", "--max-n", "--cache-dir", "--format"},
    "sample": {"--dist", "--set", "--n", "--count", "--seed"},
    "root-partition": {"--dist", "--set", "--n", "--format"},
}
TABLE_ARGV = {
    "exact": ["exact", "--dist", BINARY, "--max-n", "3"],
    "sample": ["sample", "--dist", BINARY, "--n", "3", "--seed", "1"],
    "root-partition": ["root-partition", "--dist", BINARY, "--n", "3"],
}


@pytest.mark.parametrize("command", list(TABLE_FLAGS))
def test_table_command_takes_exactly_its_options(tmp_path, command):
    (parser,) = [a.choices[command] for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}
    assert flags == TABLE_FLAGS[command] | {"--config"}
    assert TABLE_FLAGS[command] == {opt.flag for opt in OPTIONS if command in opt.commands}
    argv = TABLE_ARGV[command]
    assert _main(argv)[0] == 0
    _assert_json_error(*_main([*argv, "--set="]))
    # a flag or config key of another command, or an unknown key, is refused
    values = dict(dist={"family": "binary"}, degree_set="0", n=3, max_n=3, count=1, seed=1, out_format="json")
    values.update(cache_dir=str(tmp_path / "cache"), foo=1)
    cfg = tmp_path / "cfg.json"
    for opt in OPTIONS:
        if command not in opt.commands:
            _assert_json_error(*_main([*argv, opt.flag, "1"]))
    for key in sorted(set(values) - {opt.key for opt in OPTIONS if command in opt.commands}):
        cfg.write_text(json.dumps({key: values[key]}))
        code, out, err = _main([*argv, "--config", str(cfg)])
        _assert_json_error(code, out, err)
        assert key in json.loads(err)["message"]
    # an empty set, and a JSON boolean where a number is due (bool is an int)
    for bad in ({"degree_set": ""}, {"n" if command != "exact" else "max_n": True}):
        cfg.write_text(json.dumps(bad))
        _assert_json_error(*_main([*argv, "--config", str(cfg)]))
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--max-n", "3"), ("--dist", BINARY), ("--sets", "0,2"), ("--report-out", "r.json"), ("--csv-out", "s.csv")],
)
def test_verify_refuses_a_flag_of_a_suite_not_selected(tmp_path, flag, value):
    # each is read by one suite only, so checkmap would run and ignore it
    if flag.endswith("-out"):
        value = str(tmp_path / value)
    code, out, err = _main(["verify", "checkmap", flag, value])
    _assert_json_error(code, out, err)
    assert flag in json.loads(err)["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("suites", [["checkmap"], ["otter-dwass", "follower", "root-limit"]], ids=["checkmap", "deterministic"])
def test_verify_refuses_a_seed_no_selected_suite_reads(suites):
    # only hat-law, mb-equivalence and universality read --seed
    code, out, err = _main(["verify", *suites, "--seed", "5"])
    _assert_json_error(code, out, err)
    assert "--seed" in json.loads(err)["message"]


def test_transform_refuses_an_empty_set():
    _assert_json_error(*_main(["transform", "hat", "--set="]))


def _argv(command, **flags):
    argv = [command]
    for flag, value in flags.items():
        if value is not None:
            argv.append(f"--{flag.replace('_', '-')}={value}")
    return argv


@settings(max_examples=40, deadline=None, database=None)
@given(
    dist=st.none() | LAWS,
    marks=st.none() | SETS,
    n=st.none() | st.integers(-2, 40),
    count=st.none() | st.integers(-2, 3),
    seed=st.none() | st.integers(0, 2**40),
)
def test_sample_error_contract(dist, marks, n, count, seed):
    # either every tree has exactly n marked vertices, or exit 2 with a JSON
    # error object and nothing at all on stdout
    code, out, err = _main(_argv("sample", dist=dist, set=marks, n=n, count=count, seed=seed))
    if code != 0:
        _assert_json_error(code, out, err)
        return
    header, *lines = out.splitlines()
    degree_set = DegreeSet.parse(json.loads(header)["set"])
    assert len(lines) == (count or 1)
    assert all(count_marked(parse_tree(line), degree_set) == n for line in lines)


# the root-split sweep enumerates every partition of every size up to n;
# geometric/{0} takes about 14 s at n=40, so sizes stop at 20 here
@settings(max_examples=30, deadline=None, database=None)
@given(dist=st.none() | LAWS, marks=st.none() | SETS, n=st.none() | st.integers(-2, 20))
def test_root_partition_error_contract(dist, marks, n):
    code, out, err = _main(_argv("root-partition", dist=dist, set=marks, n=n, format="json"))
    if code != 0:
        _assert_json_error(code, out, err)
        return
    sizes = [row["n"] for row in json.loads(out)]
    assert sizes == sorted(set(sizes)) and sizes[-1] == n

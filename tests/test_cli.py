import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwtrees.cli import main
from gwtrees.degree_sets import DegreeSet
from gwtrees.trees import count_marked, parse_tree

BIN = [sys.executable, "-m", "gwtrees.cli"]


def run_cli(args, stdin=""):
    proc = subprocess.run(BIN + args, input=stdin, capture_output=True, text=True)
    return proc


def test_exact_binary_leaves_json():
    proc = run_cli(
        ["exact", "--dist", '{"family":"binary"}', "--set", "0", "--max-n", "30", "--format", "json", "--seed", "1"]
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
        "--seed",
        "1",
        "--cache-dir",
        str(tmp_path),
    ]
    first = run_cli(args)
    assert first.returncode == 0
    assert list(tmp_path.iterdir())
    second = run_cli(args)
    assert second.stdout == first.stdout


def test_transform_hat_stdin():
    proc = run_cli(["transform", "hat", "--set", "0"], stdin="1,-1,-1\n")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0,-1"


def test_cli_import_loads_no_scipy_submodule():
    # scipy costs about 1 s and 65 MB to import; only the chi-square checks
    # and the dislocation integral load it, on first call
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
    assert proc.stdout.splitlines() == ["[]", "True"]


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
        "--format",
        "text",
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
    proc = run_cli(["exact", "--dist", '{"family":"cauchy"}', "--set", "0", "--max-n", "4", "--seed", "1"])
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


def test_sample_rejects_nonpositive_count():
    for count in ("0", "-2"):
        _assert_json_error(*_main(["sample", "--dist", BINARY, "--n", "3", "--seed", "1", "--count", count]))


@pytest.mark.parametrize(
    "flags",
    [["--dist", "{"], ["--dist", "[1]"], ["--sets", "x"], ["--sets", "0", "1"]],
    ids=["dist-not-json", "dist-not-object", "set-not-parsed", "set-without-zero"],
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
        ["verify", "otter-dwass", "--dist", '{"family":"binary"}', "--sets", "0", "0,2", "all", "--max-n", "8", "--seed", "1"]
    )
    assert proc.returncode == 0
    assert "[FAIL]" not in proc.stdout


def test_config_file_merges_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dist": {"family": "binary"}, "degree_set": "0", "max_n": 3, "seed": 1}))
    proc = run_cli(["exact", "--config", str(cfg), "--format", "json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == ["1/2", "1/8", "1/16"]
    proc = run_cli(["exact", "--config", str(cfg), "--format", "json", "--max-n", "2"])
    assert json.loads(proc.stdout) == ["1/2", "1/8"]


def test_root_partition_subcommand():
    proc = run_cli(
        ["root-partition", "--dist", '{"family":"binary"}', "--set", "0", "--n", "6", "--format", "json", "--seed", "1"]
    )
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert rows[0]["n"] == 1
    assert abs(rows[2]["statistic"] - 3**0.5 / 3) < 1e-9


def test_runconfig_roundtrip():
    from gwtrees.cli import RunConfig

    cfg = RunConfig(command="exact", dist={"family": "binary"}, degree_set="0,2", max_n=7, seed=3)
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_main_entrypoint_inprocess(capsys):
    code = main(["exact", "--dist", '{"family":"binary"}', "--set", "all", "--max-n", "3", "--format", "json", "--seed", "1"])
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

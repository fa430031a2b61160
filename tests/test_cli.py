"""CLI dispatch, exit codes, and golden-file schema checks.

The golden files pin the full JSON payload of every subcommand; repeated
runs must be byte-identical.
"""

import argparse
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from functools import partial

import pytest

import spectrapairs
from spectrapairs import arrows, cli, measures, representation, spectral
from spectrapairs.cli import run
from spectrapairs.errors import TooLargeError, check_work
from spectrapairs.sets import FiniteRationalSet

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")


def data(name):
    return os.path.join(DATA, name)


CASES = {
    "decide_spectral": ["decide-line-set", "--n", "3", "--a", "2/1"],
    "decide_congruence_fails": ["decide-line-set", "--n", "3", "--a", "3/1"],
    "decide_irrational": ["decide-line-set", "--n", "3", "--irrational", "sqrt2"],
    "decide_invalid": ["decide-line-set", "--n", "2", "--a", "5/1"],
    "check_pair_true": [
        "check-pair", "--set-a", data("set_012.json"), "--set-b", data("set_thirds.json"),
    ],
    "check_pair_false": [
        "check-pair", "--set-a", data("set_013.json"), "--set-b", data("set_thirds.json"),
    ],
    "find_spectrum_hit": [
        "find-spectrum", "--set", data("set_012.json"), "--qmax", "3", "--span", "1",
    ],
    "find_spectrum_miss": [
        "find-spectrum", "--set", data("set_013.json"), "--qmax", "6", "--span", "1",
    ],
    "arrow_close": [
        "arrow-close", "--set", data("set_012.json"), "--moves", "1,-1,2,-2", "--budget", "3",
    ],
    "arrow_inconsistent": [
        "arrow-close", "--set", data("set_013.json"), "--moves", "1,-1,2,-2,3,-3", "--budget", "5",
    ],
    "rep_roundtrip": [
        "rep-roundtrip", "--measure", data("measure_half.json"), "--spectrum", data("lambda_01.json"),
    ],
    "perm_rep": ["perm-rep", "--n", "3", "--p", "2", "--q", "1"],
    "cantor_orthogonality": ["cantor", "--level", "1", "--check", "orthogonality"],
    "cantor_completeness": [
        "cantor", "--level", "2", "--check", "completeness", "--grid", "5", "--eps", "1e-10",
    ],
    "frame_bounds_tight": [
        "frame-bounds", "--measure", data("measure_half.json"), "--lambda", data("lambda_01.json"),
    ],
    "frame_bounds_redundant": [
        "frame-bounds", "--measure", data("measure_half.json"), "--lambda", data("lambda_012.json"),
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    # Byte for byte: key order and float formatting are part of the contract.
    code, result = run(CASES[name])
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        expected = fh.read()
    assert json.dumps({"exit_code": code, "result": result}, indent=2) + "\n" == expected


def test_repeated_runs_byte_identical():
    for name in ("decide_spectral", "arrow_close", "cantor_orthogonality"):
        first = json.dumps(run(CASES[name])[1])
        second = json.dumps(run(CASES[name])[1])
        assert first == second


def test_spec_example_outputs():
    _, result = run(["decide-line-set", "--n", "3", "--a", "2/1"])
    assert result["verdict"] == "spectral"
    assert result["certificate"] == ["0", "1/3", "2/3"]

    _, result = run(["decide-line-set", "--n", "3", "--a", "3/1"])
    assert (result["verdict"], result["reason"]) == ("not_spectral", "congruence_fails")

    _, result = run(["cantor", "--level", "1", "--check", "orthogonality"])
    assert result["max_offdiag"] <= 1e-10
    assert result["lambda"] == [0, 1, 4, 5]


def test_exit_codes_via_subprocess():
    env = dict(os.environ)
    ok = subprocess.run(
        [sys.executable, "-m", "spectrapairs.cli", "decide-line-set", "--n", "3", "--a", "2/1"],
        capture_output=True, text=True, env=env,
    )
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["status"] == "ok"

    domain = subprocess.run(
        [sys.executable, "-m", "spectrapairs.cli", "decide-line-set", "--n", "2", "--a", "5/1"],
        capture_output=True, text=True, env=env,
    )
    assert domain.returncode == 1
    assert json.loads(domain.stdout)["status"] == "invalid_input"

    usage = subprocess.run(
        [sys.executable, "-m", "spectrapairs.cli", "decide-line-set", "--bogus"],
        capture_output=True, text=True, env=env,
    )
    assert usage.returncode == 2


@pytest.mark.parametrize(
    "argv,code",
    [
        (["perm-rep", "--n", "4", "--p", "3", "--q", "1"], 0),
        (["decide-line-set", "--n", "2", "--a", "5/1"], 1),
    ],
)
def test_closed_stdout_exits_with_the_commands_code_and_no_traceback(argv, code):
    # The read end is closed before the interpreter has started, so the
    # one write to stdout meets a broken pipe.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "spectrapairs.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == code
    assert stderr == ""


def _file(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return str(path)


_MEASURE_FORMAT = 'measure file must be a JSON object {"points": [...], "weights": [...]}'

MALFORMED = {
    "truncated_set": lambda tmp: [
        "find-spectrum", "--set", _file(tmp, '["0", "1"'), "--qmax", "3", "--span", "1",
    ],
    "directory_as_set": lambda tmp: [
        "find-spectrum", "--set", str(tmp), "--qmax", "3", "--span", "1",
    ],
    "set_nested_too_deep": lambda tmp: [
        "find-spectrum", "--set", _file(tmp, "[" * 100000 + "]" * 100000),
        "--qmax", "3", "--span", "1",
    ],
    "non_numeric_weight": lambda tmp: [
        "frame-bounds", "--lambda", data("lambda_01.json"),
        "--measure", _file(tmp, '{"points": ["0", "1/2"], "weights": ["x", 0.5]}'),
    ],
    "fewer_weights_than_points": lambda tmp: [
        "frame-bounds", "--lambda", data("lambda_01.json"),
        "--measure", _file(tmp, '{"points": ["0", "1/2"], "weights": [1.0]}'),
    ],
    "scale_digits_measure": lambda tmp: [
        "frame-bounds", "--lambda", data("lambda_01.json"),
        "--measure", _file(tmp, '{"scale": 4, "digits": ["0", "2"]}'),
    ],
    "eps_nan": lambda tmp: [
        "cantor", "--level", "2", "--check", "completeness", "--grid", "3", "--eps", "nan",
    ],
    "eps_negative": lambda tmp: ["cantor", "--level", "1", "--check", "orthogonality", "--eps", "-1"],
    # Within the work budget, but the transform depth grows with
    # log(1 / eps): about 26 s against 5 s at the default eps.
    "eps_below_floor": lambda tmp: [
        "cantor", "--level", "9", "--check", "completeness", "--grid", "1000", "--eps", "1e-300",
    ],
    # An integer part past Python's 4300-digit string-conversion limit.
    "set_element_too_long": lambda tmp: [
        "find-spectrum", "--set", _file(tmp, json.dumps(["1" * 5000])), "--qmax", "3", "--span", "1",
    ],
    "line_set_a_too_long": lambda tmp: ["decide-line-set", "--n", "3", "--a", "1" * 5000],
    "line_set_a_long_decimal": lambda tmp: ["decide-line-set", "--n", "3", "--a", "1" * 100000 + ".5"],
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_1_with_one_json_object_and_no_traceback(name, tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spectrapairs.cli", *MALFORMED[name](tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.count("\n") == 1
    result = json.loads(proc.stdout)
    assert (result["status"], result["reason"]) == ("invalid_input", "invalid_input")
    assert len(result["message"]) < 300  # the input is not echoed whole
    if name == "scale_digits_measure":
        assert result["message"] == _MEASURE_FORMAT


def test_missing_file_is_domain_error():
    code, result = run(["check-pair", "--set-a", "/nonexistent.json", "--set-b", "/nonexistent.json"])
    assert code == 1
    assert result["reason"] == "file_not_found"


@pytest.mark.parametrize("budget", ["0", "-2"])
def test_arrow_close_budget_below_one_is_invalid_input(budget):
    # With no round run, "closed": true would be a claim nothing checked.
    code, result = run(
        ["arrow-close", "--set", data("set_012.json"), "--moves", "1,-1", "--budget", budget]
    )
    assert code == 1
    assert result["reason"] == "invalid_input"


def test_tsv_goes_to_stderr():
    proc = subprocess.run(
        [
            sys.executable, "-m", "spectrapairs.cli",
            "cantor", "--level", "0", "--check", "completeness",
            "--grid", "3", "--eps", "1e-8", "--tsv",
        ],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)  # stdout stays pure JSON
    assert proc.stderr.splitlines()[0] == "t\tq"


def test_exact_only_work_does_not_import_numpy():
    script = """
import sys
import spectrapairs
from spectrapairs import arrows, serialize, spectral
from spectrapairs.cli import run
A = serialize.parse_set(serialize.read_set(sys.argv[1]))
assert spectral.is_spectral_pair(A, spectral.construct_line_spectrum(3, 2, 1))
arrows.close(arrows.new_session(A, [1, 2], round_budget=2))
assert run(["check-pair", "--set-a", sys.argv[1], "--set-b", sys.argv[1]])[0] == 0
assert "numpy" not in sys.modules, "numpy was imported"
"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, data("set_012.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_each_public_name_has_one_home():
    # The package root loads no module; a name in __all__ is bound in its
    # module and listed by no other.
    script = "import sys, spectrapairs; print([m for m in sys.modules if m.startswith('spectrapairs.')])"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    homes = {}
    for info in pkgutil.iter_modules(spectrapairs.__path__):
        module = importlib.import_module(f"spectrapairs.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
            assert homes.setdefault(name, info.name) == info.name, name


def test_arrow_close_over_work_budget_is_too_large(monkeypatch):
    # The closure counts its work as it goes; the golden counts 801 units.
    argv = ["arrow-close", "--set", data("set_012.json"), "--moves", "1,-1,2,-2", "--budget"]
    monkeypatch.setattr(arrows, "CLOSE_WORK_BUDGET", 801)
    assert run(argv + ["3"]) == run(CASES["arrow_close"])
    monkeypatch.setattr(arrows, "CLOSE_WORK_BUDGET", 800)
    code, result = run(argv + ["3"])
    assert code == 1
    assert (result["status"], result["reason"]) == ("too_large", "too_large")
    # A small budget stops a longer closure partway, after it has derived
    # facts by composition.
    rules = []
    add = arrows.Session._add

    def recorded(self, rule, *args):
        rules.append(rule)
        return add(self, rule, *args)

    monkeypatch.setattr(arrows.Session, "_add", recorded)
    monkeypatch.setattr(arrows, "CLOSE_WORK_BUDGET", 2000)
    code, result = run(argv + ["6"])
    assert (code, result["reason"]) == (1, "too_large")
    assert "R3" in rules
    monkeypatch.undo()
    code, result = run(argv + ["100000"])
    assert (code, result["reason"]) == (1, "too_large")


def test_check_pair_over_work_budget_is_too_large(monkeypatch):
    # |A| units per column, counted as the columns are tested: the pair
    # tests 3 columns of 3 points, the non-pair stops at its first.
    monkeypatch.setattr(spectral, "CERTIFY_WORK_BUDGET", 9)
    assert run(CASES["check_pair_true"]) == (0, {"status": "ok", "spectral_pair": True, "exact": True})
    monkeypatch.setattr(spectral, "CERTIFY_WORK_BUDGET", 3)
    assert run(CASES["check_pair_false"])[1]["spectral_pair"] is False
    code, result = run(CASES["check_pair_true"])
    assert code == 1
    assert (result["status"], result["reason"]) == ("too_large", "too_large")
    monkeypatch.setattr(spectral, "CERTIFY_WORK_BUDGET", 2)
    assert run(CASES["check_pair_false"])[1]["reason"] == "too_large"


def test_find_spectrum_over_work_budget_is_too_large(monkeypatch):
    # ceil(span * qmax (qmax + 1) / 2) is counted before any candidate is
    # built, and each pair test of the search after it.
    def no_candidates(*args):
        assert len(args) < 2, "a candidate was built over budget"
        return Fraction(*args)

    argv = ["find-spectrum", "--set", data("set_012.json"), "--qmax", "3", "--span"]
    monkeypatch.setattr(spectral, "SEARCH_WORK_BUDGET", 6)  # qmax 3, span 1
    monkeypatch.setattr(spectral, "Fraction", no_candidates)
    code, result = run(argv + ["7/6"])  # ceil(7/6 * 6) = 7
    assert code == 1
    assert (result["status"], result["reason"]) == ("too_large", "too_large")
    monkeypatch.undo()
    # The hit costs 6 for the candidates 1/2, 1/3, 2/3, then 3 pair tests
    # against 0 with 3 each for the zero tests of orders 2 and 3, and 1
    # pair test against 1/3.
    monkeypatch.setattr(spectral, "SEARCH_WORK_BUDGET", 16)
    assert run(argv + ["1"]) == run(CASES["find_spectrum_hit"])
    monkeypatch.setattr(spectral, "SEARCH_WORK_BUDGET", 15)
    assert run(argv + ["1"])[1]["reason"] == "too_large"
    monkeypatch.undo()
    # A small budget stops a search partway: the 780 candidates pass it,
    # the pair tests do not.
    tests = []
    column_test = spectral._column_sum_is_zero

    def counted(*args):
        tests.append(args)
        return column_test(*args)

    monkeypatch.setattr(spectral, "_column_sum_is_zero", counted)
    monkeypatch.setattr(spectral, "SEARCH_WORK_BUDGET", 2000)
    deep = ["find-spectrum", "--set", data("set_023568.json"), "--qmax", "12", "--span", "10"]
    code, result = run(deep)
    assert (code, result["reason"]) == (1, "too_large")
    assert tests
    monkeypatch.undo()
    assert run(deep)[1]["status"] == "not_found"
    code, result = run(argv[:-3] + ["--qmax", "400", "--span", "10"])
    assert (code, result["reason"]) == (1, "too_large")
    # Preconditions are checked first.
    for qmax, span in [("-100000", "1"), ("400", "-10")]:
        code, result = run(argv[:-3] + ["--qmax", qmax, "--span", span])
        assert (code, result["reason"]) == (1, "invalid_input")


def _uniform_measure(tmp_path, n):
    """File for the uniform measure on {k/n : 0 <= k < n}."""
    path = tmp_path / f"mu{n}.json"
    path.write_text(json.dumps({"points": [f"{k}/{n}" for k in range(n)], "weights": [1 / n] * n}))
    return str(path)


def _integer_set(tmp_path, n):
    """File for the set {0, ..., n - 1}."""
    path = tmp_path / f"set{n}.json"
    path.write_text(json.dumps([str(k) for k in range(n)]))
    return str(path)


def _line_pair(tmp_path, n, q):
    """Files for A = {0, ..., n - 1} and B = {k/q : 0 <= k < n}."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps([str(k) for k in range(n)]))
    b.write_text(json.dumps([f"{k}/{q}" for k in range(n)]))
    return ["check-pair", "--set-a", str(a), "--set-b", str(b)]


SECONDS_CASES = {
    # 80 viable candidates for 5 places: C(80, 5) = 2.4e7 candidate sets
    # for a search that tries every combination.
    "find_spectrum_not_found": (
        lambda tmp: [
            "find-spectrum", "--set", data("set_023568.json"), "--qmax", "12", "--span", "10",
        ],
        0, {"status": "not_found"},
    ),
    # One candidate counted: the q below 1/span, which give none, are
    # never visited (about 29 s if each were).
    "find_spectrum_tiny_span": (
        lambda tmp: [
            "find-spectrum", "--set", data("set_012.json"),
            "--qmax", "10000000", "--span", "1/1000000000000000000",
        ],
        0, {"status": "not_found"},
    ),
    # The closure grows about quadratically with --budget.
    "arrow_close_too_large": (
        lambda tmp: [
            "arrow-close", "--set", data("set_012.json"), "--moves", "1", "--budget", "310000",
        ],
        1, {"reason": "too_large"},
    ),
    # 79,800 columns of 400 points each.
    "check_pair_too_large": (lambda tmp: _line_pair(tmp, 400, 400), 1, {"reason": "too_large"}),
    # The first column, 1/401, does not vanish.
    "check_pair_false": (lambda tmp: _line_pair(tmp, 400, 401), 0, {"spectral_pair": False}),
    # A witness of 10^9 points.
    "decide_line_set_too_large": (
        lambda tmp: ["decide-line-set", "--n", "1000000001", "--a", "1000000000"],
        1, {"reason": "too_large"},
    ),
    # A 3000 x 3000 unitarity check: about 20 s without a count.
    "rep_roundtrip_too_large": (
        lambda tmp: [
            "rep-roundtrip", "--measure", _uniform_measure(tmp, 3000),
            "--spectrum", _integer_set(tmp, 3000),
        ],
        1, {"reason": "too_large"},
    ),
    # A 4000 x 4000 frame operator: 14-15 s without a count.
    "frame_bounds_too_large": (
        lambda tmp: [
            "frame-bounds", "--measure", _uniform_measure(tmp, 4000),
            "--lambda", _integer_set(tmp, 1),
        ],
        1, {"reason": "too_large"},
    ),
    "perm_rep_too_large": (
        lambda tmp: ["perm-rep", "--n", "20000", "--p", "19999", "--q", "1"],
        1, {"reason": "too_large"},
    ),
    "cantor_too_large": (
        lambda tmp: ["cantor", "--level", "20", "--check", "orthogonality"],
        1, {"reason": "too_large"},
    ),
    # Counts past Python's 4300-digit limit for printing an int in decimal.
    "perm_rep_huge_n": (
        lambda tmp: ["perm-rep", "--n", "9" * 2200, "--p", "9" * 2199 + "8", "--q", "1"],
        1, {"reason": "too_large"},
    ),
    "decide_line_set_huge_n": (
        lambda tmp: ["decide-line-set", "--n", "9" * 4300, "--a", "1"],
        1, {"reason": "too_large"},
    ),
    "find_spectrum_huge_qmax": (
        lambda tmp: [
            "find-spectrum", "--set", data("set_012.json"), "--qmax", "9" * 2200, "--span", "1",
        ],
        1, {"reason": "too_large"},
    ),
    "cantor_level_7142": (
        lambda tmp: ["cantor", "--level", "7142", "--check", "orthogonality"],
        1, {"reason": "too_large"},
    ),
    # 2^(level + 1) alone takes seconds and gigabytes to form.
    "cantor_huge_level": (
        lambda tmp: ["cantor", "--level", "1000000000", "--check", "orthogonality"],
        1, {"reason": "too_large"},
    ),
}


def _subcommands():
    (action,) = (
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return set(action.choices)


def test_seconds_cases_cover_every_subcommand(tmp_path):
    # A new subcommand needs a case here, over its work budget if it has one.
    assert {argv(tmp_path)[0] for argv, _, _ in SECONDS_CASES.values()} == _subcommands()


@pytest.mark.parametrize("name", sorted(SECONDS_CASES))
def test_cli_answers_within_seconds(name, tmp_path):
    argv, code, expected = SECONDS_CASES[name]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spectrapairs.cli", *argv(tmp_path)],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert (proc.returncode, proc.stderr) == (code, "")
    result = json.loads(proc.stdout)
    assert {key: result[key] for key in expected} == expected
    assert len(result.get("message", "")) <= 200


@pytest.fixture(scope="module")
def long_set_file(tmp_path_factory):
    """A set file of 2^20 - 1 points: about 7 s to parse in full."""
    path = tmp_path_factory.mktemp("long") / "long.json"
    path.write_text(json.dumps([f"{k}/7" for k in range(2**20 - 1)]))
    return str(path)


@pytest.mark.parametrize(
    "command, flag",
    [
        ("frame-bounds", "--lambda"),
        ("rep-roundtrip", "--spectrum"),
        ("check-pair", "--set-a"),
        ("check-pair", "--set-b"),
        ("find-spectrum", "--set"),
        ("arrow-close", "--set"),
    ],
)
def test_long_set_file_is_counted_before_it_is_parsed(command, flag, long_set_file, tmp_path):
    # With small other inputs the count is over the budget from the file's
    # array length alone.  Parsing every element first takes about 7 s,
    # so the 5 s timeout of the other CLI cases tells the two apart.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    others = {
        "frame-bounds": ["--measure", _uniform_measure(tmp_path, 1)],
        "rep-roundtrip": ["--measure", _uniform_measure(tmp_path, 1)],
        "check-pair": ["--set-b" if flag == "--set-a" else "--set-a", data("set_012.json")],
        "find-spectrum": ["--qmax", "2", "--span", "1"],
        "arrow-close": ["--moves", "1"],
    }
    argv = [command, *others[command], flag, long_set_file]
    proc = subprocess.run(
        [sys.executable, "-m", "spectrapairs.cli", *argv],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["reason"] == "too_large"


def test_perm_rep_over_work_budget_is_too_large(monkeypatch):
    # The n x n matrix is counted before it is built.
    def unreachable(n, p, q):
        raise AssertionError("permutation_representation called over budget")

    monkeypatch.setattr(cli, "WORK_BUDGET", 15)
    monkeypatch.setattr(representation, "permutation_representation", unreachable)
    code, result = run(["perm-rep", "--n", "4", "--p", "3", "--q", "1"])  # 16 entries
    assert code == 1
    assert (result["status"], result["reason"]) == ("too_large", "too_large")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "WORK_BUDGET", 16)
    assert run(["perm-rep", "--n", "4", "--p", "3", "--q", "1"])[0] == 0
    monkeypatch.undo()
    code, result = run(["perm-rep", "--n", "20000", "--p", "19999", "--q", "1"])
    assert (code, result["reason"]) == (1, "too_large")
    # Preconditions are checked first.
    code, result = run(["perm-rep", "--n", "20000", "--p", "2", "--q", "1"])
    assert (code, result["reason"]) == (1, "invalid_input")


def test_cantor_over_work_budget_is_too_large(monkeypatch):
    # The budget is checked from --level and --grid before the spectrum is
    # built; a small declared budget stands in for --level 20.
    def unreachable(level):
        raise AssertionError("jp_spectrum called over budget")

    monkeypatch.setattr(cli, "WORK_BUDGET", 100)
    monkeypatch.setattr(measures, "jp_spectrum", unreachable)
    for argv in (
        ["cantor", "--level", "3", "--check", "orthogonality"],  # 16^2 Gram entries
        ["cantor", "--level", "3", "--check", "completeness", "--grid", "7"],  # 7 * 16
    ):
        code, result = run(argv)
        assert code == 1
        assert (result["status"], result["reason"]) == ("too_large", "too_large")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "WORK_BUDGET", 100)
    assert run(["cantor", "--level", "2", "--check", "orthogonality"])[0] == 0  # 64
    assert run(["cantor", "--level", "3", "--check", "completeness", "--grid", "6"])[0] == 0  # 96


def _cli_message(argv):
    code, result = run(argv)
    assert (code, result["reason"]) == (1, "too_large")
    raise TooLargeError(result["message"])


def _three_point_session():
    moves = [Fraction(m) for m in (1, -1, 2, -2)]
    return arrows.new_session(FiniteRationalSet([0, 1, 2]), moves, round_budget=3)


_THREE, _THIRDS = FiniteRationalSet([0, 1, 2]), FiniteRationalSet(["0", "1/3", "2/3"])

# Each budgeted entry point over a small budget: (module, budget name,
# budget, a setup that returns the call to make over it, the count at
# which the call stops).
OVER_BUDGET = {
    # The second column: 2 x |A|.
    "certify": (
        spectral, "CERTIFY_WORK_BUDGET", 5,
        lambda: partial(spectral.certify_spectral_pair, _THREE, _THIRDS), 6,
    ),
    # The candidate count ceil(7/6 * 3 * 4 / 2), before any is built.
    "search_candidates": (
        spectral, "SEARCH_WORK_BUDGET", 6,
        lambda: partial(spectral.search_spectrum, _THREE, 3, Fraction(7, 6)), 7,
    ),
    # 6 candidates, 3 pair tests against 0, then the first zero test.
    "search_running": (
        spectral, "SEARCH_WORK_BUDGET", 10,
        lambda: partial(spectral.search_spectrum, _THREE, 3, 1), 12,
    ),
    # 3^2 base facts at 1 + 3 units each.
    "new_session": (
        arrows, "CLOSE_WORK_BUDGET", 35,
        lambda: partial(arrows.new_session, [0, 1, 2], [1]), 36,
    ),
    # The first pass of the allowed sums: 5 sums by the 5 of the base.
    "close_allowed_sums": (
        arrows, "CLOSE_WORK_BUDGET", 24,
        lambda: partial(arrows.close, _three_point_session()), 25,
    ),
    # The allowed sums fit exactly; the first round's 5 moves of trivial
    # facts add 5 x 3^2.
    "close_rounds": (
        arrows, "CLOSE_WORK_BUDGET", 65,
        lambda: partial(arrows.close, _three_point_session()), 110,
    ),
    # The 4 x 4 eigenvector matrix, counted before it is built.
    "cli_perm_rep": (
        cli, "WORK_BUDGET", 15,
        lambda: partial(_cli_message, ["perm-rep", "--n", "4", "--p", "3", "--q", "1"]),
        16,
    ),
}


@pytest.mark.parametrize("name", sorted(OVER_BUDGET))
def test_every_budget_names_its_count_and_budget(name, monkeypatch):
    module, budget_name, budget, setup, count = OVER_BUDGET[name]
    call = setup()
    monkeypatch.setattr(module, budget_name, budget)
    with pytest.raises(TooLargeError) as info:
        call()
    message = str(info.value)
    assert message.endswith(
        f" needs at least {count} units of work, over its budget of {budget}"
    ), message
    assert len(message) <= 200


def test_check_work_shows_a_huge_count_as_a_power_of_two():
    assert check_work("x", 5, 5) == 5
    for work, shown in [(2**64 - 1, str(2**64 - 1)), (2**64, "2^64"), (2**14300 + 1, "2^14300")]:
        with pytest.raises(TooLargeError) as info:
            check_work("x", work, 5)
        assert str(info.value) == f"x needs at least {shown} units of work, over its budget of 5"


def test_size_bounded_commands_count_before_computing(monkeypatch):
    # decide-line-set: 2 n; rep-roundtrip: dim (dim + |S|) + |S|^2;
    # frame-bounds: 2 |mu| (|mu| + |Lambda|).  The goldens count 6, 12, 16
    # and 20 units.
    def unreachable(*args):
        raise AssertionError("computed over budget")

    budgets = {
        "decide_spectral": 6,
        "decide_congruence_fails": 6,
        "rep_roundtrip": 12,
        "frame_bounds_tight": 16,
        "frame_bounds_redundant": 20,
    }
    for name, work in budgets.items():
        expected = run(CASES[name])
        monkeypatch.setattr(cli, "WORK_BUDGET", work)
        assert run(CASES[name]) == expected
        monkeypatch.setattr(cli, "WORK_BUDGET", work - 1)
        monkeypatch.setattr(cli, "decide_line_set", unreachable)
        monkeypatch.setattr(representation, "multiplication_representation", unreachable)
        monkeypatch.setattr(measures, "frame_bounds", unreachable)
        # The count comes before the decision, so a not_spectral answer
        # over the budget is too_large too.
        code, result = run(CASES[name])
        assert code == 1
        assert (result["status"], result["reason"]) == ("too_large", "too_large")
        monkeypatch.undo()


def test_cantor_grid_below_one_is_invalid_input():
    code, result = run(["cantor", "--level", "1", "--check", "completeness", "--grid", "0"])
    assert code == 1
    assert result["reason"] == "invalid_input"

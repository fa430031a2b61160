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
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest

import spectrapairs
from spectrapairs import arrows, cli, errors, exact, measures, representation, serialize, spectral
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
_SET_FORMAT = "set file must be a JSON array of fraction strings"

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
    # Valid JSON of the wrong top-level type.
    "set_file_object": lambda tmp: [
        "find-spectrum", "--set", _file(tmp, '{"a": 1}'), "--qmax", "3", "--span", "1",
    ],
    "measure_file_array": lambda tmp: [
        "frame-bounds", "--lambda", data("lambda_01.json"), "--measure", _file(tmp, "[1, 2]"),
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

# The message of each malformed case whose message is fixed.
MALFORMED_MESSAGES = {
    "scale_digits_measure": _MEASURE_FORMAT,
    "set_file_object": _SET_FORMAT,
    "measure_file_array": _MEASURE_FORMAT,
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
    if name in MALFORMED_MESSAGES:
        assert result["message"] == MALFORMED_MESSAGES[name]


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


@pytest.mark.parametrize(
    "check, extra, header, rows",
    [("completeness", ["--grid", "3"], "t\tq", 3), ("orthogonality", [], "i\tj\tre\tim", 4)],
    ids=["completeness", "orthogonality"],
)
def test_tsv_goes_to_stderr(check, extra, header, rows):
    proc = subprocess.run(
        [
            sys.executable, "-m", "spectrapairs.cli",
            "cantor", "--level", "0", "--check", check, *extra, "--eps", "1e-8", "--tsv",
        ],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)  # stdout stays pure JSON
    lines = proc.stderr.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows


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


def _env(**variables):
    """The environment for a CLI child: the package from src, no BLAS
    thread count of the caller's, then ``variables``."""
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(variables)
    return env


def test_refusals_of_numpy_commands_do_not_import_numpy(tmp_path):
    # Each is refused from its arguments or its files' arrays alone, so it
    # need not pay for loading numpy.
    long_element = _file(tmp_path, json.dumps(["1" * 140000]))
    measure, spectrum = data("measure_half.json"), data("lambda_01.json")
    refusals = [
        ["cantor", "--level", "30", "--check", "orthogonality"],
        ["cantor", "--level", "30", "--check", "completeness"],
        ["cantor", "--level", "-1", "--check", "orthogonality"],
        ["cantor", "--level", "1", "--check", "completeness", "--grid", "0"],
        ["cantor", "--level", "1", "--check", "orthogonality", "--eps", "nan"],
        ["rep-roundtrip", "--measure", "/nonexistent.json", "--spectrum", spectrum],
        ["rep-roundtrip", "--measure", spectrum, "--spectrum", spectrum],
        ["rep-roundtrip", "--measure", measure, "--spectrum", long_element],
        ["frame-bounds", "--measure", "/nonexistent.json", "--lambda", spectrum],
        ["frame-bounds", "--measure", measure, "--lambda", long_element],
    ]
    script = """
import json, sys
from spectrapairs.cli import run
for argv in json.loads(sys.argv[1]):
    code, result = run(argv)
    assert code == 1, (argv, result)
    assert "numpy" not in sys.modules, " ".join(argv) + " imported numpy"
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(refusals)],
        capture_output=True, text=True, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr


# Runs main() on a numpy command, then prints the process's threads and
# its BLAS variables.
_THREADS_SCRIPT = """
import json, os, sys
before = dict(os.environ)
import spectrapairs.cli as cli
assert cli.run(["decide-line-set", "--n", "3", "--a", "2/1"])[0] == 0
assert dict(os.environ) == before, "import or run changed the environment"
if sys.argv[1] == "numpy first":
    import numpy
cli.main(["frame-bounds", "--measure", sys.argv[2], "--lambda", sys.argv[3]])
names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
print(json.dumps([len(os.listdir("/proc/self/task"))] + [os.environ.get(n) for n in names]))
"""


def _threads(env, order="cli first"):
    proc = subprocess.run(
        [
            sys.executable, "-c", _THREADS_SCRIPT, order,
            data("measure_half.json"), data("lambda_01.json"),
        ],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _numpy_threads(env):
    """The threads of a process that only imports numpy, under env."""
    script = "import os, numpy; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


linux_only = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)


@linux_only
def test_main_runs_blas_on_one_thread_unless_the_caller_chose():
    # Loading numpy starts one BLAS thread per core; main() holds it to
    # one.  On a 1-core machine the count is 1 either way.
    assert _threads(_env()) == [1, "1", None]
    # OPENBLAS_NUM_THREADS comes before OMP_NUM_THREADS in OpenBLAS, so a
    # caller's value of either one wins.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        env = _env(**{variable: "2"})
        threads, omp, openblas = _threads(env)
        assert threads == _numpy_threads(env), variable
        assert {"OMP_NUM_THREADS": omp, "OPENBLAS_NUM_THREADS": openblas}[variable] == "2"
    # A numpy that is already loaded keeps its pool.
    env = _env()
    assert _threads(env, "numpy first") == [_numpy_threads(env), None, None]


@pytest.mark.parametrize(
    "command, flag", [("frame-bounds", "--lambda"), ("rep-roundtrip", "--spectrum")]
)
def test_report_does_not_depend_on_the_core_count(command, flag, tmp_path):
    # From 129 points on, OpenBLAS splits these products over its threads,
    # and a second thread changed the last bits of both reports.  The CLI
    # runs one thread unless told otherwise, so its stdout is that of
    # OMP_NUM_THREADS=1.  On a 1-core machine the two runs agree anyway.
    argv = [
        sys.executable, "-m", "spectrapairs.cli", command,
        "--measure", _uniform_measure(tmp_path, 129), flag, _integer_set(tmp_path, 129),
    ]
    runs = [
        subprocess.run(argv, capture_output=True, text=True, env=env)
        for env in (_env(), _env(OMP_NUM_THREADS="1"))
    ]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, ""), (0, "")]
    assert runs[0].stdout == runs[1].stdout


# One case per subcommand, and the layer it must leave unloaded.
LAYER_CASES = {
    "decide_spectral": "spectrapairs.arrows",
    "check_pair_true": "spectrapairs.arrows",
    "find_spectrum_hit": "spectrapairs.arrows",
    "arrow_close": "spectrapairs.spectral",
    "rep_roundtrip": "spectrapairs.spectral",
    "perm_rep": None,
    "cantor_orthogonality": None,
    "frame_bounds_tight": None,
}


def test_layer_cases_cover_every_subcommand():
    assert {CASES[name][0] for name in LAYER_CASES} == _subcommands()


@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_each_subcommand_loads_only_its_own_layer(name):
    # A fresh interpreter per subcommand.  The dataclasses check compares
    # with the modules loaded before the import, since a site setup may
    # load it first.
    script = """
import sys
before = set(sys.modules)
import spectrapairs.cli as cli
assert "spectrapairs.exact" in sys.modules, "cli does not load exact"
code, _ = cli.run(sys.argv[2:])
assert code == 0, code
unloaded = sys.argv[1]
assert not unloaded or unloaded not in sys.modules, unloaded + " was imported"
assert "dataclasses" in before or "dataclasses" not in sys.modules, "dataclasses was imported"
"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, LAYER_CASES[name] or "", *CASES[name]],
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


def _distinct_denominators(n, digits=3900):
    """{k / q_k : k < n} with q_k = 10^(digits - 1) + 2k + 1: with 3900
    digits, parsing its grid takes about 5.5 s at n = 100 and over 20 s at
    n = 200."""
    base = 10 ** (digits - 1)
    return [f"{k}/{base + 2 * k + 1}" for k in range(n)]


def _pair_with_integers(tmp_path, items):
    """Files for A = items and B = {0, ..., len(items) - 1}."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(items))
    b.write_text(json.dumps([str(k) for k in range(len(items))]))
    return ["check-pair", "--set-a", str(a), "--set-b", str(b)]


def _long_denominator_measure(tmp_path, n):
    """File for the uniform measure on ``_distinct_denominators(n)``."""
    path = tmp_path / f"long{n}.json"
    path.write_text(json.dumps({"points": _distinct_denominators(n), "weights": [1 / n] * n}))
    return str(path)


def _line_pair(tmp_path, n, q):
    """Files for A = {0, ..., n - 1} and B = {k/q : 0 <= k < n}."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps([str(k) for k in range(n)]))
    b.write_text(json.dumps([f"{k}/{q}" for k in range(n)]))
    return ["check-pair", "--set-a", str(a), "--set-b", str(b)]


def _prime_moves(count):
    """``--moves`` 1/p over the first ``count`` of the 30,000 primes below
    350,378, found by a sieve."""
    primes = sorted(
        set(range(2, 350378)) - {m for q in range(2, 592) for m in range(q * q, 350378, q)}
    )
    return ",".join(f"1/{p}" for p in primes[:count])


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
    # Grids of 100 and 200 points with 3900-digit denominators: about 5.9 s
    # and 24 s to build when only the elements were counted.  From here to
    # frame_bounds_long_denominators the grid's own count stops each one.
    "check_pair_long_denominators_100": (
        lambda tmp: _pair_with_integers(tmp, _distinct_denominators(100)),
        1, {"reason": "too_large"},
    ),
    "check_pair_long_denominators_200": (
        lambda tmp: _pair_with_integers(tmp, _distinct_denominators(200)),
        1, {"reason": "too_large"},
    ),
    # Distinct 20-digit denominators: charged 897,939 units when only the
    # elements' characters past 18 were counted, and about 19 s to build.
    "check_pair_distinct_20_digit_denominators": (
        lambda tmp: _pair_with_integers(tmp, _distinct_denominators(16000, 20)),
        1, {"reason": "too_large"},
    ),
    # Elements of at most 18 characters, 2000 distinct 12-digit
    # denominators and 20,000 more points over one: 2.3 s and 180 MB for
    # their 22,000 numerators of up to 24,000 digits each.
    "check_pair_many_numerators_over_a_long_lcm": (
        lambda tmp: _pair_with_integers(
            tmp,
            _distinct_denominators(2001, 12)[1:] + [f"{k}/{10**11 - 1}" for k in range(1, 20001)],
        ),
        1, {"reason": "too_large"},
    ),
    "frame_bounds_long_denominators": (
        lambda tmp: [
            "frame-bounds", "--measure", _long_denominator_measure(tmp, 100),
            "--lambda", _integer_set(tmp, 1),
        ],
        1, {"reason": "too_large"},
    ),
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
    # n does not divide p + q = 3, so no witness is built or counted.
    "decide_line_set_huge_n": (
        lambda tmp: ["decide-line-set", "--n", "9" * 4300, "--a", "1/2"],
        0, {"verdict": "not_spectral", "reason": "congruence_fails"},
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
    # The largest level-0 sweep within the count, 15,887 * (2 + 64) units:
    # 1.6-1.9 s, against 7.5 s for grid 100,000 when each Q(t) was charged
    # 2 units.
    "cantor_completeness_level_0_edge": (
        lambda tmp: ["cantor", "--level", "0", "--check", "completeness", "--grid", "15887"],
        0, {"status": "ok", "grid": 15887},
    ),
    # 15,779 moves 1/p, p prime, which fill the 128 KB limit on one argv
    # string: the session's grid counts its lcm and refuses them (5.3 s
    # when the session took the lcm uncounted).
    "arrow_close_many_prime_denominators": (
        lambda tmp: [
            "arrow-close", "--set", data("set_012.json"),
            "--moves", _prime_moves(15779), "--budget", "1",
        ],
        1, {"reason": "too_large"},
    ),
    # An infinite error bound certifies depth 0: every transform is 1.
    "cantor_infinite_eps": (
        lambda tmp: ["cantor", "--level", "1", "--check", "orthogonality", "--eps", "inf"],
        0, {"status": "ok", "max_offdiag": 1.0},
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


# Library calls that ran for seconds to minutes while only the CLI counted
# their work, or while a numpy integer wrapped a count around in int64:
# each must raise TooLargeError, or answer where LIBRARY_ANSWERS says so,
# in a fresh process within 5 s.
LIBRARY_SECONDS_CASES = {
    # 2000 distinct 12-digit denominators and 250,000 points over one
    # more: past 120 s for their numerators of up to 24,000 digits.
    "set_many_numerators_over_a_long_lcm": (
        "FiniteRationalSet([Fraction(k, 10**11 + 2 * k + 1) for k in range(1, 2001)]"
        " + [Fraction(k, 10**11 - 1) for k in range(1, 250001)])"
    ),
    # 3200 distinct 60-digit denominators: 50 s to certify.
    "certify_distinct_60_digit_denominators": (
        "certify_spectral_pair(FiniteRationalSet(Fraction(k, 10**59 + 2 * k + 1)"
        " for k in range(3200)), FiniteRationalSet(range(3200)))"
    ),
    # A cheap grid over one 4000-digit denominator, but 43 s to certify
    # when each column cost |A| whatever the size of its order.
    "certify_4000_digit_order": (
        "certify_spectral_pair(FiniteRationalSet(Fraction(k, 2000) + Fraction(1, 10**3999 + 1)"
        " for k in range(2000)), FiniteRationalSet(range(2000)))"
    ),
    # A 4000 x 4000 frame operator: about 9 s uncounted.
    "frame_bounds_4000_points": (
        "frame_bounds(AtomicMeasure.uniform(Fraction(k, 4000) for k in range(4000)), [0])"
    ),
    # A 4300 x 4300 unitarity check: about 8 s and 880 MB uncounted.
    "multiplication_representation_4300_points": (
        "multiplication_representation(AtomicMeasure.uniform(Fraction(k, 4300) for k in range(4300)))"
    ),
    # A representation built directly, then a 2500 x 2500 Gram matrix and
    # its singular values: about 7 s uncounted.  Now refused by the
    # representation's own count, before is_wandering runs.
    "is_wandering_2500_points": (
        "is_wandering(FiniteRep([Fraction(k, 2500) for k in range(2500)], numpy.eye(2500),"
        " numpy.full(2500, 0.02)), FiniteRationalSet(range(2500)))"
    ),
    # A 3000 x 3000 unitarity check of a representation built directly:
    # about 1.8 s uncounted.
    "finite_rep_3000_points": (
        "FiniteRep([Fraction(k, 3000) for k in range(3000)], numpy.eye(3000),"
        " numpy.full(3000, 3000 ** -0.5))"
    ),
    # The 4300 x 4300 DFT matrix and its unitarity check: about 6 s and
    # 890 MB uncounted.
    "permutation_representation_4300": "permutation_representation(4300, 4299, 1)",
    # A witness of 2,000,001 points: about 8 s uncounted.
    "construct_line_spectrum_2000001": "construct_line_spectrum(2000001, 2000000, 1)",
    # A 3000 x 3000 Gram matrix: about 1.1 s and 520 MB uncounted, and its
    # memory grows as |Lambda|^2.
    "gram_matrix_3000_points": "gram_matrix(cantor4_measure(), range(3000))",
    # 1000 frequencies are within the Gram count, but 5000 atoms at each
    # of 999 distinct differences are not: about 0.3 s and 270 MB uncounted.
    "gram_matrix_5000_atoms": (
        "gram_matrix(AtomicMeasure.uniform(Fraction(k, 5000) for k in range(5000)), range(1000))"
    ),
    # 5000 atoms at each of 1000 frequencies: about 0.3 s and 220 MB
    # uncounted.
    "completeness_defect_5000_atoms": (
        "completeness_defect(AtomicMeasure.uniform(Fraction(k, 5000) for k in range(5000)),"
        " range(1000), Fraction(1, 3))"
    ),
    # An np.int64 span: Fraction(span) kept it, and the candidate count
    # wrapped around to a negative number under the budget.
    "search_spectrum_numpy_span": (
        "search_spectrum(FiniteRationalSet([0, 1, 2]), 10, numpy.int64(2**63 // 110 + 1000))"
    ),
    # An np.int64 q_max: q_max * (q_max + 1) wrapped around the same way.
    "search_spectrum_numpy_q_max": (
        "search_spectrum(FiniteRationalSet([0, 1, 2]), numpy.int64(3037000500), 1)"
    ),
    # An np.int64 scale: its powers wrapped around in int64 and never
    # reached the 2^1000 that ends the float table.
    "ifs_transform_numpy_scale": "ifs_transform(IFSMeasure(numpy.int64(4), (0, 2)), 1, 1e-10)",
    # 30,000 moves 1/p, p prime: 22.5 s when the session took their lcm
    # uncounted, quadratic in their number.  The move count now refuses
    # them before the grid is built.
    "new_session_30000_prime_denominators": (
        "new_session([0, 1, 2], [Fraction(1, p) for p in sorted(set(range(2, 350378))"
        " - {m for q in range(2, 592) for m in range(q * q, 350378, q)})])"
    ),
    # 200,000 integer moves: a grid charged nothing per numerator below
    # 2^64, then 1 s and 90 MB to build a session that the first close
    # refused.  Coercing the moves still takes about 0.7 s and 36 MB.
    "new_session_200000_moves": "new_session([0, 1], range(1, 200001))",
}

# The cases that answer, and what they print.
LIBRARY_ANSWERS = {"ifs_transform_numpy_scale": "IFSTransformValue(value=0j, depth=1)"}


@pytest.mark.parametrize("name", sorted(LIBRARY_SECONDS_CASES))
def test_library_refuses_within_seconds(name):
    script = (
        "from fractions import Fraction\n"
        "import numpy\n"
        "from spectrapairs.arrows import new_session\n"
        "from spectrapairs.errors import TooLargeError\n"
        "from spectrapairs.measures import AtomicMeasure, IFSMeasure, cantor4_measure,"
        " completeness_defect, frame_bounds, gram_matrix, ifs_transform\n"
        "from spectrapairs.representation import FiniteRep, is_wandering,"
        " multiplication_representation, permutation_representation\n"
        "from spectrapairs.sets import FiniteRationalSet\n"
        "from spectrapairs.spectral import certify_spectral_pair, construct_line_spectrum,"
        " search_spectrum\n"
        "try:\n"
        f"    print({LIBRARY_SECONDS_CASES[name]})\n"
        "except TooLargeError as exc:\n"
        "    print(exc.reason)\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=5
    )
    expected = LIBRARY_ANSWERS.get(name, "too_large")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", expected + "\n")


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


@pytest.mark.parametrize(
    "command, flag", [("frame-bounds", "--lambda"), ("rep-roundtrip", "--spectrum")]
)
def test_support_over_a_denominator_past_the_float_range(command, flag, tmp_path):
    # Every phase modulus of the support {0, 1/10^400} is 10^400 or more,
    # past the float range: both commands once ended in a traceback.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps({"points": ["0", f"1/{10**400}"], "weights": [0.5, 0.5]}))
    spectrum = tmp_path / "spectrum.json"
    spectrum.write_text(json.dumps(["0", "1", "5/2"]))
    proc = subprocess.run(
        [sys.executable, "-m", "spectrapairs.cli", command, "--measure", str(measure), flag, str(spectrum)],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["status"] == "ok"


def test_perm_rep_over_work_budget_is_too_large(monkeypatch):
    # The n^2 entries of the eigenvector matrix are counted before its
    # phases are formed, so over the budget no n x n array is built.
    def unreachable(*args):
        raise AssertionError("an n x n array was built over budget")

    argv = ["perm-rep", "--n", "4", "--p", "3", "--q", "1"]  # 16 entries
    monkeypatch.setattr(errors, "WORK_BUDGET", 16)
    assert run(argv)[0] == 0
    monkeypatch.setattr(errors, "WORK_BUDGET", 15)
    monkeypatch.setattr(representation, "_unit_roots", unreachable)
    code, result = run(argv)
    assert code == 1
    assert (result["status"], result["reason"]) == ("too_large", "too_large")
    monkeypatch.undo()
    # An n x n array at n = 20000 takes 3.2 GB or more; the refusal takes
    # under 1 MB.
    tracemalloc.start()
    try:
        code, result = run(["perm-rep", "--n", "20000", "--p", "19999", "--q", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, result["reason"]) == (1, "too_large")
    assert peak < 2**20
    # Preconditions are checked first.
    code, result = run(["perm-rep", "--n", "20000", "--p", "2", "--q", "1"])
    assert (code, result["reason"]) == (1, "invalid_input")


def test_cantor_over_work_budget_is_too_large(monkeypatch):
    # The budget is checked from --level and --grid before the spectrum is
    # built; a small declared budget stands in for --level 20.
    def unreachable(level):
        raise AssertionError("jp_spectrum called over budget")

    monkeypatch.setattr(errors, "WORK_BUDGET", 100)
    monkeypatch.setattr(measures, "jp_spectrum", unreachable)
    for argv in (
        ["cantor", "--level", "3", "--check", "orthogonality"],  # 16^2 Gram entries
        ["cantor", "--level", "3", "--check", "completeness", "--grid", "2"],  # 2 * (16 + 64)
    ):
        code, result = run(argv)
        assert code == 1
        assert (result["status"], result["reason"]) == ("too_large", "too_large")
    monkeypatch.undo()
    monkeypatch.setattr(errors, "WORK_BUDGET", 100)
    assert run(["cantor", "--level", "2", "--check", "orthogonality"])[0] == 0  # 64
    assert run(["cantor", "--level", "3", "--check", "completeness", "--grid", "1"])[0] == 0  # 80


def _cli_message(argv):
    code, result = run(argv)
    assert (code, result["reason"]) == (1, "too_large")
    raise TooLargeError(result["message"])


def _three_point_session():
    moves = [Fraction(m) for m in (1, -1, 2, -2)]
    return arrows.new_session(FiniteRationalSet([0, 1, 2]), moves, round_budget=3)


_THREE, _THIRDS = FiniteRationalSet([0, 1, 2]), FiniteRationalSet(["0", "1/3", "2/3"])
_LONG = FiniteRationalSet([0, Fraction(1, 2**192), Fraction(1, 2**191)])  # over 2^192
_UNIFORM_THREE = measures.AtomicMeasure.uniform(["0", "1/3", "2/3"])

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
    # The first column, at the 4 words of the order 2^192: 3 x 4.
    "certify_long_order": (
        spectral, "CERTIFY_WORK_BUDGET", 11,
        lambda: partial(spectral.certify_spectral_pair, _LONG, _THREE), 12,
    ),
    # 6 candidates, 3 pair tests, then a zero test at 4 words: 3 x 4.
    # Its three zero tests at one unit a point would total 18.
    "search_long_order": (
        spectral, "SEARCH_WORK_BUDGET", 20,
        lambda: partial(spectral.search_spectrum, _LONG, 3, 1), 21,
    ),
    # Four distinct one-word denominators, one unit each: the third step.
    "grid_steps": (
        exact, "GRID_WORK_BUDGET", 2,
        lambda: partial(exact.RationalPhases, [Fraction(1, q) for q in (2, 3, 5, 7)]), 3,
    ),
    # One step of 1 x 2 words to the lcm 2^64, then its second word for
    # each of the 3 numerators.
    "grid_numerators": (
        exact, "GRID_WORK_BUDGET", 4,
        lambda: partial(exact.RationalPhases, [Fraction(k, 2**64) for k in (1, 3, 5)]), 5,
    ),
    # The session's grid over the elements and moves: one unit for each of
    # the denominators 1, 2 and 3, which the third step passes.
    "session_grid": (
        exact, "GRID_WORK_BUDGET", 2,
        lambda: partial(arrows.new_session, [0, 1, 2], [Fraction(1, 2), Fraction(1, 3)]), 3,
    ),
    # 3^2 base facts at 1 + 3 units each.
    "new_session": (
        arrows, "CLOSE_WORK_BUDGET", 35,
        lambda: partial(arrows.new_session, [0, 1, 2], [1]), 36,
    ),
    # The moves and 0, 5 distinct, squared: the first pass of the allowed
    # sums, charged before the session's grid.  The seed count is 2^2 x 3.
    "new_session_moves": (
        arrows, "CLOSE_WORK_BUDGET", 24,
        lambda: partial(arrows.new_session, [0, 1], [1, 2, 3, Fraction(4), 4]), 25,
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
        errors, "WORK_BUDGET", 15,
        lambda: partial(_cli_message, ["perm-rep", "--n", "4", "--p", "3", "--q", "1"]),
        16,
    ),
    "permutation_representation": (
        errors, "WORK_BUDGET", 15,
        lambda: partial(representation.permutation_representation, 4, 3, 1), 16,
    ),
    # 2 |mu| (|mu| + |Lambda|) for 3 points and 2 frequencies.
    "frame_bounds": (
        errors, "WORK_BUDGET", 29,
        lambda: partial(measures.frame_bounds, _UNIFORM_THREE, [0, 1]), 30,
    ),
    # dim^2.
    "multiplication_representation": (
        errors, "WORK_BUDGET", 8,
        lambda: partial(representation.multiplication_representation, _UNIFORM_THREE), 9,
    ),
    # dim |S| + |S|^2 for dim 3 and |S| 2.
    "is_wandering": (
        errors, "WORK_BUDGET", 9,
        lambda: partial(
            representation.is_wandering,
            representation.multiplication_representation(_UNIFORM_THREE),
            FiniteRationalSet([0, 1]),
        ),
        10,
    ),
    # 2 n for the witness of {0, 1, 2, 3, 3/2}.
    "construct_line_spectrum": (
        errors, "WORK_BUDGET", 9,
        lambda: partial(spectral.construct_line_spectrum, 5, 3, 2), 10,
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
    # The least budget at which each golden answers.  decide-line-set
    # counts 2 n for the witness it builds and nothing for a
    # not_spectral answer; rep-roundtrip counts 2 units per element of its
    # files, then dim^2 and dim |S| + |S|^2; frame-bounds counts
    # 2 |mu| (|mu| + |Lambda|), over the 2 units per element of its files.
    def unreachable(*args):
        raise AssertionError("computed over budget")

    budgets = {
        "decide_spectral": 6,
        "decide_congruence_fails": 0,
        "rep_roundtrip": 8,
        "frame_bounds_tight": 16,
        "frame_bounds_redundant": 20,
    }
    for name, work in budgets.items():
        monkeypatch.undo()
        expected = run(CASES[name])
        monkeypatch.setattr(errors, "WORK_BUDGET", work)
        assert run(CASES[name]) == expected
        if not work:
            continue
        monkeypatch.setattr(errors, "WORK_BUDGET", work - 1)
        monkeypatch.setattr(spectral, "FiniteRationalSet", unreachable)
        monkeypatch.setattr(representation, "FiniteRep", unreachable)
        monkeypatch.setattr(representation, "_unit_roots", unreachable)
        monkeypatch.setattr(measures, "_unit_roots", unreachable)
        code, result = run(CASES[name])
        assert code == 1
        assert (result["status"], result["reason"]) == ("too_large", "too_large")


@pytest.mark.parametrize("command", ["check-pair", "frame-bounds"])
def test_set_files_are_charged_for_parsing_long_elements(command, monkeypatch, tmp_path):
    # S' counts each element's characters past 18: "1/" or "2/" and 28
    # threes have 30, so S' = 24, at one unit per character squared.  The
    # grid is counted in the library (OVER_BUDGET's grid entries).
    points = ["1/" + "3" * 28, "2/" + "3" * 28]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    if command == "check-pair":
        a.write_text(json.dumps(points))
        b.write_text(json.dumps(["0", "1"]))
        argv = ["check-pair", "--set-a", str(a), "--set-b", str(b)]
        work = 2 * (2 + 2) + 24**2
    else:
        b.write_text(json.dumps(["0"]))
        a.write_text(json.dumps({"points": points, "weights": [1 / 2] * 2}))
        argv = ["frame-bounds", "--measure", str(a), "--lambda", str(b)]
        work = 2 * (2 + 1) + 24**2
    monkeypatch.setattr(cli, "GRID_DIGITS_SQUARED_PER_UNIT", 1)
    monkeypatch.setattr(errors, "WORK_BUDGET", work)
    assert run(argv)[0] == 0
    monkeypatch.setattr(errors, "WORK_BUDGET", work - 1)
    code, result = run(argv)
    assert (code, result["reason"]) == (1, "too_large")
    assert result["message"].endswith(f" {work} units of work, over its budget of {work - 1}")


def test_input_files_are_read_up_to_a_bound(monkeypatch, tmp_path):
    # 16 bytes for each unit of the budget: 64 bytes at a budget of 4.  A
    # longer file, or pipe, is refused before any of it is parsed.
    monkeypatch.setattr(errors, "WORK_BUDGET", 4)
    text = json.dumps(["0"] * 12) + "    "
    path = tmp_path / "set.json"
    path.write_text(text)
    assert len(path.read_bytes()) == 64
    assert serialize.read_set(str(path)) == ["0"] * 12

    def unreachable(*args, **kwargs):
        raise AssertionError("parsed a file over the bound")

    monkeypatch.setattr(json, "load", unreachable)
    monkeypatch.setattr(json, "loads", unreachable)
    path.write_text(text + " ")
    code, result = run(["find-spectrum", "--set", str(path), "--qmax", "2", "--span", "1"])
    assert (code, result["reason"]) == (1, "too_large")
    assert result["message"] == (
        "reading an input file needs at least 65 units of work, over its budget of 64"
    )
    read, write = os.pipe()
    os.write(write, (text + " ").encode())
    os.close(write)
    try:
        with pytest.raises(TooLargeError, match="at least 65 units"):
            serialize.read_set(f"/dev/fd/{read}")
    finally:
        os.close(read)


def test_cantor_grid_below_one_is_invalid_input():
    code, result = run(["cantor", "--level", "1", "--check", "completeness", "--grid", "0"])
    assert code == 1
    assert result["reason"] == "invalid_input"

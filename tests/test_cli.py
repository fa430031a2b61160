"""CLI dispatch, exit codes, and golden-file schema checks.

The golden files pin the full JSON payload of every subcommand; repeated
runs must be byte-identical.
"""

import json
import os
import subprocess
import sys

import pytest

from spectrapairs import cli, measures
from spectrapairs.cli import run

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
    code, result = run(CASES[name])
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        expected = json.load(fh)
    assert code == expected["exit_code"]
    assert result == expected["result"]


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
A = serialize.load_set(sys.argv[1])
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


def test_cantor_over_work_budget_is_too_large(monkeypatch):
    # The budget is checked from --level and --grid before the spectrum is
    # built; a small declared budget stands in for --level 20.
    def unreachable(level):
        raise AssertionError("jp_spectrum called over budget")

    monkeypatch.setattr(cli, "CANTOR_WORK_BUDGET", 100)
    monkeypatch.setattr(measures, "jp_spectrum", unreachable)
    for argv in (
        ["cantor", "--level", "3", "--check", "orthogonality"],  # 16^2 Gram entries
        ["cantor", "--level", "3", "--check", "completeness", "--grid", "7"],  # 7 * 16
    ):
        code, result = run(argv)
        assert code == 1
        assert (result["status"], result["reason"]) == ("too_large", "too_large")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "CANTOR_WORK_BUDGET", 100)
    assert run(["cantor", "--level", "2", "--check", "orthogonality"])[0] == 0  # 64
    assert run(["cantor", "--level", "3", "--check", "completeness", "--grid", "6"])[0] == 0  # 96


def test_cantor_grid_below_one_is_invalid_input():
    code, result = run(["cantor", "--level", "1", "--check", "completeness", "--grid", "0"])
    assert code == 1
    assert result["reason"] == "invalid_input"

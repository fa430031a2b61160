"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests
"""

import os
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import timing  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_p90_has_ten_samples_beyond_it():
    samples = [float(x) for x in range(1, 101)]
    assert timing.nearest_rank(samples, 90) == 90.0
    assert timing.beyond(100, 90) == 10
    assert timing.beyond(99, 90) == 9
    assert timing.min_samples_for(90) == 100
    assert run.MIN_OPS == 100


def test_percentile_ignores_order_and_keeps_ties():
    samples = [5.0] * 50 + [1.0] * 50
    assert timing.nearest_rank(list(reversed(samples)), 90) == 5.0
    assert timing.nearest_rank(samples, 50) == 1.0


def test_self_time_subtracts_nested_children():
    spans = [
        (0, "a", 0.0, 10.0, None),
        (1, "b", 1.0, 4.0, 0),
        (2, "b", 2.0, 3.0, 1),
        (3, "c", 5.0, 7.0, 0),
    ]
    own = timing.self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    busy = timing.busy_by_name(spans)
    assert busy == {"a": 5.0, "b": 3.0, "c": 2.0}
    assert sum(busy.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        (0, "a", 0.0, 10.0, None),
        (1, "b", 2.0, 6.0, 0),
        (2, "b", 4.0, 12.0, 0),  # overlaps its sibling and outlives its parent
    ]
    assert timing.self_times(spans)[0] == 2.0


def test_recursive_cyclotomic_spans_are_not_double_counted():
    from spectrapairs import exact

    exact.cyclotomic_polynomial.cache_clear()
    t = tracer.Tracer()
    t.install()
    try:
        t.active = True
        exact.cyclotomic_polynomial(30)
        t.active = False
    finally:
        t.uninstall()
    phi = [s for s in t.spans if s[1] == "exact.phi"]
    roots = [s for s in phi if s[4] is None]
    assert len(roots) == 1
    # Phi_30 recurses through its proper divisors 1, 2, 3, 5, 6, 10, 15.
    assert len(phi) > 8
    by_id = {s[0]: s for s in t.spans}
    assert all(by_id[s[4]][1] == "exact.phi" for s in phi if s[4] is not None)
    root = roots[0]
    assert t.busy()["exact.phi"] == pytest.approx(root[3] - root[2], rel=1e-9, abs=1e-12)
    assert exact.cyclotomic_polynomial.cache_info().misses == 8
    # Uninstalling restores the original (cached) function.
    assert hasattr(exact.cyclotomic_polynomial, "cache_info")


def test_tracer_wraps_names_bound_at_import_time():
    from spectrapairs import exact, spectral
    from spectrapairs.sets import FiniteRationalSet

    original = exact.root_sum_is_zero
    t = tracer.Tracer()
    t.install()
    try:
        assert spectral.root_sum_is_zero is exact.root_sum_is_zero is not original
        t.active = True
        spectral.certify_spectral_pair(
            FiniteRationalSet([0, 1, 2]), FiniteRationalSet([0, Fraction(1, 3), Fraction(2, 3)])
        )
        t.active = False
    finally:
        t.uninstall()
    assert t.calls["spectral.certify"] == 1
    assert t.calls["exact.zero_test"] == 3
    assert t.counters["spectral.certify.columns"] == 3
    assert spectral.root_sum_is_zero is exact.root_sum_is_zero


def _op(kind, call, check=lambda out: True):
    return workloads.Op(kind, call, check)


def test_failed_frac_counts_wrong_errors_and_timeouts():
    def boom():
        raise ValueError("crash")

    def hang():
        time.sleep(5)

    ops = [
        _op("ok", lambda: 1),
        _op("wrong", lambda: 2, check=lambda out: out == 3),
        _op("error", boom),
        _op("timeout", hang),
    ]
    result = run.run_passes(ops, seconds=0.0, min_ops=7, timeout=0.05)
    attempts, outputs, _, errors, passes = result[:5]
    wrong = {(0, i) for i in run.check_outputs(ops, outputs, errors)}
    outcomes = run.tally(ops, attempts, wrong)
    # Two passes; the timed-out op is not attempted again.
    assert passes == 2
    assert outcomes.attempted == 7
    assert outcomes.by_status == {"ok": 2, "wrong": 2, "error": 2, "timeout": 1}
    assert outcomes.failed == 5
    assert outcomes.failed_frac == pytest.approx(5 / 7)
    assert outcomes.failed_kinds == {"wrong": 2, "error": 2, "timeout": 1}
    assert "no result within" in errors[3]


def test_output_that_changes_between_executions_is_wrong():
    values = iter(range(10))
    ops = [_op("drift", lambda: next(values))]
    attempts, outputs, _, errors = run.run_passes(ops, seconds=0.0, min_ops=2)[:4]
    wrong = {(0, i) for i in run.check_outputs(ops, outputs, errors)}
    outcomes = run.tally(ops, attempts, wrong)
    assert outcomes.by_status == {"ok": 1, "wrong": 1}


def test_outcomes_reject_unknown_status():
    with pytest.raises(ValueError):
        timing.Outcomes().add("lost")


def test_closure_copies_share_the_base_digest():
    base_call, base_summary = workloads.closure_call(("0", "1", "2"), 3, Fraction(1), Fraction(0))
    call, summarize = workloads.closure_call(("0", "1", "2"), 3, Fraction(7, 3), Fraction(-5, 2))
    assert summarize(call()) == base_summary(base_call())


def test_same_seed_same_inputs():
    for name in ("certify", "closure", "fourier"):
        first = [(op.kind, op.inputs) for op in workloads.build(name, 3)]
        again = [(op.kind, op.inputs) for op in workloads.build(name, 3)]
        other = [(op.kind, op.inputs) for op in workloads.build(name, 4)]
        assert first == again
        assert [k for k, _ in first] == [k for k, _ in other]
        assert first != other


def test_speed_factor_follows_the_calibrations_around_an_op():
    ref = timing.CALIB_REF_S
    steady = [(float(t), ref) for t in range(6)]
    assert timing.speed_factor(steady, 2.5) == 1.0
    # At half speed the loop takes twice as long, and so does the op: its
    # time is halved.  Only the two calibrations on each side count, and
    # their median discounts one outlier among them.
    calibrations = [(0.0, ref), (1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (4.0, 9 * ref),
                    (5.0, 2 * ref), (6.0, ref)]
    assert timing.speed_factor(calibrations, 3.5) == 0.5
    # Before the first and after the last calibration, the nearest count.
    assert timing.speed_factor(calibrations, -1.0) == 1.0
    assert timing.speed_factor(calibrations, 7.0) == pytest.approx(1 / 1.5)
    assert timing.calibrate() > 0


def test_scaled_metrics_use_each_attempts_factor():
    attempts = [run.Attempt(0, timing.OK, 0.2, 0.2, False, factor=0.5)] * 50
    attempts += [run.Attempt(1, timing.OK, 0.1, 0.1, False, factor=1.0)] * 50
    scaled, _ = run.end_to_end(attempts, 10.0, scaled=True)
    raw, _ = run.end_to_end(attempts, 10.0)
    assert scaled["latency_p90_ms"] == pytest.approx(100.0)
    assert scaled["ops_per_s"] == pytest.approx(10.0)
    assert raw["latency_p90_ms"] == pytest.approx(200.0)


def test_probe_fails_only_on_failures_not_recorded():
    probe = [workloads.Op(f"k{i}", None, None, inputs=f"t={i}") for i in range(4)]
    known = {1: "t=1", 2: "t=2"}
    assert run.probe_verdict(probe, known, {1: "x", 2: "x"}) == ([], [])
    # A new failure fails the run; a recorded one that went away does not.
    assert run.probe_verdict(probe, known, {1: "x", 3: "x"}) == ([3], [2])
    # A recorded index whose inputs changed is not the recorded failure.
    assert run.probe_verdict(probe, {1: "t=9"}, {1: "x"}) == ([1], [])


def test_fourier_probe_matches_its_record():
    probe = workloads.defect_probe("fourier")
    known = workloads.known_defects("fourier")
    assert known and all(probe[i].inputs == inputs for i, inputs in known.items())
    assert workloads.defect_probe("certify") == []

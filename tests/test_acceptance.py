"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from spectrapairs.arrows import Affine, close, extract_permutation, new_session, symbol
from spectrapairs.measures import (
    AtomicMeasure,
    atomic_transform,
    cantor4_measure,
    frame_bounds,
    gram_matrix,
    ifs_transform,
    ifs_transforms,
    jp_spectrum,
)
from spectrapairs.representation import (
    correlation,
    is_wandering,
    measure_from_representation,
    multiplication_representation,
    shift_for_time,
)
from spectrapairs.sets import FiniteRationalSet
from spectrapairs.spectral import (
    certify_spectral_pair,
    construct_line_spectrum,
    decide_line_set,
    is_spectral_pair,
    search_spectrum,
)

ZERO = Affine(Fraction(0))
ONE = Affine(Fraction(1))


def _criterion2_instances():
    for n in (3, 4, 5, 6):
        for q in range(1, 11):
            for p in range(-30, 31):
                if math.gcd(p, q) != 1 or (p + q) % n != 0:
                    continue
                a = Fraction(p, q)
                if a.denominator == 1 and 0 <= a.numerator <= n - 2:
                    continue
                yield n, p, q


def test_criterion_1_three_point_grid_agreement():
    """Closed-form three-point criterion vs the brute-force search oracle."""
    start = time.time()
    checked = 0
    for q in range(1, 9):
        for p in range(-20, 21):
            if math.gcd(p, q) != 1:
                continue
            a = Fraction(p, q)
            if a in (0, 1):
                continue
            decision = decide_line_set(3, a)
            expected_spectral = (p + q) % 3 == 0
            assert (decision.verdict == "spectral") == expected_spectral, a
            A = FiniteRationalSet([0, 1, a])
            found = search_spectrum(A, q_max=3 * q, span=q)
            if expected_spectral:
                assert found is not None, a
                assert is_spectral_pair(A, found), a
            else:
                assert found is None, a
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 300
    print(f"\nPASS criterion 1: {checked} grid points agree ({elapsed:.1f}s)")


def test_criterion_2_constructive_certification():
    """Witness spectra certified by the exact cyclotomic test only."""
    checked = 0
    for n, p, q in _criterion2_instances():
        A = FiniteRationalSet(list(range(n - 1)) + [Fraction(p, q)])
        B = construct_line_spectrum(n, p, q)
        cert = certify_spectral_pair(A, B)
        assert cert.is_pair and cert.exact, (n, p, q)
        checked += 1
    print(f"PASS criterion 2: {checked} constructed spectra certified exactly")


def test_criterion_3_permutation_identities():
    """U(1) is the +1 shift and U(p/q) the -1 shift, as exact permutations."""
    checked = 0
    for n, p, q in _criterion2_instances():
        assert shift_for_time(n, p, q, q) == 1, (n, p, q)
        assert shift_for_time(n, p, q, p) == (n - 1), (n, p, q)
        checked += 1
    print(f"PASS criterion 3: {checked} shift identities hold exactly")


def test_criterion_4_roundtrip():
    """measure -> representation -> measure, and correlation = transform."""
    rng = random.Random(20260826)
    pool = sorted({Fraction(p, q) for q in range(1, 5) for p in range(-12, 13)})

    def check(mu):
        rep = multiplication_representation(mu)
        back = measure_from_representation(rep)
        assert back.points == mu.points
        assert all(abs(a - b) <= 1e-12 for a, b in zip(back.weights, mu.weights))
        for _ in range(50):
            xi = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
            assert abs(correlation(rep, xi) - atomic_transform(mu, xi)) <= 1e-12

    for _ in range(200):
        n = rng.randint(1, 8)
        points = rng.sample(pool, n)
        raw = [rng.random() + 0.02 for _ in range(n)]
        total = math.fsum(raw)
        check(AtomicMeasure(points, [w / total for w in raw]))

    equal_weight = 0
    for n, p, q in _criterion2_instances():
        mu = AtomicMeasure.uniform(construct_line_spectrum(n, p, q).elements)
        rep = multiplication_representation(mu)
        back = measure_from_representation(rep)
        assert back.points == mu.points
        assert all(abs(a - b) <= 1e-12 for a, b in zip(back.weights, mu.weights))
        equal_weight += 1
    print(f"PASS criterion 4: 200 random + {equal_weight} equal-weight round trips")


def test_criterion_5_jp_orthogonality():
    """Level-6 spectrum of the Cantor-4 measure: exact Gram zeros."""
    start = time.time()
    mu = cantor4_measure()
    lam = jp_spectrum(6)
    assert len(lam) == 128

    # Symbolic factor detection: every off-diagonal entry exactly zero.
    for i, li in enumerate(lam):
        for lj in lam[i + 1 :]:
            assert ifs_transform(mu, lj - li, 1e-12).value == 0, (li, lj)

    # Pure floating evaluation with certified truncation.
    G = gram_matrix(mu, lam, eps=1e-12, symbolic=False)
    max_off = float(np.max(np.abs(G - np.eye(128))))
    assert max_off <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 60
    print(
        f"PASS criterion 5: 128-point Gram exact zeros; float offdiag "
        f"{max_off:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_6_completeness_monotone_bessel():
    """Q(t) nondecreasing in the spectrum level and Bessel-bounded."""
    mu = cantor4_measure()
    lam12 = jp_spectrum(12)
    levels = [jp_spectrum(level) for level in range(13)]
    per_term_eps = 1e-8 / len(lam12)
    min_q_at_12 = math.inf
    for k in range(37):
        t = Fraction(k, 37)
        # One batched call for the |lam12| terms mu_hat(t - l), l in lam12.
        values = ifs_transforms(mu, [Fraction(k - 37 * l, 37) for l in lam12], per_term_eps).values
        terms = {l: abs(v) ** 2 for l, v in zip(lam12, values.tolist())}
        q_by_level = [math.fsum(terms[l] for l in lam) for lam in levels]
        for lo, hi in zip(q_by_level, q_by_level[1:]):
            assert hi >= lo  # exact: adding nonnegative terms
        assert all(q <= 1 + 1e-8 for q in q_by_level), t
        min_q_at_12 = min(min_q_at_12, q_by_level[-1])
    # Recorded, not asserted: completeness level actually reached at L=12.
    print(f"PASS criterion 6: monotone + Bessel; min Q at L=12 = {min_q_at_12:.10f}")


def test_criterion_7_arrow_engine_derivation_and_soundness():
    """Symbolic three-point derivation plus model soundness checks."""
    a = symbol()
    moves = [ONE, a, a - ONE, ONE - a, -a, -ONE]
    session = close(new_session([ZERO, ONE, a], moves, round_budget=6))
    assert session.has_fact({2}, ONE, {0})  # a ->(1) 0
    assert session.has_fact({1}, a, {0})  # 1 ->(a) 0
    assert extract_permutation(session, ONE).sigma == (1, 2, 0)
    assert extract_permutation(session, a).sigma == (2, 0, 1)

    # Soundness against concrete models built from criterion-2 instances.
    instances = [(3, 2, 1), (3, 1, 2), (3, -1, 1), (4, 3, 1), (4, 1, 3), (5, 4, 1)]
    facts_checked = 0
    for n, p, q in instances:
        elements = [Fraction(k) for k in range(n - 1)] + [Fraction(p, q)]
        mu = AtomicMeasure.uniform(construct_line_spectrum(n, p, q).elements)
        move_set = {x - y for x in elements for y in elements if x != y}
        s = close(new_session(elements, move_set, round_budget=n + 2))
        for (src, move), tgt in s.facts.items():
            t = move.const
            for i in src:
                for j in range(n):
                    if j not in tgt:
                        leak = abs(atomic_transform(mu, t + elements[i] - elements[j]))
                        assert leak <= 1e-10, (n, p, q, sorted(src), str(move))
            facts_checked += 1
    print(f"PASS criterion 7: derivation reproduced; {facts_checked} facts sound")


def test_criterion_8_frame_bounds():
    """Certified spectral pairs are tight frames; the redundant system is
    a (1, 2) frame."""
    checked = 0
    for n, p, q in _criterion2_instances():
        A = FiniteRationalSet(list(range(n - 1)) + [Fraction(p, q)])
        B = construct_line_spectrum(n, p, q)
        mu = AtomicMeasure.uniform(B.elements)
        report = frame_bounds(mu, A.elements)
        assert abs(report.lower - 1.0) <= 1e-10, (n, p, q)
        assert abs(report.upper - 1.0) <= 1e-10, (n, p, q)
        checked += 1

    redundant = frame_bounds(
        AtomicMeasure.uniform([Fraction(0), Fraction(1, 2)]), [0, 1, 2]
    )
    assert abs(redundant.lower - 1.0) <= 1e-10
    assert abs(redundant.upper - 2.0) <= 1e-10
    print(f"PASS criterion 8: {checked} tight frames + redundant (1,2) frame")


def test_wandering_reports_match_certified_spectra():
    """Theorem-level bridge exercised at acceptance scale: certified
    spectral pairs produce orthonormal wandering orbits."""
    for n, p, q in [(3, 2, 1), (4, 3, 1), (5, 9, 1), (6, 5, 1)]:
        B = construct_line_spectrum(n, p, q)
        mu = AtomicMeasure.uniform(B.elements)
        rep = multiplication_representation(mu)
        S = FiniteRationalSet(list(range(n - 1)) + [Fraction(p, q)])
        report = is_wandering(rep, S)
        assert report.is_orthonormal_family and report.spans_space
    print("PASS bridge: wandering orbits for certified spectra")

"""Atomic and IFS transforms, the 4^k spectrum, Gram matrices, frame
bounds, and the completeness diagnostic."""

import cmath
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectrapairs import (
    AtomicMeasure,
    IFSMeasure,
    InvalidInputError,
    atomic_transform,
    cantor4_measure,
    completeness_defect,
    frame_bounds,
    gram_matrix,
    ifs_transform,
    ifs_transforms,
    is_spectral_pair,
    FiniteRationalSet,
    jp_spectrum,
)


def uniform(*points):
    return AtomicMeasure.uniform([Fraction(p) for p in points])


class TestAtomicTransform:
    def test_examples(self):
        mu = uniform(0, "1/2")
        assert atomic_transform(mu, 0) == pytest.approx(1.0)
        assert abs(atomic_transform(mu, 1)) < 1e-15
        assert abs(atomic_transform(uniform(0, "1/3", "2/3"), 1)) < 1e-15

    def test_total_mass(self):
        mu = AtomicMeasure([0, "1/2", 3], [0.2, 0.3, 0.5])
        assert atomic_transform(mu, 0) == pytest.approx(1.0)


class TestIFSMeasure:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            IFSMeasure(1, (0, 2))
        with pytest.raises(InvalidInputError):
            IFSMeasure(4, (2,))

    def test_cantor4(self):
        mu = cantor4_measure()
        assert mu.scale == 4 and mu.digits == (0, 2)


class TestIFSTransform:
    def test_examples(self):
        mu = cantor4_measure()
        assert ifs_transform(mu, 0, 1e-12).value == 1.0
        v1 = ifs_transform(mu, 1, 1e-12)
        assert v1.value == 0 and v1.depth == 1  # k=1 factor vanishes exactly
        v4 = ifs_transform(mu, 4, 1e-12)
        assert v4.value == 0 and v4.depth == 2

    def test_eps_validation(self):
        with pytest.raises(InvalidInputError):
            ifs_transform(cantor4_measure(), 1, 0.0)

    def test_symbolic_matches_float(self):
        mu = cantor4_measure()
        # Where no factor vanishes, symbolic and plain float evaluation
        # agree to the certified accuracy.
        for t in (Fraction(1, 3), Fraction(7, 5), Fraction(22, 7)):
            a = ifs_transform(mu, t, 1e-12, symbolic=True).value
            b = ifs_transform(mu, t, 1e-12, symbolic=False).value
            assert abs(a - b) <= 1e-11

    def test_error_certification_halving(self):
        mu = cantor4_measure()
        rng = random.Random(99)
        for _ in range(100):
            t = rng.uniform(-100, 100)
            eps = 10 ** rng.uniform(-10, -3)
            coarse = ifs_transform(mu, t, eps, symbolic=False).value
            fine = ifs_transform(mu, t, eps / 2, symbolic=False).value
            assert abs(coarse - fine) <= eps

    def test_general_digit_set_symbolic_zero(self):
        # Three equally spaced digits: the level-1 factor at t = 1 is
        # 1 + zeta_3 + zeta_3^2 = 0 for scale 3, digits {0,1,2}.
        mu = IFSMeasure(3, (0, 1, 2))
        assert ifs_transform(mu, 1, 1e-10).value == 0

    def test_general_digit_set_large_denominator(self):
        # Level k tests a 3-term sum of order 30000 * 4^k exactly; Phi_N of
        # that order is far too large to build, so this must stay fast.
        mu = IFSMeasure(4, (0, 1, 2))
        t = Fraction(1, 30000)
        start = time.perf_counter()
        v = ifs_transform(mu, t, 1e-12)
        elapsed = time.perf_counter() - start
        with mpmath.workdps(40):
            ref = mpmath.mpf(1)
            for k in range(1, 60):
                s = mpmath.mpf(t.numerator) / (t.denominator * 4**k)
                ref *= sum(mpmath.expjpi(2 * d * s) for d in (0, 1, 2)) / 3
        assert abs(v.value - complex(ref)) <= 2e-12
        assert elapsed < 2.0
        zero = ifs_transform(mu, Fraction(4 * 30001, 3), 1e-12)
        assert zero.value == 0 and zero.depth == 1


def mp_transform(digits, scale, t) -> complex:
    """Reference mu_hat(t) = prod_k mean_d e^{2 pi i d t / R^k}: every
    phase reduced mod 1 in exact arithmetic, evaluated in mpmath at 40
    digits until the remaining factors are within 1e-30 of 1."""
    t = Fraction(t)
    top = max(abs(Fraction(d)) for d in digits)
    with mpmath.workdps(40):
        value = mpmath.mpc(1)
        k = 1
        while 2 * math.pi * float(top * abs(t)) / scale**k >= 1e-31:
            phases = [(Fraction(d) * t / scale**k) % 1 for d in digits]
            value *= mpmath.fsum(
                mpmath.expjpi(2 * mpmath.mpf(x.numerator) / x.denominator) for x in phases
            ) / len(digits)
            k += 1
        return complex(value)


# Rationals for the batch tests: small and up to ~4^31, denominators up to
# 10^6, a few exact zeros of the Cantor transform, and numerators or
# denominators past int64, which the kernel holds as Python ints.
RATIONALS = st.one_of(
    st.integers(-(4**31), 4**31),
    st.builds(Fraction, st.integers(-(4**31), 4**31), st.integers(1, 10**6)),
    st.builds(lambda p: Fraction(3 * 2**70 + p, 2**70), st.integers(-(2**69), 2**69)),
    st.sampled_from([0, 1, -5, 4**20 * 3, Fraction(4 * 30001, 3), 2**63 + 1]),
)
BATCH_MEASURES = [
    cantor4_measure(),
    IFSMeasure(4, (0, 1, 2)),
    IFSMeasure(3, (-1, Fraction(1, 2), 2)),
    IFSMeasure(5, (Fraction(-1, 3), Fraction(2, 3))),
]


class TestTransformKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        digits=st.sampled_from([(0, 2), (0, 1, 2)]),
        e=st.integers(0, 29),
        q=st.integers(1, 60),
        sign=st.sampled_from([1, -1]),
        eps_exp=st.floats(-12, -6),
        data=st.data(),
    )
    def test_within_eps_of_exact_phase_reference(self, digits, e, q, sign, eps_exp, data):
        # |t| in [4^e, 4^(e+1)) up to 4^30; the bound must hold after
        # rounding.
        t = Fraction(sign * data.draw(st.integers(q * 4**e, q * 4 ** (e + 1) - 1)), q)
        eps = 10.0**eps_exp
        mu = IFSMeasure(4, digits)
        assert abs(ifs_transform(mu, t, eps).value - mp_transform(digits, 4, t)) <= eps

    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.sampled_from(BATCH_MEASURES),
        ts=st.lists(RATIONALS, min_size=1, max_size=12),
        eps_exp=st.floats(-13, -4),
        symbolic=st.booleans(),
    )
    def test_batch_equals_single_bit_for_bit(self, mu, ts, eps_exp, symbolic):
        eps = 10.0**eps_exp
        batch = ifs_transforms(mu, ts, eps, symbolic)
        for t, value, depth in zip(ts, batch.values.tolist(), batch.depths.tolist()):
            single = ifs_transform(mu, t, eps, symbolic)
            assert value == single.value and depth == single.depth
            assert (value == 0) == (single.value == 0)

    def test_negative_argument_is_exact_conjugate(self):
        mu = cantor4_measure()
        for t in (Fraction(7, 3), Fraction(4**25 + 1, 7), 123456789):
            assert ifs_transform(mu, -t, 1e-12).value == ifs_transform(mu, t, 1e-12).value.conjugate()

    def test_atomic_phases_reduced_exactly_past_int64(self):
        mu = AtomicMeasure([0, "1/3", "5/7"], [0.25, 0.25, 0.5])
        for t in (Fraction(2**80 + 1, 3), Fraction(-(3**50), 2**66 + 1), 10**30 + 7):
            ref = sum(
                w * cmath.exp(2j * math.pi * float((b * t) % 1))
                for b, w in zip(mu.points, mu.weights)
            )
            assert abs(atomic_transform(mu, t) - ref) <= 1e-15


class TestJpSpectrum:
    def test_examples(self):
        assert jp_spectrum(0) == (0, 1)
        assert jp_spectrum(1) == (0, 1, 4, 5)
        assert jp_spectrum(2) == (0, 1, 4, 5, 16, 17, 20, 21)

    def test_size_and_bounds(self):
        assert len(jp_spectrum(6)) == 128
        with pytest.raises(InvalidInputError):
            jp_spectrum(21)
        with pytest.raises(InvalidInputError):
            jp_spectrum(-1)


class TestGramMatrix:
    def test_atomic_identity(self):
        G = gram_matrix(uniform(0, "1/2"), [0, 1])
        assert np.allclose(G, np.eye(2))

    def test_jp_level1_identity(self):
        G = gram_matrix(cantor4_measure(), jp_spectrum(1), eps=1e-12)
        assert np.max(np.abs(G - np.eye(4))) <= 1e-10

    def test_all_ones(self):
        G = gram_matrix(uniform(0, "1/2"), [0, 2])
        assert np.allclose(G, np.ones((2, 2)))

    def test_hermitian_unit_diagonal(self):
        G = gram_matrix(uniform(0, "1/3", "5/7"), [0, 1, "1/2"])
        assert np.allclose(G, G.conj().T)
        assert np.allclose(np.diag(G), 1.0)

    @pytest.mark.parametrize("symbolic", [True, False])
    def test_distinct_differences_match_pairwise(self, symbolic):
        # A shuffled rational set, not a Jorgensen-Pedersen spectrum:
        # differences of both signs, many repeated.
        rng = random.Random(7)
        lam = list({Fraction(rng.randrange(-60, 60), rng.choice([1, 2, 3, 6])) for _ in range(30)})
        rng.shuffle(lam)
        eps = 1e-12
        for mu in (cantor4_measure(), IFSMeasure(4, (0, 1, 2)), uniform(0, "1/3", "5/7")):
            G = gram_matrix(mu, lam, eps=eps, symbolic=symbolic)
            assert np.array_equal(G, G.conj().T) and np.all(np.diag(G) == 1)
            for i, li in enumerate(lam):
                for j, lj in enumerate(lam):
                    if i != j:
                        if isinstance(mu, AtomicMeasure):
                            ref = atomic_transform(mu, lj - li)
                        else:
                            ref = ifs_transform(mu, lj - li, eps, symbolic).value
                        assert abs(G[i, j] - ref) <= eps


class TestFrameBounds:
    def test_examples(self):
        mu = uniform(0, "1/2")
        r = frame_bounds(mu, [0, 1])
        assert (r.lower, r.upper) == (pytest.approx(1.0), pytest.approx(1.0))
        r = frame_bounds(mu, [0, 1, 2])
        assert (r.lower, r.upper) == (pytest.approx(1.0), pytest.approx(2.0))
        r = frame_bounds(mu, [0])
        assert (r.lower, r.upper) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))

    def test_spectrum_gives_tight_frame(self):
        mu = uniform(0, "1/3", "2/3")
        lam = FiniteRationalSet([0, 1, 2])
        assert is_spectral_pair(lam, FiniteRationalSet(mu.points))
        r = frame_bounds(mu, lam.elements)
        assert abs(r.lower - 1.0) <= 1e-10 and abs(r.upper - 1.0) <= 1e-10


class TestCompletenessDefect:
    def test_parseval_identity_two_points(self):
        mu = uniform(0, "1/2")
        for k in range(7):
            q = completeness_defect(mu, [0, 1], Fraction(k, 7))
            assert q == pytest.approx(1.0, abs=1e-12)

    def test_empty_lambda(self):
        assert completeness_defect(uniform(0, "1/2"), [], Fraction(1, 3)) == 0.0

    def test_jp_at_zero(self):
        mu = cantor4_measure()
        for level in range(5):
            assert completeness_defect(mu, jp_spectrum(level), 0) == 1.0

    def test_monotone_in_lambda(self):
        mu = cantor4_measure()
        t = Fraction(3, 7)
        values = [
            completeness_defect(mu, jp_spectrum(level), t, eps=1e-10)
            for level in range(6)
        ]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12

    def test_bessel_bound(self):
        mu = cantor4_measure()
        for k in range(5):
            q = completeness_defect(mu, jp_spectrum(4), Fraction(k, 5), eps=1e-10)
            assert q <= 1 + 1e-8

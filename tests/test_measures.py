"""Atomic and IFS transforms, the 4^k spectrum, Gram matrices, frame
bounds, and the completeness diagnostic."""

import cmath
import math
import random
import time
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectrapairs import errors, measures
from spectrapairs.errors import InvalidInputError, TooLargeError
from spectrapairs.exact import CycSum, root_sum_is_zero
from spectrapairs.measures import (
    AtomicMeasure,
    IFSMeasure,
    atomic_transform,
    cantor4_measure,
    completeness_defect,
    frame_bounds,
    gram_matrix,
    ifs_transform,
    ifs_transforms,
    jp_spectrum,
    _vanishing_level,
)
from spectrapairs.sets import FiniteRationalSet
from spectrapairs.spectral import is_spectral_pair


def uniform(*points):
    return AtomicMeasure.uniform([Fraction(p) for p in points])


def bits(z) -> bytes:
    """The bytes of z as a complex double: tells -0.0 from 0.0."""
    return np.complex128(z).tobytes()


class TestAtomicTransform:
    def test_examples(self):
        mu = uniform(0, "1/2")
        assert atomic_transform(mu, 0) == pytest.approx(1.0)
        assert abs(atomic_transform(mu, 1)) < 1e-15
        assert abs(atomic_transform(uniform(0, "1/3", "2/3"), 1)) < 1e-15

    def test_total_mass(self):
        mu = AtomicMeasure([0, "1/2", 3], [0.2, 0.3, 0.5])
        assert atomic_transform(mu, 0) == pytest.approx(1.0)


class TestAtomicMeasure:
    @pytest.mark.parametrize(
        "points,weights",
        [
            ([0, Fraction(1, 2), 3], [0.5, 0.5]),  # zip would drop the point 3
            ([0, Fraction(1, 2)], [1.0]),  # and here the point 1/2
            ([0], [0.5, 0.5]),
        ],
    )
    def test_one_weight_per_point(self, points, weights):
        with pytest.raises(InvalidInputError):
            AtomicMeasure(points, weights)

    @pytest.mark.parametrize(
        "points,weights,message",
        [
            ([], [], "nonempty support"),
            ([], None, "nonempty support"),
            ([0, 0], [0.5, 0.5], "must be distinct"),
        ],
    )
    def test_support_is_nonempty_and_distinct(self, points, weights, message):
        # No weights: the uniform measure on the points.
        with pytest.raises(InvalidInputError, match=message):
            if weights is None:
                AtomicMeasure.uniform(points)
            else:
                AtomicMeasure(points, weights)

    @pytest.mark.parametrize(
        "weights", [["x", 0.5], [[0.5], 0.5], [10**400, 0.5], [math.nan, 0.5], [0.5, 0.0]]
    )
    def test_weights_are_positive_numbers(self, weights):
        with pytest.raises(InvalidInputError):
            AtomicMeasure([0, Fraction(1, 2)], weights)


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

    def test_float_argument_is_its_binary_value(self):
        # A float t is the rational at its binary value in ifs_transform as
        # in ifs_transforms: 1.0 gives the exact zero that 1 gives.
        mu = cantor4_measure()
        assert ifs_transform(mu, 1.0, 1e-12) == ifs_transform(mu, 1, 1e-12) == (0j, 1)
        for t in (1.0, 4.0, 0.5, 2.25, -3.0):
            single = ifs_transform(mu, t, 1e-12)
            assert single == ifs_transform(mu, Fraction(t), 1e-12)
            batch = ifs_transforms(mu, [t], 1e-12)
            assert (batch.values[0], batch.depths[0]) == single

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


def fraction_level(mu, u, v, depth):
    """The first vanishing level by the rule that builds each level's
    argument s = u / (v R^k) as a Fraction: the level runs while
    2 (max d - min d) |s| >= 1 and is decided at order D s.denominator,
    with exponents n_d s.numerator."""
    spread = mu.digits[-1] - mu.digits[0]
    for k in range(1, depth + 1):
        s = Fraction(u, v * mu.scale**k)
        if 2 * spread * abs(s) < 1:
            break
        N = mu.phases.denominator * s.denominator
        if root_sum_is_zero(CycSum(N, Counter(n * s.numerator for n in mu.phases.numerators))):
            return k
    return 0


LEVEL_MEASURES = [
    IFSMeasure(4, (0, 1, 2)),
    IFSMeasure(3, (-1, Fraction(1, 2), 2)),
    IFSMeasure(4, (0, 1, 2, 3)),
    IFSMeasure(6, (0, Fraction(1, 3), 1, Fraction(4, 3))),
]


class TestVanishingLevel:
    @given(
        mu=st.sampled_from(LEVEL_MEASURES),
        a=st.integers(-500, 500),
        e=st.integers(0, 6),
        v=st.integers(1, 60),
    )
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_fraction_rule(self, mu, a, e, v):
        # u = a R^e brings the level arguments near small denominators,
        # where the digit means vanish.
        u = a * mu.scale**e
        assert _vanishing_level(mu, u, v, 40) == fraction_level(mu, u, v, 40)

    def test_exact_zeros_of_three_digits(self):
        # mean(1, zeta_3, zeta_3^2) = 0 at level 1 for t = 4 (3k + 1) / 3.
        mu = LEVEL_MEASURES[0]
        for k in range(-20, 20):
            u, v = 4 * (3 * k + 1), 3
            assert _vanishing_level(mu, u, v, 40) == fraction_level(mu, u, v, 40) == 1
        # Four digits {0, 1, 2, 3} at scale 4 vanish at the first level
        # whose argument u / (v 4^k) has reduced denominator 2 or 4.
        mu = LEVEL_MEASURES[2]
        hits = [
            (u, v) for u in range(-40, 41) for v in (1, 2, 3, 4, 8)
            if fraction_level(mu, u, v, 40)
        ]
        assert hits
        for u, v in hits:
            assert _vanishing_level(mu, u, v, 40) == fraction_level(mu, u, v, 40)


def mp_transform(digits, scale, t) -> complex:
    """Reference mu_hat(t) = prod_k mean_d e^{2 pi i d t / R^k}: every
    phase reduced mod 1 in exact arithmetic, evaluated in mpmath at 40
    digits until the remaining factors are within 1e-30 of 1, at any |t|."""
    t = Fraction(t)
    top = max(abs(Fraction(d)) for d in digits)
    with mpmath.workdps(40):
        value = mpmath.mpc(1)
        k = 1
        while top * abs(t) / scale**k >= Fraction(1, 10**32):
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

    @pytest.mark.parametrize("symbolic", [True, False])
    @pytest.mark.parametrize(
        "mu", [cantor4_measure(), IFSMeasure(4, (0, 1, 2))], ids=["cantor", "three_digits"]
    )
    def test_batch_over_chunk_boundaries_equals_single(self, mu, symbolic):
        # The arguments t - lambda of Q(t) at level 10 for t = 0 and 3: over
        # 1 << 13 phases in several chunks and depth groups, and for the
        # Cantor measure exact zeros at 11 levels (level j + 1 for lambda
        # = 4^j times odd at t = 0, level 1 for even lambda at t = 3).
        ts = [t - lam for t in (0, 3) for lam in jp_spectrum(10)]
        batch = ifs_transforms(mu, ts, 1e-10, symbolic)
        values, depths = batch.values.tolist(), batch.depths.tolist()
        assert sum(k for z, k in zip(values, depths) if z != 0) > 1 << 13
        assert len({k for z, k in zip(values, depths) if z != 0}) > 5
        zero_levels = {k for z, k in zip(values, depths) if z == 0}
        assert len(zero_levels) == 11 if symbolic and mu.digits == (0, 2) else not zero_levels
        for t, value, depth in zip(ts, values, depths):
            assert (value, depth) == ifs_transform(mu, t, 1e-10, symbolic)

    def test_batch_of_exact_zeros_matches_mixed_batch(self):
        # A batch of three-digit exact zeros returns before any batch array
        # is built; it must read as the same terms inside a mixed batch.
        mu = IFSMeasure(4, (0, 1, 2))
        zeros = [Fraction(16, 3), Fraction(4 * 7, 3), Fraction(-16 * 5, 3)]
        alone = ifs_transforms(mu, zeros, 1e-12)
        mixed = ifs_transforms(mu, [Fraction(5, 7), *zeros, 0], 1e-12)
        assert alone.values.dtype == complex and alone.depths.dtype == np.int64
        assert alone.values.tobytes() == mixed.values[1:4].tobytes() == bytes(16 * 3)
        assert alone.depths.tolist() == mixed.depths[1:4].tolist() == [1, 1, 1]
        assert ifs_transforms(mu, [], 1e-12).values.shape == (0,)

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

    def test_atomic_phases_over_a_modulus_past_the_float_range(self):
        # Every modulus of the support {0, 1/10^400} is 10^400 or more,
        # past the float range: the division once raised OverflowError.
        mu = AtomicMeasure([0, Fraction(1, 10**400)], [0.5, 0.5])
        for t in (3, Fraction(10**400, 4), Fraction(-(10**400) - 1, 2), Fraction(7 * 10**400 + 1, 3)):
            ref = sum(
                w * cmath.exp(2j * math.pi * float((b * t) % 1))
                for b, w in zip(mu.points, mu.weights)
            )
            assert abs(atomic_transform(mu, t) - ref) <= 1e-15

    def test_numpy_integer_scale_is_a_python_int(self):
        # The transform of an np.int64 scale never returned (see
        # LIBRARY_SECONDS_CASES in test_cli.py).
        mu = IFSMeasure(np.int64(4), (0, 2))
        assert type(mu.scale) is int and mu == cantor4_measure()
        with pytest.raises(InvalidInputError, match="scale must be an integer"):
            IFSMeasure(4.0, (0, 2))

    def test_numpy_integer_support_reduced_exactly(self):
        # np.int64 support points once made the phases wrap around in
        # int64: this read 0.188-0.391j.
        mu = AtomicMeasure.uniform(np.array([0, 29714666491209]))
        assert abs(atomic_transform(mu, Fraction(8001465, 14))) <= 1e-15


def certified_delta(mu, t, depth):
    """The tail bound delta = 2 pi max|d| |t| / (R^depth (R - 1)), at 50
    digits."""
    top = max(abs(d) for d in mu.digits) * abs(Fraction(t))
    with mpmath.workdps(50):
        return 2 * mpmath.pi * top.numerator / (top.denominator * mpmath.mpf(mu.scale) ** depth * (mu.scale - 1))


class TestPastTheDepthTable:
    """Depths of log1p(eps) R^k past the float table, R^k >= 2^1000, and |t|
    or D v R^k past the float range."""

    def test_exact_zeros_past_the_table(self):
        # 2 (2 - 0) t / 4^k is odd first at k = 501 for t = 4^500; the table
        # once stopped at depth 500 and returned 1.
        mu = cantor4_measure()
        assert ifs_transform(mu, 4**500, 1e-12) == (0j, 501)
        assert ifs_transform(mu, 4**501, 1e-12) == (0j, 502)
        assert ifs_transform(mu, -(4**501), 1e-12) == (0j, 502)

    @pytest.mark.parametrize(
        "mu, t",
        [
            (cantor4_measure(), 10**400),
            (cantor4_measure(), Fraction(-(10**400) - 7, 3)),
            (IFSMeasure(4, (0, 1, 2)), 4**500),
            (IFSMeasure(4, (0, 1, 2)), 10**350 + 1),
            (IFSMeasure(3, (-1, Fraction(1, 2), 2)), 10**300 + 7),
            # Inside the table, but scale^k past the float range was once
            # built for the depth rounded up to 64 levels.
            (IFSMeasure(5, (0, 1)), 5**420 + 3),
            (IFSMeasure(5, (0, 1)), 3**700),
            # Inside the table, but D v R^k past the float range: the float
            # divisors once overflowed to inf, or the remainders raised.
            (cantor4_measure(), Fraction(100 * 10**305 + 1, 3 * 10**305)),
            (cantor4_measure(), Fraction(10**400 + 1, 3 * 10**400)),
            (IFSMeasure(4, (0, 1, 2)), Fraction(5 * 10**300 + 1, 7 * 10**300)),
        ],
        ids=["cantor-10^400", "cantor-neg", "three-4^500", "three-10^350", "3adic-10^300",
             "5adic-5^420", "5adic-3^700", "cantor-v-10^305", "cantor-v-10^400", "three-v-10^300"],
    )
    @pytest.mark.parametrize("eps", [1e-12, 1e-5])
    def test_value_within_eps_at_the_least_certified_depth(self, mu, t, eps):
        value, depth = ifs_transform(mu, t, eps, symbolic=False)
        assert abs(value - mp_transform(mu.digits, mu.scale, t)) <= eps
        bound = math.log1p(eps)
        assert certified_delta(mu, t, depth) <= bound * (1 + 1e-12)
        assert certified_delta(mu, t, depth - 1) > bound * (1 - 1e-12)
        symbolic = ifs_transform(mu, t, eps)
        assert symbolic == (value, depth) or symbolic.value == 0
        assert ifs_transform(mu, -t, eps, symbolic=False) == (value.conjugate(), depth)

    @pytest.mark.parametrize("top", [Fraction(1, 10**400), Fraction(3, 10**310)], ids=["zero", "subnormal"])
    def test_digits_below_the_normal_float_range(self, top):
        # The float c = 2 pi max|d| is 0.0 for 10^-400 and subnormal for
        # 3 * 10^-310; a zero rate once made the depth solve raise.
        mu = IFSMeasure(4, (0, top))
        for t in (1 / top, Fraction(-7, 3) / top):
            for eps in (1e-12, 1e-5):
                value, depth = ifs_transform(mu, t, eps)
                assert abs(value - mp_transform(mu.digits, mu.scale, t)) <= eps
                assert certified_delta(mu, t, depth) <= math.log1p(eps)
                batch = ifs_transforms(mu, [0, t, 5], eps)
                assert batch.values[1] == value and batch.depths.tolist() == [0, depth, 0]
        assert ifs_transforms(mu, [1 / top], math.inf).depths.tolist() == [0]

    def test_depth_grows_one_level_per_power_across_the_table_end(self):
        for mu in (cantor4_measure(), IFSMeasure(5, (0, 1)), IFSMeasure(2, (0, 1))):
            end = next(k for k in range(2000) if mu.scale**k >= 2**1000)
            ts = [mu.scale**k for k in range(end - 60, end + 10)]
            depths = ifs_transforms(mu, ts, 1e-12, symbolic=False).depths
            assert depths[0] < end <= depths[-1]
            assert set(np.diff(depths).tolist()) == {1}

    def test_infinite_eps_is_depth_zero_at_any_t(self):
        # log1p(inf) R^k is inf at every k, so depth 0 is certified.
        mu = cantor4_measure()
        ts = [0, 5, Fraction(-1, 3), 4**500, 10**400, -(10**400)]
        assert ifs_transform(mu, 4**500, math.inf) == (1 + 0j, 0)
        batch = ifs_transforms(mu, ts, math.inf)
        assert batch.values.tolist() == [1] * len(ts)
        assert batch.depths.tolist() == [0] * len(ts)

    def test_batch_equals_single(self):
        mu = cantor4_measure()
        ts = [4**500, 4**501, 10**400, -(10**400), 5, Fraction(1, 3), 0, Fraction(10**400 + 1, 3),
              Fraction(100 * 10**305 + 1, 3 * 10**305)]
        for symbolic in (True, False):
            batch = ifs_transforms(mu, ts, 1e-12, symbolic)
            for t, value, depth in zip(ts, batch.values.tolist(), batch.depths.tolist()):
                assert (value, depth) == ifs_transform(mu, t, 1e-12, symbolic)


def per_level_zero(mu, u, v, depth):
    """The first level k <= depth at which the two digits a0 < a1 over D
    turn half a turn apart at t = u / v, by the rule applied to each level:
    2 ((a1 - a0) u mod M) = M for M = D v R^k; or 0."""
    (a0, a1), D = mu.phases.numerators, mu.phases.denominator
    for k in range(1, depth + 1):
        M = D * v * mu.scale**k
        if 2 * ((a1 - a0) * u % M) == M:
            return k
    return 0


def odd_level(z, scale, depth):
    """The first k <= depth at which z / scale^k is an odd integer, or 0:
    z divided by scale level by level."""
    for k in range(1, depth + 1):
        z, r = divmod(z, scale)
        if r:
            return 0
        if z & 1:
            return k
    return 0


TWO_DIGITS = [
    (0, 2),
    (0, 1),
    (-1, 1),
    (Fraction(-1, 3), Fraction(2, 3)),
    (0, Fraction(3, 2)),
    (Fraction(1, 6), 5),
]


class TestTwoDigitZeroLevel:
    @given(
        R=st.integers(2, 7),
        digits=st.sampled_from(TWO_DIGITS),
        m=st.integers(-(10**6), 10**6),
        e=st.integers(0, 45),
        v=st.one_of(st.integers(1, 60), st.integers(2**40, 2**45)),
        eps_exp=st.floats(-13, -3),
    )
    @settings(max_examples=400, deadline=None)
    def test_closed_form_matches_the_per_level_rule(self, R, digits, m, e, v, eps_exp):
        # u = m R^e puts the zeros at varied levels; m = 0 gives u = 0, m
        # and e large give u v past int64, and every level past about
        # log_R(|t|) has a capped modulus in the kernel.
        mu, t, eps = IFSMeasure(R, digits), Fraction(m * R**e, v), 10.0**eps_exp
        plain = ifs_transform(mu, t, eps, symbolic=False)
        k = per_level_zero(mu, t.numerator, t.denominator, plain.depth)
        assert ifs_transform(mu, t, eps) == ((0j, k) if k else plain)
        Z = 2 * (Fraction(digits[1]) - Fraction(digits[0])) * t
        assert k == (odd_level(int(Z), R, plain.depth) if Z.denominator == 1 else 0)

    def test_zero_levels_past_the_table(self):
        # Z = 2 t: for t = 2^(2k - 1), Z / 4^k = 1 is the first odd quotient;
        # for t = 4^k every Z / 4^j with j <= k is even, and no level
        # vanishes.
        mu = IFSMeasure(4, (0, 1))
        for k in (1, 5, 40, 700):
            t = 2 ** (2 * k - 1)
            plain = ifs_transform(mu, t, 1e-12, symbolic=False)
            assert per_level_zero(mu, t, 1, plain.depth) == k
            assert ifs_transform(mu, t, 1e-12) == (0j, k)
            plain = ifs_transform(mu, 4**k, 1e-12, symbolic=False)
            assert per_level_zero(mu, 4**k, 1, plain.depth) == 0
            assert ifs_transform(mu, 4**k, 1e-12) == plain

    def test_zero_levels_near_ten_to_the_4000_stay_cheap(self):
        # Z = 2 t = 6^k m for odd m, 3 not dividing m, vanishes at level k,
        # below the depth of about 5156.  The level tables of a 13,300-bit
        # cap must stop near 6^5142: tables of every power 6^k below
        # 2^13300 took over a second to build.
        mu = IFSMeasure(6, (0, 1))
        ts = [3 * 6**5140, -3 * 6**5140, 5 * 6**5100 // 2, -(6**4000) * 7 // 2]
        start = time.perf_counter()
        batch = ifs_transforms(mu, ts, 1e-12)
        elapsed = time.perf_counter() - start
        assert batch.values.tolist() == [0j] * 4
        assert batch.depths.tolist() == [5141, 5141, 5100, 4000]
        assert [odd_level(2 * t, 6, 6000) for t in ts] == [5141, 5141, 5100, 4000]
        assert elapsed < 0.5
        assert ifs_transform(mu, ts[3], 1e-12) == (0j, 4000)


def assert_batch_equals_single(mu, ts, eps, symbolic):
    """ifs_transforms on ts equals ifs_transform on each t, to the bit."""
    batch = ifs_transforms(mu, ts, eps, symbolic)
    assert batch.values.dtype == complex and batch.depths.dtype == np.int64
    for t, value, depth in zip(ts, batch.values.tolist(), batch.depths.tolist()):
        single = ifs_transform(mu, t, eps, symbolic)
        assert (bits(value), depth) == (bits(single.value), single.depth), t
    return batch


class TestBatchScale:
    """Whole batches against per-t calls and against the per-level oracle."""

    @pytest.mark.parametrize("symbolic", [True, False])
    def test_gram_differences_of_jp6(self, symbolic):
        lam = jp_spectrum(6)
        diffs = sorted({abs(x - y) for x in lam for y in lam})
        batch = assert_batch_equals_single(cantor4_measure(), diffs, 1e-12, symbolic)
        if symbolic:
            zeros = {k for z, k in zip(batch.values.tolist(), batch.depths.tolist()) if z == 0}
            assert len(diffs) > 1000 and len(zeros) > 5

    @pytest.mark.parametrize("R", [3, 4, 6, 10])
    @pytest.mark.parametrize("digits", [(0, 1), (0, 2), (Fraction(-1, 3), Fraction(2, 3))])
    def test_two_digit_zeros_at_many_levels(self, R, digits):
        # t = R^k m / (2 (a2 - a1)) for odd m puts Z = R^k m, a zero at level
        # k for even R and at level 1 for odd R; the neighbours t + 1, t R
        # and t / 4 miss or move it, and t + 1/8 of a step makes Z no
        # integer, though its floor is R^k m.
        half = Fraction(1, 2) / (Fraction(digits[1]) - Fraction(digits[0]))
        ts = []
        for k in range(14):
            for m in (1, 3, -5, 7 * R + 1):
                t = R**k * m * half
                ts += [t, -t, t + 1, t * R, t / 4, t + half / 8]
        mu = IFSMeasure(R, digits)
        batch = assert_batch_equals_single(mu, ts, 1e-12, True)
        plain = assert_batch_equals_single(mu, ts, 1e-12, False)
        for t, K, value, depth in zip(
            ts, plain.depths.tolist(), batch.values.tolist(), batch.depths.tolist()
        ):
            k = per_level_zero(mu, t.numerator, t.denominator, K)
            assert (value == 0, depth) == ((True, k) if k else (False, K)), t
        zeros = {k for z, k in zip(batch.values.tolist(), batch.depths.tolist()) if z == 0}
        assert zeros == {1} if R % 2 else len(zeros) >= 10

    @pytest.mark.parametrize("symbolic", [True, False])
    def test_negative_past_int64_and_past_the_table(self, symbolic):
        ts = [
            -(4**500), 4**501, -(2 * 4**700), 2**61 + 4, -(2**63) * 3, Fraction(3 * 2**70 + 1, 7),
            Fraction(-(4**40) * 3, 2**65 + 1), 10**400, -Fraction(10**400 + 1, 3), 5, Fraction(-1, 3), 0,
        ]
        for mu in (cantor4_measure(), IFSMeasure(6, (0, 1)), IFSMeasure(4, (0, 1, 2))):
            assert_batch_equals_single(mu, ts, 1e-12, symbolic)

    @pytest.mark.parametrize("eps", [1e-12, 0.5, 1e3])
    def test_closed_form_matches_division_by_scale(self, eps):
        # Digits {0, 1/2} make Z = t for integer t.  Each batch holds one
        # scale, zeros at many levels, Z past int64 and depths past the
        # float table; at eps = 1e3 some zeros fall at the last level, the
        # depth itself.
        at_depth = 0
        for R in range(2, 31):
            mu = IFSMeasure(R, (0, Fraction(1, 2)))
            ts = [
                m * R**e * 2**f
                for m in (1, -3, 5 * R + 1, 6) for e in (0, 1, 2, 5, 13, 40, 500) for f in (0, 1, 2, 3)
            ]
            plain = ifs_transforms(mu, ts, eps, symbolic=False)
            symbolic = ifs_transforms(mu, ts, eps)
            for t, z, K, value, depth in zip(
                ts, plain.values.tolist(), plain.depths.tolist(),
                symbolic.values.tolist(), symbolic.depths.tolist(),
            ):
                k = odd_level(t, R, K)
                assert (value, depth) == ((0j, k) if k else (z, K)), (R, t)
                at_depth += bool(k) and k == K
        assert at_depth or eps < 1e3


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

    def test_single_frequency(self):
        assert np.array_equal(gram_matrix(cantor4_measure(), [3]), [[1]])

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

    def test_work_is_counted_before_any_array_is_built(self, monkeypatch):
        # Against a small declared budget: past |Lambda|^2 entries no array
        # is built, and for an atomic mu past |mu| times the distinct
        # differences no phase is formed.
        def unreachable(*args):
            raise AssertionError("an array was built over budget")

        monkeypatch.setattr(errors, "WORK_BUDGET", 16)
        assert gram_matrix(cantor4_measure(), range(4)).shape == (4, 4)  # 16 entries
        assert gram_matrix(uniform(*range(5)), range(4)).shape == (4, 4)  # 5 * 3 phases
        monkeypatch.setattr(measures, "_unit_roots", unreachable)
        with pytest.raises(TooLargeError, match="transforms of 6 atoms"):
            gram_matrix(uniform(*range(6)), range(4))  # 6 * 3 phases
        monkeypatch.setattr(np, "eye", unreachable)
        with pytest.raises(TooLargeError, match="Gram matrix of 5 points"):
            gram_matrix(cantor4_measure(), range(5))  # 25 entries


class TestFrameBounds:
    def test_examples(self):
        mu = uniform(0, "1/2")
        r = frame_bounds(mu, [0, 1])
        assert (r.lower, r.upper) == (pytest.approx(1.0), pytest.approx(1.0))
        r = frame_bounds(mu, [0, 1, 2])
        assert (r.lower, r.upper) == (pytest.approx(1.0), pytest.approx(2.0))
        r = frame_bounds(mu, [0])
        assert (r.lower, r.upper) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))

    def test_empty_spectrum_and_non_atomic_measure(self):
        r = frame_bounds(AtomicMeasure.uniform([0, 1]), [])
        assert (r.lower, r.upper) == (0.0, 0.0)
        with pytest.raises(InvalidInputError):
            frame_bounds(cantor4_measure(), [0])

    def test_support_over_a_denominator_past_the_float_range(self):
        mu = AtomicMeasure([0, Fraction(1, 10**400)], [0.5, 0.5])
        lam = [0, 1, Fraction(5, 2), Fraction(10**400, 2)]
        E = np.array([
            [math.sqrt(w) * cmath.exp(2j * math.pi * float((b * x) % 1)) for x in lam]
            for b, w in zip(mu.points, mu.weights)
        ])
        ref = np.linalg.eigvalsh(E @ E.conj().T)
        r = frame_bounds(mu, lam)
        assert abs(r.lower - ref[0]) <= 1e-12 and abs(r.upper - ref[-1]) <= 1e-12

    def test_spectrum_gives_tight_frame(self):
        mu = uniform(0, "1/3", "2/3")
        lam = FiniteRationalSet([0, 1, 2])
        assert is_spectral_pair(lam, FiniteRationalSet(mu.points))
        r = frame_bounds(mu, lam.elements)
        assert abs(r.lower - 1.0) <= 1e-10 and abs(r.upper - 1.0) <= 1e-10


@pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda mu, eps: ifs_transform(mu, Fraction(1, 3), eps),
        lambda mu, eps: gram_matrix(mu, [0, 1, 4], eps=eps),
        lambda mu, eps: completeness_defect(mu, jp_spectrum(2), Fraction(1, 3), eps=eps),
    ],
    ids=["ifs_transform", "gram_matrix", "completeness_defect"],
)
def test_eps_must_be_positive_wherever_a_transform_uses_it(evaluate, eps):
    # NaN fails the check too: every comparison with it is false.
    with pytest.raises(InvalidInputError, match="eps must be positive"):
        evaluate(cantor4_measure(), eps)


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

    @pytest.mark.parametrize(
        "level, t", [(6, Fraction(5, 97)), (8, 0), (8, 3), (9, Fraction(-7, 12)), (9, Fraction(4**9 + 1, 2))]
    )
    def test_equals_the_sum_of_single_transforms_bit_for_bit(self, level, t):
        mu, lam, eps = cantor4_measure(), jp_spectrum(level), 1e-10
        ref = math.fsum(abs(ifs_transform(mu, t - x, eps / len(lam)).value) ** 2 for x in lam)
        assert bits(completeness_defect(mu, lam, t, eps)) == bits(ref)

    def test_builds_no_fraction_per_lambda(self, monkeypatch):
        mu, lam, t = cantor4_measure(), jp_spectrum(8), Fraction(3, 7)
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        completeness_defect(mu, lam, t)
        monkeypatch.undo()
        assert len(built) < 10

    def test_atomic_work_is_counted_before_phases_are_formed(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("phases were formed over budget")

        mu = uniform(0, "1/2")
        monkeypatch.setattr(errors, "WORK_BUDGET", 16)
        assert completeness_defect(mu, range(8), Fraction(1, 3)) > 0  # 2 * 8 phases
        monkeypatch.setattr(measures, "_unit_roots", unreachable)
        with pytest.raises(TooLargeError, match="transforms of 2 atoms"):
            completeness_defect(mu, range(9), Fraction(1, 3))  # 2 * 9

    def test_bessel_bound(self):
        mu = cantor4_measure()
        for k in range(5):
            q = completeness_defect(mu, jp_spectrum(4), Fraction(k, 5), eps=1e-10)
            assert q <= 1 + 1e-8

"""Exact arithmetic layer: reduced fractions, cyclotomics, zero-test."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from spectrapairs import (
    CycSum,
    InvalidInputError,
    cyclotomic_polynomial,
    evaluate_cyc,
    extended_gcd,
    reduce_rational,
    root_sum_is_zero,
)
from spectrapairs.exact import _split_order


def test_reduce_rational_examples():
    assert reduce_rational(4, 6) == Fraction(2, 3)
    assert reduce_rational(2, 1) == Fraction(2, 1)
    assert reduce_rational(-3, -6) == Fraction(1, 2)


def test_reduce_rational_zero_denominator():
    with pytest.raises(InvalidInputError):
        reduce_rational(1, 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(lambda q: q != 0))
def test_reduce_rational_properties(p, q):
    r = reduce_rational(p, q)
    assert r.denominator >= 1
    assert math.gcd(abs(r.numerator), r.denominator) == 1
    assert r * q == p


def test_extended_gcd_examples():
    for p, q, g in [(2, 1, 1), (3, 5, 1), (6, 4, 2)]:
        gg, k, l = extended_gcd(p, q)
        assert gg == g
        assert k * p + l * q == g


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_extended_gcd_identity(p, q):
    if p == 0 and q == 0:
        with pytest.raises(InvalidInputError):
            extended_gcd(p, q)
        return
    g, k, l = extended_gcd(p, q)
    assert g == math.gcd(p, q) > 0
    assert k * p + l * q == g


def _poly_div(num, den):
    # Independent schoolbook division used as the test-side oracle.
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] // den[-1]
        q[i - dd] = c
        for j, b in enumerate(den):
            num[i - dd + j] -= c * b
    assert not any(num), "oracle division not exact"
    return tuple(q)


def test_cyclotomic_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    # Phi_3 from the product formula x^3 - 1 = Phi_1 * Phi_3.
    assert cyclotomic_polynomial(3) == _poly_div([-1, 0, 0, 1], (-1, 1))
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    # Phi_12 by dividing x^12 - 1 by Phi_d over proper divisors.
    x12 = [-1] + [0] * 11 + [1]
    q = tuple(x12)
    for d in (1, 2, 3, 4, 6):
        q = _poly_div(q, cyclotomic_polynomial(d))
    assert cyclotomic_polynomial(12) == q == (1, 0, -1, 0, 1)


def test_cyclotomic_rejects_zero():
    with pytest.raises(InvalidInputError):
        cyclotomic_polynomial(0)


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_cyclotomic_degree_is_totient():
    for n in range(1, 201):
        assert len(cyclotomic_polynomial(n)) - 1 == _totient(n)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_product_formula():
    for n in range(1, 61):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, cyclotomic_polynomial(d))
        assert tuple(prod) == tuple([-1] + [0] * (n - 1) + [1])


def test_root_sum_examples():
    assert root_sum_is_zero(CycSum(3, {0: 1, 1: 1, 2: 1}))
    assert not root_sum_is_zero(CycSum(4, {0: 1, 1: 1}))
    s = CycSum(6, {0: 1, 2: 1, 4: 1})
    assert root_sum_is_zero(s)
    assert abs(evaluate_cyc(s)) < 1e-12


def test_cycsum_normalization():
    s = CycSum(5, {7: 2, 2: -2, 3: 0})
    assert s.coeffs == {}
    assert root_sum_is_zero(s)
    with pytest.raises(InvalidInputError):
        CycSum(0, {0: 1})


def test_evaluate_cyc_examples():
    assert abs(evaluate_cyc(CycSum(2, {0: 1, 1: 1}))) < 1e-15
    assert evaluate_cyc(CycSum(1, {0: 5})) == pytest.approx(5.0)
    assert evaluate_cyc(CycSum(4, {1: 1})) == pytest.approx(1j)


def test_zero_test_agrees_with_float_evaluation():
    # Random orders N <= 60, coefficients |c| <= 10; seed recorded.
    rng = random.Random(20260826)
    for _ in range(10_000):
        order = rng.randint(1, 60)
        coeffs = {
            rng.randrange(order): rng.randint(-10, 10)
            for _ in range(rng.randint(1, 6))
        }
        s = CycSum(order, coeffs)
        magnitude = abs(evaluate_cyc(s))
        if root_sum_is_zero(s):
            assert magnitude < 1e-9
        else:
            assert magnitude > 1e-9


def _phi_divides(s):
    # Oracle: Phi_N divides sum_e c_e x^e, by schoolbook long division.
    if not s.coeffs:
        return True
    phi = cyclotomic_polynomial(s.order)
    dd = len(phi) - 1
    rem = [0] * s.order
    for e, c in s.coeffs.items():
        rem[e] = c
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j, b in enumerate(phi):
                rem[i - dd + j] -= c * b
    return not any(rem[:dd])


@st.composite
def _cyc_sums(draw):
    # Shifted full-period blocks c * zeta^s * (1 + zeta_d + ... + zeta_d^{d-1})
    # vanish, so sums of them, with or without single terms, hit both
    # verdicts often.
    order = draw(st.integers(1, 500))
    divisors = [d for d in range(2, order + 1) if order % d == 0]
    coeffs: dict[int, int] = {}
    for _ in range(draw(st.integers(0, 5))):
        if divisors and draw(st.booleans()):
            d = draw(st.sampled_from(divisors))
            shift = draw(st.integers(0, order - 1))
            c = draw(st.integers(-2, 2))
            for j in range(d):
                e = (shift + j * (order // d)) % order
                coeffs[e] = coeffs.get(e, 0) + c
        else:
            e = draw(st.integers(0, order - 1))
            coeffs[e] = coeffs.get(e, 0) + draw(st.integers(-3, 3))
    return CycSum(order, coeffs)


@settings(max_examples=400, deadline=None)
@given(_cyc_sums())
def test_zero_test_agrees_with_phi_division(s):
    assert root_sum_is_zero(s) == _phi_divides(s)


def test_zero_test_builds_no_cyclotomic_polynomial():
    misses = cyclotomic_polynomial.cache_info().misses
    sums = [
        CycSum(45045, {0: 1, 15015: 1, 30030: 1}),
        CycSum(45045, {0: 1, 15015: 1, 30031: 1}),
        CycSum(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19, {0: 2, 1: -1, 7: 3}),
        CycSum(2**61 - 1, {0: 1, 1: 1}),
    ]
    assert [root_sum_is_zero(s) for s in sums] == [True, False, False, False]
    assert cyclotomic_polynomial.cache_info().misses == misses


@pytest.mark.parametrize(
    "order",
    [
        45045,
        3 * 33333333333333331,
        2**61 - 1,
        3 * (2**61 - 1),
        2147483647 * 2147483629,
        2 * 2147483647 * 2147483629,
    ],
)
@pytest.mark.parametrize("bound", [2, 3, 5, 20, 2000])
def test_split_order_matches_sympy(order, bound):
    primes, rest = _split_order(order, bound)
    expected = sympy.factorint(order)
    assert primes == sorted(p for p in expected if p <= bound)
    assert rest == math.prod(p**a for p, a in expected.items() if p > bound)

"""Exact arithmetic layer: cyclotomics, zero-test, common-denominator grids."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from spectrapairs.errors import InvalidInputError
from spectrapairs.exact import (
    CycSum,
    RationalPhases,
    _split_order,
    cyclotomic_polynomial,
    integer,
    rational,
    root_sum_is_zero,
)
from spectrapairs.measures import AtomicMeasure, IFSMeasure
from spectrapairs.representation import (
    multiplication_representation,
    permutation_representation,
)
from spectrapairs.sets import FiniteRationalSet


def evaluate_cyc(s):
    """Floating-point value of the sum; the numeric cross-check."""
    return sum(
        (c * cmath.exp(2j * math.pi * e / s.order) for e, c in s.coeffs.items()),
        complex(0),
    )


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


@settings(max_examples=400, deadline=None)
@given(
    points=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12), min_size=1, max_size=6),
    order=st.integers(1, 72),
)
def test_root_sum_agrees_with_phi_division(points, order):
    # Repeated points included: a FiniteRep's eigenvalues may repeat.
    s = RationalPhases(points).root_sum(order)
    assert root_sum_is_zero(s) == _phi_divides(s)


def test_root_sum_counts_repeated_points():
    # 2 zeta_2^0 + zeta_2^1 = 1; with the repeat dropped it would read 0.
    s = RationalPhases([0, 0, Fraction(1, 2)]).root_sum(2)
    assert s == CycSum(2, {0: 2, 1: 1})
    assert not root_sum_is_zero(s)


def _base_case_sums(order, p, rng):
    """Sums of exactly p terms with one coefficient c at order ``order``:
    a coset of the p-th roots of unity, which vanishes, and p scattered
    exponents.  Each comes with a copy where one coefficient is moved off
    c and one where one exponent is moved."""
    c = rng.choice([-3, -1, 1, 2])
    shift = rng.randrange(order)
    coset = [(shift + j * (order // p)) % order for j in range(p)]
    for exponents in (coset, rng.sample(range(order), p)):
        coeffs = dict.fromkeys(exponents, c)
        yield CycSum(order, coeffs)
        e = rng.choice(exponents)
        yield CycSum(order, {**coeffs, e: c + rng.choice([-1, 1])})
        moved = dict(coeffs)
        del moved[e]
        e = (e + rng.randrange(1, order)) % order
        moved[e] = moved.get(e, 0) + c
        yield CycSum(order, moved)


@pytest.mark.parametrize(
    "order, p",
    [(p, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
    + [(2**9, 2), (3**5, 3), (2**4 * 3**2, 2), (2**4 * 3**2, 3)],
)
def test_prime_order_base_case_agrees_with_phi_division(order, p):
    # At a prime order p the tower stops: p equal terms vanish, and any
    # other sum does not.  At p^a and 2^4 3^2 the same sums reach it
    # through the classes mod N / rad(N).
    rng = random.Random(order * 100 + p)
    verdicts = set()
    for _ in range(40):
        for s in _base_case_sums(order, p, rng):
            verdict = root_sum_is_zero(s)
            assert verdict == _phi_divides(s), s
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_root_sum_is_fresh_at_every_order():
    # Points 0, 0, 1/3, 2/3, 1/2, 5 on the grid over 6: numerators
    # 0, 0, 2, 4, 3, 30.  Orders interleave; a caller that changes a
    # returned sum must not change the next one.
    grid = RationalPhases([0, 0, Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), 5])
    expected = {
        6: CycSum(6, {0: 3, 2: 1, 4: 1, 3: 1}),
        3: CycSum(3, {0: 4, 2: 1, 1: 1}),
        2: CycSum(2, {0: 5, 1: 1}),
        1: CycSum(1, {0: 6}),
    }
    for order in (6, 2, 6, 3, 1, 2, 3, 6):
        s = grid.root_sum(order)
        assert s == expected[order]
        s.coeffs[0] = -7
        s.coeffs[5 % order] = 11
    assert {order: grid.root_sum(order) for order in expected} == expected
    assert not root_sum_is_zero(grid.root_sum(6))
    assert root_sum_is_zero(RationalPhases([0, Fraction(1, 3), Fraction(2, 3)]).root_sum(3))


def test_split_order_hands_out_immutable_values():
    primes, rest = _split_order(360, 4)
    assert (primes, rest) == ((2, 3), 5)
    assert type(primes) is tuple
    assert _split_order(360, 4) == ((2, 3), 5)


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
    assert list(primes) == sorted(p for p in expected if p <= bound)
    assert rest == math.prod(p**a for p, a in expected.items() if p > bound)


_BIG = 29714666491209  # below 2^53, so a float holds it exactly


@pytest.mark.parametrize(
    "points, denominator, numerators",
    [
        ([0, -3, _BIG], 1, [0, -3, _BIG]),
        (np.array([0, -3, _BIG]), 1, [0, -3, _BIG]),
        ([np.int32(0), np.int32(-3), np.uint64(_BIG)], 1, [0, -3, _BIG]),
        ([Fraction(0), Fraction(-3), Fraction(np.int64(_BIG))], 1, [0, -3, _BIG]),
        (["0", "-3", str(_BIG)], 1, [0, -3, _BIG]),
        ([0.0, -3.0, float(_BIG)], 1, [0, -3, _BIG]),
        ([Fraction(1, 2), Fraction(np.int64(-3), np.int64(4)), 5], 4, [2, -3, 20]),
        (["1/2", "-3/4", "5"], 4, [2, -3, 20]),
        ([0.5, -0.75, np.float64(5)], 4, [2, -3, 20]),
    ],
)
def test_grid_holds_python_ints_whatever_the_input(points, denominator, numerators):
    grid = RationalPhases(points)
    assert (grid.denominator, grid.numerators) == (denominator, numerators)
    assert type(grid.denominator) is int
    assert all(type(n) is int for n in grid.numerators)
    for x in points:
        r = rational(x)
        assert type(r) is Fraction and type(r.numerator) is int and type(r.denominator) is int


@pytest.mark.parametrize("x", [7, np.int64(7), np.uint8(7), np.int32(7)])
def test_integer_gives_a_python_int(x):
    assert (integer(x, "x"), type(integer(x, "x"))) == (7, int)


@pytest.mark.parametrize("x", [7.0, np.float64(7), Fraction(7), "7", None])
def test_integer_refuses_a_non_integer(x):
    with pytest.raises(InvalidInputError, match="^x must be an integer"):
        integer(x, "x")


def test_numpy_order_and_terms_are_python_ints():
    # An np.int64 exponent reduced mod an order past int64 raised
    # OverflowError.
    order = 2 * (2**64 + 13)
    s = CycSum(np.int64(6), {np.int64(0): np.int64(1), np.int64(3): 1})
    assert root_sum_is_zero(s) and type(s.order) is int
    s = CycSum(order, {np.int64(0): 1, order // 2: np.int64(1)})
    assert root_sum_is_zero(s)
    assert all(type(e) is int and type(c) is int for e, c in s.coeffs.items())
    assert cyclotomic_polynomial(np.int64(6)) == cyclotomic_polynomial(6)
    s = RationalPhases([0, 1]).root_sum(np.int64(2))
    assert root_sum_is_zero(s) and type(s.order) is int
    for order, coeffs in ((6.0, {0: 1}), (6, {0.5: 1}), (6, {0: Fraction(1)})):
        with pytest.raises(InvalidInputError, match="must be an integer|must be integers"):
            CycSum(order, coeffs)


def _point_sets():
    points = [0, "1/3", Fraction(-5, 6), np.int64(7)]
    S = FiniteRationalSet(points)
    mu = AtomicMeasure.uniform(points)
    ifs = IFSMeasure(3, (-1, "1/2", np.int64(2)))
    rep = multiplication_representation(mu)
    perm = permutation_representation(6, 5, 7)
    return [
        (S, S.elements),
        (mu, mu.points),
        (ifs, ifs.digits),
        (rep, rep.eigenvalues),
        (perm, perm.eigenvalues),
    ]


@pytest.mark.parametrize("obj, points", _point_sets())
def test_point_sets_carry_the_grid_of_their_points(obj, points):
    fresh = RationalPhases(points)
    assert (obj.phases.denominator, obj.phases.numerators) == (
        fresh.denominator,
        fresh.numerators,
    )
    assert all(type(n) is int for n in (obj.phases.denominator, *obj.phases.numerators))

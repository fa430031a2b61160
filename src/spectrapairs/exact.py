"""Exact arithmetic: reduced rationals, cyclotomic polynomials, and a
certified zero-test for integer combinations of roots of unity.

The central primitive is ``root_sum_is_zero``: a sum sum_e c_e zeta_N^e of
N-th roots of unity with integer coefficients vanishes exactly when the
polynomial sum_e c_e x^e is divisible by the N-th cyclotomic polynomial
Phi_N over the integers.  The test decides this prime by prime down the
cyclotomic tower, without building Phi_N; ``cyclotomic_polynomial`` is the
independent oracle.  Everything downstream that claims an *exact*
orthogonality certificate bottoms out here, with phases put over a common
denominator by ``RationalPhases``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import InvalidInputError

__all__ = [
    "reduce_rational",
    "extended_gcd",
    "cyclotomic_polynomial",
    "CycSum",
    "root_sum_is_zero",
    "RationalPhases",
    "evaluate_cyc",
]


def reduce_rational(p: int, q: int) -> Fraction:
    """Return p/q as a reduced fraction with positive denominator."""
    if q == 0:
        raise InvalidInputError("zero denominator")
    return Fraction(p, q)


def extended_gcd(p: int, q: int) -> tuple[int, int, int]:
    """Return (g, k, l) with g = gcd(p, q) > 0 and k*p + l*q = g."""
    if p == 0 and q == 0:
        raise InvalidInputError("gcd(0, 0) is undefined")
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _exact_div(dividend: list[int], divisor: tuple[int, ...]) -> list[int]:
    # Both polynomials monic; division stays in the integers.
    rem = list(dividend)
    dd = len(divisor) - 1
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j, b in enumerate(divisor):
                rem[i - dd + j] -= c * b
    if any(rem):
        raise ArithmeticError("division was not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first.

    Computed by exact division of x^n - 1 by Phi_d over the proper
    divisors d of n; memoized since callers revisit small orders often.
    """
    if n < 1:
        raise InvalidInputError("cyclotomic order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        poly = _exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class CycSum:
    """Formal integer combination sum_e c_e zeta_N^e of N-th roots of unity.

    Exponents are reduced mod N at construction; zero coefficients are
    dropped.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Mapping[int, int]):
        if order < 1:
            raise InvalidInputError("order must be positive")
        reduced: dict[int, int] = {}
        for e, c in coeffs.items():
            if c:
                e %= order
                reduced[e] = reduced.get(e, 0) + c
        self.order = order
        self.coeffs = {e: c for e, c in reduced.items() if c}

    def __eq__(self, other):
        return (
            isinstance(other, CycSum)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"CycSum(order={self.order}, coeffs={self.coeffs!r})"


def _split_order(order: int, bound: int) -> tuple[list[int], int]:
    """The primes p <= ``bound`` dividing ``order``, increasing, and the
    cofactor ``rest`` of ``order`` whose prime factors all exceed ``bound``.

    Trial division only: the zero test never needs the primes above the
    number of terms.
    """
    primes = []
    rest = order
    p = 2
    while p <= bound and rest > 1:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    return primes, rest


def _group(terms: dict[int, int], modulus: int, div: int, order: int) -> list[dict[int, int]]:
    """Terms grouped by exponent mod ``modulus``, each group re-keyed by
    (e // div) mod ``order``, which is one-to-one on a group."""
    groups: dict[int, dict[int, int]] = {}
    for e, c in terms.items():
        group = groups.get(e % modulus)
        if group is None:
            groups[e % modulus] = group = {}
        group[e // div % order] = c
    return list(groups.values())


def _minus(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    diff = dict(a)
    for e, c in b.items():
        c = diff.get(e, 0) - c
        if c:
            diff[e] = c
        else:
            del diff[e]
    return diff


def _vanishes(order: int, terms: dict[int, int]) -> bool:
    """Whether sum_e c_e zeta_order^e = 0, for exponents in [0, order) and
    nonzero coefficients, descending the tower Q(zeta_N) > Q(zeta_{N/p}).

    Each step reduces the test to sums that must all vanish at a smaller
    order.  With k terms, write N = S * Q where S holds the primes <= k.
    - Q > 1: the terms fall into at most k classes mod each prime of Q, so
      some class is empty and every class mod Q must vanish on its own, as
      a sum in Q(zeta_S) (exponent e mod S, up to a Galois twist).
    - N not squarefree, r = N / rad(N) > 1: 1, zeta_N, ..., zeta_N^{r-1} is
      a basis of Q(zeta_N) over Q(zeta_{rad N}), so every class mod r
      vanishes, with exponent e // r at order rad(N).
    - N squarefree, p its largest prime, N = p * m: sum_i zeta_p^i S_i = 0
      with S_i in Q(zeta_m) iff all p classes S_i are equal (Phi_p is the
      minimal polynomial of zeta_p over Q(zeta_m)), so all vanish when one
      class is empty.  Otherwise each S_i - S_j must vanish, for S_j the
      smallest class, which keeps the terms passed down within twice the
      terms at hand.
    A single nonzero term never vanishes.
    """
    k = len(terms)
    if k < 2:
        return k == 0
    primes, rest = _split_order(order, k)
    rad = math.prod(primes)
    if rest > 1:
        sub = order // rest
        groups = _group(terms, rest, 1, sub)
    elif rad < order:
        sub = rad
        groups = _group(terms, order // rad, order // rad, sub)
    else:
        p = primes[-1]
        sub = order // p
        groups = _group(terms, p, 1, sub)
        if len(groups) == p:
            base = min(groups, key=len)
            groups = [_minus(group, base) for group in groups if group != base]
    if any(len(group) == 1 for group in groups):
        return False
    return all(_vanishes(sub, group) for group in groups)


def root_sum_is_zero(s: CycSum) -> bool:
    """Exact vanishing test over the cyclotomic tower (Lam & Leung, *On
    vanishing sums of roots of unity*, J. Algebra 224, 2000).

    Works on the terms alone: the cost grows with the number of terms and
    the primes up to it, not with the order N, and Phi_N is never built.
    """
    return _vanishes(s.order, s.coeffs)


class RationalPhases:
    """A finite list of rationals x over one common denominator, for exact
    exponential sums sum_x e^{2 pi i x t} at rational t."""

    __slots__ = ("denominator", "numerators")

    def __init__(self, points: Iterable[Fraction]):
        points = list(points)
        D = 1
        for x in points:
            D = D * x.denominator // math.gcd(D, x.denominator)
        self.denominator = D
        self.numerators = [x.numerator * (D // x.denominator) for x in points]

    def at(self, t: Fraction) -> CycSum:
        """sum_x e^{2 pi i x t} as a sum of N-th roots of unity, with
        N = D * t.denominator (not necessarily the least order)."""
        N = self.denominator * t.denominator
        u = t.numerator
        coeffs: dict[int, int] = {}
        for x in self.numerators:
            e = x * u % N
            coeffs[e] = coeffs.get(e, 0) + 1
        return CycSum(N, coeffs)


def evaluate_cyc(s: CycSum) -> complex:
    """Floating-point value of the sum; the numeric cross-check."""
    return sum(
        (c * cmath.exp(2j * math.pi * e / s.order) for e, c in s.coeffs.items()),
        complex(0),
    )

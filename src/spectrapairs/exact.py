"""Exact arithmetic: cyclotomic polynomials, a certified zero-test for
integer combinations of roots of unity, and the common-denominator grid of
a finite point set.

The central primitive is ``root_sum_is_zero``: a sum sum_e c_e zeta_N^e of
N-th roots of unity with integer coefficients vanishes exactly when the
polynomial sum_e c_e x^e is divisible by the N-th cyclotomic polynomial
Phi_N over the integers.  The test decides this prime by prime down the
cyclotomic tower, without building Phi_N, and stops at a prime order p,
where a sum vanishes iff it has all p terms with one coefficient;
``cyclotomic_polynomial`` is the independent oracle.  Everything
downstream that claims an *exact* orthogonality certificate bottoms out
here, with points put over a common denominator D by ``RationalPhases``:
an exponential sum sum_x e^{2 pi i x t} at t = u / v is decided as
``root_sum(M)``, the sum of zeta_M^{n_x} over the numerators n_x, at its
least order M = D v / gcd(u, D v), which the caller computes in integers.
A grid counts its numerators once, on its first ``root_sum``.  Every point
set takes its rationals through ``rational``, and every integer parameter
goes through ``integer``, so no numpy integer reaches an exact product or
count.  A grid counts its own size as it is built, against
``GRID_WORK_BUDGET``, so every point set that holds one is bounded.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import InvalidInputError, check_work

__all__ = [
    "rational",
    "integer",
    "cyclotomic_polynomial",
    "CycSum",
    "root_sum_is_zero",
    "RationalPhases",
    "GRID_WORK_BUDGET",
]

# A grid's budget, in products of 64-bit words: under a second at the edge.
GRID_WORK_BUDGET = 2**23


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
    n = integer(n, "cyclotomic order")
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
        index = operator.index
        try:
            terms = [(index(e), index(c)) for e, c in coeffs.items()]
        except TypeError:
            raise InvalidInputError("exponents and coefficients must be integers") from None
        self._reduce(integer(order, "order"), terms)

    def _reduce(self, order: int, terms: Iterable[tuple[int, int]]) -> None:
        """Set the fields from a Python-int order and (exponent,
        coefficient) pairs of Python ints."""
        if order < 1:
            raise InvalidInputError("order must be positive")
        reduced: dict[int, int] = {}
        for e, c in terms:
            e %= order
            reduced[e] = reduced.get(e, 0) + c
        if not all(reduced.values()):
            # A zero coefficient or a cancellation left a zero: drop it.
            reduced = {e: c for e, c in reduced.items() if c}
        self.order = order
        self.coeffs = reduced

    def __eq__(self, other):
        return (
            isinstance(other, CycSum)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"CycSum(order={self.order}, coeffs={self.coeffs!r})"


@lru_cache(maxsize=1024)
def _split_order(order: int, bound: int) -> tuple[tuple[int, ...], int]:
    """The primes p <= ``bound`` dividing ``order``, increasing, and the
    cofactor ``rest`` of ``order`` whose prime factors all exceed ``bound``.

    Trial division only: the zero test never needs the primes above the
    number of terms.  Memoized, since the zero tests over one grid meet
    the same few orders and term counts again and again; the primes come
    as a tuple, so no caller can change a cached value.
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
    return tuple(primes), rest


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

    A prime order p <= k is the base case: all p exponents occur, and the
    sum vanishes iff they share one coefficient, since Phi_p = 1 + x + ...
    + x^{p-1} is the minimal polynomial of zeta_p.  Otherwise each step
    reduces the test to sums that must all vanish at a smaller order.
    With k terms, write N = S * Q where S holds the primes <= k.
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
    if primes == (order,):
        return len(set(terms.values())) == 1
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


def rational(x) -> Fraction:
    """x as an exact Fraction of Python ints: the one rule by which every
    point set takes its inputs.  ``Fraction(x)`` alone keeps a numpy
    integer as it is, and exact products of one wrap around silently."""
    if type(x) is not Fraction:
        x = Fraction(x)
    if type(x.numerator) is int and type(x.denominator) is int:
        return x
    return Fraction(int(x.numerator), int(x.denominator))


def integer(x, name: str) -> int:
    """x as a Python int, through ``operator.index``: the one rule by
    which every integer parameter is taken.  A numpy integer becomes a
    Python int, so no exact count made from it wraps around in int64; a
    float, a Fraction or a string is invalid input, reported as ``name``."""
    try:
        return operator.index(x)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, not {type(x).__name__}") from None


class RationalPhases:
    """A finite list of rationals x as Python-int numerators over one
    common denominator, for exact exponential sums sum_x e^{2 pi i x t}
    at rational t.  Python ints are read as they are, every other point
    through ``rational``.  The count of each numerator, which only
    ``root_sum`` reads, is taken once, on its first call.  As it is built,
    the grid counts its cost in 64-bit words against ``GRID_WORK_BUDGET``:
    words(D) * words(d) for each step of the lcm D over the distinct
    denominators d, least first, then floor(bits(D) / 64) per numerator."""

    __slots__ = ("denominator", "numerators", "_counts")

    def __init__(self, points: Iterable):
        points = [x if type(x) is int else rational(x) for x in points]
        D, work = 1, 0
        for d in sorted({x.denominator for x in points}):
            step = ((D.bit_length() + 63) // 64) * ((d.bit_length() + 63) // 64)
            work = check_work("common-denominator grid", work + step, GRID_WORK_BUDGET)
            D = math.lcm(D, d)
        work += len(points) * (D.bit_length() // 64)
        check_work("common-denominator grid", work, GRID_WORK_BUDGET)
        self.denominator = D
        self.numerators = [x.numerator * (D // x.denominator) for x in points]
        self._counts = None

    def root_sum(self, order: int) -> CycSum:
        """sum_x zeta_order^{n_x}, over the numerators n_x with repeats.

        By Galois conjugation sum_x e^{2 pi i x t} at t = u / v vanishes
        iff this sum does at its least order M = D v / gcd(u, D v): the
        sum is sum_x zeta_M^{n_x w} with w = u / gcd(u, D v) prime to M,
        and zeta_M -> zeta_M^w is an automorphism of Q(zeta_M)."""
        if self._counts is None:
            self._counts = Counter(self.numerators)
        # The counts are Python ints already: only the order is converted,
        # and only when it is not an int, since every zero test comes here.
        if type(order) is not int:
            order = integer(order, "order")
        s = CycSum.__new__(CycSum)
        s._reduce(order, self._counts.items())
        return s

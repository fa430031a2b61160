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
A grid counts its numerators once, on its first ``root_sum``, and each
sum holds those counts unreduced until the zero test classes them.  Every
point set takes its rationals through ``rational``, and every integer
parameter goes through ``integer``, so no numpy integer reaches an exact
product or count.  A grid counts its own size as it is built, against
``GRID_WORK_BUDGET``, so every point set that holds one is bounded.
"""

from __future__ import annotations

import math
import operator
import reprlib
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


def _reduce(order: int, terms) -> dict[int, int]:
    """The (exponent, coefficient) pairs ``terms`` as a new dict, each
    exponent reduced mod ``order`` and the coefficients of equal exponents
    added."""
    reduced: dict[int, int] = {}
    get = reduced.get
    for e, c in terms:
        e %= order
        reduced[e] = get(e, 0) + c
    return reduced


class CycSum:
    """Formal integer combination sum_e c_e zeta_N^e of N-th roots of unity.

    Exponents are reduced mod N at construction; zero coefficients are
    dropped.  A sum made by ``RationalPhases.root_sum`` holds its grid's
    numerator counts as they are, unreduced: ``coeffs`` is formed from
    them, into a dict of its own, on its first read, and
    ``root_sum_is_zero`` reads the counts without forming it.
    """

    __slots__ = ("order", "_coeffs", "_counts")

    def __init__(self, order: int, coeffs: Mapping[int, int]):
        index = operator.index
        try:
            terms = [(index(e), index(c)) for e, c in coeffs.items()]
        except TypeError:
            raise InvalidInputError("exponents and coefficients must be integers") from None
        order = integer(order, "order")
        if order < 1:
            raise InvalidInputError("order must be positive")
        reduced = _reduce(order, terms)
        if not all(reduced.values()):
            # A zero coefficient or a cancellation left a zero: drop it.
            reduced = {e: c for e, c in reduced.items() if c}
        self.order = order
        self._coeffs = reduced
        self._counts = None

    @property
    def coeffs(self) -> dict[int, int]:
        """The nonzero coefficients by exponent in [0, order)."""
        coeffs = self._coeffs
        if coeffs is None:  # a grid's counts are positive: no zero to drop
            coeffs = self._coeffs = _reduce(self.order, self._counts.items())
            self._counts = None
        return coeffs

    def __eq__(self, other):
        return (
            isinstance(other, CycSum)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"CycSum(order={self.order}, coeffs={self.coeffs!r})"


def _split_order(order: int, bound: int) -> tuple[tuple[int, ...], int]:
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
    return tuple(primes), rest


@lru_cache(maxsize=1024)
def _step(order: int, k: int) -> tuple[int, int, int]:
    """The tower step for k terms at ``order``, as (m, r, sub): the terms
    fall into classes by exponent mod m, each a sum at order ``sub`` with
    exponent e // r if r > 0, else e mod sub.  sub = 1 is the base case.
    Memoized, since the zero tests over one grid meet the same few orders
    and term counts again and again."""
    primes, rest = _split_order(order, k)
    if rest > 1:
        return rest, 0, order // rest
    rad = math.prod(primes)
    if rad < order:
        return order // rad, order // rad, rad
    return primes[-1], 0, order // primes[-1]


def _vanishes(order: int, terms: dict[int, int]) -> bool:
    """Whether sum_e c_e zeta_order^e = 0, for exponents in [0, order) and
    nonzero coefficients, descending the tower Q(zeta_N) > Q(zeta_{N/p}).

    With k terms, write N = S * Q where S holds the primes <= k.  Each step
    reduces the test to sums that must all vanish at a smaller order.
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
    The base case is a step to order 1 (N prime with N <= k, or no prime
    <= k): the sum vanishes iff all N exponents occur, with one
    coefficient, as Phi_p = 1 + x + ... + x^{p-1} is the minimal
    polynomial of zeta_p.  A single nonzero term never vanishes.  Each
    step reads each term once, into class dicts of its own, and subtracts
    the smallest class from the others in place; ``terms`` is not changed.
    Any k at least the number of terms chooses a valid step.
    """
    k = len(terms)
    if k < 2:
        return not k
    m, r, sub = step = _step(order, k)
    if sub == 1:
        return k == order and len(set(terms.values())) == 1
    classes: dict[int, dict[int, int]] = {}
    get = classes.get
    if r:
        for e, c in terms.items():
            cls = get(e % r)
            if cls is None:
                classes[e % r] = cls = {}
            cls[e // r] = c
    else:
        for e, c in terms.items():
            cls = get(e % m)
            if cls is None:
                classes[e % m] = cls = {}
            cls[e % sub] = c
    return _classes_vanish(step, classes)


def _counts_vanish(order: int, counts: Mapping[int, int]) -> bool:
    """``_vanishes`` for a grid's counts: positive coefficients on
    numerators not yet reduced mod ``order``.

    The first step classes the numerators straight from the counts, with
    k their number, which bounds the terms left after reduction.  Equal
    residues merge as they are classed; the counts are positive, so no
    zero term appears.  At order 1 the sum is the positive total.  A first
    step to the base case reduces the counts first, into a total for each
    residue: the sum vanishes iff all ``order`` totals are equal.  Its
    order is a prime p <= k, or has no prime <= k, and then k < order, so
    not every residue can occur."""
    k = len(counts)
    if k < 2:
        return not k
    if order == 1:
        return False
    m, r, sub = step = _step(order, k)
    if sub == 1:
        if k < order:
            return False
        totals = [0] * order  # order <= k
        for n, c in counts.items():
            totals[n % order] += c
        return min(totals) == max(totals)
    classes: dict[int, dict[int, int]] = {}
    get = classes.get
    if r:
        for n, c in counts.items():
            n %= order
            cls = get(n % r)
            if cls is None:
                classes[n % r] = cls = {}
            n //= r
            cls[n] = cls.get(n, 0) + c
    else:
        for n, c in counts.items():
            cls = get(n % m)
            if cls is None:
                classes[n % m] = cls = {}
            n %= sub
            cls[n] = cls.get(n, 0) + c
    return _classes_vanish(step, classes)


def _classes_vanish(step: tuple[int, int, int], classes: dict[int, dict[int, int]]) -> bool:
    """Whether every sum the tower step ``step`` = (m, r, sub) passes down
    vanishes at order ``sub``, for ``classes`` the terms classed by that
    step (see ``_vanishes``)."""
    m, r, sub = step
    if not r and len(classes) == m:  # only a squarefree step meets all m classes
        base = min(classes.values(), key=len)
        for cls in classes.values():
            if cls != base:
                pull = cls.get
                for e, c in base.items():
                    c = pull(e, 0) - c
                    if c:
                        cls[e] = c
                    else:
                        del cls[e]
                if not _vanishes(sub, cls):
                    return False
        return True
    for cls in classes.values():
        if len(cls) == 1:
            return False
    for cls in classes.values():
        if not _vanishes(sub, cls):
            return False
    return True


def root_sum_is_zero(s: CycSum) -> bool:
    """Exact vanishing test over the cyclotomic tower (Lam & Leung, *On
    vanishing sums of roots of unity*, J. Algebra 224, 2000).

    Works on the terms alone: the cost grows with the number of terms and
    the primes up to it, not with the order N, and Phi_N is never built.
    A grid's sum reaches the tower as its counts, unreduced.
    """
    counts = s._counts
    if counts is None:
        return _vanishes(s.order, s._coeffs)
    return _counts_vanish(s.order, counts)


def rational(x) -> Fraction:
    """x as an exact Fraction of Python ints: the one rule by which every
    point set takes its inputs.  ``Fraction(x)`` alone keeps a numpy
    integer as it is, and exact products of one wrap around silently.
    What is no rational number (NaN, an infinity, None, a complex number,
    a string that ``Fraction`` cannot read) is invalid input."""
    if type(x) is not Fraction:
        try:
            x = Fraction(x)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise InvalidInputError(f"not a rational number: {reprlib.repr(x)}") from None
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
    at rational t.  Python ints and Fractions of Python ints are read as
    they are, every other point through ``rational``.  The count of each
    numerator, which only ``root_sum`` reads, is taken once, on its first
    call, and shared by every sum it returns.  As it is built, the grid
    counts its cost in 64-bit words against ``GRID_WORK_BUDGET``:
    words(D) * words(d) for each step of the lcm D over the distinct
    denominators d, least first, then floor(bits(D) / 64) per numerator."""

    __slots__ = ("denominator", "numerators", "_counts")

    def __init__(self, points: Iterable):
        nums, dens = [], []
        for x in points:
            if type(x) is int:
                n, d = x, 1
            else:
                n, d = (x if type(x) is Fraction else rational(x)).as_integer_ratio()
                if type(n) is not int or type(d) is not int:  # a Fraction of numpy ints
                    n, d = rational(x).as_integer_ratio()
            nums.append(n)
            dens.append(d)
        budget = GRID_WORK_BUDGET  # compared inline; check_work only raises
        D, work = 1, 0
        for d in sorted(set(dens)):
            work += ((D.bit_length() + 63) // 64) * ((d.bit_length() + 63) // 64)
            if work > budget:
                check_work("common-denominator grid", work, budget)
            D = math.lcm(D, d)
        work += len(nums) * (D.bit_length() // 64)
        if work > budget:
            check_work("common-denominator grid", work, budget)
        self.denominator = D
        self.numerators = [n * (D // d) for n, d in zip(nums, dens)]
        self._counts = None

    def root_sum(self, order: int) -> CycSum:
        """sum_x zeta_order^{n_x}, over the numerators n_x with repeats.

        By Galois conjugation sum_x e^{2 pi i x t} at t = u / v vanishes
        iff this sum does at its least order M = D v / gcd(u, D v): the
        sum is sum_x zeta_M^{n_x w} with w = u / gcd(u, D v) prime to M,
        and zeta_M -> zeta_M^w is an automorphism of Q(zeta_M).

        The sum holds the grid's numerator counts as they are, so a call
        costs no pass over them: ``root_sum_is_zero`` reduces them mod
        the order as its first tower step classes them, and ``coeffs``
        is formed from them, into a new dict for every sum, on its first
        read."""
        counts = self._counts
        if counts is None:
            counts = self._counts = Counter(self.numerators)
        if type(order) is not int or order < 1:
            return CycSum(order, counts)  # converts the order, or refuses it
        s = CycSum.__new__(CycSum)
        s.order = order
        s._coeffs = None
        s._counts = counts
        return s

"""Spectrality of finite rational sets.

A pair (A, B) of equal-size finite sets is a spectral pair when the
normalized exponential matrix (e^{2 pi i a b})_{a in A, b in B} / sqrt(|A|)
is unitary.  Since every entry has modulus one, unitarity reduces to
orthogonality of distinct columns: sum_{a in A} e^{2 pi i a (b - b')} = 0.
With rational data each column sum is an integer combination of N-th roots
of unity and is certified exactly through ``root_sum_is_zero``.

The closed-form criterion for line sets {0, 1, ..., n-2, a}: such a set is
spectral iff a is rational and, in reduced form a = p/q with q > 0,
(p + q) = 0 mod n.  ``construct_line_spectrum`` produces the witness
spectrum {0, q/n, ..., (n-1) q/n} and ``search_spectrum`` is an independent
bounded pruned search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvalidInputError, check_work
from .exact import RationalPhases, rational, root_sum_is_zero
from .sets import ElementInput, FiniteRationalSet, Irrational

__all__ = [
    "PairCertificate",
    "certify_spectral_pair",
    "is_spectral_pair",
    "SpectralDecision",
    "decide_line_set",
    "construct_line_spectrum",
    "search_spectrum",
    "SEARCH_WORK_BUDGET",
    "CERTIFY_WORK_BUDGET",
]

# Work budgets; at each a call takes a few seconds.  ``search_spectrum``:
# its candidates, its pair tests and |A| per zero test.
SEARCH_WORK_BUDGET = 2**19
# ``certify_spectral_pair``: |A| per column tested.
CERTIFY_WORK_BUDGET = 2**22


def _column_sum_is_zero(phases: RationalPhases, order: int) -> bool:
    """Whether sum_{a in A} e^{2 pi i a d} = 0, decided exactly, for d of
    least order ``order`` on A's grid (see ``RationalPhases.root_sum``)."""
    return root_sum_is_zero(phases.root_sum(order))


@dataclass(frozen=True)
class PairCertificate:
    is_pair: bool
    exact: bool = True  # every column sum is decided exactly


def certify_spectral_pair(A: FiniteRationalSet, B: FiniteRationalSet) -> PairCertificate:
    """Column-orthogonality certification of the exponential matrix.

    With A's numerators n_a over D and B's m_b over E, the column of
    (b1, b2) sums zeta_N^{n_a (m2 - m1)} for N = D E, and is decided at
    its least order N / gcd(m2 - m1, N).  Work, against
    ``CERTIFY_WORK_BUDGET``: |A| units per column, counted before its
    test, so a non-pair answers at its first nonzero column."""
    if len(A) != len(B):
        raise InvalidInputError("sets must have equal size")
    N = A.phases.denominator * B.phases.denominator
    pairs = itertools.combinations(B.phases.numerators, 2)
    for columns, (m1, m2) in enumerate(pairs, 1):
        check_work("pair certification", columns * len(A), CERTIFY_WORK_BUDGET)
        if not _column_sum_is_zero(A.phases, N // math.gcd(m2 - m1, N)):
            return PairCertificate(False)
    return PairCertificate(True)


def is_spectral_pair(A: FiniteRationalSet, B: FiniteRationalSet) -> bool:
    return certify_spectral_pair(A, B).is_pair


@dataclass(frozen=True)
class SpectralDecision:
    verdict: str  # "spectral" | "not_spectral"
    certificate: Optional[FiniteRationalSet] = None
    reason: Optional[str] = None  # "irrational" | "congruence_fails"

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_strings()
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _check_line_set(n: int, p: int, q: int) -> None:
    """Preconditions of the line-set constructions for {0, ..., n-2, p/q}:
    the spectral case of the criterion, with p/q in reduced form."""
    if n < 3:
        raise InvalidInputError("n must be at least 3")
    if q < 1:
        raise InvalidInputError("q must be positive")
    if math.gcd(p, q) != 1:
        raise InvalidInputError("p/q must be in reduced form")
    if (p + q) % n != 0:
        raise InvalidInputError("(p + q) must be divisible by n")


def construct_line_spectrum(n: int, p: int, q: int) -> FiniteRationalSet:
    """Witness spectrum {0, q/n, ..., (n-1) q/n} for {0, ..., n-2, p/q}."""
    _check_line_set(n, p, q)
    # Implied by the preconditions: a common prime of q and n would divide p.
    assert math.gcd(q, n) == 1
    return FiniteRationalSet(Fraction(j * q, n) for j in range(n))


def decide_line_set(n: int, a: ElementInput) -> SpectralDecision:
    """Closed-form spectrality decision for {0, 1, ..., n-2, a}."""
    if n < 3:
        raise InvalidInputError("n must be at least 3")
    if isinstance(a, Irrational):
        return SpectralDecision("not_spectral", reason="irrational")
    a = rational(a)
    if a.denominator == 1 and 0 <= a.numerator <= n - 2:
        raise InvalidInputError(f"a = {a} repeats an element of the set")
    p, q = a.numerator, a.denominator
    if (p + q) % n == 0:
        return SpectralDecision("spectral", certificate=construct_line_spectrum(n, p, q))
    return SpectralDecision("not_spectral", reason="congruence_fails")


def search_spectrum(
    A: FiniteRationalSet, q_max: int, span
) -> Optional[FiniteRationalSet]:
    """Bounded pruned spectrum search: the lexicographically first
    B = {0 < b_1 < ...} with |B| = |A|, every b_i a rational of (reduced)
    denominator <= q_max in (0, span), such that is_spectral_pair(A, B);
    else None ("not found within bounds", never a certified negative).

    Depth first in candidate order, each chosen element narrows the
    candidates above it to those whose difference d to it passes the
    column test.  On A's grid (numerators n_a over D) that test holds iff
    sum_a zeta_M^{n_a} = 0 for M the order of d / D (Galois conjugation),
    so it runs once per M.  Work, against ``SEARCH_WORK_BUDGET``: the
    candidate count ceil(span * q_max (q_max + 1) / 2), taken before any is
    built, then one unit per pair test and |A| units per zero test.
    """
    span = Fraction(span)
    if q_max < 1 or span <= 0:
        raise InvalidInputError("q_max must be >= 1 and span positive")
    work = -(-span.numerator * q_max * (q_max + 1) // (2 * span.denominator))  # ceil
    check_work("spectrum search", work, SEARCH_WORK_BUDGET)
    D = A.phases.denominator
    zero_set: dict[int, bool] = {}  # A's zero set: whether the sums of order M vanish
    # p/q < span has a p >= 1 only for q > 1 / span, so every q visited
    # gives a candidate and the count above bounds this loop too.
    q_min = span.denominator // span.numerator + 1
    candidates = {Fraction(p, q) for q in range(q_min, q_max + 1) for p in range(1, math.ceil(span * q))}
    rest = sorted(candidates, reverse=True)
    chosen = [Fraction(0)]
    # left[k]: the candidates above chosen[k] that pass with all of
    # chosen[: k + 1], decreasing, so that pop() takes the least.
    left: list[list[Fraction]] = []
    while len(chosen) < len(A):
        work = check_work("spectrum search", work + len(rest), SEARCH_WORK_BUDGET)
        kept, b = [], chosen[-1]
        for c in rest:
            u = c.numerator * b.denominator - b.numerator * c.denominator
            v = D * c.denominator * b.denominator
            M = v // math.gcd(u, v)  # the order of (c - b) / D
            if M not in zero_set:
                work = check_work("spectrum search", work + len(A), SEARCH_WORK_BUDGET)
                zero_set[M] = _column_sum_is_zero(A.phases, M)
            if zero_set[M]:
                kept.append(c)
        left.append(kept)
        while len(left[-1]) < len(A) - len(chosen):  # too few left to complete B
            left.pop()
            chosen.pop()
            if not left:
                return None
        rest = left[-1]
        chosen.append(rest.pop())
    return FiniteRationalSet(chosen)

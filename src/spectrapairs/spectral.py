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
from fractions import Fraction
from typing import NamedTuple, Optional

from . import errors
from .errors import InvalidInputError, check_work
from .exact import RationalPhases, integer, rational, root_sum_is_zero
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

# Work budgets.  A zero test of order M costs |A| * words(M), words(M) the
# 64-bit words of M.
# ``search_spectrum``: its candidates, its pair tests and its zero tests.
# Walked in Farey order as int pairs, the candidates cost little: the edge,
# {0, 1, 2} at span 10 and q_max 254, answers in about 0.2 s, and the
# budget stays where it was set when each candidate was a Fraction, so
# that every refusal stays where it is.
SEARCH_WORK_BUDGET = 2**19
# ``certify_spectral_pair``: one zero test per column tested; a spectral
# pair of 203 points, at the edge, takes 0.7-1.1 s from the CLI.
CERTIFY_WORK_BUDGET = 2**22


def _column_sum_is_zero(phases: RationalPhases, order: int) -> bool:
    """Whether sum_{a in A} e^{2 pi i a d} = 0, decided exactly, for d of
    least order ``order`` on A's grid (see ``RationalPhases.root_sum``)."""
    return root_sum_is_zero(phases.root_sum(order))


class PairCertificate(NamedTuple):
    is_pair: bool
    exact: bool = True  # every column sum is decided exactly


def certify_spectral_pair(A: FiniteRationalSet, B: FiniteRationalSet) -> PairCertificate:
    """Column-orthogonality certification of the exponential matrix.

    With A's numerators n_a over D and B's m_b over E, the column of
    (b1, b2) sums zeta_N^{n_a (m2 - m1)} for N = D E, and is decided at
    its least order N / gcd(m2 - m1, N).  Work, against
    ``CERTIFY_WORK_BUDGET``: |A| * words(N) units per column, words(N) the
    64-bit words of N, counted before its test, so a non-pair answers at
    its first nonzero column."""
    if len(A) != len(B):
        raise InvalidInputError("sets must have equal size")
    phases, gcd, budget = A.phases, math.gcd, CERTIFY_WORK_BUDGET
    N = phases.denominator * B.phases.denominator
    column_work = len(A) * ((N.bit_length() + 63) // 64)
    work = 0
    for m1, m2 in itertools.combinations(B.phases.numerators, 2):
        work += column_work
        if work > budget:  # compared inline: this runs once per column
            check_work("pair certification", work, budget)
        if not _column_sum_is_zero(phases, N // gcd(m2 - m1, N)):
            return PairCertificate(False)
    return PairCertificate(True)


def is_spectral_pair(A: FiniteRationalSet, B: FiniteRationalSet) -> bool:
    return certify_spectral_pair(A, B).is_pair


class SpectralDecision(NamedTuple):
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


def _check_line_set(n: int, p: int, q: int) -> tuple[int, int, int]:
    """Preconditions of the line-set constructions for {0, ..., n-2, p/q}:
    the spectral case of the criterion, with p/q in reduced form.  Returns
    n, p and q as Python ints."""
    n, p, q = integer(n, "n"), integer(p, "p"), integer(q, "q")
    if n < 3:
        raise InvalidInputError("n must be at least 3")
    if q < 1:
        raise InvalidInputError("q must be positive")
    if math.gcd(p, q) != 1:
        raise InvalidInputError("p/q must be in reduced form")
    if (p + q) % n != 0:
        raise InvalidInputError("(p + q) must be divisible by n")
    return n, p, q


def construct_line_spectrum(n: int, p: int, q: int) -> FiniteRationalSet:
    """Witness spectrum {0, q/n, ..., (n-1) q/n} for {0, ..., n-2, p/q};
    counts 2 n against ``errors.WORK_BUDGET`` after the preconditions."""
    n, p, q = _check_line_set(n, p, q)
    check_work("line-set witness", 2 * n, errors.WORK_BUDGET)
    # Implied by the preconditions: a common prime of q and n would divide p.
    assert math.gcd(q, n) == 1
    return FiniteRationalSet(Fraction(j * q, n) for j in range(n))


def decide_line_set(n: int, a: ElementInput) -> SpectralDecision:
    """Closed-form spectrality decision for {0, 1, ..., n-2, a}."""
    n = integer(n, "n")
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


def _candidates(q_max: int, span: Fraction) -> list[tuple[int, int]]:
    """The reduced p/q in (0, span) with q <= q_max, as (p, q) pairs of
    ints in increasing order.  Those below 1 are the Farey sequence of
    order q_max (Hardy & Wright, ch. III), walked from 0/1, 1/q_max by its
    next-term rule (a/b, c/d) -> (c/d, (kc - a)/(kd - b)),
    k = floor((q_max + b) / d), and stopped before the first term at or
    above min(span, 1); so a walk below a small span visits no more terms
    than it keeps.  Each integer j with 1 <= j < span then adds j and the
    terms below 1 shifted by j, cut at span."""
    sp, sq = span.numerator, span.denominator
    lp, lq = (sp, sq) if sp < sq else (1, 1)
    unit = []
    a, b, c, d = 0, 1, 1, q_max
    while c * lq < lp * d:
        unit.append((c, d))
        k = (q_max + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    out = list(unit)
    for j in range(1, -(-sp // sq)):
        out.append((j, 1))
        if (j + 1) * sq <= sp:  # the whole shifted copy lies below span
            out.extend([(p + j * q, q) for p, q in unit])
            continue
        for p, q in unit:
            p += j * q
            if p * sq >= sp * q:
                break
            out.append((p, q))
    return out


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
    so it runs once per M.  The candidates are walked in Farey order as
    (p, q) pairs of ints (``_candidates``), and only the hit is built of
    Fractions.  Work, against ``SEARCH_WORK_BUDGET``: the candidate count
    ceil(span * q_max (q_max + 1) / 2), taken before any is built, then
    one unit per pair test and |A| * words(M) units per zero test,
    words(M) the 64-bit words of M.
    """
    q_max, span = integer(q_max, "q_max"), rational(span)
    if q_max < 1 or span <= 0:
        raise InvalidInputError("q_max must be >= 1 and span positive")
    work = -(-span.numerator * q_max * (q_max + 1) // (2 * span.denominator))  # ceil
    check_work("spectrum search", work, SEARCH_WORK_BUDGET)
    phases, size, gcd, budget = A.phases, len(A), math.gcd, SEARCH_WORK_BUDGET
    D = phases.denominator
    zero_set: dict[int, bool] = {}  # A's zero set: whether the sums of order M vanish
    # The walk visits at most one term past the candidates, so the count
    # above bounds it too.  Decreasing, so that pop() takes the least.
    rest = _candidates(q_max, span)
    rest.reverse()
    chosen = [(0, 1)]
    # left[k]: the candidates above chosen[k] that pass with all of
    # chosen[: k + 1], decreasing, so that pop() takes the least.
    left: list[list[tuple[int, int]]] = []
    while len(chosen) < size:
        # Budgets are compared inline, and ``check_work`` called only to
        # raise: the pair loop below runs once per candidate.
        work += len(rest)
        if work > budget:
            check_work("spectrum search", work, budget)
        kept, (bp, bq) = [], chosen[-1]
        Dbq = D * bq
        for c in rest:
            cp, cq = c
            v = Dbq * cq
            M = v // gcd(cp * bq - bp * cq, v)  # the order of (c - b) / D
            vanishes = zero_set.get(M)
            if vanishes is None:
                work += size * ((M.bit_length() + 63) // 64)
                if work > budget:
                    check_work("spectrum search", work, budget)
                vanishes = zero_set[M] = _column_sum_is_zero(phases, M)
            if vanishes:
                kept.append(c)
        left.append(kept)
        while len(left[-1]) < size - len(chosen):  # too few left to complete B
            left.pop()
            chosen.pop()
            if not left:
                return None
        rest = left[-1]
        chosen.append(rest.pop())
    return FiniteRationalSet(Fraction(p, q) for p, q in chosen)

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
bounded brute-force oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvalidInputError
from .exact import RationalPhases, root_sum_is_zero
from .sets import ElementInput, FiniteRationalSet, Irrational, scale_translate

__all__ = [
    "PairCertificate",
    "certify_spectral_pair",
    "is_spectral_pair",
    "SpectralDecision",
    "decide_line_set",
    "decide_three_point",
    "construct_line_spectrum",
    "search_spectrum",
    "scale_translate",
]


def _column_sum_is_zero(phases: RationalPhases, d: Fraction) -> bool:
    """Whether sum_{a in A} e^{2 pi i a d} = 0, decided exactly."""
    return root_sum_is_zero(phases.at(d))


@dataclass(frozen=True)
class PairCertificate:
    is_pair: bool
    exact: bool = True  # every column sum is decided exactly


def certify_spectral_pair(A: FiniteRationalSet, B: FiniteRationalSet) -> PairCertificate:
    """Column-orthogonality certification of the exponential matrix."""
    if len(A) != len(B):
        raise InvalidInputError("sets must have equal size")
    phases = RationalPhases(A)
    for b1, b2 in itertools.combinations(B.elements, 2):
        if not _column_sum_is_zero(phases, b2 - b1):
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


def construct_line_spectrum(n: int, p: int, q: int) -> FiniteRationalSet:
    """Witness spectrum {0, q/n, ..., (n-1) q/n} for {0, ..., n-2, p/q}."""
    if n < 3:
        raise InvalidInputError("n must be at least 3")
    if q < 1:
        raise InvalidInputError("q must be positive")
    if math.gcd(p, q) != 1:
        raise InvalidInputError("p/q must be in reduced form")
    if (p + q) % n != 0:
        raise InvalidInputError("(p + q) must be divisible by n")
    # Implied by the preconditions: a common prime of q and n would divide p.
    assert math.gcd(q, n) == 1
    return FiniteRationalSet(Fraction(j * q, n) for j in range(n))


def decide_line_set(n: int, a: ElementInput) -> SpectralDecision:
    """Closed-form spectrality decision for {0, 1, ..., n-2, a}."""
    if n < 3:
        raise InvalidInputError("n must be at least 3")
    if isinstance(a, Irrational):
        return SpectralDecision("not_spectral", reason="irrational")
    a = Fraction(a)
    if a.denominator == 1 and 0 <= a.numerator <= n - 2:
        raise InvalidInputError(f"a = {a} repeats an element of the set")
    p, q = a.numerator, a.denominator
    if (p + q) % n == 0:
        return SpectralDecision("spectral", certificate=construct_line_spectrum(n, p, q))
    return SpectralDecision("not_spectral", reason="congruence_fails")


def decide_three_point(a: ElementInput) -> SpectralDecision:
    """Spectrality of {0, 1, a}: p + q divisible by 3."""
    return decide_line_set(3, a)


def search_spectrum(
    A: FiniteRationalSet, q_max: int, span
) -> Optional[FiniteRationalSet]:
    """Bounded brute-force spectrum search.

    Enumerates candidate sets B containing 0 with |B| = |A|, all elements
    rationals of (reduced) denominator <= q_max in [0, span), and returns
    the lexicographically first B with is_spectral_pair(A, B), else None.

    Every valid B must satisfy the column condition individually for each
    nonzero element and each pairwise difference, so candidates failing the
    single-element condition are pruned up front; this cannot change the
    first hit.  A "None" result means "not found within bounds", never a
    certified negative.
    """
    span = Fraction(span)
    if q_max < 1 or span <= 0:
        raise InvalidInputError("q_max must be >= 1 and span positive")

    phases = RationalPhases(A)
    zero_cache: dict[Fraction, bool] = {}

    def sum_vanishes(d: Fraction) -> bool:
        hit = zero_cache.get(d)
        if hit is None:
            hit = zero_cache[d] = _column_sum_is_zero(phases, d)
        return hit

    candidates = sorted(
        {
            Fraction(p, q)
            for q in range(1, q_max + 1)
            for p in range(1, math.ceil(span * q))
            if Fraction(p, q) < span
        }
    )
    viable = [b for b in candidates if sum_vanishes(b)]
    zero = Fraction(0)
    for combo in itertools.combinations(viable, len(A) - 1):
        if all(
            sum_vanishes(b2 - b1) for b1, b2 in itertools.combinations(combo, 2)
        ):
            return FiniteRationalSet((zero,) + combo)
    return None

"""Measures on the line and their Fourier-analytic diagnostics.

Covers finite atomic measures, infinite-product transforms of
iterated-function-system measures (the scale-4 digit-{0,2} Cantor measure
being the canonical instance), the {sum 4^k l_k} spectrum for it, Gram
matrices of exponential families, frame bounds, and the Parseval
completeness diagnostic Q(t) = sum_lambda |mu_hat(t - lambda)|^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import InvalidInputError
from .exact import RationalPhases, root_sum_is_zero
from .sets import fraction_str

__all__ = [
    "AtomicMeasure",
    "IFSMeasure",
    "FrameReport",
    "atomic_transform",
    "IFSTransformValue",
    "ifs_transform",
    "jp_spectrum",
    "gram_matrix",
    "frame_bounds",
    "completeness_defect",
]


class AtomicMeasure:
    """Finite support of distinct rationals with positive weights summing
    to one."""

    __slots__ = ("points", "weights")

    def __init__(self, points: Iterable, weights: Iterable[float]):
        pairs = sorted(zip((Fraction(p) for p in points), weights))
        pts = tuple(p for p, _ in pairs)
        wts = tuple(float(w) for _, w in pairs)
        if not pts:
            raise InvalidInputError("measure needs nonempty support")
        if len(set(pts)) != len(pts):
            raise InvalidInputError("support points must be distinct")
        if any(w <= 0 for w in wts):
            raise InvalidInputError("weights must be positive")
        if abs(math.fsum(wts) - 1.0) > 1e-14:
            raise InvalidInputError("weights must sum to 1")
        self.points = pts
        self.weights = wts

    @classmethod
    def uniform(cls, points: Iterable) -> "AtomicMeasure":
        pts = list(points)
        return cls(pts, [1.0 / len(pts)] * len(pts))

    def __eq__(self, other):
        return (
            isinstance(other, AtomicMeasure)
            and self.points == other.points
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"AtomicMeasure(points={self.points}, weights={self.weights})"

    def to_json(self) -> dict:
        return {
            "points": [fraction_str(p) for p in self.points],
            "weights": list(self.weights),
        }


@dataclass(frozen=True)
class IFSMeasure:
    """Self-similar measure of the maps x -> (x + d) / scale, d in digits."""

    scale: int
    digits: tuple[Fraction, ...]

    def __init__(self, scale: int, digits: Iterable):
        digs = tuple(sorted(Fraction(d) for d in digits))
        if scale < 2:
            raise InvalidInputError("scale must be at least 2")
        if len(digs) < 2 or len(set(digs)) != len(digs):
            raise InvalidInputError("need at least two distinct digits")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "digits", digs)

    def to_json(self) -> dict:
        return {
            "scale": self.scale,
            "digits": [fraction_str(d) for d in self.digits],
        }


def cantor4_measure() -> IFSMeasure:
    """The scale-4, digits-{0, 2} Cantor measure."""
    return IFSMeasure(4, (0, 2))


@dataclass(frozen=True)
class FrameReport:
    lower: float
    upper: float


def atomic_transform(mu: AtomicMeasure, t) -> complex:
    """mu_hat(t) = sum_b w_b e^{2 pi i b t} (phases exact mod 1 for
    rational t)."""
    t = Fraction(t)
    return sum(
        (
            w * cmath.exp(2j * math.pi * float((b * t) % 1))
            for b, w in zip(mu.points, mu.weights)
        ),
        complex(0),
    )


class IFSTransformValue(NamedTuple):
    value: complex
    depth: int


def _digit_factor(mu: IFSMeasure, s: float) -> complex:
    return sum(cmath.exp(2j * math.pi * float(d) * s) for d in mu.digits) / len(
        mu.digits
    )


def _vanishing_depth(mu: IFSMeasure, t: Fraction, max_depth: int) -> int:
    """First truncation level whose factor vanishes exactly, or 0.

    For a two-digit set the factor at level k vanishes iff
    (d2 - d1) * t / R^k = 1/2 (mod 1); checked in integer arithmetic.
    Larger digit sets go through the exact root-of-unity test.
    """
    if len(mu.digits) == 2:
        x = (mu.digits[1] - mu.digits[0]) * t  # factor zero iff x/R^k = 1/2 mod 1
        u, v = x.numerator, x.denominator
        for k in range(1, max_depth + 1):
            denom = v * mu.scale**k
            # 2u/denom must be an odd integer.
            if 2 * u % denom == 0 and (2 * u // denom) % 2 != 0:
                return k
            if 2 * abs(u) < denom:  # |x/R^k| < 1/2: no further zeros possible
                break
        return 0
    phases = RationalPhases(mu.digits)
    spread = mu.digits[-1] - mu.digits[0]
    for k in range(1, max_depth + 1):
        s = t / mu.scale**k
        if 2 * abs(spread * s) * math.pi < 1.0 and k > 1:
            break
        if root_sum_is_zero(phases.at(s)):
            return k
    return 0


def _truncation_depth(mu: IFSMeasure, t_abs: float, eps: float) -> int:
    """Depth K with certified tail error <= eps.

    |m_D(s) - 1| <= 2 pi max|d| |s|, so the tail of the product past K is
    within exp(delta) - 1 of 1 with delta = 2 pi max|d| |t| / (R^K (R-1)).
    """
    if t_abs == 0:
        return 0
    c = 2 * math.pi * float(max(abs(d) for d in mu.digits)) * t_abs
    bound = math.log1p(eps)
    k = 0
    tail = c / (mu.scale - 1)
    while tail > bound:
        k += 1
        tail /= mu.scale
    return k


def ifs_transform(mu: IFSMeasure, t, eps: float, symbolic: bool = True) -> IFSTransformValue:
    """Truncated infinite-product transform with certified error <= eps.

    mu_hat(t) = prod_{k>=1} m_D(t / R^k) with m_D(s) = mean_d e^{2 pi i d s}.
    With ``symbolic`` (and rational t), an exactly vanishing factor is
    detected in exact arithmetic and short-circuits to an exact zero.
    """
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    t_exact = Fraction(t) if not isinstance(t, float) else None
    t_float = float(t)
    depth = _truncation_depth(mu, abs(t_float), eps)
    if symbolic and t_exact is not None and t_exact != 0:
        k = _vanishing_depth(mu, t_exact, depth)
        if k:
            return IFSTransformValue(complex(0), k)
    value = complex(1)
    for k in range(1, depth + 1):
        value *= _digit_factor(mu, t_float / mu.scale**k)
    return IFSTransformValue(value, depth)


def jp_spectrum(level: int) -> tuple[int, ...]:
    """All sums sum_{k=0}^{level} 4^k l_k with binary digits l_k."""
    if level < 0 or level > 20:
        raise InvalidInputError("level must be between 0 and 20")
    points = [0]
    for k in range(level + 1):
        step = 4**k
        points = points + [x + step for x in points]
    return tuple(sorted(points))


Measure = Union[AtomicMeasure, IFSMeasure]


def _transform(mu: Measure, t, eps: float, symbolic: bool = True) -> complex:
    if isinstance(mu, AtomicMeasure):
        return atomic_transform(mu, t)
    return ifs_transform(mu, t, eps, symbolic=symbolic).value


def gram_matrix(
    mu: Measure, Lambda: Sequence, eps: float = 1e-12, symbolic: bool = True
) -> np.ndarray:
    """G[i, j] = mu_hat(lambda_j - lambda_i); Hermitian with unit diagonal."""
    lam = [Fraction(x) for x in Lambda]
    n = len(lam)
    G = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            v = _transform(mu, lam[j] - lam[i], eps, symbolic=symbolic)
            G[i, j] = v
            G[j, i] = v.conjugate()
    return G


def frame_bounds(mu: AtomicMeasure, Lambda: Sequence) -> FrameReport:
    """Extreme eigenvalues of the frame operator of {e_lambda} in L2(mu).

    The weighted coordinate change f_j -> sqrt(w_j) f_j makes L2(mu)
    standard; e_lambda becomes (sqrt(w_j) e^{2 pi i lambda b_j})_j.
    """
    if not isinstance(mu, AtomicMeasure):
        raise InvalidInputError("frame bounds require an atomic measure")
    lam = [Fraction(x) for x in Lambda]
    n = len(mu.points)
    if not lam:
        return FrameReport(0.0, 0.0)
    E = np.empty((n, len(lam)), dtype=complex)
    for j, (b, w) in enumerate(zip(mu.points, mu.weights)):
        for k, l in enumerate(lam):
            E[j, k] = math.sqrt(w) * cmath.exp(2j * math.pi * float((b * l) % 1))
    eigs = np.linalg.eigvalsh(E @ E.conj().T)
    return FrameReport(float(eigs[0]), float(eigs[-1]))


def completeness_defect(mu: Measure, Lambda: Sequence, t, eps: float = 1e-10) -> float:
    """Parseval diagnostic Q(t) = sum_lambda |mu_hat(t - lambda)|^2.

    Equals 1 for all t exactly when {e_lambda} is an orthonormal basis;
    each transform is evaluated to accuracy eps / |Lambda|.
    """
    lam = [Fraction(x) for x in Lambda]
    if not lam:
        return 0.0
    t = Fraction(t)
    per_term = eps / len(lam)
    return math.fsum(abs(_transform(mu, t - l, per_term)) ** 2 for l in lam)

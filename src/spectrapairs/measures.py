"""Measures on the line and their Fourier-analytic diagnostics.

Covers finite atomic measures, infinite-product transforms of
iterated-function-system measures (the scale-4 digit-{0,2} Cantor measure
being the canonical instance), the {sum 4^k l_k} spectrum for it, Gram
matrices of exponential families, frame bounds, and the Parseval
completeness diagnostic Q(t) = sum_lambda |mu_hat(t - lambda)|^2.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
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
    "IFSTransforms",
    "ifs_transform",
    "ifs_transforms",
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
    # The digits over one common denominator, for the transform kernel.
    phases: RationalPhases = field(init=False, repr=False, compare=False)

    def __init__(self, scale: int, digits: Iterable):
        digs = tuple(sorted(Fraction(d) for d in digits))
        if scale < 2:
            raise InvalidInputError("scale must be at least 2")
        if len(digs) < 2 or len(set(digs)) != len(digs):
            raise InvalidInputError("need at least two distinct digits")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "digits", digs)
        object.__setattr__(self, "phases", RationalPhases(digs))

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


# The kernels' integer arrays are int64 while every integer in them stays
# within this cap; past it they hold Python ints, which give the same
# values, only slower.
_CAP64 = 2**60
# About this many (term, level, digit) phases per temporary array: the
# transform kernel takes its terms in chunks of this size, so its memory
# does not grow with the number of terms.
_CHUNK = 1 << 13


def _exp_turns(turns: np.ndarray) -> np.ndarray:
    """e^{2 pi i x} for each x, as cmath.exp(2j * math.pi * x) gives it:
    cos and sin of 2 pi x written into the real and imaginary parts
    (faster than np.exp on complex input, same values)."""
    theta = turns * (2 * math.pi)
    out = np.empty(turns.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _unit_roots(x: RationalPhases, nums: Sequence[int], den: int) -> np.ndarray:
    """e^{2 pi i x t} for the points x (rows) and t = nums[j] / den
    (columns).

    Each phase x t is reduced mod 1 exactly, as the integer
    (x numerator * t numerator) mod (x denominator * den), before the one
    float division."""
    modulus = x.denominator * den
    bound = max(modulus, max(map(abs, x.numerators)) * max(map(abs, nums), default=0))
    dtype = np.int64 if bound < _CAP64 else object
    rem = np.multiply.outer(np.array(x.numerators, dtype), np.array(nums, dtype)) % modulus
    return _exp_turns(rem.astype(float) / float(modulus))


def _atomic_transforms(mu: AtomicMeasure, nums: Sequence[int], den: int) -> np.ndarray:
    return np.array(mu.weights) @ _unit_roots(RationalPhases(mu.points), nums, den)


def atomic_transform(mu: AtomicMeasure, t) -> complex:
    """mu_hat(t) = sum_b w_b e^{2 pi i b t} (phases exact mod 1 for
    rational t)."""
    t = Fraction(t)
    return complex(_atomic_transforms(mu, [t.numerator], t.denominator)[0])


class IFSTransformValue(NamedTuple):
    value: complex
    depth: int


class IFSTransforms(NamedTuple):
    values: np.ndarray  # complex, one per t
    depths: np.ndarray  # int64, one per t


@lru_cache(maxsize=64)
def _depth_thresholds(scale: int, eps: float) -> list[float]:
    """log1p(eps) * scale^k for k = 0, 1, ... up to the float range."""
    bound = math.log1p(eps)
    out, power = [], 1
    while power < 2**1000:
        out.append(bound * float(power))
        power *= scale
    return out


@lru_cache(maxsize=64)
def _scale_powers(scale: int, count: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """scale^k for k < count as floats, and as integers capped at cap."""
    powers = [scale**k for k in range(count)]
    return (
        np.array(powers, dtype=float),
        np.array([min(p, cap) for p in powers], dtype=np.int64 if cap <= _CAP64 else object),
    )


def _fmod(N: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Remainder of N by M with the sign of N."""
    if N.dtype == object:
        rem = np.abs(N) % M
        return np.where(N < 0, -rem, rem)
    return np.fmod(N, M)


def _vanishing_level(mu: IFSMeasure, u: int, v: int, depth: int) -> int:
    """The first level k <= depth whose digit mean vanishes exactly at
    t = u / v, or 0, by the exact root-of-unity test.  It runs level by
    level while the digits can span half a turn,
    2 (max d - min d) |t| >= R^k; below that they lie in an open
    half-plane and their mean is not zero."""
    spread = mu.digits[-1] - mu.digits[0]
    for k in range(1, depth + 1):
        s = Fraction(u, v * mu.scale**k)
        if 2 * spread * abs(s) < 1:
            break
        if root_sum_is_zero(mu.phases.at(s)):
            return k
    return 0


def _ifs_kernel(
    mu: IFSMeasure, nums: Sequence[int], dens: Sequence[int], eps: float, symbolic: bool
) -> IFSTransforms:
    """mu_hat(t) = prod_{k=1}^{K} mean_d e^{2 pi i d t / R^k} for each
    t = nums[j] / dens[j], with certified error <= eps.

    Depth: |m_D(s) - 1| <= 2 pi max|d| |s|, so the tail of the product
    past K is within exp(delta) - 1 of 1 with
    delta = 2 pi max|d| |t| / (R^K (R-1)); K is the least depth with
    delta <= log1p(eps).

    Phases: with digits a / D and t = u / v, digit a turns by
    a u / (D v R^k) at level k, reduced exactly to the remainder of a u
    by D v R^k with the sign of a u, then divided in floats.  Moduli are
    capped near ``cap``: a capped modulus exceeds cap / 2, which is at
    least every |a u| and twice every |(a2 - a1) u|, so it leaves a u
    unreduced, as the true one would, and no factor vanishes there.  A
    phase below one turn keeps its sign, so mu_hat(-t) is the exact
    conjugate of mu_hat(t).

    With ``symbolic``, a level k <= K whose factor vanishes exactly makes
    the value an exact zero of depth k.  Two digits vanish iff their
    phase difference is half a turn, 2 ((a2 - a1) u mod M) = M, tested
    on the integer arrays; more digits go through ``_vanishing_level``.
    Terms are evaluated in chunks of equal depth, and each term's value
    and depth depend on that term alone, whatever the batch.
    """
    R, n = mu.scale, len(mu.digits)
    D, a = mu.phases.denominator, mu.phases.numerators
    top_digit = max(map(abs, a))
    reach = max(top_digit, 2 * (a[-1] - a[0]))
    # A digit at 0 turns by nothing: its root is exactly 1.
    moving = [y for y in a if y]
    c = 2 * math.pi * (top_digit / D)
    thresholds = _depth_thresholds(R, eps)
    values = np.ones(len(nums), dtype=complex)
    depths = []
    by_depth: defaultdict[int, list[int]] = defaultdict(list)
    for j, (u, v) in enumerate(zip(nums, dens)):
        K = bisect_left(thresholds, c * (abs(u) / v) / (R - 1))
        zero = symbolic and n > 2 and K and _vanishing_level(mu, u, v, K)
        if zero:
            values[j] = 0
            K = zero
        elif K:
            by_depth[K].append(j)
        depths.append(K)
    for K, terms in by_depth.items():
        rows = max(1, _CHUNK // (K * len(moving)))
        for lo in range(0, len(terms), rows):
            idx = terms[lo : lo + rows]
            u = [nums[j] for j in idx]
            Dv = [D * dens[j] for j in idx]
            cap = max(_CAP64, 2 * reach * max(map(abs, u)), 2 * max(Dv))
            dtype = np.int64 if cap == _CAP64 else object
            scale_f, scale_i = _scale_powers(R, -(-(K + 1) // 64) * 64, cap)
            # Arrays are (digit, term, level): digits are summed slab by
            # slab, and each term's product runs along its own row in level
            # order.  numpy's vectorized complex multiply rounds unlike its
            # scalar loop, so a product across terms would make a value
            # depend on its batch.
            N = np.array([[y * x for x in u] for y in moving], dtype)[:, :, None]
            Dv_, room = np.array([Dv, [cap // x for x in Dv]], dtype)[:, :, None]
            M = Dv_ * np.minimum(scale_i[1 : K + 1], room)
            rem = _fmod(N, M)
            turns = rem.astype(float) / (np.array(Dv, dtype=float)[:, None] * scale_f[1 : K + 1])
            mean = _exp_turns(turns).sum(axis=0)
            mean.real += n - len(moving)
            mean.view(float)[...] /= n
            values[idx] = mean.prod(axis=1)
            if symbolic and n == 2:
                X = np.array([(a[1] - a[0]) * x for x in u], dtype)[:, None]
                hit = 2 * (X % M) == M
                first = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, 0)
                for j, k in zip(idx, first.tolist()):
                    if k:
                        values[j] = 0
                        depths[j] = k
    return IFSTransforms(values, np.array(depths, dtype=np.int64))


def ifs_transforms(mu: IFSMeasure, ts: Iterable, eps: float, symbolic: bool = True) -> IFSTransforms:
    """Batched ``ifs_transform``: the value and the depth for each t, each
    equal bit for bit to ``ifs_transform(mu, t, eps, symbolic)`` for
    rational t.

    Each t is taken at its exact rational value (a float at its binary
    value).
    """
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    ts = [t if isinstance(t, Fraction) else Fraction(t) for t in ts]
    return _ifs_kernel(mu, [t.numerator for t in ts], [t.denominator for t in ts], eps, symbolic)


def ifs_transform(mu: IFSMeasure, t, eps: float, symbolic: bool = True) -> IFSTransformValue:
    """Truncated infinite-product transform with certified error <= eps.

    mu_hat(t) = prod_{k>=1} m_D(t / R^k) with m_D(s) = mean_d e^{2 pi i d s}.
    With ``symbolic`` (and rational t), an exactly vanishing factor is
    detected in exact arithmetic and short-circuits to an exact zero.
    """
    values, depths = ifs_transforms(mu, [t], eps, symbolic and not isinstance(t, float))
    return IFSTransformValue(complex(values[0]), int(depths[0]))


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


def _transforms(mu: Measure, nums: Sequence[int], den: int, eps: float, symbolic: bool = True) -> np.ndarray:
    """mu_hat(nums[j] / den) for each j."""
    if isinstance(mu, AtomicMeasure):
        return _atomic_transforms(mu, nums, den)
    return _ifs_kernel(mu, nums, [den] * len(nums), eps, symbolic).values


def gram_matrix(
    mu: Measure, Lambda: Sequence, eps: float = 1e-12, symbolic: bool = True
) -> np.ndarray:
    """G[i, j] = mu_hat(lambda_j - lambda_i); Hermitian with unit diagonal.

    G[i, j] depends on lambda_j - lambda_i alone and mu_hat(-x) is the
    conjugate of mu_hat(x), so the transform runs once per distinct
    |lambda_j - lambda_i|.
    """
    lam = RationalPhases([Fraction(x) for x in Lambda])
    n = len(lam.numerators)
    G = np.eye(n, dtype=complex)
    if n < 2:
        return G
    p = np.array(lam.numerators, np.int64 if 2 * max(map(abs, lam.numerators)) < _CAP64 else object)
    i, j = np.triu_indices(n, 1)
    diff = p[j] - p[i]
    keys, index = np.unique(np.abs(diff), return_inverse=True)
    upper = _transforms(mu, keys.tolist(), lam.denominator, eps, symbolic)[index]
    upper = np.where(diff < 0, upper.conj(), upper)
    G[i, j] = upper
    G[j, i] = upper.conj()
    return G


def frame_bounds(mu: AtomicMeasure, Lambda: Sequence) -> FrameReport:
    """Extreme eigenvalues of the frame operator of {e_lambda} in L2(mu).

    The weighted coordinate change f_j -> sqrt(w_j) f_j makes L2(mu)
    standard; e_lambda becomes (sqrt(w_j) e^{2 pi i lambda b_j})_j.
    """
    if not isinstance(mu, AtomicMeasure):
        raise InvalidInputError("frame bounds require an atomic measure")
    lam = RationalPhases([Fraction(x) for x in Lambda])
    if not lam.numerators:
        return FrameReport(0.0, 0.0)
    roots = _unit_roots(RationalPhases(mu.points), lam.numerators, lam.denominator)
    E = np.sqrt(np.array(mu.weights))[:, None] * roots
    eigs = np.linalg.eigvalsh(E @ E.conj().T)
    return FrameReport(float(eigs[0]), float(eigs[-1]))


def completeness_defect(mu: Measure, Lambda: Sequence, t, eps: float = 1e-10) -> float:
    """Parseval diagnostic Q(t) = sum_lambda |mu_hat(t - lambda)|^2.

    Equals 1 for all t exactly when {e_lambda} is an orthonormal basis;
    each transform is evaluated to accuracy eps / |Lambda|.
    """
    lam = RationalPhases([Fraction(x) for x in Lambda])
    if not lam.numerators:
        return 0.0
    t = Fraction(t)
    u, v, D = t.numerator, t.denominator, lam.denominator
    # t - lambda over the common denominator v D
    values = _transforms(
        mu, [u * D - v * p for p in lam.numerators], v * D, eps / len(lam.numerators)
    )
    return math.fsum(abs(z) ** 2 for z in values.tolist())

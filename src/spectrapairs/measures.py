"""Measures on the line and their Fourier-analytic diagnostics.

Covers finite atomic measures, infinite-product transforms of
iterated-function-system measures (the scale-4 digit-{0,2} Cantor measure
being the canonical instance), the {sum 4^k l_k} spectrum for it, Gram
matrices of exponential families, frame bounds, and the Parseval
completeness diagnostic Q(t) = sum_lambda |mu_hat(t - lambda)|^2.
"""

from __future__ import annotations

import contextlib
import math
import sys
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from . import errors
from .errors import InvalidInputError, check_work
from .exact import RationalPhases, integer, rational, root_sum_is_zero

__all__ = [
    "AtomicMeasure",
    "IFSMeasure",
    "FrameReport",
    "cantor4_measure",
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
    to one, and the support's grid over one common denominator."""

    __slots__ = ("points", "weights", "phases")

    def __init__(self, points: Iterable, weights: Iterable[float]):
        points = [rational(p) for p in points]
        try:
            pairs = sorted(zip(points, map(float, weights), strict=True))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"weights must be one number per point: {exc}") from None
        pts = tuple(p for p, _ in pairs)
        wts = tuple(w for _, w in pairs)
        if not pts:
            raise InvalidInputError("measure needs nonempty support")
        if len(set(pts)) != len(pts):
            raise InvalidInputError("support points must be distinct")
        if not all(w > 0 for w in wts):
            raise InvalidInputError("weights must be positive")
        if not abs(math.fsum(wts) - 1.0) <= 1e-14:
            raise InvalidInputError("weights must sum to 1")
        self.points = pts
        self.weights = wts
        self.phases = RationalPhases(pts)

    @classmethod
    def uniform(cls, points: Iterable) -> "AtomicMeasure":
        pts = list(points)
        return cls(pts, [1.0 / len(pts)] * len(pts) if pts else [])

    def __eq__(self, other):
        return (
            isinstance(other, AtomicMeasure)
            and self.points == other.points
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"AtomicMeasure(points={self.points}, weights={self.weights})"


class IFSMeasure:
    """Self-similar measure of the maps x -> (x + d) / scale, d in digits.

    Immutable, and equal and hashed by (scale, digits)."""

    # ``phases``: the digits over one common denominator, for the transform
    # kernel.
    __slots__ = ("scale", "digits", "phases")

    def __init__(self, scale: int, digits: Iterable):
        scale = integer(scale, "scale")
        digs = tuple(sorted(rational(d) for d in digits))
        if scale < 2:
            raise InvalidInputError("scale must be at least 2")
        if len(digs) < 2 or len(set(digs)) != len(digs):
            raise InvalidInputError("need at least two distinct digits")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "digits", digs)
        object.__setattr__(self, "phases", RationalPhases(digs))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return IFSMeasure, (self.scale, self.digits)

    def __eq__(self, other):
        if not isinstance(other, IFSMeasure):
            return NotImplemented
        return (self.scale, self.digits) == (other.scale, other.digits)

    def __hash__(self):
        return hash((self.scale, self.digits))

    def __repr__(self):
        return f"IFSMeasure(scale={self.scale!r}, digits={self.digits!r})"


def cantor4_measure() -> IFSMeasure:
    """The scale-4, digits-{0, 2} Cantor measure."""
    return IFSMeasure(4, (0, 2))


class FrameReport(NamedTuple):
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
    float division.  Where the modulus is past the float range, from about
    2^1024 on, each remainder is divided by it in Python ints instead."""
    modulus = x.denominator * den
    bound = max(modulus, max(map(abs, x.numerators)) * max(map(abs, nums), default=0))
    dtype = np.int64 if bound < _CAP64 else object
    rem = np.multiply.outer(np.array(x.numerators, dtype), np.array(nums, dtype)) % modulus
    try:
        turns = rem.astype(float) / float(modulus)
    except OverflowError:
        turns = (rem / modulus).astype(float)
    return _exp_turns(turns)


def _atomic_transforms(mu: AtomicMeasure, nums: Sequence[int], den: int) -> np.ndarray:
    return np.array(mu.weights) @ _unit_roots(mu.phases, nums, den)


def atomic_transform(mu: AtomicMeasure, t) -> complex:
    """mu_hat(t) = sum_b w_b e^{2 pi i b t} (phases exact mod 1 for
    rational t)."""
    t = rational(t)
    return complex(_atomic_transforms(mu, [t.numerator], t.denominator)[0])


class IFSTransformValue(NamedTuple):
    value: complex
    depth: int


class IFSTransforms(NamedTuple):
    values: np.ndarray  # complex, one per t
    depths: np.ndarray  # int64, one per t


class _Powers(NamedTuple):
    """scale^k for k = 0, 1, ... while scale^k < 2^1000, the levels whose
    phases the kernel divides in floats: as floats, as int64 capped at
    ``_CAP64``, and as Python ints."""

    floats: np.ndarray
    int64: np.ndarray
    ints: np.ndarray


@lru_cache(maxsize=64)
def _powers(scale: int) -> _Powers:
    ints = [1]
    while ints[-1] * scale < 2**1000:
        ints.append(ints[-1] * scale)
    return _Powers(
        np.array([float(p) for p in ints]),
        np.array([min(p, _CAP64) for p in ints], dtype=np.int64),
        np.array(ints, dtype=object),
    )


@lru_cache(maxsize=64)
def _depth_thresholds(scale: int, eps: float) -> np.ndarray:
    """log1p(eps) * scale^k for the powers of ``_powers``."""
    return math.log1p(eps) * _powers(scale).floats


def _ratio(u: int, v: int) -> float:
    """|u| / v, or inf where the quotient is past the float range."""
    try:
        return abs(u) / v
    except OverflowError:
        return math.inf


def _least_power(lhs: int, rhs: int, scale: int, least: int) -> int:
    """The least k >= least with lhs <= rhs * scale^k, for positive lhs
    and rhs."""
    k = max(least, int(math.log(lhs, scale) - math.log(rhs, scale)) - 1)
    while rhs * scale**k < lhs:
        k += 1
    return k


@lru_cache(maxsize=64)
def _level_table(scale: int, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables of the two-digit zero levels k < m, with scale^m the first
    power past cap, which hold every level at which a |Z| <= cap / 2 can
    vanish.  With 2^s the largest power of two dividing scale, they are
    2^(s k) for k = 1, ..., m, capped at cap (0 alone for odd scale), and
    scale^k and 2 scale^k at index k.  Indices 0 and m hold cap and 2 cap,
    which no |Z| < cap matches."""
    powers = [1]
    while powers[-1] <= cap:
        powers.append(powers[-1] * scale)
    powers[0] = powers[-1] = cap
    s = (scale & -scale).bit_length() - 1
    twos = [min(1 << (s * k), cap) for k in range(1, len(powers))] if s else [0]
    dtype = np.int64 if cap <= _CAP64 else object
    powers = np.array(powers, dtype)
    return np.array(twos, dtype), powers, 2 * powers


def _fmod(N: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Remainder of N by M with the sign of N."""
    if N.dtype == object:
        rem = np.abs(N) % M
        return np.where(N < 0, -rem, rem)
    return np.fmod(N, M)


def _vanishing_level(mu: IFSMeasure, u: int, v: int, depth: int) -> int:
    """The first level k <= depth whose digit mean vanishes exactly at
    t = u / v, or 0, by the exact root-of-unity test.  With digits a / D,
    level k sums zeta_N^{a u} for N = D v R^k, decided at its least order
    N / gcd(u, N).  It runs level by level while the digits can span half
    a turn, 2 (max a - min a) |u| >= N; below that they lie in an open
    half-plane and their mean is not zero."""
    a = mu.phases.numerators
    reach = 2 * (a[-1] - a[0]) * abs(u)
    N = mu.phases.denominator * v
    for k in range(1, depth + 1):
        N *= mu.scale
        if reach < N:
            break
        if root_sum_is_zero(mu.phases.root_sum(N // math.gcd(u, N))):
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
    delta <= log1p(eps).  It is found by one ``searchsorted`` of
    c |t| / (R - 1), c = 2 pi max|d|, in the cached float table
    log1p(eps) R^k for R^k < 2^1000.  Where every |u| and v of t = u / v
    is below 2^53, the |t| are one array division, which rounds as each
    abs(u) / v does.  Past the table, and for |t| past the float range,
    the same inequality, on the same float constants, is solved in
    integers, so the error bound holds at any |t|.  Where c is below the
    normal floats, every depth is solved so, with 2 pi < 710/113.

    Phases: with digits a / D and t = u / v, digit a turns by
    a u / (D v R^k) at level k, reduced exactly to the remainder of a u
    by D v R^k with the sign of a u, then divided in floats.  Moduli are
    capped near ``cap``: a capped modulus exceeds cap / 2, which is at
    least every |a u| and twice every |(a2 - a1) u|, so it leaves a u
    unreduced, as the true one would, and no factor vanishes there.
    Where D v R^K >= 2^1000, as past the table, the float divisors may
    overflow: each remainder is divided by its uncapped modulus in Python
    ints instead.  A phase below one turn keeps its sign, so mu_hat(-t) is
    the exact conjugate of mu_hat(t).

    With ``symbolic``, a level k <= K whose factor vanishes exactly makes
    the value an exact zero of depth k.  Two digits vanish at level k iff
    their phase difference is half a turn, that is iff Z / R^k is an odd
    integer for Z = 2 (a2 - a1) u / (D v).  With e and s the 2-adic
    valuations of Z and R, that is k = 1 with R | Z and Z / R odd for odd
    R, and k = e / s with R^k | Z for even R: a fixed number of array
    operations over all terms.  More digits go through
    ``_vanishing_level``, term by term.  A batch of exact zeros returns
    before any value is evaluated.  The remaining terms are grouped by
    depth and evaluated in chunks, and each term's value and depth depend
    on that term alone, whatever the batch.
    """
    if not eps > 0:
        raise InvalidInputError("eps must be positive")
    R, n = mu.scale, len(mu.digits)
    D, a = mu.phases.denominator, mu.phases.numerators
    top_digit = max(map(abs, a))
    reach = max(top_digit, 2 * (a[-1] - a[0]))
    c = 2 * math.pi * (top_digit / D)
    scale_powers = _powers(R)
    floats = scale_powers.floats
    top_u, top_v = max(map(abs, nums), default=0), max(dens, default=1)
    cap = max(_CAP64, 2 * reach * top_u, 2 * D * top_v)
    dtype = np.int64 if cap == _CAP64 else object
    U, V = np.array(nums, dtype), np.array(dens, dtype)
    thresholds = _depth_thresholds(R, eps)
    if top_u < 2**53 and top_v < 2**53:
        # Every |u| and v is a float: one division rounds as abs(u) / v.
        ratios = abs(U) / V
    else:
        ratios = np.array([_ratio(u, v) for u, v in zip(nums, dens)])
    # Below the normal range c has lost its precision, or is 0, so it
    # bounds no delta; at eps = inf, log1p(eps) R^k = inf certifies depth 0.
    coarse = not c >= sys.float_info.min
    # No delta exceeds that of the largest |u| over 1: only past the table
    # may one overflow, or be 0 * inf, which Python's floats take silently.
    past = coarse or not c * _ratio(top_u, 1) / (R - 1) <= thresholds[-1]
    with np.errstate(over="ignore", invalid="ignore") if past else contextlib.nullcontext():
        depths = thresholds.searchsorted(np.zeros_like(ratios) if coarse else c * ratios / (R - 1))
    if past and thresholds[-1] < math.inf:
        bound = Fraction(710, 113) * Fraction(top_digit, D) if coarse else Fraction(c)
        rate = bound / ((R - 1) * Fraction(math.log1p(eps)))
        least = 0 if coarse else len(floats)
        redo = np.flatnonzero(U) if coarse else (depths == least).nonzero()[0]
        for j in redo.tolist():
            depths[j] = _least_power(
                abs(nums[j]) * rate.numerator, dens[j] * rate.denominator, R, least
            )
    DV = D * V
    hits = levels = []
    if symbolic and n > 2:
        zeros = [(j, _vanishing_level(mu, nums[j], dens[j], K)) for j, K in enumerate(depths.tolist()) if K]
        hits, levels = [j for j, k in zeros if k], [k for _, k in zeros if k]
    elif symbolic:
        # Two digits: level k vanishes iff Z = Y / (D v), Y = 2 (a2 - a1) u,
        # is R^k times an odd integer, that is iff Z = R^k mod 2 R^k.  The
        # lowest set bit of Z, 2^e, picks the one candidate k with s k = e
        # (s the 2-adic valuation of R), or k = 1 for odd R.  Every other k
        # fails the congruence, so the candidate is clipped to the depth;
        # Z = 0 fails it too, and Z D v != Y marks a Z that is no integer.
        z = 2 * (a[1] - a[0])
        Y = z * U
        Z = Y // DV
        # A cap past int64 differs from call to call: its table is not kept.
        table = _level_table if cap == _CAP64 else _level_table.__wrapped__
        twos, power, twice = table(R, cap)
        level = np.minimum(twos.searchsorted(Z & -Z, "right"), depths)
        hits = ((Z * DV == Y) & (Z % twice[level] == power[level])).nonzero()[0]
        levels = level[hits]
    if len(hits) == len(nums):
        # Every term is an exact zero: no values are evaluated.
        return IFSTransforms(np.zeros(len(nums), dtype=complex), np.asarray(levels, dtype=np.int64))
    values = np.empty(len(nums), dtype=complex)
    values.fill(1)
    live = depths.copy()
    if len(hits):
        values[hits], depths[hits], live[hits] = 0, levels, 0
    # A term with D v R^K >= 2^1000, as every term past the table has, may
    # overflow its float divisors: it divides in Python ints, keyed -K.
    keys, groups = live, set(live.tolist()) - {0}
    if groups and cap * R ** max(groups) >= 2**1000:
        keys = np.array([
            -K if D * v * R**K >= 2**1000 else K for K, v in zip(live.tolist(), dens)
        ])
        groups = set(keys.tolist()) - {0}
    if not groups:
        return IFSTransforms(values, depths)
    # A digit at 0 turns by nothing: its root is exactly 1.
    moving = [y for y in a if y]
    step = np.array(moving, dtype)[:, None]
    for key in groups:
        K, deep = abs(key), key < 0
        terms = (keys == key).nonzero()[0]
        rows = max(1, _CHUNK // (K * len(moving)))
        if deep:
            powers = np.array([R**k for k in range(1, K + 1)], dtype=object)
        else:
            powers = (scale_powers.int64 if cap == _CAP64 else scale_powers.ints)[1 : K + 1]
        for lo in range(0, len(terms), rows):
            idx = terms[lo : lo + rows]
            u, Dv = U[idx], DV[idx]
            # Arrays are (digit, term, level): digits are summed slab by
            # slab, and each term's product runs along its own row in level
            # order.  numpy's vectorized complex multiply rounds unlike its
            # scalar loop, so a product across terms would make a value
            # depend on its batch.
            N = (step * u)[:, :, None]
            if deep:
                M = Dv.astype(object)[:, None] * powers
                turns = (_fmod(N.astype(object), M) / M).astype(float)
            else:
                M = Dv[:, None] * np.minimum(powers, (cap // Dv)[:, None])
                turns = _fmod(N, M).astype(float) / (Dv.astype(float)[:, None] * floats[1 : K + 1])
            mean = _exp_turns(turns).sum(axis=0)
            mean.real += n - len(moving)
            mean.view(float)[...] /= n
            values[idx] = mean.prod(axis=1)
    return IFSTransforms(values, depths)


def ifs_transforms(mu: IFSMeasure, ts: Iterable, eps: float, symbolic: bool = True) -> IFSTransforms:
    """Batched ``ifs_transform``: the value and the depth for each t, each
    equal bit for bit to ``ifs_transform(mu, t, eps, symbolic)`` for
    rational t.

    Each t is taken at its exact rational value (a float at its binary
    value).
    """
    ts = [rational(t) for t in ts]
    return _ifs_kernel(mu, [t.numerator for t in ts], [t.denominator for t in ts], eps, symbolic)


def ifs_transform(mu: IFSMeasure, t, eps: float, symbolic: bool = True) -> IFSTransformValue:
    """Truncated infinite-product transform with certified error <= eps.

    mu_hat(t) = prod_{k>=1} m_D(t / R^k) with m_D(s) = mean_d e^{2 pi i d s}.
    With ``symbolic``, an exactly vanishing factor is detected in exact
    arithmetic and short-circuits to an exact zero; a float t is taken at
    its binary value, as in ``ifs_transforms``.
    """
    t = rational(t)
    values, depths = _ifs_kernel(mu, [t.numerator], [t.denominator], eps, symbolic)
    return IFSTransformValue(complex(values[0]), int(depths[0]))


def jp_spectrum(level: int) -> tuple[int, ...]:
    """All sums sum_{k=0}^{level} 4^k l_k with binary digits l_k."""
    level = integer(level, "level")
    if level < 0 or level > 20:
        raise InvalidInputError("level must be between 0 and 20")
    points = [0]
    for k in range(level + 1):
        step = 4**k
        points = points + [x + step for x in points]
    return tuple(sorted(points))


Measure = Union[AtomicMeasure, IFSMeasure]


def _transforms(mu: Measure, nums: Sequence[int], den: int, eps: float, symbolic: bool = True) -> np.ndarray:
    """mu_hat(nums[j] / den) for each j.  An atomic mu first counts its
    |mu| * len(nums) phases against ``errors.WORK_BUDGET``."""
    if isinstance(mu, AtomicMeasure):
        size = len(mu.points)
        check_work(f"transforms of {size} atoms", size * len(nums), errors.WORK_BUDGET)
        return _atomic_transforms(mu, nums, den)
    return _ifs_kernel(mu, nums, [den] * len(nums), eps, symbolic).values


def gram_matrix(
    mu: Measure, Lambda: Sequence, eps: float = 1e-12, symbolic: bool = True
) -> np.ndarray:
    """G[i, j] = mu_hat(lambda_j - lambda_i); Hermitian with unit diagonal.

    G[i, j] depends on lambda_j - lambda_i alone and mu_hat(-x) is the
    conjugate of mu_hat(x), so the transform runs once per distinct
    |lambda_j - lambda_i|.  Counts |Lambda|^2 against
    ``errors.WORK_BUDGET`` before any array is built, and for an atomic mu
    |mu| times the distinct differences before their phases are formed.
    """
    lam = RationalPhases(Lambda)
    n = len(lam.numerators)
    check_work(f"a Gram matrix of {n} points", n * n, errors.WORK_BUDGET)
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
    Counts 2 |mu| (|mu| + |Lambda|) against ``errors.WORK_BUDGET`` first.
    """
    if not isinstance(mu, AtomicMeasure):
        raise InvalidInputError("frame bounds require an atomic measure")
    size = len(mu.points)
    check_work("frame bounds", 2 * size * (size + len(Lambda)), errors.WORK_BUDGET)
    lam = RationalPhases(Lambda)
    if not lam.numerators:
        return FrameReport(0.0, 0.0)
    roots = _unit_roots(mu.phases, lam.numerators, lam.denominator)
    E = np.sqrt(np.array(mu.weights))[:, None] * roots
    eigs = np.linalg.eigvalsh(E @ E.conj().T)
    return FrameReport(float(eigs[0]), float(eigs[-1]))


def completeness_defect(mu: Measure, Lambda: Sequence, t, eps: float = 1e-10) -> float:
    """Parseval diagnostic Q(t) = sum_lambda |mu_hat(t - lambda)|^2.

    Equals 1 for all t exactly when {e_lambda} is an orthonormal basis;
    each transform is evaluated to accuracy eps / |Lambda|.  An atomic mu
    counts |mu| * |Lambda| against ``errors.WORK_BUDGET`` first.
    """
    lam = RationalPhases(Lambda)
    if not lam.numerators:
        return 0.0
    t = rational(t)
    u, v, D = t.numerator, t.denominator, lam.denominator
    # t - lambda over the common denominator v D
    values = _transforms(
        mu, [u * D - v * p for p in lam.numerators], v * D, eps / len(lam.numerators)
    )
    # np.hypot gives each modulus as Python's abs(complex) does (both are
    # the C library's hypot).  The square stays Python's x ** 2, the C
    # library's pow: x * x, as np.square computes it, rounds differently
    # on about one value in a thousand.  np.abs on complex values differs
    # from both on about a third of them, and with numpy's SIMD level.
    return math.fsum(x ** 2 for x in np.hypot(values.real, values.imag).tolist())

"""Finite-dimensional one-parameter unitary groups and wandering vectors.

A ``FiniteRep`` is U(t) = V diag(e^{2 pi i t g_j}) V* together with a
distinguished unit vector v0.  Both directions of the spectrum/wandering
correspondence live here: an atomic measure yields its multiplication
representation, and a representation yields back the measure
w(g) = ||P_g v0||^2 carried by its eigenprojections.  The cyclic shift
construction realizes the constructive direction of the line-set
criterion on l2({0, ..., n-1}).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import errors
from .errors import InvalidInputError, check_work
from .exact import RationalPhases, integer, rational
from .measures import AtomicMeasure, _unit_roots
from .sets import FiniteRationalSet

__all__ = [
    "FiniteRep",
    "WanderingReport",
    "multiplication_representation",
    "evaluate_group_element",
    "correlation",
    "measure_from_representation",
    "is_wandering",
    "permutation_representation",
    "generator_shift",
    "shift_for_time",
]

_UNITARY_TOL = 1e-12
# Orthonormality and spanning tolerance of ``is_wandering``.
_WANDERING_TOL = 1e-10


class FiniteRep:
    """Eigenvalues (rational spectral points) and their grid, orthonormal
    eigenvector columns, a unit vector v0, and its eigenbasis coordinates
    c = V* v0 as ``amplitudes``: U(t) v0 = V (c e^{2 pi i t g}).  Counts
    dim^2 against ``errors.WORK_BUDGET`` before its unitarity check."""

    __slots__ = ("eigenvalues", "phases", "eigenvectors", "v0", "amplitudes")

    def __init__(self, eigenvalues: Sequence, eigenvectors: np.ndarray, v0: np.ndarray):
        eigs = tuple(rational(g) for g in eigenvalues)
        n = len(eigs)
        check_work("finite representation", n * n, errors.WORK_BUDGET)
        V = np.asarray(eigenvectors, dtype=complex)
        v0 = np.asarray(v0, dtype=complex)
        if V.shape != (n, n):
            raise InvalidInputError("eigenvector matrix shape mismatch")
        if v0.shape != (n,):
            raise InvalidInputError("v0 shape mismatch")
        # Written as "not err <= tol" so that NaN fails them.
        if not abs(np.linalg.norm(v0) - 1.0) <= _UNITARY_TOL:
            raise InvalidInputError("v0 must be a unit vector")
        if not np.max(np.abs(V.conj().T @ V - np.eye(n))) <= _UNITARY_TOL:
            raise InvalidInputError("eigenvector matrix is not unitary")
        self.eigenvalues = eigs
        self.phases = RationalPhases(eigs)
        self.eigenvectors = V
        self.v0 = v0
        self.amplitudes = V.conj().T @ v0

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def multiplication_representation(mu: AtomicMeasure) -> FiniteRep:
    """Multiplication by e_t on L2(mu) in weighted coordinates: diagonal on
    the support points, with v0 the constant function 1.  Counts dim^2
    against ``errors.WORK_BUDGET`` first."""
    n = len(mu.points)
    check_work("multiplication representation", n * n, errors.WORK_BUDGET)
    v0 = np.sqrt(np.array(mu.weights, dtype=float)).astype(complex)
    return FiniteRep(mu.points, np.eye(n, dtype=complex), v0)


def evaluate_group_element(rep: FiniteRep, t) -> np.ndarray:
    """U(t) = V diag(e^{2 pi i t g_j}) V*."""
    t = rational(t)
    V = rep.eigenvectors
    return (V * _unit_roots(rep.phases, [t.numerator], t.denominator)[:, 0]) @ V.conj().T


def correlation(rep: FiniteRep, xi) -> complex:
    """<v0, U(xi) v0> = sum_j |c_j|^2 e^{2 pi i xi g_j}."""
    xi = rational(xi)
    phases = _unit_roots(rep.phases, [xi.numerator], xi.denominator)[:, 0]
    return complex(np.abs(rep.amplitudes) ** 2 @ phases)


def measure_from_representation(rep: FiniteRep) -> AtomicMeasure:
    """Measure w(g) = ||P_g v0||^2 on the distinct eigenvalues; repeated
    eigenvalues merge their eigenspace weights."""
    weights: dict[Fraction, float] = {}
    for g, a in zip(rep.eigenvalues, np.abs(rep.amplitudes) ** 2):
        weights[g] = weights.get(g, 0.0) + float(a)
    total = math.fsum(weights.values())
    points = [g for g, w in weights.items() if w > 0.0]
    return AtomicMeasure(points, [weights[g] / total for g in points])


class WanderingReport(NamedTuple):
    is_orthonormal_family: bool
    max_offdiagonal: float
    min_norm: float
    max_norm: float
    spans_space: bool

    def to_json(self) -> dict:
        return self._asdict()


def is_wandering(rep: FiniteRep, S: FiniteRationalSet) -> WanderingReport:
    """Gram-matrix report on the orbit {U(gamma) v0 : gamma in S}, read in
    eigenbasis coordinates as the columns c e^{2 pi i gamma g}: the Gram
    entries sum_j |c_j|^2 e^{2 pi i g_j (gamma' - gamma)} and the singular
    values do not depend on the unitary V.

    A diagnostic within ``_WANDERING_TOL``, not a certificate: for the
    uniform measure on {0, 1, 2} and S = {0, d, 2d}, d = 1/3 + 1e-12, it
    reports an orthonormal basis, though the pair is exactly not spectral
    (``certify_spectral_pair``, the CLI's ``check-pair``).  Counts
    dim |S| + |S|^2 against ``errors.WORK_BUDGET`` first."""
    check_work("wandering check", rep.dim * len(S) + len(S) ** 2, errors.WORK_BUDGET)
    vectors = rep.amplitudes[:, None] * _unit_roots(
        rep.phases, S.phases.numerators, S.phases.denominator
    )
    G = vectors.conj().T @ vectors
    norms = np.sqrt(np.abs(np.diag(G)))
    off = G - np.diag(np.diag(G))
    max_off = float(np.max(np.abs(off))) if len(S) > 1 else 0.0
    orthonormal = max_off <= _WANDERING_TOL and bool(np.all(np.abs(norms - 1.0) <= _WANDERING_TOL))
    spans = len(S) == rep.dim and np.linalg.svd(vectors, compute_uv=False)[-1] > _WANDERING_TOL
    return WanderingReport(
        is_orthonormal_family=orthonormal,
        max_offdiagonal=max_off,
        min_norm=float(norms.min()),
        max_norm=float(norms.max()),
        spans_space=bool(spans),
    )


def generator_shift(n: int, p: int, q: int) -> int:
    """Shift amount s of the generator U(1/q) on l2({0, ..., n-1}):
    s = q^{-1} mod n, which exists because n divides p + q and p/q is
    reduced, so q is prime to n."""
    from .spectral import _check_line_set

    n, p, q = _check_line_set(n, p, q)
    return pow(q, -1, n)


def shift_for_time(n: int, p: int, q: int, j: int) -> int:
    """Shift amount of U(j/q) = (cyclic shift)^j, exactly."""
    return integer(j, "j") * generator_shift(n, p, q) % integer(n, "n")


def permutation_representation(n: int, p: int, q: int) -> FiniteRep:
    """The cyclic-shift representation of (1/q)Z on l2({0, ..., n-1}).

    U(1/q) delta_i = delta_{(i+s) mod n} with s = q^{-1} mod n; then
    U(1) shifts by q s = +1 and U(p/q) by p s = -1 mod n, as p = -q mod n.
    Eigenvectors are the Fourier basis f_m[i] = e^{2 pi i m i / n}/sqrt(n),
    each phase m i reduced mod n exactly; the spectral point of f_m is
    (-m s mod n) * q / n, placed in [0, q).  Counts n^2 against
    ``errors.WORK_BUDGET`` after the preconditions.
    """
    s = generator_shift(n, p, q)
    n, q = integer(n, "n"), integer(q, "q")
    check_work("permutation representation", n * n, errors.WORK_BUDGET)
    V = _unit_roots(RationalPhases(range(n)), range(n), n) / math.sqrt(n)
    eigenvalues = [Fraction(((-m * s) % n) * q, n) for m in range(n)]
    v0 = np.zeros(n, dtype=complex)
    v0[0] = 1.0
    return FiniteRep(eigenvalues, V, v0)

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

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .exact import RationalPhases, extended_gcd
from .measures import AtomicMeasure, _unit_roots
from .sets import FiniteRationalSet, fraction_str

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


class FiniteRep:
    """Eigenvalues (rational spectral points), orthonormal eigenvector
    columns, and a unit vector v0."""

    __slots__ = ("eigenvalues", "eigenvectors", "v0")

    def __init__(self, eigenvalues: Sequence, eigenvectors: np.ndarray, v0: np.ndarray):
        eigs = tuple(Fraction(g) for g in eigenvalues)
        V = np.asarray(eigenvectors, dtype=complex)
        v0 = np.asarray(v0, dtype=complex)
        n = len(eigs)
        if V.shape != (n, n):
            raise InvalidInputError("eigenvector matrix shape mismatch")
        if np.max(np.abs(V.conj().T @ V - np.eye(n))) > _UNITARY_TOL:
            raise InvalidInputError("eigenvector matrix is not unitary")
        if abs(np.linalg.norm(v0) - 1.0) > _UNITARY_TOL:
            raise InvalidInputError("v0 must be a unit vector")
        self.eigenvalues = eigs
        self.eigenvectors = V
        self.v0 = v0

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def to_json(self) -> dict:
        return {
            "eigenvalues": [fraction_str(g) for g in self.eigenvalues],
            "eigenvectors": [
                [[z.real, z.imag] for z in row] for row in self.eigenvectors
            ],
            "v0": [[z.real, z.imag] for z in self.v0],
        }


def multiplication_representation(mu: AtomicMeasure) -> FiniteRep:
    """Multiplication by e_t on L2(mu) in weighted coordinates: diagonal on
    the support points, with v0 the constant function 1."""
    n = len(mu.points)
    v0 = np.sqrt(np.array(mu.weights, dtype=float)).astype(complex)
    return FiniteRep(mu.points, np.eye(n, dtype=complex), v0)


def _phases(rep: FiniteRep, t) -> np.ndarray:
    """e^{2 pi i t g_j} for the eigenvalues g_j, phases reduced exactly."""
    t = Fraction(t)
    return _unit_roots(RationalPhases(rep.eigenvalues), [t.numerator], t.denominator)[:, 0]


def evaluate_group_element(rep: FiniteRep, t) -> np.ndarray:
    """U(t) = V diag(e^{2 pi i t g_j}) V*."""
    V = rep.eigenvectors
    return (V * _phases(rep, t)) @ V.conj().T


def correlation(rep: FiniteRep, xi) -> complex:
    """<v0, U(xi) v0> = sum_j |<col_j, v0>|^2 e^{2 pi i xi g_j}."""
    amps = np.abs(rep.eigenvectors.conj().T @ rep.v0) ** 2
    return complex(amps @ _phases(rep, xi))


def measure_from_representation(rep: FiniteRep) -> AtomicMeasure:
    """Measure w(g) = ||P_g v0||^2 on the distinct eigenvalues; repeated
    eigenvalues merge their eigenspace weights."""
    amps = np.abs(rep.eigenvectors.conj().T @ rep.v0) ** 2
    weights: dict[Fraction, float] = {}
    for g, a in zip(rep.eigenvalues, amps):
        weights[g] = weights.get(g, 0.0) + float(a)
    total = math.fsum(weights.values())
    points = [g for g, w in weights.items() if w > 0.0]
    return AtomicMeasure(points, [weights[g] / total for g in points])


@dataclass(frozen=True)
class WanderingReport:
    is_orthonormal_family: bool
    max_offdiagonal: float
    min_norm: float
    max_norm: float
    spans_space: bool

    def to_json(self) -> dict:
        return {
            "is_orthonormal_family": self.is_orthonormal_family,
            "max_offdiagonal": self.max_offdiagonal,
            "min_norm": self.min_norm,
            "max_norm": self.max_norm,
            "spans_space": self.spans_space,
        }


def is_wandering(rep: FiniteRep, S: FiniteRationalSet, tol: float = 1e-10) -> WanderingReport:
    """Gram-matrix report on the orbit {U(gamma) v0 : gamma in S}."""
    vectors = np.column_stack(
        [evaluate_group_element(rep, g) @ rep.v0 for g in S]
    )
    G = vectors.conj().T @ vectors
    norms = np.sqrt(np.abs(np.diag(G)))
    off = G - np.diag(np.diag(G))
    max_off = float(np.max(np.abs(off))) if len(S) > 1 else 0.0
    orthonormal = max_off <= tol and bool(np.all(np.abs(norms - 1.0) <= tol))
    spans = len(S) == rep.dim and float(np.linalg.svd(vectors, compute_uv=False)[-1]) > tol
    return WanderingReport(
        is_orthonormal_family=orthonormal,
        max_offdiagonal=max_off,
        min_norm=float(norms.min()),
        max_norm=float(norms.max()),
        spans_space=bool(spans),
    )


def generator_shift(n: int, p: int, q: int) -> int:
    """Shift amount s of the generator U(1/q) on l2({0, ..., n-1}):
    s = (l - k) mod n where k p + l q = 1.  Well-defined because n divides
    p + q."""
    if n < 3:
        raise InvalidInputError("n must be at least 3")
    if q < 1:
        raise InvalidInputError("q must be positive")
    g, k, l = extended_gcd(p, q)
    if g != 1:
        raise InvalidInputError("p/q must be in reduced form")
    if (p + q) % n != 0:
        raise InvalidInputError("(p + q) must be divisible by n")
    return (l - k) % n

def shift_for_time(n: int, p: int, q: int, j: int) -> int:
    """Shift amount of U(j/q) = (cyclic shift)^j, exactly."""
    return (j * generator_shift(n, p, q)) % n


def permutation_representation(n: int, p: int, q: int) -> FiniteRep:
    """The cyclic-shift representation of (1/q)Z on l2({0, ..., n-1}).

    U(1/q) delta_i = delta_{(i+s) mod n} with s = (l - k) mod n; then
    U(1) shifts by +1 and U(p/q) by -1 (exact integer identities:
    q s = 1 - k(p+q), p s = l(p+q) - 1).  Eigenvectors are the Fourier
    basis f_m[i] = omega^{m i}/sqrt(n); the spectral point of f_m is
    (-m s mod n) * q / n, placed in [0, q).
    """
    s = generator_shift(n, p, q)
    omega = 2 * math.pi / n
    V = np.array(
        [[cmath.exp(1j * omega * m * i) / math.sqrt(n) for m in range(n)] for i in range(n)]
    )
    eigenvalues = [Fraction(((-m * s) % n) * q, n) for m in range(n)]
    v0 = np.zeros(n, dtype=complex)
    v0[0] = 1.0
    return FiniteRep(eigenvalues, V, v0)

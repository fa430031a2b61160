"""Finite-dimensional representations, wandering vectors, and the
measure round trip."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from spectrapairs.errors import InvalidInputError
from spectrapairs.exact import RationalPhases
from spectrapairs.measures import AtomicMeasure, _unit_roots, atomic_transform
from spectrapairs.representation import (
    FiniteRep,
    correlation,
    evaluate_group_element,
    generator_shift,
    is_wandering,
    measure_from_representation,
    multiplication_representation,
    permutation_representation,
    shift_for_time,
)
from spectrapairs.sets import FiniteRationalSet
from spectrapairs.spectral import is_spectral_pair


def uniform(*points):
    return AtomicMeasure.uniform([Fraction(p) for p in points])


def random_measure(rng, max_points=8):
    n = rng.randint(1, max_points)
    points = rng.sample(
        sorted({Fraction(p, q) for q in range(1, 5) for p in range(-12, 13)}), n
    )
    raw = [rng.random() + 0.05 for _ in range(n)]
    total = math.fsum(raw)
    return AtomicMeasure(points, [w / total for w in raw])


class TestMultiplicationRepresentation:
    def test_examples(self):
        rep = multiplication_representation(uniform(0, "1/2"))
        assert rep.dim == 2
        assert rep.eigenvalues == (0, Fraction(1, 2))
        assert np.allclose(rep.v0, [1 / math.sqrt(2)] * 2)

        rep3 = multiplication_representation(uniform(0, "1/3", "2/3"))
        assert np.allclose(rep3.v0, [1 / math.sqrt(3)] * 3)

        point = multiplication_representation(uniform(0))
        assert point.dim == 1 and point.v0[0] == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_validated_construction(self, seed):
        # The representation skips FiniteRep's checks; it must build the
        # object they would, field by field and byte for byte.
        rng = random.Random(seed)
        for mu in (uniform(*range(seed + 1)), random_measure(rng), random_measure(rng, 40)):
            n = len(mu.points)
            rep = multiplication_representation(mu)
            ref = FiniteRep(mu.points, np.eye(n, dtype=complex), np.sqrt(np.array(mu.weights)))
            assert type(rep.eigenvalues) is tuple and rep.eigenvalues == ref.eigenvalues
            assert rep.phases.denominator == ref.phases.denominator
            assert rep.phases.numerators == ref.phases.numerators
            for name in ("eigenvectors", "v0", "amplitudes"):
                mine, theirs = getattr(rep, name), getattr(ref, name)
                assert (mine.dtype, mine.shape, mine.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes())
            assert not np.shares_memory(rep.v0, rep.amplitudes)

    def test_finite_rep_still_validates(self):
        I = np.eye(2, dtype=complex)
        with pytest.raises(InvalidInputError, match="unit vector"):
            FiniteRep([0, Fraction(1, 2)], I, [1.0, 1.0])
        with pytest.raises(InvalidInputError, match="not unitary"):
            FiniteRep([0, Fraction(1, 2)], [[1, 1], [0, 1]], [1.0, 0.0])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            AtomicMeasure([0, 1], [0.5, 0.6])
        with pytest.raises(InvalidInputError):
            AtomicMeasure([0, 1], [1.0, 0.0])


class TestEvaluateGroupElement:
    def test_identity_at_zero(self):
        rep = multiplication_representation(uniform(0, "1/2"))
        assert np.allclose(evaluate_group_element(rep, 0), np.eye(2))

    def test_diagonal_phases(self):
        rep = multiplication_representation(uniform(0, "1/2"))
        U = evaluate_group_element(rep, 1)
        assert np.allclose(U, np.diag([1.0, -1.0]))

    def test_group_law_example(self):
        rep = multiplication_representation(uniform(0, "1/3", "2/3"))
        U = evaluate_group_element
        assert np.allclose(
            U(rep, Fraction(1, 3)) @ U(rep, Fraction(2, 3)), U(rep, 1)
        )

    def test_group_law_random(self):
        rng = random.Random(11)
        rep = multiplication_representation(random_measure(rng))
        for _ in range(100):
            s = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            t = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            lhs = evaluate_group_element(rep, s) @ evaluate_group_element(rep, t)
            rhs = evaluate_group_element(rep, s + t)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestCorrelation:
    def test_examples(self):
        rep = multiplication_representation(uniform(0, "1/2"))
        assert correlation(rep, 0) == pytest.approx(1.0)
        assert abs(correlation(rep, 1)) < 1e-14
        rep3 = multiplication_representation(uniform(0, "1/3", "2/3"))
        assert abs(correlation(rep3, 1)) < 1e-14

    def test_matches_transform_of_extracted_measure(self):
        rng = random.Random(4)
        for _ in range(20):
            mu = random_measure(rng)
            rep = multiplication_representation(mu)
            back = measure_from_representation(rep)
            for _ in range(10):
                xi = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
                assert abs(correlation(rep, xi) - atomic_transform(back, xi)) <= 1e-12


class TestMeasureFromRepresentation:
    def test_round_trip(self):
        mu = uniform(0, "1/3", "2/3")
        assert measure_from_representation(multiplication_representation(mu)) == mu

    def test_zero_weight_dropped(self):
        rep = FiniteRep([0, Fraction(1, 2)], np.eye(2), np.array([1.0, 0.0]))
        back = measure_from_representation(rep)
        assert back.points == (0,)
        assert back.weights == (1.0,)

    def test_repeated_eigenvalues_merge(self):
        v0 = np.array([1 / math.sqrt(2), 0.5, 0.5])
        rep = FiniteRep([0, 0, Fraction(1, 2)], np.eye(3), v0)
        back = measure_from_representation(rep)
        assert back.points == (0, Fraction(1, 2))
        assert back.weights[0] == pytest.approx(0.75, abs=1e-15)
        assert back.weights[1] == pytest.approx(0.25, abs=1e-15)


class TestIsWandering:
    def test_orthonormal_basis(self):
        rep = multiplication_representation(uniform(0, "1/2"))
        report = is_wandering(rep, FiniteRationalSet([0, 1]))
        assert report.is_orthonormal_family and report.spans_space

    def test_coinciding_vectors(self):
        rep = multiplication_representation(uniform(0, "1/2"))
        report = is_wandering(rep, FiniteRationalSet([0, 2]))
        assert not report.is_orthonormal_family
        assert report.max_offdiagonal == pytest.approx(1.0)

    def test_single_vector(self):
        rep = multiplication_representation(uniform(0, "1/2"))
        report = is_wandering(rep, FiniteRationalSet([0]))
        assert report.is_orthonormal_family
        assert not report.spans_space

    def test_wandering_implies_spectral_pair(self):
        rep = multiplication_representation(uniform(0, "1/3", "2/3"))
        S = FiniteRationalSet([0, 1, 2])
        report = is_wandering(rep, S)
        assert report.is_orthonormal_family and report.spans_space
        support = FiniteRationalSet(measure_from_representation(rep).points)
        assert is_spectral_pair(S, support)


def random_unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


class TestBatchedOrbit:
    """is_wandering's report, read from v0's amplitudes, against the Gram
    matrix of the explicit orbit U(gamma) v0 through evaluate_group_element."""

    MIXED = FiniteRationalSet(
        [0, Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7), 3, Fraction(11, 12), Fraction(-7, 4)]
    )

    def assert_report_matches_orbit(self, rep, S):
        vectors = np.column_stack([evaluate_group_element(rep, g) @ rep.v0 for g in S])
        G = vectors.conj().T @ vectors
        norms = np.sqrt(np.abs(np.diag(G)))
        max_off = np.max(np.abs(G - np.diag(np.diag(G))))
        report = is_wandering(rep, S)
        assert abs(report.max_offdiagonal - max_off) <= 1e-12
        assert abs(report.min_norm - norms.min()) <= 1e-12
        assert abs(report.max_norm - norms.max()) <= 1e-12
        spans = len(S) == rep.dim and np.linalg.svd(vectors, compute_uv=False)[-1] > 1e-10
        assert report.spans_space == spans
        return report

    @pytest.mark.parametrize("n,p,q", [(3, 2, 1), (4, 3, 1), (5, 1, 4), (6, 5, 7), (12, 7, 5)])
    def test_permutation_representations(self, n, p, q):
        rep = permutation_representation(n, p, q)
        S = FiniteRationalSet(Fraction(j, q) for j in range(-n, 2 * n))
        self.assert_report_matches_orbit(rep, S)
        self.assert_report_matches_orbit(rep, self.MIXED)
        # U(j/q) v0 for j < n are the n distinct shifts of delta_0.
        basis = FiniteRationalSet(Fraction(j, q) for j in range(n))
        report = self.assert_report_matches_orbit(rep, basis)
        assert report.is_orthonormal_family and report.spans_space

    def test_random_unitary_with_repeated_eigenvalue(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 9):
            eigenvalues = [Fraction(k * k % 11, 6) for k in range(n - 1)]
            eigenvalues.append(eigenvalues[0])  # a repeated eigenvalue
            v0 = rng.normal(size=n) + 1j * rng.normal(size=n)
            rep = FiniteRep(eigenvalues, random_unitary(rng, n), v0 / np.linalg.norm(v0))
            self.assert_report_matches_orbit(rep, self.MIXED)
            # The orbit lies in the cyclic subspace of v0, of dimension at
            # most n - 1, so n times never span.
            S = FiniteRationalSet(Fraction(j, 3) for j in range(n))
            assert not self.assert_report_matches_orbit(rep, S).spans_space

    def test_report_matches_per_element_gram(self):
        rng = np.random.default_rng(8)
        v0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        rep = FiniteRep(
            [0, Fraction(1, 3), Fraction(1, 3), Fraction(-2, 5)],
            random_unitary(rng, 4),
            v0 / np.linalg.norm(v0),
        )
        S = FiniteRationalSet([0, Fraction(1, 2), Fraction(5, 3), Fraction(-9, 10)])
        self.assert_report_matches_orbit(rep, S)
        assert np.max(np.abs(rep.amplitudes - rep.eigenvectors.conj().T @ rep.v0)) <= 1e-15


class TestPermutationRepresentation:
    @pytest.mark.parametrize("n,p,q", [(3, 2, 1), (3, 1, 2), (4, 3, 1), (6, 5, 7), (7, -3, 10)])
    def test_shift_identities_examples(self, n, p, q):
        assert shift_for_time(n, p, q, q) == 1  # U(1) shifts by +1
        assert shift_for_time(n, p, q, p) == n - 1  # U(p/q) shifts by -1

    def test_unitary_matches_exact_shift(self):
        n, p, q = 3, 1, 2
        rep = permutation_representation(n, p, q)
        s = generator_shift(n, p, q)
        C = np.zeros((n, n))
        for i in range(n):
            C[(i + s) % n, i] = 1.0
        assert np.max(np.abs(evaluate_group_element(rep, Fraction(1, q)) - C)) < 1e-12

    def test_numpy_integers_are_taken_as_python_ints(self):
        # pow(q, -1, n) on numpy integers raised a bare TypeError.
        n, p, q = np.int64(3), np.int64(2), np.int64(1)
        s = generator_shift(n, p, q)
        assert (s, type(s)) == (1, int)
        t = shift_for_time(n, p, q, np.int64(2))
        assert (t, type(t)) == (2, int)
        rep = permutation_representation(np.int64(6), np.int64(5), np.int64(7))
        assert rep.eigenvalues == permutation_representation(6, 5, 7).eigenvalues

    @pytest.mark.parametrize("n, p, q, j", [(3.0, 2, 1, 1), (3, 2, "1", 1), (3, 2, 1, 0.5)])
    def test_non_integer_is_invalid_input(self, n, p, q, j):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            shift_for_time(n, p, q, j)

    def test_generator_power_nq_is_identity(self):
        for n, p, q in [(3, 2, 1), (4, 3, 1), (5, 1, 4), (6, 5, 7)]:
            assert shift_for_time(n, p, q, n * q) == 0

    def test_extracted_measure_has_input_spectrum(self):
        n, p, q = 4, 3, 1
        rep = permutation_representation(n, p, q)
        mu = measure_from_representation(rep)
        A = FiniteRationalSet(list(range(n - 1)) + [Fraction(p, q)])
        assert is_spectral_pair(A, FiniteRationalSet(mu.points))

    def test_equals_the_validated_construction(self):
        # The representation skips FiniteRep's checks; it must build the
        # object they would, field by field and byte for byte.
        for n in range(3, 65):
            q = next(q for q in range(n // 2 + 1, 3 * n) if math.gcd(q, n) == 1)
            p, s = n - q, pow(q, -1, n)
            rep = permutation_representation(n, p, q)
            eigs = [Fraction(((-m * s) % n) * q, n) for m in range(n)]
            V = _unit_roots(RationalPhases(range(n)), range(n), n) / math.sqrt(n)
            ref = FiniteRep(eigs, V, [1.0] + [0.0] * (n - 1))
            assert type(rep.eigenvalues) is tuple and rep.eigenvalues == ref.eigenvalues
            assert rep.phases.denominator == ref.phases.denominator
            assert rep.phases.numerators == ref.phases.numerators
            for name in ("eigenvectors", "v0", "amplitudes"):
                mine, theirs = getattr(rep, name), getattr(ref, name)
                assert (mine.dtype, mine.shape, mine.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes())
            assert not np.shares_memory(rep.v0, rep.amplitudes)
        V[:, 0] *= 1 + 1e-9
        with pytest.raises(InvalidInputError, match="not unitary"):
            FiniteRep(eigs, V, [1.0] + [0.0] * (n - 1))

    def test_fourier_basis_matches_float_phase_reference(self):
        for n in range(3, 65):
            V = permutation_representation(n, n - 1, 1).eigenvectors
            reference = np.array(
                [[cmath.exp(2j * math.pi * m * i / n) for m in range(n)] for i in range(n)]
            )
            assert np.max(np.abs(V - reference / math.sqrt(n))) <= 1e-12, n

    def test_fourier_basis_is_unitary_to_rounding_at_n_1024(self):
        V = permutation_representation(1024, 1023, 1).eigenvectors
        assert np.max(np.abs(V.conj().T @ V - np.eye(1024))) <= 1e-14

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            permutation_representation(3, 2, 4)
        with pytest.raises(InvalidInputError):
            permutation_representation(3, 1, 3)


class TestFiniteRepValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidInputError):
            FiniteRep([0, 1], np.ones((2, 2)), np.array([1.0, 0.0]))

    def test_rejects_non_unit_v0(self):
        with pytest.raises(InvalidInputError):
            FiniteRep([0, 1], np.eye(2), np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "eigenvalues,V,v0",
        [
            ([0, 1], np.full((2, 2), np.nan), np.array([1.0, 0.0])),
            ([0, 1], np.eye(2), np.array([np.nan, 0.0])),
            ([0, 1], np.eye(2), np.array([1.0, 0.0, 0.0])),
            ([0, 1], np.eye(3), np.array([1.0, 0.0, 0.0])),
            ([], np.eye(0), np.zeros(0)),
        ],
        ids=["nan_eigenvectors", "nan_v0", "long_v0", "eigenvector_shape", "empty"],
    )
    def test_rejects_misshapen_and_nan_input(self, eigenvalues, V, v0):
        with pytest.raises(InvalidInputError):
            FiniteRep(eigenvalues, V, v0)

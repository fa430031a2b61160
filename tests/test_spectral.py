"""Spectral-pair certification, the line-set criterion, and the search
oracle."""

import cmath
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spectrapairs import (
    FiniteRationalSet,
    InvalidInputError,
    Irrational,
    certify_spectral_pair,
    construct_line_spectrum,
    decide_line_set,
    decide_three_point,
    is_spectral_pair,
    parse_fraction,
    scale_translate,
    search_spectrum,
)


def fset(*xs):
    return FiniteRationalSet(Fraction(x) for x in xs)


def _column_sums(A, B):
    # Float oracle: all distinct-column sums of the exponential matrix.
    out = []
    for i, b1 in enumerate(B.elements):
        for b2 in B.elements[i + 1 :]:
            out.append(
                sum(cmath.exp(2j * math.pi * float(a * (b2 - b1))) for a in A)
            )
    return out


class TestFiniteRationalSet:
    def test_sorted_distinct(self):
        s = fset(2, 0, 1)
        assert s.elements == (0, 1, 2)
        with pytest.raises(InvalidInputError):
            fset(1, 1)
        with pytest.raises(InvalidInputError):
            FiniteRationalSet([])

    def test_parse_rejects_floats(self):
        with pytest.raises(InvalidInputError):
            parse_fraction("0.5")
        with pytest.raises(InvalidInputError):
            parse_fraction("1e-3")
        with pytest.raises(InvalidInputError):
            parse_fraction("1/0")
        assert parse_fraction("-3/6") == Fraction(-1, 2)

    def test_json_round_trip(self):
        s = fset(0, "1/3", "2/3")
        assert FiniteRationalSet.from_strings(s.to_strings()) == s


class TestIsSpectralPair:
    def test_examples(self):
        assert is_spectral_pair(fset(0, 1), fset(0, "1/2"))
        assert is_spectral_pair(fset(0, 1, 2), fset(0, "1/3", "2/3"))
        # Derived negative: column sums visibly nonzero in floats, and the
        # exact test agrees.
        A, B = fset(0, 1, 3), fset(0, "1/3", "2/3")
        assert any(abs(z) > 1e-6 for z in _column_sums(A, B))
        assert not is_spectral_pair(A, B)

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            is_spectral_pair(fset(0, 1), fset(0, 1, 2))

    def test_exact_flag(self):
        assert certify_spectral_pair(fset(0, 1), fset(0, "1/2")).exact

    def test_large_denominator_certified_exactly(self):
        A = fset(0, 1)
        B = fset(0, Fraction(1, 10**7 + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify_spectral_pair(A, B)
        assert not cert.is_pair
        assert cert.exact

    @pytest.mark.parametrize(
        "n, m",
        [
            (5, 9009),  # N = 45045
            (3, 33333333333333331),  # N ~ 1e17
            (3, 2**61 - 1),  # a Mersenne prime
            (2, 2147483647 * 2147483629),  # two 31-bit primes
        ],
    )
    def test_shifted_pairs_certified_exactly(self, n, m):
        # A + 1/m against {0, 1/n, ..., (n-1)/n}: the column sums are sums
        # of N-th roots of unity with N = n * m.
        A = FiniteRationalSet(Fraction(1, m) + j for j in range(n))
        B = FiniteRationalSet(Fraction(k, n) for k in range(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify_spectral_pair(A, B)
            perturbed = certify_spectral_pair(
                A, FiniteRationalSet([*B.elements[:-1], B.elements[-1] + Fraction(1, m)])
            )
        assert cert.is_pair and cert.exact
        assert not perturbed.is_pair and perturbed.exact
        assert all(abs(z) < 1e-9 for z in _column_sums(A, B))

    def test_duality(self):
        pairs = [
            (fset(0, 1), fset(0, "1/2")),
            (fset(0, 1, 2), fset(0, "1/3", "2/3")),
            (fset(0, 1, 3), fset(0, "1/3", "2/3")),
            (fset(0, 1, "1/2"), fset(0, "2/3", "4/3")),
        ]
        for A, B in pairs:
            assert is_spectral_pair(A, B) == is_spectral_pair(B, A)

    @given(
        t=st.fractions(max_denominator=8),
        s=st.fractions(max_denominator=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_covariance(self, t, s):
        A, B = fset(0, 1, 2), fset(0, "1/3", "2/3")
        shifted_A = scale_translate(A, 1, t)
        shifted_B = scale_translate(B, 1, s)
        assert is_spectral_pair(shifted_A, B)
        assert is_spectral_pair(A, shifted_B)

    @given(c=st.fractions(max_denominator=6).filter(lambda c: c != 0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_covariance(self, c):
        A, B = fset(0, 1, 2), fset(0, "1/3", "2/3")
        assert is_spectral_pair(scale_translate(A, c, 0), scale_translate(B, 1 / c, 0))


class TestScaleTranslate:
    def test_examples(self):
        assert scale_translate(fset(0, 1, 2), 1, 5) == fset(5, 6, 7)
        assert scale_translate(fset(0, 1, 2), Fraction(1, 2), 0) == fset(0, "1/2", 1)
        assert scale_translate(fset(0, 1), -1, 1) == fset(0, 1)

    def test_zero_scale(self):
        with pytest.raises(InvalidInputError):
            scale_translate(fset(0, 1), 0, 0)


class TestDecideLineSet:
    def test_examples(self):
        d = decide_line_set(3, Fraction(2, 1))
        assert d.verdict == "spectral"
        assert d.certificate == fset(0, "1/3", "2/3")

        d = decide_line_set(3, Fraction(1, 3))
        assert (d.verdict, d.reason) == ("not_spectral", "congruence_fails")

        d = decide_line_set(3, Irrational("sqrt2"))
        assert (d.verdict, d.reason) == ("not_spectral", "irrational")

        assert decide_line_set(4, Fraction(3, 1)).verdict == "spectral"

    def test_certificate_is_certified(self):
        d = decide_line_set(5, Fraction(9, 1))
        A = fset(0, 1, 2, 3, 9)
        assert is_spectral_pair(A, d.certificate)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            decide_line_set(2, Fraction(5))
        with pytest.raises(InvalidInputError):
            decide_line_set(4, Fraction(1))  # repeated element

    def test_reduction_before_congruence(self):
        # 2/1 and 4/2 must decide identically; the parser reduces first.
        assert decide_line_set(3, Fraction(4, 2)).verdict == "spectral"

    def test_three_point_examples(self):
        assert decide_three_point(Fraction(1, 2)).verdict == "spectral"
        assert decide_three_point(Fraction(5, 1)).verdict == "spectral"
        assert decide_three_point(Fraction(3, 1)).verdict == "not_spectral"


class TestConstructLineSpectrum:
    def test_examples(self):
        assert construct_line_spectrum(3, 2, 1) == fset(0, "1/3", "2/3")
        assert construct_line_spectrum(3, 1, 2) == fset(0, "2/3", "4/3")
        assert construct_line_spectrum(4, 3, 1) == fset(0, "1/4", "1/2", "3/4")

    def test_certified_against_pair_check(self):
        assert is_spectral_pair(fset(0, 1, "1/2"), construct_line_spectrum(3, 1, 2))
        assert is_spectral_pair(fset(0, 1, 2, 3), construct_line_spectrum(4, 3, 1))

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            construct_line_spectrum(3, 2, 4)  # not reduced
        with pytest.raises(InvalidInputError):
            construct_line_spectrum(3, 1, 3)  # congruence fails


class TestSearchSpectrum:
    def test_examples(self):
        assert search_spectrum(fset(0, 1), 2, 1) == fset(0, "1/2")
        assert search_spectrum(fset(0, 1, 3), 12, 2) is None
        assert search_spectrum(fset(0, 1, 2), 3, 1) == fset(0, "1/3", "2/3")

    def test_result_is_certified(self):
        A = fset(0, 1, "1/2")
        B = search_spectrum(A, 6, 2)
        assert B is not None
        assert is_spectral_pair(A, B)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            search_spectrum(fset(0, 1), 0, 1)
        with pytest.raises(InvalidInputError):
            search_spectrum(fset(0, 1), 2, 0)

    def test_agrees_with_three_point_criterion(self):
        # Small slice of the oracle-agreement invariant (full grid lives in
        # the acceptance suite).
        for p, q in [(2, 1), (1, 2), (-1, 1), (3, 1), (1, 3), (5, 4)]:
            a = Fraction(p, q)
            verdict = decide_three_point(a).verdict
            found = search_spectrum(fset(0, 1, a), 3 * q, q)
            assert (found is not None) == (verdict == "spectral")

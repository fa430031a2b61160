"""Spectral-pair certification, the line-set criterion, and the search
oracle."""

import cmath
import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spectrapairs import spectral
from spectrapairs.errors import InvalidInputError
from spectrapairs.exact import CycSum, root_sum_is_zero
from spectrapairs.sets import (
    FiniteRationalSet,
    Irrational,
    parse_fraction,
    scale_translate,
)
from spectrapairs.spectral import (
    certify_spectral_pair,
    construct_line_spectrum,
    decide_line_set,
    is_spectral_pair,
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


def _pair_at_unreduced_order(A, B):
    """Whether every column vanishes by the rule that decides the column
    d = b2 - b1 = u / v at order D v, with exponents n_a u mod D v."""
    D = A.phases.denominator
    for b1, b2 in itertools.combinations(B.elements, 2):
        d = b2 - b1
        terms = Counter(n * d.numerator for n in A.phases.numerators)
        if not root_sum_is_zero(CycSum(D * d.denominator, terms)):
            return False
    return True


def _line_pairs():
    """{0, ..., n-2, p/q} and its witness spectrum, for small n and q."""
    for n in range(3, 8):
        for q in range(1, 6):
            for p in range(-2 * n - q, 3 * n, n):
                if math.gcd(p, q) == 1 and not (q == 1 and 0 <= p <= n - 2):
                    yield fset(*range(n - 1), Fraction(p, q)), construct_line_spectrum(n, p, q)


def _perturbed(B, m):
    """B with its last element moved by 1/m."""
    return FiniteRationalSet([*B.elements[:-1], B.elements[-1] + Fraction(1, m)])


_SAMPLED_LINE_PAIRS = list(itertools.islice(_line_pairs(), 0, None, 7))
_OFF_GRID = st.fractions(min_value=-2, max_value=2, max_denominator=9).filter(
    lambda x: x.denominator > 1
)


@st.composite
def _off_grid_pairs(draw):
    """A line pair moved by c A + t, B / c + s, with t and s off the
    integers so that both grids have denominators above 1; or that pair
    with one element of B moved; or two random sets of one size."""
    A, B = draw(st.sampled_from(_SAMPLED_LINE_PAIRS))
    c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
    A = scale_translate(A, c, draw(_OFF_GRID))
    B = scale_translate(B, 1 / c, draw(_OFF_GRID))
    kind = draw(st.sampled_from(["pair", "perturbed", "random"]))
    if kind == "perturbed":
        B = _perturbed(B, draw(st.integers(2, 40)))
    elif kind == "random":
        points = st.lists(_OFF_GRID, min_size=len(A), max_size=len(A), unique=True)
        A, B = FiniteRationalSet(draw(points)), FiniteRationalSet(draw(points))
    return A, B


class TestAgainstUnreducedOrderRule:
    @given(_off_grid_pairs())
    @settings(max_examples=300, deadline=None)
    def test_off_grid_pairs(self, pair):
        A, B = pair
        assert A.phases.denominator > 1 and B.phases.denominator > 1
        assert certify_spectral_pair(A, B).is_pair == _pair_at_unreduced_order(A, B)

    def test_line_pairs_and_perturbed_negatives(self):
        for A, B in _line_pairs():
            assert certify_spectral_pair(A, B).is_pair and _pair_at_unreduced_order(A, B)
            for m in (2, 7, 1000):
                C = _perturbed(B, m)
                assert certify_spectral_pair(A, C).is_pair == _pair_at_unreduced_order(A, C)


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
        with pytest.raises(InvalidInputError, match="fraction too long"):
            parse_fraction("1" * 5000)  # past Python's int string-conversion limit
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

    def test_numpy_integer_points_certified_exactly(self):
        # np.int64 numerators once made the phase products wrap around in
        # int64, and this pair read is_pair=False, exact=True.
        A = FiniteRationalSet(np.array([0, 29714666491209]))
        B = FiniteRationalSet([0, Fraction(8001465, 14)])
        for cert in (certify_spectral_pair(A, B), certify_spectral_pair(B, A)):
            assert cert.is_pair and cert.exact
        assert is_spectral_pair(FiniteRationalSet([0, 29714666491209]), B)

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
        assert decide_line_set(3, Fraction(1, 2)).verdict == "spectral"
        assert decide_line_set(3, Fraction(5, 1)).verdict == "spectral"
        assert decide_line_set(3, Fraction(3, 1)).verdict == "not_spectral"


class TestConstructLineSpectrum:
    def test_examples(self):
        assert construct_line_spectrum(3, 2, 1) == fset(0, "1/3", "2/3")
        assert construct_line_spectrum(3, 1, 2) == fset(0, "2/3", "4/3")
        assert construct_line_spectrum(4, 3, 1) == fset(0, "1/4", "1/2", "3/4")

    def test_certified_against_pair_check(self):
        assert is_spectral_pair(fset(0, 1, "1/2"), construct_line_spectrum(3, 1, 2))
        assert is_spectral_pair(fset(0, 1, 2, 3), construct_line_spectrum(4, 3, 1))

    def test_numpy_integers_are_taken_as_python_ints(self):
        B = construct_line_spectrum(np.int64(3), np.int64(2), np.int64(1))
        assert B == fset(0, "1/3", "2/3")
        assert all(type(b.numerator) is int and type(b.denominator) is int for b in B)
        assert decide_line_set(np.int64(3), np.int64(2)) == decide_line_set(3, 2)
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            decide_line_set(3.0, 2)

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            construct_line_spectrum(3, 2, 4)  # not reduced
        with pytest.raises(InvalidInputError):
            construct_line_spectrum(3, 1, 3)  # congruence fails
        with pytest.raises(InvalidInputError):
            construct_line_spectrum(2, 1, 1)  # n below 3
        with pytest.raises(InvalidInputError):
            construct_line_spectrum(3, 2, -1)  # q not positive


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
        with pytest.raises(InvalidInputError, match="q_max must be an integer"):
            search_spectrum(fset(0, 1), 2.0, 1)

    @given(
        numerators=st.one_of(
            st.sets(st.integers(0, 5), min_size=2, max_size=4),
            # Spectral shapes, so that hits of size 3 and 4 are common.
            st.sampled_from([(0, 1, 2), (0, 1, 2, 3), (0, 1, 3, 4), (0, 2, 3, 5), (0, 1, 4, 5)]),
        ),
        scale=st.sampled_from([1, 2]),
        q_max=st.integers(3, 8),
        span=st.fractions(min_value=1, max_value=2, max_denominator=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_first_hit_is_the_first_spectral_combination(self, numerators, scale, q_max, span):
        # Brute-force oracle: every (|A| - 1)-subset of the candidates in
        # lexicographic order, each certified column by column.
        A = FiniteRationalSet(Fraction(x, scale) for x in numerators)
        grid = {Fraction(p, q) for q in range(1, q_max + 1) for p in range(1, math.ceil(span * q))}
        sets = (FiniteRationalSet((0, *c)) for c in itertools.combinations(sorted(grid), len(A) - 1))
        assert search_spectrum(A, q_max, span) == next((B for B in sets if is_spectral_pair(A, B)), None)

    def test_builds_fractions_only_for_the_hit(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(spectral, "Fraction", counted)
        assert search_spectrum(fset(0, 1, 2), 3, 1) == fset(0, "1/3", "2/3")
        assert built == [(0, 1), (1, 3), (2, 3)]
        built.clear()
        assert search_spectrum(fset(0, 1, 3), 12, 2) is None
        assert built == []

    def test_agrees_with_three_point_criterion(self):
        # Small slice of the oracle-agreement invariant (full grid lives in
        # the acceptance suite).
        for p, q in [(2, 1), (1, 2), (-1, 1), (3, 1), (1, 3), (5, 4)]:
            a = Fraction(p, q)
            verdict = decide_line_set(3, a).verdict
            found = search_spectrum(fset(0, 1, a), 3 * q, q)
            assert (found is not None) == (verdict == "spectral")


def _fraction_candidates(q_max, span):
    """The search's candidates as it once built them: a set of Fractions,
    sorted, over the q that give a p/q in (0, span)."""
    q_min = span.denominator // span.numerator + 1
    candidates = {Fraction(p, q) for q in range(q_min, q_max + 1) for p in range(1, math.ceil(span * q))}
    return [c.as_integer_ratio() for c in sorted(candidates)]


@st.composite
def _walk_bounds(draw):
    """q_max up to 40, often 1, and a span below 1 / q_max, equal to 1,
    integral above 1, fractional above 1 or anywhere up to 6."""
    q_max = draw(st.one_of(st.just(1), st.integers(1, 40)))
    share = st.fractions(min_value=0, max_value=1, max_denominator=50).filter(lambda x: 0 < x < 1)
    kind = draw(st.sampled_from(["tiny", "one", "integral", "fractional", "any"]))
    if kind == "tiny":
        return q_max, draw(share) / q_max
    if kind == "one":
        return q_max, Fraction(1)
    if kind == "integral":
        return q_max, Fraction(draw(st.integers(2, 6)))
    if kind == "fractional":
        return q_max, draw(st.integers(1, 5)) + draw(share)
    return q_max, 6 * draw(share)


@given(_walk_bounds())
@example((1, Fraction(5, 2)))
@example((7, Fraction(1, 8)))
@example((200, Fraction(1)))
@example((120, Fraction(7, 3)))
@example((500, Fraction(1, 5)))
@settings(max_examples=300, deadline=None)
def test_farey_walk_matches_the_sorted_fractions(bounds):
    q_max, span = bounds
    assert spectral._candidates(q_max, span) == _fraction_candidates(q_max, span)

"""The package's record types behave as immutable values: equal values
compare and hash equal, reprs and JSON key order are fixed, and fields
cannot be assigned."""

import copy
import pickle
from fractions import Fraction

import pytest

from spectrapairs.arrows import Affine, PermutationAction, symbol
from spectrapairs.exact import CycSum, RationalPhases
from spectrapairs.measures import AtomicMeasure, FrameReport, IFSMeasure, cantor4_measure
from spectrapairs.representation import WanderingReport
from spectrapairs.sets import FiniteRationalSet, Irrational
from spectrapairs.spectral import PairCertificate, SpectralDecision


def test_affine_is_a_value():
    a = Affine(Fraction(1, 2), Fraction(-3, 4))
    b = Affine(Fraction(2, 4), Fraction(-6, 8))
    assert a == b and hash(a) == hash(b)
    # The arrow engine iterates frozensets of moves, so their order (and the
    # trace of an inconsistent closure) follows this hash.
    assert hash(a) == hash((Fraction(1, 2), Fraction(-3, 4)))
    assert {a: 1}[b] == 1
    assert b in frozenset([a, symbol()])
    assert Affine(Fraction(2)) == Affine(Fraction(2), Fraction(0))
    assert a != Affine(Fraction(1, 2))


def test_ifs_measure_is_a_value():
    mu = IFSMeasure(4, (0, 2))
    assert mu == cantor4_measure() and hash(mu) == hash(cantor4_measure())
    assert hash(mu) == hash((4, (Fraction(0), Fraction(2))))
    assert IFSMeasure(4, [2, Fraction(0)]) == mu
    assert mu != IFSMeasure(4, (0, 1)) and mu != IFSMeasure(5, (0, 2))
    assert mu != (4, (Fraction(0), Fraction(2)))
    assert {mu: 1}[cantor4_measure()] == 1
    for twin in (pickle.loads(pickle.dumps(mu)), copy.copy(mu), copy.deepcopy(mu)):
        assert twin == mu and twin.phases.numerators == mu.phases.numerators


def test_reprs():
    assert repr(Affine(Fraction(1, 2), Fraction(-3, 4))) == (
        "Affine(const=Fraction(1, 2), sym=Fraction(-3, 4))"
    )
    assert repr(Affine(Fraction(2))) == "Affine(const=Fraction(2, 1), sym=Fraction(0, 1))"
    assert str(Affine(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4a"
    assert repr(IFSMeasure(4, (0, 2))) == (
        "IFSMeasure(scale=4, digits=(Fraction(0, 1), Fraction(2, 1)))"
    )
    assert repr(IFSMeasure(3, [Fraction(2, 3), 0])) == (
        "IFSMeasure(scale=3, digits=(Fraction(0, 1), Fraction(2, 3)))"
    )
    assert repr(PairCertificate(True)) == "PairCertificate(is_pair=True, exact=True)"
    assert repr(PairCertificate(False, False)) == "PairCertificate(is_pair=False, exact=False)"
    assert repr(AtomicMeasure([3, "1/2", 0], [0.5, 0.3, 0.2])) == (
        "AtomicMeasure(points=(Fraction(0, 1), Fraction(1, 2), Fraction(3, 1)),"
        " weights=(0.2, 0.3, 0.5))"
    )
    # A sum shows its reduced nonzero coefficients, whether built here or
    # made from a grid's unreduced counts (42 = 0 mod 6).
    assert repr(CycSum(6, {0: 1, 3: 1, 9: -1, 7: 2})) == "CycSum(order=6, coeffs={0: 1, 1: 2})"
    assert repr(CycSum(6, {})) == "CycSum(order=6, coeffs={})"
    assert repr(RationalPhases([0, Fraction(1, 2), Fraction(1, 3), 7]).root_sum(6)) == (
        "CycSum(order=6, coeffs={0: 2, 3: 1, 2: 1})"
    )
    assert repr(FiniteRationalSet([Fraction(2, 3), 0, -1, "5/4"])) == (
        "FiniteRationalSet({-1, 0, 2/3, 5/4})"
    )


@pytest.mark.parametrize(
    "record, field",
    [
        (Affine(Fraction(1)), "const"),
        (PermutationAction(symbol(), (1, 0)), "sigma"),
        (IFSMeasure(4, (0, 2)), "scale"),
        (IFSMeasure(4, (0, 2)), "digits"),
        (IFSMeasure(4, (0, 2)), "phases"),
        (PairCertificate(True), "is_pair"),
        (SpectralDecision("spectral"), "verdict"),
        (Irrational("sqrt2"), "label"),
        (FrameReport(0.5, 1.0), "lower"),
        (WanderingReport(True, 0.0, 1.0, 1.0, True), "min_norm"),
    ],
    ids=lambda x: type(x).__name__ if not isinstance(x, str) else x,
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_wandering_report_json_key_order():
    report = WanderingReport(True, 1e-17, 0.99, 1.01, False)
    assert list(report.to_json().items()) == [
        ("is_orthonormal_family", True),
        ("max_offdiagonal", 1e-17),
        ("min_norm", 0.99),
        ("max_norm", 1.01),
        ("spans_space", False),
    ]

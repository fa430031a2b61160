"""Deduction engine: base facts, closure rules, permutation extraction,
rationality obstruction, and soundness against a concrete model."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import naive_arrows
from spectrapairs import (
    Affine,
    AtomicMeasure,
    InconsistencyError,
    InvalidInputError,
    Irrational,
    PermutationAction,
    arrows,
    atomic_transform,
    close,
    construct_line_spectrum,
    extract_permutation,
    new_session,
    rationality_obstruction,
    symbol,
)

ZERO = Affine(Fraction(0))
ONE = Affine(Fraction(1))
A_SYM = symbol()


def three_point_session(budget=6):
    moves = [ONE, A_SYM, A_SYM - ONE, ONE - A_SYM, -A_SYM, -ONE]
    return new_session([ZERO, ONE, A_SYM], moves, round_budget=budget)


class TestNewSession:
    def test_base_facts_integer_set(self):
        s = new_session([0, 1, 2], [1, -1], round_budget=2)
        assert s.has_fact({0}, 1, {1})
        assert s.has_fact({1}, 1, {2})
        assert s.has_fact({0}, 2, {2})

    def test_base_facts_two_elements(self):
        s = new_session([0, 1], [1, -1], round_budget=2)
        assert s.has_fact({0}, 1, {1})
        assert s.has_fact({1}, -1, {0})

    def test_base_facts_symbolic(self):
        s = three_point_session()
        assert s.has_fact({1}, A_SYM - ONE, {2})

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            new_session([0], [1], round_budget=1)
        with pytest.raises(InvalidInputError):
            new_session([0, 1], [], round_budget=1)
        # Below one round, "closed" would be a claim no round checked.
        for budget in (0, -2):
            with pytest.raises(InvalidInputError):
                new_session([0, 1, 2], [1, -1], round_budget=budget)


class TestClose:
    def test_reproduces_three_point_derivation(self):
        s = close(three_point_session())
        # The chain ends with U(a) v_1 in the 0-line and U(1) v_a in the
        # 0-line.
        assert s.has_fact({1}, A_SYM, {0})
        assert s.has_fact({2}, ONE, {0})
        assert s.has_fact({2}, ONE, {0, 2}) or s.has_fact({2}, ONE, {0})

    def test_two_element_closure_is_small(self):
        s = close(new_session([0, 1], [1, -1], round_budget=4))
        # Nothing beyond base facts, identities, complements, and trivial
        # whole-space facts can be derived for two points.
        assert s.has_fact({0}, 1, {1})
        assert s.has_fact({1}, -1, {0})
        perm = extract_permutation(s, 1)
        assert perm.sigma == (1, 0)

    def test_monotone_growth(self):
        s = three_point_session(budget=1)
        keys_by_round = []
        for budget in range(1, 6):
            s = close(three_point_session(budget=budget))
            keys_by_round.append(set(s.facts))
        for a, b in zip(keys_by_round, keys_by_round[1:]):
            assert a <= b

    def test_deterministic_under_move_order(self):
        # The final fact set must not depend on presentation order of the
        # generating moves.
        moves = [ONE, A_SYM, A_SYM - ONE, ONE - A_SYM, -A_SYM, -ONE]
        reference = close(new_session([ZERO, ONE, A_SYM], moves, 5)).facts
        rng = random.Random(7)
        for _ in range(10):
            shuffled = moves[:]
            rng.shuffle(shuffled)
            facts = close(new_session([ZERO, ONE, A_SYM], shuffled, 5)).facts
            assert facts == reference

    def test_nonspectral_set_is_inconsistent(self):
        # {0,1,3} fails the three-point criterion; assuming spectrality
        # must surface as a dimension contradiction.
        with pytest.raises(InconsistencyError) as exc:
            close(new_session([0, 1, 3], [1, -1, 2, -2, 3, -3], round_budget=5))
        assert exc.value.trace  # deduction trace is reported

    def test_soundness_against_multiplication_model(self):
        # Facts derived for A = {0, 1, 1/2} must hold in the concrete
        # model: U(t) acting on L2 of the uniform measure on the witness
        # spectrum, in the basis {U(a) v0 : a in A}.
        a = Fraction(1, 2)
        elements = [Fraction(0), Fraction(1), a]
        B = construct_line_spectrum(3, 1, 2)
        mu = AtomicMeasure.uniform(B.elements)
        moves = {x - y for x in elements for y in elements if x != y}
        s = close(new_session(elements, moves, round_budget=5))
        for (src, move), tgt in s.facts.items():
            assert move.is_rational()
            t = move.const
            for i in src:
                for j in range(len(elements)):
                    if j not in tgt:
                        leak = abs(atomic_transform(mu, t + elements[i] - elements[j]))
                        assert leak <= 1e-10, (sorted(src), str(move), sorted(tgt))


class TestExtractPermutation:
    def test_three_point_cycles(self):
        s = close(three_point_session())
        p1 = extract_permutation(s, ONE)
        assert p1.sigma == (1, 2, 0)
        pa = extract_permutation(s, A_SYM)
        assert pa.sigma == (2, 0, 1)

    def test_identity_at_zero(self):
        s = close(three_point_session())
        assert extract_permutation(s, ZERO).sigma == (0, 1, 2)

    def test_requires_closed_session(self):
        with pytest.raises(InvalidInputError):
            extract_permutation(three_point_session(), ONE)

    def test_none_when_not_pinned(self):
        s = close(new_session([0, 1, 2], [Fraction(1, 7)], round_budget=2))
        assert extract_permutation(s, Fraction(1, 7)) is None

    def test_plus_minus_cycles_up_to_n6(self):
        for n in (3, 4, 5, 6):
            a = Fraction(n - 1)  # p + q = n, admissible
            elements = [Fraction(k) for k in range(n - 1)] + [a]
            moves = {x - y for x in elements for y in elements if x != y}
            s = close(new_session(elements, moves, round_budget=n + 2))
            plus = tuple((k + 1) % n for k in range(n))
            minus = tuple((k - 1) % n for k in range(n))
            assert extract_permutation(s, Fraction(1)).sigma == plus
            assert extract_permutation(s, a).sigma == minus


class TestRationalityObstruction:
    def test_examples(self):
        cycle = (1, 2, 0)
        ident = (0, 1, 2)
        assert (
            rationality_obstruction(
                PermutationAction(ONE, cycle), PermutationAction(A_SYM, cycle)
            )
            == "inconsistent"
        )
        assert (
            rationality_obstruction(
                PermutationAction(ONE, ident), PermutationAction(symbol(), ident)
            )
            == "consistent"
        )
        assert (
            rationality_obstruction(
                PermutationAction(ONE, cycle),
                PermutationAction(Affine(Fraction(3, 2)), cycle),
            )
            == "consistent"
        )

    def test_zero_move_rejected(self):
        with pytest.raises(InvalidInputError):
            rationality_obstruction(
                PermutationAction(ZERO, (0, 1)), PermutationAction(ONE, (0, 1))
            )

    def test_parallel_symbolic_moves_are_consistent(self):
        p1 = PermutationAction(A_SYM, (1, 0))
        p2 = PermutationAction(A_SYM + A_SYM, (1, 0))
        assert rationality_obstruction(p1, p2) == "consistent"


class TestSerialization:
    def test_session_json(self):
        s = close(three_point_session(budget=3))
        data = s.to_json()
        assert data["closed"] is True
        assert data["elements"] == ["0", "1", "a"]
        assert all(
            set(f) == {"source", "move", "target"} for f in data["facts"]
        )

    def test_irrational_tag_coerces_to_symbol(self):
        s = new_session([Fraction(0), Fraction(1), Irrational("alpha")], [1], 1)
        assert s.elements[2] == symbol()


def _outcome(engine, ground, moves, budget, seeds=()):
    """What ``close`` yields: the payload and trace, or the error's message
    and trace."""
    session = engine.new_session(ground, moves, round_budget=budget)
    for source, move, target in seeds:
        session.add_fact(frozenset(source), move, frozenset(target))
    try:
        closed = engine.close(session)
    except InconsistencyError as exc:
        return "inconsistent", str(exc), exc.trace
    return "closed", closed.to_json(), closed.trace, closed.facts


def _assert_matches_naive_engine(ground, budget, seeds=()):
    moves = [b - a for a in ground for b in ground if a != b]
    got = _outcome(arrows, ground, moves, budget, seeds)
    assert got == _outcome(naive_arrows, ground, moves, budget, seeds)
    return got[0]


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _ground_and_budget(draw):
    if draw(st.booleans()):
        ground = [Affine(x) for x in draw(st.lists(_SMALL, min_size=3, max_size=5, unique=True))]
    else:
        shift = Affine(draw(_SMALL))
        ground = [ZERO + shift, ONE + shift, A_SYM + shift]
    return ground, draw(st.integers(1, len(ground) + 2))


class TestAgainstNaiveEngine:
    """The engine against the naive loop it replaced (tests/naive_arrows.py):
    same facts, rounds, trace and error, byte for byte."""

    @settings(max_examples=25, deadline=None)
    @given(_ground_and_budget())
    def test_random_sets_and_shifted_symbolic_set(self, case):
        _assert_matches_naive_engine(*case)

    @pytest.mark.parametrize(
        "n,p,q", [(3, 2, 1), (3, 1, 2), (3, -1, 1), (4, 3, 1), (4, 1, 3), (5, 4, 1), (6, 5, 1)]
    )
    def test_line_sets_closed_in_acceptance_suite(self, n, p, q):
        # The criterion-2 instances that criterion 7 and the plus/minus
        # cycle test close, at the same budget n + 2.
        ground = [Fraction(k) for k in range(n - 1)] + [Fraction(p, q)]
        assert _assert_matches_naive_engine(ground, n + 2) == "closed"

    def test_nonspectral_set_raises_the_same_error(self):
        assert _assert_matches_naive_engine([Fraction(0), Fraction(1), Fraction(3)], 5) == (
            "inconsistent"
        )

    def test_seeded_fact_off_the_common_denominator(self):
        # A seeded move of 1/7 refines the common denominator of {0, 1, 2}.
        seeds = [({0}, Affine(Fraction(1, 7)), {1, 2}), ({1}, Affine(Fraction(-1, 7)), {0, 2})]
        assert _assert_matches_naive_engine([Fraction(k) for k in range(3)], 4, seeds) == "closed"


def test_saturation_does_no_affine_arithmetic_or_formatting(monkeypatch):
    # Moves in the closure loop are integer pairs; a slide back to Fraction
    # arithmetic, or to formatting every derivation, shows up as calls here.
    session = new_session([0, 1, 2, 3], [1, -1, 2, -2, 3, -3], round_budget=6)
    calls = {"add": 0, "str": 0}
    add, to_str = Affine.__add__, Affine.__str__

    def counted_add(self, other):
        calls["add"] += 1
        return add(self, other)

    def counted_str(self):
        calls["str"] += 1
        return to_str(self)

    monkeypatch.setattr(Affine, "__add__", counted_add)
    monkeypatch.setattr(Affine, "__str__", counted_str)
    close(session)
    assert calls == {"add": 0, "str": 0}
    assert len(session.facts) > 100
    assert session.trace[-1]["move"]  # formatting still works when asked
    assert calls["str"] > 0

"""Deduction engine: base facts, closure rules, permutation extraction,
rationality obstruction, and soundness against a concrete model."""

import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naive_arrows
from spectrapairs import arrows
from spectrapairs.arrows import (
    Affine,
    PermutationAction,
    close,
    extract_permutation,
    new_session,
    rationality_obstruction,
    symbol,
)
from spectrapairs.errors import InconsistencyError, InvalidInputError, TooLargeError
from spectrapairs.measures import AtomicMeasure, atomic_transform
from spectrapairs.sets import Irrational
from spectrapairs.spectral import construct_line_spectrum

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
        with pytest.raises(InvalidInputError, match="repeated elements"):
            new_session([0, 0], [1])
        session = new_session([0, 1], [1])
        for source, target in ((frozenset(), frozenset({0})), (frozenset({0}), frozenset())):
            with pytest.raises(InvalidInputError, match="nonempty"):
                session.add_fact(source, 1, target)
        # Below one round, "closed" would be a claim no round checked.
        for budget in (0, -2):
            with pytest.raises(InvalidInputError):
                new_session([0, 1, 2], [1, -1], round_budget=budget)

    @pytest.mark.parametrize("index", [5, 3, -1])
    def test_index_outside_the_ground_set_is_invalid(self, index):
        # {5} on three points once stored a fact that the next close turned
        # into a false contradiction; -1 raised a bare ValueError.  Nothing
        # is stored, and the index is refused before the move off the grid.
        session = new_session([0, 1, 2], [1, -1], round_budget=2)
        before = (session.to_json(), session.trace, session._den, session._half)
        seventh = Fraction(1, 7)
        calls = [
            lambda: session.add_fact(frozenset({index}), 1, frozenset({0})),
            lambda: session.add_fact(frozenset({0}), seventh, frozenset({1, index})),
            lambda: session.add_fact(
                frozenset({0}), seventh, frozenset({1}), parents=[([index], 1, [0])]
            ),
            lambda: session.has_fact({index}, 1, {0}),
            lambda: session.has_fact({0}, 1, {index}),
        ]
        for call in calls:
            with pytest.raises(InvalidInputError, match="range"):
                call()
        assert (session.to_json(), session.trace, session._den, session._half) == before
        assert close(session).has_fact({0}, 1, {1})

    def test_numpy_indices_and_budget_are_python_ints(self):
        # 1 << np.int64(69) wraps around in int64: the fact {69} ->(0) {69}
        # was reported missing, and {65} read as an empty source.
        session = new_session(range(70), [1], round_budget=np.int64(1))
        assert type(session.round_budget) is int
        assert session.has_fact([np.int64(69)], 0, [np.int64(69)])
        assert session.add_fact([np.int64(65)], 1, [np.int64(66)]) is False
        with pytest.raises(InvalidInputError, match="must be an integer"):
            session.has_fact([1.0], 0, [1])
        with pytest.raises(InvalidInputError, match="must be an integer"):
            new_session([0, 1], [1], round_budget=2.0)

    def test_large_ground_set_is_too_large_before_seeding(self, monkeypatch):
        # Each of the |A|^2 base facts is charged 1 + |A| units: 202 points
        # fit in 2^23, 203 do not.
        def unreachable(*args):
            raise AssertionError("a fact was seeded over budget")

        monkeypatch.setattr(arrows.Session, "_add", unreachable)
        for n in (203, 5000):
            with pytest.raises(TooLargeError):
                new_session(range(n), [1])
        monkeypatch.setattr(arrows, "CLOSE_WORK_BUDGET", 3**2 * 4)
        with pytest.raises(AssertionError):
            new_session([0, 1, 2], [1])
        monkeypatch.undo()
        assert len(new_session(range(202), [1])._facts) == 202**2

    def test_many_moves_are_too_large_before_the_grid(self, monkeypatch):
        # close's first pass charges |moves u {0}|^2, each distinct move
        # once; new_session charges it before the session builds its grid.
        def unreachable(*args):
            raise AssertionError("a grid was built over budget")

        monkeypatch.setattr(arrows, "RationalPhases", unreachable)
        with pytest.raises(TooLargeError, match="needs at least 40000400001 units"):
            new_session([0, 1], range(1, 200001))
        monkeypatch.setattr(arrows, "CLOSE_WORK_BUDGET", 16)
        with pytest.raises(AssertionError):  # 1, 2, 3 and 0, with 1 twice
            new_session([0, 1], [1, 2, 3, Fraction(2, 2)])
        with pytest.raises(AssertionError):  # the zero move counted once
            new_session([0, 1], [0, 1, 2, 3])
        with pytest.raises(TooLargeError, match="needs at least 25 units"):
            new_session([0, 1], [1, 2, 3, 4])

    def test_large_ground_set_is_too_large_before_coercing(self, monkeypatch):
        # The count depends on |A| alone, so no element is converted first.
        def unreachable(value):
            raise AssertionError("an element was coerced over budget")

        monkeypatch.setattr(arrows, "_coerce", unreachable)
        with pytest.raises(TooLargeError):
            new_session(list(range(10**6)), [1])


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
            assert move.sym == 0
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


def _assert_index_matches_store(session):
    # The per-source index holds exactly the store's facts, each source's
    # moves in the store's order.
    regrouped = {}
    for (s, m), t in session._facts.items():
        regrouped.setdefault(s, {})[m] = t
    assert {s: list(row.items()) for s, row in session._by_source.items()} == {
        s: list(row.items()) for s, row in regrouped.items()
    }


def _outcome(engine, ground, moves, budget, seeds=()):
    """What ``close`` yields: the payload and trace, or the error's message
    and trace.  Each seed is a (source, move, target, parents) fact added
    before closing."""
    session = engine.new_session(ground, moves, round_budget=budget)
    for source, move, target, parents in seeds:
        session.add_fact(frozenset(source), move, frozenset(target), parents=parents)
    try:
        closed = engine.close(session)
    except InconsistencyError as exc:
        return "inconsistent", str(exc), exc.trace
    finally:
        if engine is arrows:
            _assert_index_matches_store(session)
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


# The closure benchmark's non-spectral, symbolic and closed rational shapes,
# with the budget each runs at and its outcome.
_CLOSURE_SHAPES = [
    (("0", "1", "1/3"), 5, "inconsistent"),
    (("0", "1", "5/2"), 4, "inconsistent"),
    (("0", "1", "2", "3/2"), 6, "inconsistent"),
    (("0", "1", "2", "4/3"), 6, "inconsistent"),
    (("0", "1", "2", "3", "11"), 5, "inconsistent"),
    (("0", "1", "a"), 4, "closed"),
    (("0", "1", "7/2"), 3, "closed"),
    (("0", "1", "5/4"), 4, "closed"),
    (("0", "1", "2", "3"), 5, "closed"),
    (("0", "1", "2", "1/3"), 4, "closed"),
    (("0", "1", "2", "5/3"), 4, "closed"),
    (("0", "1", "2", "3", "4"), 5, "closed"),
]


def _shape_id(value):
    return ",".join(value) if isinstance(value, tuple) else str(value)


def _scaled(shape):
    """A shape as the scaled copy c * A + t the benchmark runs it as (c *
    alpha for "a")."""
    c, t = Fraction(3, 7), Fraction(-5, 3)
    return [Affine(t, c) if x == "a" else Affine(c * Fraction(x) + t) for x in shape]


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

    @pytest.mark.parametrize("shape,budget,outcome", _CLOSURE_SHAPES, ids=_shape_id)
    def test_benchmark_closure_shapes_scaled(self, shape, budget, outcome):
        assert _assert_matches_naive_engine(_scaled(shape), budget) == outcome

    def test_zero_move_stops_extending_sums_early(self):
        # With the zero move alone, the first pass forms no new sum, so the
        # sum closure stops before its round budget.
        got = _outcome(arrows, [Fraction(0), Fraction(1)], [0], 3)
        assert got == _outcome(naive_arrows, [Fraction(0), Fraction(1)], [0], 3)

    @pytest.mark.parametrize("shape,budget", [case[:2] for case in _CLOSURE_SHAPES], ids=_shape_id)
    def test_seeded_facts_on_the_grid(self, shape, budget):
        # A seed at a sum of three generating moves, which is no base
        # difference of these shapes, with two base facts as its parents
        # (given as the naive engine records them), and a second seed that
        # shrinks its target (R4).
        ground = _scaled(shape)
        m1, m2 = ground[1] - ground[0], ground[2] - ground[0]
        move = m1 + m2 + m2
        parents = [([0], str(m1), [1]), ([1], str(-m1), [0])]
        seeds = [({0}, move, {1, 2}, parents), ({0}, move, {0, 2}, [])]
        _assert_matches_naive_engine(ground, budget, seeds)


class TestOneWriter:
    """``Session._add`` writes every fact, and the grid a session is built
    with is the one ``close`` works on."""

    @pytest.mark.parametrize("shape,budget,outcome", _CLOSURE_SHAPES, ids=_shape_id)
    def test_every_trace_entry_is_appended_by_add(self, monkeypatch, shape, budget, outcome):
        appended = 0
        add = arrows.Session._add

        def counted(self, *args):
            nonlocal appended
            before = len(self._trace)
            try:
                return add(self, *args)
            finally:
                appended += len(self._trace) - before

        monkeypatch.setattr(arrows.Session, "_add", counted)
        ground = _scaled(shape)
        session = new_session(ground, [b - a for a in ground for b in ground if a != b], budget)
        try:
            close(session)
        except InconsistencyError:
            assert outcome == "inconsistent"
        else:
            assert outcome == "closed"
        assert appended == len(session._trace) > 0
        _assert_index_matches_store(session)

    @pytest.mark.parametrize("case", ["symbolic", "primes"])
    def test_close_keeps_the_grid_of_new_session(self, case):
        if case == "symbolic":
            session = three_point_session()
        else:
            primes = [p for p in range(2, 72) if all(p % q for q in range(2, p))]
            session = new_session([0, 1, 2], [Fraction(1, p) for p in primes], round_budget=2)
        grid = (session._den, session._half)
        close(session)
        assert (session._den, session._half) == grid

    def test_session_built_directly_without_moves(self):
        session = arrows.Session([ZERO, Affine(Fraction(1, 2))], frozenset(), 3)
        assert (session._den, session._half, session._generators) == (2, 2, frozenset())
        assert arrows.Session([], frozenset(), 1)._half == 0


class TestDeferredTrace:
    """``InconsistencyError.trace`` is formatted on its first read, from the
    session's entries as they stood at the raise."""

    @staticmethod
    def _inconsistent_close():
        session = new_session([0, 1, 3], [1, -1, 2, -2, 3, -3], round_budget=5)
        with pytest.raises(InconsistencyError) as exc:
            close(session)
        return session, exc.value

    def test_plain_list_is_copied(self):
        entries = [{"rule": "seed"}]
        exc = InconsistencyError("contradiction", trace=entries)
        entries.append({"rule": "R1"})
        assert exc.trace == [{"rule": "seed"}]
        assert InconsistencyError("contradiction").trace == []

    def test_reading_twice_gives_equal_lists(self):
        _, exc = self._inconsistent_close()
        first = exc.trace
        assert first and exc.trace == first

    @pytest.mark.parametrize("read_first", [True, False])
    def test_later_facts_leave_the_trace_unchanged(self, read_first):
        session, exc = self._inconsistent_close()
        expected = session.trace
        if read_first:
            assert exc.trace == expected
        # 30 is on the grid (H = 36) but past every total close forms.
        assert session.add_fact(frozenset({0}), Affine(Fraction(30)), frozenset({1, 2}))
        assert len(session.trace) == len(expected) + 1
        assert exc.trace == expected == session.trace[: len(expected)]

    def test_pickle_round_trip_keeps_the_trace(self):
        _, exc = self._inconsistent_close()
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is InconsistencyError
        assert str(copy) == str(exc)
        assert copy.trace == exc.trace and copy.trace

    def test_extract_permutation_error_defers_its_trace(self):
        # Two lines pinned onto one at a seeded move.
        session = close(new_session([0, 1, 2], [1, -1], round_budget=2))
        for i in range(3):
            session.add_fact(frozenset({i}), 5, frozenset({2}))
        expected = session.trace
        with pytest.raises(InconsistencyError) as exc:
            extract_permutation(session, 5)
        session.add_fact(frozenset({0}), 6, frozenset({1}))
        assert exc.value.trace == expected


class TestMoveTable:
    """Moves are coded as ints on the session's grid (its common
    denominator D and code range H); reading a move the session has never
    seen must not change the grid, and a fact at a move off it is refused."""

    UNSEEN = (Affine(Fraction(7)), Affine(Fraction(1, 7)), Affine(Fraction(0), Fraction(9)))

    def test_unseen_moves_read_as_absent_and_add_no_id(self):
        s = close(three_point_session(budget=3))
        before = (s.to_json(), s.trace, s._den, s._half)
        naive = naive_arrows.close(
            naive_arrows.new_session(s.elements, s.moves, round_budget=3)
        )
        for move in self.UNSEEN:
            assert not s.has_fact({0}, move, {0, 1, 2})
            assert not naive.has_fact({0}, move, {0, 1, 2})
            assert extract_permutation(s, move) is None
            assert (frozenset({0}), move) not in s.facts
            assert (s.to_json(), s.trace, s._den, s._half) == before

    @pytest.mark.parametrize("closed", [False, True])
    def test_add_fact_refuses_moves_off_the_grid(self, closed):
        # 1/7 and 1/7 a are off the grid of D = 1; 50 + 2a and -(H + 1) lie
        # past +-H.  Each is refused as the fact's move and as a parent's,
        # and nothing is stored.
        s = three_point_session(budget=3)
        if closed:
            close(s)
        before = (s.to_json(), s.trace, s._den, s._half)
        off = (
            Affine(Fraction(1, 7)),
            Affine(Fraction(0), Fraction(1, 7)),
            Affine(Fraction(50), Fraction(2)),
            Affine(Fraction(-s._half - 1)),
        )
        for move in off:
            with pytest.raises(InvalidInputError, match="off the session's grid"):
                s.add_fact(frozenset({0}), move, frozenset({1, 2}))
            with pytest.raises(InvalidInputError, match="off the session's grid"):
                s.add_fact(frozenset({0}), ONE, frozenset({1}), parents=[([1], move, [0])])
            assert (s.to_json(), s.trace, s._den, s._half) == before
        # The edge of the code range is on the grid.
        assert s.add_fact(frozenset({0}), Affine(Fraction(-s._half)), frozenset({1, 2}))

    def test_sums_of_moves_at_the_edge_of_the_code_range(self):
        # Scaled by 1/3 and offset by -2/3, the admissible totals reach
        # |c0 D| = H / 2, so R3 sums of two stored moves reach H.  With a
        # code width of H + 1, which only the totals fit, such a sum reads
        # as an admissible total, and at budget 5 close reports a false
        # contradiction.
        c, t = Fraction(1, 3), Fraction(-2, 3)
        ground = [Affine(t), Affine(c + t), Affine(t, c)]
        moves = [b - a for a in ground for b in ground if a != b]
        for budget in (3, 5):
            session = new_session(ground, moves, round_budget=budget)
            allowed = arrows._allowed_moves(session)[0]
            assert 2 * max(abs(session._pair(code)[0]) for code in allowed) == session._half
            assert _assert_matches_naive_engine(ground, budget) == "closed"

    def test_generic_rational_moves_on_a_large_denominator(self):
        # The 20 moves 1/p, p the first 20 primes: D is their product, about
        # 5.6e26, so every code is past 64 bits.
        primes = [p for p in range(2, 72) if all(p % q for q in range(2, p))]
        ground = [Fraction(k) for k in range(3)]
        moves = [Fraction(1, p) for p in primes]
        assert len(primes) == 20
        got = _outcome(arrows, ground, moves, 2)
        assert got == _outcome(naive_arrows, ground, moves, 2)
        assert got[0] == "closed" and len(got[1]["facts"]) > 100

    def test_moves_past_the_code_range_read_as_absent(self):
        # A move with c0 D past H has the code of a stored move when taken
        # mod the code width; it must read as absent.
        s = close(three_point_session(budget=3))
        naive = naive_arrows.close(
            naive_arrows.new_session(s.elements, s.moves, round_budget=3)
        )
        width = 2 * s._half + 1
        assert extract_permutation(s, ONE).sigma == (1, 2, 0)
        before = (s.to_json(), s.trace, s._den, s._half)
        for move in (ONE, A_SYM - ONE, ZERO):
            c0, c1 = move.const * s._den, move.sym * s._den
            for alias in (Affine((c0 + width) / s._den, (c1 - 1) / s._den),
                          Affine((c0 - width) / s._den, (c1 + 1) / s._den)):
                assert s.has_fact({0}, move, {0, 1, 2})
                assert not s.has_fact({0}, alias, {0, 1, 2})
                assert not naive.has_fact({0}, alias, {0, 1, 2})
                assert extract_permutation(s, alias) is None
                assert (frozenset({0}), alias) not in s.facts
        assert (s.to_json(), s.trace, s._den, s._half) == before


def test_compositions_are_capped_at_budget_plus_one_summands():
    # The generators themselves are one summand and each pass adds one.
    for budget, top in ((1, 2), (3, 4)):
        session = new_session([0, 1, 2], [1], round_budget=budget)
        allowed = arrows._allowed_moves(session)[0]
        assert {session._pair(code) for code in allowed} == {(k, 0) for k in range(top + 1)}


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


def test_session_set_up_multiplies_no_fractions(monkeypatch):
    # Moves are put on the common denominator D by integer division, so
    # neither seeding nor closing multiplies a Fraction.
    calls = 0
    mul = Fraction.__mul__

    def counted_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Fraction, "__mul__", counted_mul)
    session = close(new_session([0, 1, 2, 3], [1, -1, 2, -2, 3, -3], round_budget=6))
    assert calls == 0
    assert len(session.facts) > 100

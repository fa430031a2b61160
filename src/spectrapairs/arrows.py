"""Fixpoint deduction engine over subspace-mapping facts.

A fact S ->(t) T records that the unitary U(t) maps the span of the basis
vectors indexed by S into the span of those indexed by T.  Starting from
the base facts {a} ->(b-a) {b} (which hold whenever {U(a) v0 : a in A} is
an orthonormal basis), the engine saturates under:

  R1 complement:   S ->(t) T with |S| = |T|  gives  A\\S ->(t) A\\T
  R2 cancellation: S ->(t) C u D and S' ->(t) C, S n S' empty, |S'| = |C|,
                   gives S ->(t) D
  R3 composition:  S ->(s) T, T ->(t) R, |S| = |T|  gives  S ->(s+t) R
  R4 intersection: two facts with the same source and move intersect their
                   targets (applied eagerly so stored targets are minimal)

Every singleton additionally maps into the whole space at any move (a
unitary fixes nothing weaker); these trivial facts are what make R2 realize
"must be mapped into the orthogonal complement" reasoning.  A derived
target smaller than its source is a dimension contradiction and raises
``InconsistencyError`` carrying the deduction trace: this is how assuming
spectrality of a non-spectral set surfaces.

Moves are affine expressions c0 + c1*alpha over a single symbolic
irrational alpha, so the ground set may contain one symbolic element;
purely rational sessions have c1 = 0 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import InconsistencyError, InvalidInputError, check_work
from .exact import rational
from .sets import FiniteRationalSet, Irrational

__all__ = [
    "Affine",
    "symbol",
    "Session",
    "new_session",
    "close",
    "extract_permutation",
    "PermutationAction",
    "rationality_obstruction",
    "CLOSE_WORK_BUDGET",
]

# Work budget of ``new_session`` and of each ``close`` call; at the budget a
# closure takes a few seconds.
CLOSE_WORK_BUDGET = 2**23


@dataclass(frozen=True)
class Affine:
    """Value c0 + c1 * alpha with rational coefficients."""

    const: Fraction
    sym: Fraction = Fraction(0)

    def __add__(self, other: "Affine") -> "Affine":
        return Affine(self.const + other.const, self.sym + other.sym)

    def __sub__(self, other: "Affine") -> "Affine":
        return Affine(self.const - other.const, self.sym - other.sym)

    def __neg__(self) -> "Affine":
        return Affine(-self.const, -self.sym)

    def is_zero(self) -> bool:
        return self.const == 0 and self.sym == 0

    def __str__(self) -> str:
        if self.sym == 0:
            return str(self.const)
        sym = "a" if self.sym == 1 else ("-a" if self.sym == -1 else f"{self.sym}a")
        if self.const == 0:
            return sym
        return f"{self.const}{'+' if self.sym > 0 else ''}{sym}"

    # Sort key for deterministic serialization.
    def _key(self):
        return (self.const, self.sym)


def symbol() -> Affine:
    """The symbolic irrational alpha."""
    return Affine(Fraction(0), Fraction(1))


def _coerce(value) -> Affine:
    if isinstance(value, Affine):
        return value
    if isinstance(value, Irrational):
        return symbol()
    return Affine(rational(value))


def _bits(mask: int) -> list[int]:
    """The indices set in a bitmask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _mask(indices: Iterable[int]) -> int:
    return sum(1 << i for i in set(indices))


class Session:
    """Single-owner mutable deduction state over a fixed ground set.

    Sources and targets are int bitmasks over the element indices.  A move
    c0 + c1*alpha is the integer pair (c0*D, c1*D), where D is a common
    denominator of the elements and the generating moves; since D > 0, the
    pairs sort as ``Affine._key`` does.  Each pair is interned once as a
    small int id in the move table, so refining D rescales the table and
    nothing else.  The store keys each fact by its source and move id, and
    a per-source ``{move id: target}`` index is kept in step with it.
    ``facts`` and ``trace`` are built from the store when read.
    """

    def __init__(
        self,
        elements: Sequence[Affine],
        moves: frozenset[Affine],
        round_budget: int,
    ):
        self.elements = tuple(elements)
        self.moves = moves
        self.round_budget = round_budget
        self.closed = False
        self.rounds_used = 0
        self._full = (1 << len(self.elements)) - 1
        # Move table: id -> (c0*D, c1*D), and its inverse.
        self._den = 1
        self._pairs: list[tuple[int, int]] = []
        self._ids: dict[tuple[int, int], int] = {}
        for value in (*self.elements, *moves):
            self._widen(value)
        # Minimal known target per (source, move id), in insertion order,
        # and the same facts grouped by source.
        self._facts: dict[tuple[int, int], int] = {}
        self._by_source: dict[int, dict[int, int]] = {}
        # (rule, source, move id, target, parents), each parent a (source,
        # move id, target) triple of the store.
        self._trace: list[tuple] = []

    @property
    def facts(self) -> dict[tuple[frozenset[int], Affine], frozenset[int]]:
        """Minimal known target per (source, move), in insertion order.
        Built on each read; writing to it does not change the session."""
        affine = cache(self._affine)
        return {
            (frozenset(_bits(s)), affine(m)): frozenset(_bits(t))
            for (s, m), t in self._facts.items()
        }

    @property
    def trace(self) -> list[dict]:
        """One entry per recorded derivation, in the order they were made."""
        name = self._names()
        return [
            {
                "rule": rule,
                "source": _bits(s),
                "move": name(m),
                "target": _bits(t),
                "parents": [[_bits(ps), name(pm), _bits(pt)] for ps, pm, pt in parents],
            }
            for rule, s, m, t, parents in self._trace
        ]

    def _affine(self, move_id: int) -> Affine:
        c0, c1 = self._pairs[move_id]
        return Affine(Fraction(c0, self._den), Fraction(c1, self._den))

    def _names(self):
        """str of the Affine of a move id, memoized for one formatting pass."""
        return cache(lambda move_id: str(self._affine(move_id)))

    def _pair(self, move: Affine) -> Optional[tuple[int, int]]:
        """The move as (c0*D, c1*D); None when it is not on that grid."""
        c0, c1 = move.const * self._den, move.sym * self._den
        if c0.denominator == 1 and c1.denominator == 1:
            return c0.numerator, c1.numerator
        return None

    def _intern(self, pair: tuple[int, int]) -> int:
        """The id of a move pair, the next free one if the pair is new."""
        move_id = self._ids.get(pair)
        if move_id is None:
            move_id = self._ids[pair] = len(self._pairs)
            self._pairs.append(pair)
        return move_id

    def _lookup(self, move) -> Optional[int]:
        """The id of a move; None, and no new id, when it has none yet."""
        return self._ids.get(self._pair(_coerce(move)))

    def _widen(self, move: Affine) -> None:
        """Refine D until the move is on the grid, rescaling the move table."""
        k = lcm(self._den, move.const.denominator, move.sym.denominator) // self._den
        if k == 1:
            return
        self._den *= k
        self._pairs = [(c0 * k, c1 * k) for c0, c1 in self._pairs]
        self._ids = {pair: move_id for move_id, pair in enumerate(self._pairs)}

    def has_fact(self, source: Iterable[int], move, target: Iterable[int]) -> bool:
        """True when the stored fact for (source, move) implies the given one."""
        known = self._facts.get((_mask(source), self._lookup(move)))
        return known is not None and known & ~_mask(target) == 0

    def add_fact(
        self,
        source: frozenset[int],
        move: Affine,
        target: frozenset[int],
        rule: str = "seed",
        parents: Optional[list] = None,
    ) -> bool:
        """Insert a fact, eagerly intersecting targets (R4).  Returns True
        when knowledge grew.  ``parents`` lists the (source, move, target)
        facts it was derived from, for the trace."""
        if not source or not target:
            raise InvalidInputError("source and target must be nonempty")
        parents = [(s, _coerce(m), t) for s, m, t in parents or ()]
        move = _coerce(move)
        for m in (move, *(m for _, m, _ in parents)):
            self._widen(m)

        def intern(m):
            return self._intern(self._pair(m))

        return self._add(
            rule,
            _mask(source),
            intern(move),
            _mask(target),
            tuple((_mask(s), intern(m), _mask(t)) for s, m, t in parents),
        )

    def _add(self, rule: str, s: int, m: int, t: int, parents=()) -> bool:
        """``add_fact`` on the store's own types, for a nonempty s and t."""
        key = (s, m)
        known = self._facts.get(key)
        if known is not None:
            t &= known
            if t == known:
                return False
            rule += "+R4"
        self._trace.append((rule, s, m, t, parents))
        if t.bit_count() < s.bit_count():
            raise InconsistencyError(
                f"target {_bits(t)} smaller than source {_bits(s)} "
                f"at move {self._affine(m)}",
                trace=self.trace,
            )
        self._facts[key] = t
        self._by_source.setdefault(s, {})[m] = t
        return True

    def to_json(self) -> dict:
        """The session as JSON, its facts sorted by source, then move."""
        name = self._names()
        pairs = self._pairs
        facts = sorted(
            ((_bits(s), m, _bits(t)) for (s, m), t in self._facts.items()),
            key=lambda fact: (fact[0], pairs[fact[1]]),
        )
        return {
            "elements": [str(e) for e in self.elements],
            "closed": self.closed,
            "rounds_used": self.rounds_used,
            "facts": [{"source": s, "move": name(m), "target": t} for s, m, t in facts],
        }


def new_session(
    A: Union[FiniteRationalSet, Sequence],
    moves: Iterable,
    round_budget: int = 6,
) -> Session:
    """Seed a session with the base facts {a} ->(b-a) {b} for a, b in A,
    plus the identity facts {a} ->(0) {a}.

    Work, against ``CLOSE_WORK_BUDGET`` and before any element is coerced:
    1 + |A| units for each of the |A|^2 base facts, which the first round
    of ``close`` visits with the |A| base facts of its target as R3
    partners."""
    check_work(f"seeding {len(A)} points", len(A) ** 2 * (1 + len(A)), CLOSE_WORK_BUDGET)
    elements = [_coerce(e) for e in A]
    if len(elements) < 2:
        raise InvalidInputError("ground set needs at least two elements")
    if len({e._key() for e in elements}) != len(elements):
        raise InvalidInputError("ground set has repeated elements")
    move_set = frozenset(_coerce(m) for m in moves)
    if not move_set:
        raise InvalidInputError("moves must be nonempty")
    if round_budget < 1:
        raise InvalidInputError("round budget must be at least 1")
    session = Session(elements, move_set, round_budget)
    points = [session._pair(e) for e in elements]
    zero = session._intern((0, 0))
    for i, (a0, a1) in enumerate(points):
        session._add("base", 1 << i, zero, 1 << i)
        for j, (b0, b1) in enumerate(points):
            if i != j:
                session._add("base", 1 << i, session._intern((b0 - a0, b1 - a1)), 1 << j)
    return session


def _allowed_moves(session: Session) -> tuple[set[tuple[int, int]], int]:
    """Closure of the generating moves under addition, up to
    round_budget + 1 summands (one from the start, one more per pass);
    caps which compositions R3 may produce.  Each pass extends only the
    sums new in the previous one: a sum of k + 2 summands is a (k + 1)-sum
    plus a generator, and if that (k + 1)-sum has fewer summands, so has
    the whole.  Also returns the work spent, |new| * |base| per pass,
    charged before the pass."""
    base = {session._pair(m) for m in session.moves} | {(0, 0)}
    current = set(base)
    new = base
    work = 0
    for _ in range(session.round_budget):
        if not new:
            break
        work += len(new) * len(base)
        if work > CLOSE_WORK_BUDGET:  # compared inline: this runs once per pass
            check_work("arrow closure", work, CLOSE_WORK_BUDGET)
        new = {(a0 + b0, a1 + b1) for a0, a1 in new for b0, b1 in base} - current
        current |= new
    return current, work


def close(session: Session) -> Session:
    """Saturate the fact set under R1-R4 (budgeted rounds).

    Rounds are semi-naive: a rule fires on a fact, or on a pair of facts,
    only when one of them was added or shrank since the previous round's
    snapshot.  A pair of unchanged facts fired on the same inputs a round
    earlier, and targets only shrink, so it could record nothing now.  The
    facts, ``rounds_used`` and the trace are those of joining every pair.

    R3 looks up m + m2 once per pair of move ids, and before it derives
    anything it checks the live per-source index for a stored fact that
    already implies the result, which most compositions are.

    Work, against ``CLOSE_WORK_BUDGET`` and counted before it is done:
    |new| * |base| for each pass of the allowed sums; |A|^2 for each move
    whose trivial facts are added, since the round visits each of them as
    an R3 partner of the |A| base facts into its source; and for each
    snapshot fact of a round, 1 plus the lengths of its R2 and R3 partner
    lists.
    """
    allowed, work = _allowed_moves(session)
    budget = CLOSE_WORK_BUDGET
    facts = session._facts
    store = session._by_source
    pairs = session._pairs
    full = session._full
    singletons = [1 << i for i in range(len(session.elements))]
    generators = {session._intern(session._pair(m)) for m in session.moves}
    covered: set = set()  # moves whose trivial facts are all present
    delta: set = set()  # keys added or shrunk since the last snapshot
    # sums[m][m2]: the id of m + m2, or -1 when R3 may not compose it.
    sums: dict[int, dict[int, int]] = {}

    def total(m: int, m2: int) -> int:
        (a0, a1), (b0, b1) = pairs[m], pairs[m2]
        pair = (a0 + b0, a1 + b1)
        return session._intern(pair) if pair in allowed else -1

    def record(rule, s, m, t, parents=()) -> bool:
        if session._add(rule, s, m, t, parents):
            delta.add((s, m))
            return True
        return False

    for round_index in range(session.round_budget):
        changed = False
        # Trivial facts: every singleton maps into the whole space at every
        # move currently in play.  R2 cancels known images out of these.
        in_play = {m for _, m in facts} | generators
        new_moves = sorted(in_play - covered, key=pairs.__getitem__)
        work = check_work(
            "arrow closure", work + len(new_moves) * len(singletons) ** 2, budget
        )
        for m in new_moves:
            for i in singletons:
                if (i, m) not in facts:
                    changed |= record("trivial", i, m, full)
        covered = in_play

        snapshot = list(facts.items())
        fresh = delta if round_index else facts.keys()
        delta = set()
        # R2 partners (dimension-preserving facts) by move and R3 partners
        # by source, in snapshot order: from every fact (for R3, a copy of
        # the per-source index), and from the fresh ones only, which is all
        # an unchanged fact needs (in the first round every fact is fresh).
        every: tuple[dict, dict] = ({}, {s: row.copy() for s, row in store.items()})
        recent: tuple[dict, dict] = ({}, {})
        for (s, m), t in snapshot:
            square = s.bit_count() == t.bit_count()
            if square:
                every[0].setdefault(m, []).append((s, t))
            if round_index and (s, m) in fresh:
                if square:
                    recent[0].setdefault(m, []).append((s, t))
                recent[1].setdefault(s, {})[m] = t

        for (s, m), t in snapshot:
            is_fresh = (s, m) in fresh
            by_move, by_source = every if is_fresh else recent
            square = s.bit_count() == t.bit_count()
            r2_partners = by_move.get(m, ())
            r3_partners = by_source.get(t, ()) if square else ()
            work += 1 + len(r2_partners) + len(r3_partners)
            if work > budget:  # compared inline: this runs once per fact
                check_work("arrow closure", work, budget)
            # R1 complement.
            if is_fresh and square and s != full:
                changed |= record("R1", full ^ s, m, full ^ t, ((s, m, t),))
            # R2 cancellation: c is a proper subset of t.
            for s2, c in r2_partners:
                if not s2 & s and c & t == c and c != t:
                    changed |= record("R2", s, m, t ^ c, ((s, m, t), (s2, m, c)))
            # R3 composition (first fact must be dimension-preserving).
            if r3_partners:
                known_for_s = store[s]
                row = sums.setdefault(m, {})
                for m2, r in r3_partners.items():
                    m3 = row.get(m2)
                    if m3 is None:
                        m3 = row[m2] = total(m, m2)
                    if m3 < 0:
                        continue
                    known = known_for_s.get(m3)
                    if known is None or known & r != known:
                        changed |= record("R3", s, m3, r, ((s, m, t), (t, m2, r)))
        session.rounds_used = round_index + 1
        if not changed:
            break
    session.closed = True
    return session


@dataclass(frozen=True)
class PermutationAction:
    move: Affine
    sigma: tuple[int, ...]

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.sigma))


def extract_permutation(session: Session, move) -> Optional[PermutationAction]:
    """The permutation induced on basis lines by U(move), if every singleton
    has been pinned to a singleton image."""
    if not session.closed:
        raise InvalidInputError("session must be closed first")
    move = _coerce(move)
    move_id = session._lookup(move)
    images = []
    for i in range(len(session.elements)):
        t = session._facts.get((1 << i, move_id))
        if t is None or t.bit_count() != 1:
            return None
        images.append(t.bit_length() - 1)
    if len(set(images)) != len(images):
        raise InconsistencyError(
            f"U({move}) maps two basis lines onto the same line",
            trace=session.trace,
        )
    return PermutationAction(move, tuple(images))


def rationality_obstruction(p1: PermutationAction, p2: PermutationAction) -> str:
    """Two permutation actions with an irrational move ratio cannot coexist
    unless both permutations are trivial.  Returns "consistent" or
    "inconsistent"."""
    m1, m2 = p1.move, p2.move
    if m1.is_zero() or m2.is_zero():
        raise InvalidInputError("moves must be nonzero")
    if p1.is_identity() and p2.is_identity():
        return "consistent"
    # m1/m2 is rational iff (c1, s1) and (c2, s2) are parallel over Q.
    parallel = m1.const * m2.sym == m1.sym * m2.const
    return "consistent" if parallel else "inconsistent"

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

from fractions import Fraction
from functools import cache, partial
from itertools import islice
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import InconsistencyError, InvalidInputError, check_work
from .exact import RationalPhases, integer, rational
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


class Affine(NamedTuple):
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


class Session:
    """Single-owner mutable deduction state over a fixed ground set.

    Sources and targets are int bitmasks over the element indices.  A move
    c0 + c1*alpha is (x, y) = (c0*D, c1*D), by dividing D by each
    denominator, and is stored as one int, its code x + W*y with W = 2H + 1.
    The grid is fixed when the session is built: D is the denominator of
    the ``RationalPhases`` of the elements' and moves' c0 and c1, which
    counts its cost against ``GRID_WORK_BUDGET``, and whose numerators give
    the codes of the elements and generating moves.  H is twice the largest
    |x| of an element, of a base difference (the elements' span) and of a
    total ``close`` may form, (round_budget + 1) * the largest |x| of a
    move.  So adding two codes adds their moves without aliasing, and a
    code decodes to the x in [-H, H] congruent to it mod W.  ``add_fact``
    refuses a move off the grid or past +-H, so the trace is append-only.
    The store keys each fact by its source and move code, beside a
    per-source ``{code: target}`` index.  Every write, each shrink (R4)
    too, goes through ``_add``.  ``facts`` and ``trace`` are built from the
    store when read.
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
        points = (*self.elements, *moves)
        grid = RationalPhases([p.const for p in points] + [p.sym for p in points])
        xs, ys = grid.numerators[: len(points)], grid.numerators[len(points) :]
        n = len(self.elements)
        reach = max(map(abs, xs[n:]), default=0)
        span = max(xs[:n], default=0) - min(xs[:n], default=0)
        self._den = grid.denominator
        self._half = 2 * max(*map(abs, xs[:n]), span, (round_budget + 1) * reach)
        self._width = 2 * self._half + 1
        codes = [x + self._width * y for x, y in zip(xs, ys)]
        # The codes of the elements, in order, and of the generating moves.
        self._points = codes[:n]
        self._generators = frozenset(codes[n:])
        # Minimal known target per (source, move code), in insertion order,
        # and the same facts grouped by source.
        self._facts: dict[tuple[int, int], int] = {}
        self._by_source: dict[int, dict[int, int]] = {}
        # (rule, source, move code, target, parents), each parent a (source,
        # move code, target) triple of the store.
        self._trace: list[tuple] = []
        # Keys written since the last snapshot of ``close`` (its first round reads none).
        self._changed: set[tuple[int, int]] = set()

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
        return self._format_trace(len(self._trace))

    def _format_trace(self, length: int) -> list[dict]:
        """The first ``length`` entries of the trace.  Entries are only
        appended, on a grid that never changes, so a prefix reads the same
        at any later time."""
        name = self._names()
        return [
            {
                "rule": rule,
                "source": _bits(s),
                "move": name(m),
                "target": _bits(t),
                "parents": [[_bits(ps), name(pm), _bits(pt)] for ps, pm, pt in parents],
            }
            for rule, s, m, t, parents in islice(self._trace, length)
        ]

    def _trace_so_far(self):
        """The trace as it stands, formatted when it is first called."""
        return partial(self._format_trace, len(self._trace))

    def _pair(self, code: int) -> tuple[int, int]:
        """The move (c0*D, c1*D) of a code; these sort as ``Affine._key``."""
        x = (code + self._half) % self._width - self._half
        return x, (code - x) // self._width

    def _affine(self, code: int) -> Affine:
        c0, c1 = self._pair(code)
        return Affine(Fraction(c0, self._den), Fraction(c1, self._den))

    def _names(self):
        """str of the Affine of a move code, memoized for one formatting pass."""
        return cache(lambda code: str(self._affine(code)))

    def _lookup(self, move) -> Optional[int]:
        """The code of a move; None off the grid, or past +-H, where it may alias."""
        move = _coerce(move)
        q0, r0 = divmod(self._den, move.const.denominator)
        q1, r1 = divmod(self._den, move.sym.denominator)
        x = move.const.numerator * q0
        if r0 or r1 or abs(x) > self._half:
            return None
        return x + self._width * move.sym.numerator * q1

    def _mask(self, indices: Iterable[int]) -> int:
        """The bitmask of element indices, each checked to be one."""
        indices = {integer(i, "index") for i in indices}
        if not indices <= set(range(len(self.elements))):
            raise InvalidInputError(f"indices must lie in range({len(self.elements)})")
        return sum(1 << i for i in indices)

    def has_fact(self, source: Iterable[int], move, target: Iterable[int]) -> bool:
        """True when the stored fact for (source, move) implies the given one."""
        known = self._facts.get((self._mask(source), self._lookup(move)))
        return known is not None and known & ~self._mask(target) == 0

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
        facts it was derived from, for the trace.  The move and each
        parent's must lie on the session's grid; otherwise nothing is
        stored and ``InvalidInputError`` is raised."""
        mask, code = self._mask, self._code
        s, t = mask(source), mask(target)
        if not s or not t:
            raise InvalidInputError("source and target must be nonempty")
        parents = tuple((mask(ps), code(pm), mask(pt)) for ps, pm, pt in parents or ())
        return self._add(rule, s, code(move), t, parents)

    def _code(self, move) -> int:
        """The code of a move, which must lie on the grid, within +-H."""
        code = self._lookup(move)
        if code is None:
            raise InvalidInputError(f"move {_coerce(move)} is off the session's grid")
        return code

    def _add(self, rule: str, s: int, m: int, t: int, parents=()) -> bool:
        """``add_fact`` on the store's own types, for a nonempty s and t; the
        one writer of the store, index, trace and change set."""
        key = (s, m)
        known = self._facts.get(key)
        if known is not None:
            t &= known
            if t == known:
                return False
            rule += "+R4"
        self._trace.append((rule, s, m, t, parents))
        self._changed.add(key)
        if t.bit_count() < s.bit_count():
            raise InconsistencyError(
                f"target {_bits(t)} smaller than source {_bits(s)} "
                f"at move {self._affine(m)}",
                trace=self._trace_so_far(),
            )
        self._facts[key] = t
        self._by_source.setdefault(s, {})[m] = t
        return True

    def to_json(self) -> dict:
        """The session as JSON, its facts sorted by source, then move."""
        name = self._names()
        facts = sorted(
            ((_bits(s), m, _bits(t)) for (s, m), t in self._facts.items()),
            key=lambda fact: (fact[0], self._pair(fact[1])),
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
    partners.  Then, once the moves are taken and before the session's
    grid is built over them, |moves u {0}|^2, the least that the first
    pass of ``close``'s allowed sums charges."""
    check_work(f"seeding {len(A)} points", len(A) ** 2 * (1 + len(A)), CLOSE_WORK_BUDGET)
    elements = [_coerce(e) for e in A]
    if len(elements) < 2:
        raise InvalidInputError("ground set needs at least two elements")
    if len({e._key() for e in elements}) != len(elements):
        raise InvalidInputError("ground set has repeated elements")
    move_set = frozenset(_coerce(m) for m in moves)
    if not move_set:
        raise InvalidInputError("moves must be nonempty")
    round_budget = integer(round_budget, "round budget")
    if round_budget < 1:
        raise InvalidInputError("round budget must be at least 1")
    base = len(move_set) + (Affine(Fraction(0)) not in move_set)
    check_work("arrow closure", base * base, CLOSE_WORK_BUDGET)
    session = Session(elements, move_set, round_budget)
    # Codes add as moves do: H covers the elements' span, so b - a is b' - a'.
    points = session._points
    for i, a in enumerate(points):
        session._add("base", 1 << i, 0, 1 << i)
        for j, b in enumerate(points):
            if i != j:
                session._add("base", 1 << i, b - a, 1 << j)
    return session


def _allowed_moves(session: Session) -> tuple[set[int], int]:
    """Closure of the generating moves under addition, up to
    round_budget + 1 summands (one from the start, one more per pass);
    caps which compositions R3 may produce.  The session's H is at least
    twice the largest |c0*D| a sum reaches, so these codes never alias.
    Each pass extends only the sums new in the previous one: a sum of k + 2
    summands is a (k + 1)-sum plus a generator, and if that (k + 1)-sum has
    fewer summands, so has the whole.  Returns the codes of the sums, and
    the work, |new| * |base| per pass, charged before it."""
    base = session._generators | {0}
    current = set(base)
    new = base
    work = 0
    for _ in range(session.round_budget):
        if not new:
            break
        work += len(new) * len(base)
        if work > CLOSE_WORK_BUDGET:  # compared inline: this runs once per pass
            check_work("arrow closure", work, CLOSE_WORK_BUDGET)
        new = {a + b for a in new for b in base} - current
        current |= new
    return current, work


def close(session: Session) -> Session:
    """Saturate the fact set under R1-R4 (budgeted rounds).

    Rounds are semi-naive: a rule fires on a fact, or on a pair of facts,
    only when one of them was added or shrank since the previous round's
    snapshot (the keys ``_add`` recorded meanwhile).  A pair of unchanged
    facts fired on the same inputs a round earlier, and targets only
    shrink, so it could record nothing now.  The facts, ``rounds_used`` and
    the trace are those of joining every pair; a round that appends nothing
    to the trace ends the closure.

    R2 walks no partner of a fact whose target is a single line, which has
    no nonempty proper subset to cancel.  R3 composes m and m2 by adding
    their codes, on a grid that covers every admissible total; the identity
    S ->(0) S would only rebuild its partners, so it composes nothing.  R3
    checks the live per-source index first, since a stored fact implies
    most results, and tests the sum against the set of admissible totals
    only when none does.  Every fact is written by ``_add``.

    Work, against ``CLOSE_WORK_BUDGET`` and counted before it is done:
    |new| * |base| for each pass of the allowed sums; |A|^2 for each move
    whose trivial facts are added, since the round visits each of them as
    an R3 partner of the |A| base facts into its source; and for each
    snapshot fact of a round, 1 plus the lengths of its R2 and R3 partner
    lists, walked or not.
    """
    allowed, work = _allowed_moves(session)
    budget = CLOSE_WORK_BUDGET
    facts = session._facts
    store = session._by_source
    trace = session._trace
    add = session._add
    full = session._full
    singletons = [1 << i for i in range(len(session.elements))]
    generators = session._generators
    covered: set = set()  # moves whose trivial facts are all present

    for round_index in range(session.round_budget):
        recorded = len(trace)
        # Trivial facts: every singleton maps into the whole space at every
        # move currently in play.  R2 cancels known images out of these.
        in_play = {m for _, m in facts} | generators
        new_moves = sorted(in_play - covered, key=session._pair)
        work = check_work(
            "arrow closure", work + len(new_moves) * len(singletons) ** 2, budget
        )
        for m in new_moves:
            for i in singletons:
                add("trivial", i, m, full)
        covered = in_play

        # Each fact with its square flag |S| = |T|, which R1 and R3 need
        # and which makes it an R2 partner.
        snapshot = [(key, t, key[0].bit_count() == t.bit_count()) for key, t in facts.items()]
        fresh, session._changed = session._changed, set()
        # R2 partners (dimension-preserving facts) by move and R3 partners
        # by source, in snapshot order: from every fact (for R3, a copy of
        # the per-source index), and from the fresh ones only, which is all
        # an unchanged fact needs.  In the first round every fact is fresh.
        every: tuple[dict, dict] = ({}, {s: row.copy() for s, row in store.items()})
        recent: tuple[dict, dict] = ({}, {})
        for key, t, square in snapshot:
            if square:
                every[0].setdefault(key[1], []).append((key[0], t))
            if round_index and key in fresh:
                s, m = key
                if square:
                    recent[0].setdefault(m, []).append((s, t))
                recent[1].setdefault(s, {})[m] = t

        for key, t, square in snapshot:
            s, m = key
            is_fresh = not round_index or key in fresh
            by_move, by_source = every if is_fresh else recent
            r2_partners = by_move.get(m, ())
            r3_partners = by_source.get(t, ()) if square else ()
            work += 1 + len(r2_partners) + len(r3_partners)
            if work > budget:  # compared inline: this runs once per fact
                check_work("arrow closure", work, budget)
            # R1 complement.
            if is_fresh and square and s != full:
                add("R1", full ^ s, m, full ^ t, ((s, m, t),))
            # R2 cancellation: c is a proper subset of t, so t has two lines.
            for s2, c in r2_partners if t & (t - 1) else ():
                if not s2 & s and c & t == c and c != t:
                    add("R2", s, m, t ^ c, ((s, m, t), (s2, m, c)))
            # R3 composition (first fact must be dimension-preserving).
            if r3_partners and (m or s != t):
                known_for_s = store[s]
                for m2, r in r3_partners.items():
                    m3 = m + m2
                    known = known_for_s.get(m3)
                    if (known is None or known & r != known) and m3 in allowed:
                        add("R3", s, m3, r, ((s, m, t), (t, m2, r)))
        session.rounds_used = round_index + 1
        if len(trace) == recorded:
            break
    session.closed = True
    return session


class PermutationAction(NamedTuple):
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
    code = session._lookup(move)
    images = []
    for i in range(len(session.elements)):
        t = session._facts.get((1 << i, code))
        if t is None or t.bit_count() != 1:
            return None
        images.append(t.bit_length() - 1)
    if len(set(images)) != len(images):
        raise InconsistencyError(
            f"U({move}) maps two basis lines onto the same line",
            trace=session._trace_so_far(),
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

"""Reference arrow engine for the differential tests: the naive closure
loop that ``spectrapairs.arrows`` replaced, kept verbatim.

Facts are stored as ``(frozenset, Affine) -> frozenset`` and every round
joins every pair of facts, formatting each derivation's trace entry as it
goes.  It is slow and independent of the integer-move, bitmask and
semi-naive internals of the package engine; only the ``Affine`` value type
and the exception types are shared.  Not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from spectrapairs.arrows import Affine, symbol
from spectrapairs.errors import InconsistencyError, InvalidInputError
from spectrapairs.sets import Irrational


@dataclass(frozen=True)
class ArrowFact:
    source: frozenset[int]
    move: Affine
    target: frozenset[int]


def _coerce(value) -> Affine:
    if isinstance(value, Affine):
        return value
    if isinstance(value, Irrational):
        return symbol()
    return Affine(Fraction(value))


class Session:
    """Single-owner mutable deduction state over a fixed ground set."""

    def __init__(
        self,
        elements: Sequence[Affine],
        moves: frozenset[Affine],
        round_budget: int,
    ):
        self.elements = tuple(elements)
        self.moves = moves
        self.round_budget = round_budget
        # Minimal known target per (source, move).
        self.facts: dict[tuple[frozenset[int], Affine], frozenset[int]] = {}
        self.trace: list[dict] = []
        self.closed = False
        self.rounds_used = 0

    @property
    def full(self) -> frozenset[int]:
        return frozenset(range(len(self.elements)))

    def fact_list(self) -> list[ArrowFact]:
        return [
            ArrowFact(s, m, t)
            for (s, m), t in sorted(
                self.facts.items(),
                key=lambda kv: (sorted(kv[0][0]), kv[0][1]._key(), sorted(kv[1])),
            )
        ]

    def has_fact(self, source: Iterable[int], move, target: Iterable[int]) -> bool:
        """True when the stored fact for (source, move) implies the given one."""
        known = self.facts.get((frozenset(source), _coerce(move)))
        return known is not None and known <= frozenset(target)

    def _record(self, rule: str, source, move, target, parents) -> None:
        self.trace.append(
            {
                "rule": rule,
                "source": sorted(source),
                "move": str(move),
                "target": sorted(target),
                "parents": [list(p) for p in parents],
            }
        )

    def add_fact(
        self,
        source: frozenset[int],
        move: Affine,
        target: frozenset[int],
        rule: str = "seed",
        parents: Optional[list] = None,
    ) -> bool:
        """Insert a fact, eagerly intersecting targets (R4).  Returns True
        when knowledge grew."""
        if not source or not target:
            raise InvalidInputError("source and target must be nonempty")
        key = (source, move)
        known = self.facts.get(key)
        new = target if known is None else (known & target)
        if known is not None and new == known:
            return False
        if known is not None:
            rule = f"{rule}+R4"
        if len(new) < len(source):
            self._record(rule, source, move, new, parents or [])
            raise InconsistencyError(
                f"target {sorted(new)} smaller than source {sorted(source)} "
                f"at move {move}",
                trace=self.trace,
            )
        self.facts[key] = new
        self._record(rule, source, move, new, parents or [])
        return True

    def to_json(self) -> dict:
        return {
            "elements": [str(e) for e in self.elements],
            "closed": self.closed,
            "rounds_used": self.rounds_used,
            "facts": [
                {
                    "source": sorted(f.source),
                    "move": str(f.move),
                    "target": sorted(f.target),
                }
                for f in self.fact_list()
            ],
        }


def new_session(A: Sequence, moves: Iterable, round_budget: int = 6) -> Session:
    """Seed a session with the base facts {a} ->(b-a) {b} for a, b in A,
    plus the identity facts {a} ->(0) {a}."""
    elements = [_coerce(e) for e in A]
    if len(elements) < 2:
        raise InvalidInputError("ground set needs at least two elements")
    if len({e._key() for e in elements}) != len(elements):
        raise InvalidInputError("ground set has repeated elements")
    move_set = frozenset(_coerce(m) for m in moves)
    if not move_set:
        raise InvalidInputError("moves must be nonempty")
    session = Session(elements, move_set, round_budget)
    n = len(elements)
    zero = Affine(Fraction(0))
    for i in range(n):
        session.add_fact(frozenset({i}), zero, frozenset({i}), rule="base")
        for j in range(n):
            if i != j:
                session.add_fact(
                    frozenset({i}),
                    elements[j] - elements[i],
                    frozenset({j}),
                    rule="base",
                )
    return session


def _allowed_moves(session: Session) -> set[Affine]:
    """Closure of the generating moves under addition, up to round_budget
    summands; caps which compositions R3 may produce."""
    base = set(session.moves) | {Affine(Fraction(0))}
    current = set(base)
    for _ in range(session.round_budget):
        extended = current | {m + g for m in current for g in base}
        if extended == current:
            break
        current = extended
    return current


def close(session: Session) -> Session:
    """Saturate the fact set under R1-R4 (budgeted rounds)."""
    allowed = _allowed_moves(session)
    full = session.full
    for round_index in range(session.round_budget):
        changed = False
        # Trivial facts: every singleton maps into the whole space at every
        # move currently in play.  R2 cancels known images out of these.
        moves_in_play = {m for (_, m) in session.facts} | set(session.moves)
        for m in sorted(moves_in_play, key=Affine._key):
            for i in sorted(full):
                src = frozenset({i})
                if (src, m) not in session.facts:
                    changed |= session.add_fact(src, m, full, rule="trivial")

        snapshot = list(session.facts.items())
        by_move: dict[Affine, list] = {}
        for (s, m), t in snapshot:
            by_move.setdefault(m, []).append((s, t))
        by_source: dict[frozenset, list] = {}
        for (s, m), t in snapshot:
            by_source.setdefault(s, []).append((m, t))

        for (s, m), t in snapshot:
            # R1 complement.
            if len(s) == len(t) and s != full:
                changed |= session.add_fact(
                    full - s,
                    m,
                    full - t,
                    rule="R1",
                    parents=[(sorted(s), str(m), sorted(t))],
                )
            # R2 cancellation.
            for s2, c in by_move.get(m, ()):
                if s2.isdisjoint(s) and len(s2) == len(c) and c <= t and c < t:
                    changed |= session.add_fact(
                        s,
                        m,
                        t - c,
                        rule="R2",
                        parents=[
                            (sorted(s), str(m), sorted(t)),
                            (sorted(s2), str(m), sorted(c)),
                        ],
                    )
            # R3 composition (first fact must be dimension-preserving).
            if len(s) == len(t):
                for m2, r in by_source.get(t, ()):
                    total = m + m2
                    if total in allowed:
                        changed |= session.add_fact(
                            s,
                            total,
                            r,
                            rule="R3",
                            parents=[
                                (sorted(s), str(m), sorted(t)),
                                (sorted(t), str(m2), sorted(r)),
                            ],
                        )
        session.rounds_used = round_index + 1
        if not changed:
            break
    session.closed = True
    return session

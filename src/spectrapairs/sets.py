"""Finite rational sets and exact element parsing.

Set elements are exact ``Fraction`` values.  Floating-point literals are
rejected at parse time: rationality is part of the spectrality decision, so
an input must either carry an exact fraction or be tagged explicitly as
irrational.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

from .errors import InvalidInputError
from .exact import RationalPhases, rational

__all__ = [
    "FiniteRationalSet",
    "Irrational",
    "ElementInput",
    "parse_fraction",
    "scale_translate",
]

_FRACTION_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
# Characters of a rejected input that its error message shows.
_ECHO = 20


def parse_fraction(text: str) -> Fraction:
    """Parse an exact "p/q" or integer string; floats are rejected."""
    text = text.strip()
    if not _FRACTION_RE.match(text):
        shown = repr(text[:_ECHO]) + (f"... ({len(text)} characters)" if len(text) > _ECHO else "")
        raise InvalidInputError(f"not an exact fraction: {shown}")
    try:
        return Fraction(text)
    except ValueError:  # a part over Python's int string-conversion limit
        raise InvalidInputError(f"fraction too long: {len(text)} characters") from None


class Irrational(NamedTuple):
    """Marker for an irrational input; carries a display label only."""

    label: str


ElementInput = Union[Fraction, Irrational]


class FiniteRationalSet:
    """Nonempty strictly increasing tuple of distinct rationals, and their
    grid over one common denominator, built once here."""

    __slots__ = ("elements", "phases")

    def __init__(self, elements: Iterable) -> None:
        elems = sorted(rational(e) for e in elements)
        if not elems:
            raise InvalidInputError("set must be nonempty")
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise InvalidInputError(f"set has repeated element {a}")
        self.elements = tuple(elems)
        self.phases = RationalPhases(self.elements)

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "FiniteRationalSet":
        return cls(parse_fraction(s) for s in items)

    def to_strings(self) -> list[str]:
        return [str(e) for e in self.elements]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return rational(x) in self.elements

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteRationalSet) and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"FiniteRationalSet({{{', '.join(self.to_strings())}}})"


def scale_translate(A: FiniteRationalSet, c, t) -> FiniteRationalSet:
    """Return c*A + t (sorted).  Spectrality is invariant under this map."""
    c = rational(c)
    t = rational(t)
    if c == 0:
        raise InvalidInputError("scale factor must be nonzero")
    return FiniteRationalSet(c * a + t for a in A)

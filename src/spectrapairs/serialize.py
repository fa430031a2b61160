"""JSON wire formats: exact fraction strings everywhere, never floats for
set elements or spectra.

Every file is read in two steps: ``read_set`` and ``read_measure`` return
its JSON arrays, ``parse_set`` and ``parse_measure`` parse their elements.
So every command counts its work from the arrays' lengths before it pays
for parsing, several microseconds per element, and a file of more than
``16 * errors.WORK_BUDGET`` bytes is refused before it is parsed."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from . import errors
from .errors import InvalidInputError, TooLargeError, check_work
from .sets import FiniteRationalSet, parse_fraction

if TYPE_CHECKING:
    from .measures import AtomicMeasure

__all__ = ["read_set", "parse_set", "read_measure", "parse_measure"]

_MEASURE_FORMAT = 'measure file must be a JSON object {"points": [...], "weights": [...]}'


def _read(path: str, kind: type, expected: str):
    """The JSON value in the file at ``path``.  A missing file raises
    FileNotFoundError; a file, or a pipe, of more than 16 bytes per unit
    of ``errors.WORK_BUDGET`` is too large, refused before it is parsed;
    any other unreadable file, bad JSON, or a top-level value that is not
    a ``kind`` is invalid input, with message ``expected`` for the last."""
    limit = 16 * errors.WORK_BUDGET
    try:
        with open(path, "rb") as fh:
            raw = fh.read(limit + 1)
        check_work("reading an input file", len(raw), limit)
        data = json.loads(raw)
    except (FileNotFoundError, TooLargeError):
        raise
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, kind):
        raise InvalidInputError(expected)
    return data


def read_set(path: str) -> list:
    """The JSON array of a set file, its elements not yet parsed."""
    return _read(path, list, "set file must be a JSON array of fraction strings")


def parse_set(items: list) -> FiniteRationalSet:
    return FiniteRationalSet.from_strings(str(x) for x in items)


def read_measure(path: str) -> tuple[list, list]:
    """The points and weights arrays of a measure file, not yet parsed."""
    data = _read(path, dict, _MEASURE_FORMAT)
    points, weights = data.get("points"), data.get("weights")
    if not (isinstance(points, list) and isinstance(weights, list)):
        raise InvalidInputError(_MEASURE_FORMAT)
    return points, weights


def parse_measure(points: list, weights: list) -> AtomicMeasure:
    from .measures import AtomicMeasure

    return AtomicMeasure([parse_fraction(str(p)) for p in points], weights)

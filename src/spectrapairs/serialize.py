"""JSON wire formats: exact fraction strings everywhere, never floats for
set elements or spectra.

``load`` takes every input file of a command in one call.  It reads each
file's JSON arrays and checks their shape, counts parsing them from the
arrays' lengths, and only then parses their elements, several
microseconds each.  A file of more than ``16 * errors.WORK_BUDGET`` bytes
is refused before it is parsed."""

from __future__ import annotations

import json

from . import errors
from .errors import InvalidInputError, TooLargeError, check_work
from .sets import FiniteRationalSet, parse_fraction

__all__ = ["read_set", "load"]

_MEASURE_FORMAT = 'measure file must be a JSON object {"points": [...], "weights": [...]}'

# Parsing an element costs time quadratic in its length.  Only characters
# past 18 (about one machine word) are charged: S'^2 over C, S' the sum of
# a file's elements' characters past 18.
GRID_DIGITS_SQUARED_PER_UNIT = 2**14


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


def load(what: str, *set_paths: str, measure: str | None = None) -> tuple:
    """The measure file at ``measure``, if one is given, as an
    ``AtomicMeasure``, then one ``FiniteRationalSet`` per set file.

    Every file is read and its shape checked first, the measure file's
    weights each a JSON number.  Then parsing them is counted against
    ``errors.WORK_BUDGET`` as ``what``: 2 units per element, and S'^2 / C
    per file, C = ``GRID_DIGITS_SQUARED_PER_UNIT``, counting a measure's
    points alone.  Only then is any element parsed."""
    points = []
    if measure is not None:
        data = _read(measure, dict, _MEASURE_FORMAT)
        points, weights = data.get("points"), data.get("weights")
        if not (isinstance(points, list) and isinstance(weights, list)):
            raise InvalidInputError(_MEASURE_FORMAT)
        if not all(type(w) in (int, float) for w in weights):  # a bool is no number
            raise InvalidInputError("measure weights must be JSON numbers")
    sets = [read_set(path) for path in set_paths]
    work = 0
    for items in [points, *sets]:
        digits = sum(max(0, len(str(x)) - 18) for x in items)
        work += 2 * len(items) + digits * digits // GRID_DIGITS_SQUARED_PER_UNIT
    check_work(what, work, errors.WORK_BUDGET)
    parsed = []
    if measure is not None:
        from .measures import AtomicMeasure

        parsed.append(AtomicMeasure([parse_fraction(str(p)) for p in points], weights))
    parsed += [FiniteRationalSet.from_strings(str(x) for x in items) for items in sets]
    return tuple(parsed)

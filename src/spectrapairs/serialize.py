"""JSON wire formats: exact fraction strings everywhere, never floats for
set elements or spectra."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import InvalidInputError
from .sets import FiniteRationalSet, parse_fraction

if TYPE_CHECKING:
    from .measures import AtomicMeasure

__all__ = ["load_set", "load_measure"]

_MEASURE_FORMAT = 'measure file must be a JSON object {"points": [...], "weights": [...]}'


def _read(path: str, kind: type, expected: str):
    """The JSON value in the file at ``path``.  A missing file raises
    FileNotFoundError; any other unreadable file, bad JSON, or a top-level
    value that is not a ``kind`` is invalid input, with message
    ``expected`` for the last."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, kind):
        raise InvalidInputError(expected)
    return data


def load_set(path: str) -> FiniteRationalSet:
    data = _read(path, list, "set file must be a JSON array of fraction strings")
    return FiniteRationalSet.from_strings(str(x) for x in data)


def load_measure(path: str) -> AtomicMeasure:
    from .measures import AtomicMeasure

    data = _read(path, dict, _MEASURE_FORMAT)
    points, weights = data.get("points"), data.get("weights")
    if not (isinstance(points, list) and isinstance(weights, list)):
        raise InvalidInputError(_MEASURE_FORMAT)
    return AtomicMeasure([parse_fraction(str(p)) for p in points], weights)

"""JSON wire formats: exact fraction strings everywhere, never floats for
set elements or spectra."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .errors import InvalidInputError
from .sets import FiniteRationalSet, parse_fraction

if TYPE_CHECKING:
    from .measures import AtomicMeasure, IFSMeasure

__all__ = [
    "load_set",
    "dump_set",
    "load_measure",
    "set_from_json",
    "measure_from_json",
]


def set_from_json(data) -> FiniteRationalSet:
    if not isinstance(data, list):
        raise InvalidInputError("set file must be a JSON array of fraction strings")
    return FiniteRationalSet.from_strings(str(x) for x in data)


def load_set(path: str) -> FiniteRationalSet:
    with open(path) as fh:
        return set_from_json(json.load(fh))


def dump_set(A: FiniteRationalSet, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(A.to_strings(), fh)


def measure_from_json(data) -> Union[AtomicMeasure, IFSMeasure]:
    from .measures import AtomicMeasure, IFSMeasure

    if not isinstance(data, dict):
        raise InvalidInputError("measure file must be a JSON object")
    if "scale" in data:
        return IFSMeasure(int(data["scale"]), [parse_fraction(str(d)) for d in data["digits"]])
    if "points" in data:
        points = [parse_fraction(str(p)) for p in data["points"]]
        if "weights" in data:
            weights = [float(w) for w in data["weights"]]
        else:
            weights = [1.0 / len(points)] * len(points)
        return AtomicMeasure(points, weights)
    raise InvalidInputError("measure file needs either points or scale/digits")


def load_measure(path: str) -> Union[AtomicMeasure, IFSMeasure]:
    with open(path) as fh:
        return measure_from_json(json.load(fh))

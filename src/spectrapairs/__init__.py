"""Decide, construct, and certify spectra and frame spectra of measures."""

import importlib

from .errors import InconsistencyError, InvalidInputError, TooLargeError
from .exact import (
    CycSum,
    cyclotomic_polynomial,
    evaluate_cyc,
    extended_gcd,
    reduce_rational,
    root_sum_is_zero,
)
from .sets import FiniteRationalSet, Irrational, fraction_str, parse_fraction
from .spectral import (
    SpectralDecision,
    certify_spectral_pair,
    construct_line_spectrum,
    decide_line_set,
    decide_three_point,
    is_spectral_pair,
    scale_translate,
    search_spectrum,
)
from .arrows import (
    Affine,
    ArrowFact,
    PermutationAction,
    Session,
    close,
    extract_permutation,
    new_session,
    rationality_obstruction,
    symbol,
)

# The numpy-backed layers load on first use, so exact-only work never
# imports numpy (PEP 562).
_LAZY = {
    "AtomicMeasure": "measures",
    "FrameReport": "measures",
    "IFSMeasure": "measures",
    "atomic_transform": "measures",
    "cantor4_measure": "measures",
    "completeness_defect": "measures",
    "frame_bounds": "measures",
    "gram_matrix": "measures",
    "ifs_transform": "measures",
    "ifs_transforms": "measures",
    "IFSTransforms": "measures",
    "jp_spectrum": "measures",
    "FiniteRep": "representation",
    "WanderingReport": "representation",
    "correlation": "representation",
    "evaluate_group_element": "representation",
    "generator_shift": "representation",
    "is_wandering": "representation",
    "measure_from_representation": "representation",
    "multiplication_representation": "representation",
    "permutation_representation": "representation",
    "shift_for_time": "representation",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

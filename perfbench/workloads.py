"""Seeded workloads: the operations each one runs and their oracles.

``build(name, seed)`` returns the fixed list of operations of one pass.
The seed draws the inputs (fractions, perturbations, affine copies, sample
points, order); the input sizes are fixed per workload, so two seeds cost
about the same and a pass measures the same work.  The library only ever
receives the generated inputs.

Every ``Op.call`` looks its library function up through the module at call
time, so the tracer's wrappers see it.  ``Op.check`` is the oracle, applied
after the timed section to the output of the op's first execution.

``defect_probe(name)`` returns the untimed operations that show a known
defect of the program; ``known_defects(name)`` the ones among them that
failed at the commit recorded by ``record_expected.py``.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden")
DIGESTS = os.path.join(HERE, "closure_digests.json")
KNOWN_DEFECTS = os.path.join(HERE, "known_defects.json")

NAMES = ("certify", "closure", "fourier", "cli")


def _same(value):
    return value


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    # Turns a raw output into the value that is stored, compared between
    # executions and given to ``check``; runs outside the timed call.
    summarize: Callable[[Any], Any] = _same
    # Replaces ``call`` in traced passes; receives the tracer (cli only).
    traced_call: Optional[Callable[[Any], Any]] = None
    # The generated inputs, for the run's record of failures.
    inputs: str = ""


def build(name: str, seed: int) -> list:
    """The ops of one pass, in a fixed order: each pass starts with an
    empty Phi_N cache, and a fixed order charges each build to the same op
    for every seed."""
    rng = random.Random(f"{name}:{seed}")
    return {"certify": _certify, "closure": _closure, "fourier": _fourier, "cli": _cli}[name](rng)


LINE_QS = (7, 5, 11, 13, 17, 19)


def _float_column(A, d) -> float:
    """|sum_a e^{2 pi i a d}| in floating point: an oracle independent of
    the exact layer (phases reduced mod 1 exactly first)."""
    return abs(sum(cmath.exp(2j * math.pi * float((a * d) % 1)) for a in A))


def _float_pair(A, B) -> bool:
    """Floating-point unitarity of the exponential matrix (n <= 24, column
    sums of at most 24 unit terms, so 1e-6 separates zero from nonzero for
    the denominators drawn here)."""
    return all(
        _float_column(A, b2 - b1) < 1e-6
        for i, b1 in enumerate(B)
        for b2 in list(B)[i + 1 :]
    )


def _line_fraction(rng, n, spectral, coprime_to=1, q=None, period=None):
    """p/q for {0, ..., n-2, p/q}: spectral iff (p + q) = 0 mod n.

    q defaults to the first of ``LINE_QS`` coprime to n * coprime_to, and
    the seed moves p by multiples of ``period`` (2n by default).  That
    keeps every phase a*d mod 1 of the ops' column sums, and so their
    cost, the same for every seed, while the sets themselves differ.
    """
    if q is None:
        q = next(q for q in LINE_QS if math.gcd(q, n * coprime_to) == 1)
    p = n - 1
    while ((p + q) % n == 0) != spectral or math.gcd(p, q) != 1:
        p += 1
    while True:
        moved = p + (period or 2 * n) * rng.randrange(0, 16)
        if math.gcd(moved, q) == 1:
            return moved, q


# --- certify ---------------------------------------------------------------

CERTIFY_SIZES = tuple(range(3, 25))
# Shifted copies A + 1/m; the column-sum denominator is N = n * m.
CERTIFY_SHIFTS = (
    (3, 4), (4, 6), (3, 10), (5, 6), (4, 15), (6, 10), (3, 35), (5, 21),
    (4, 45), (6, 35), (5, 60), (7, 30), (8, 33), (3, 100), (6, 55), (4, 99),
    (5, 91), (8, 65), (6, 105), (7, 110), (4, 250), (3, 330), (10, 100), (8, 150),
)
# N above the exact cap of 10**6: the flagged floating-point path.
CERTIFY_CAPPED = ((3, 1009 * 1013), (4, 1013 * 1019))
# (points, spectral, q_max, fixed q per op).
SEARCHES = (
    (3, True, 3, (1, 2, 4, 5)),
    (3, False, 6, (1, 2, 3, 5)),
    (4, True, 4, (1, 3, 5, 7)),
    (4, False, 6, (1, 2, 3, 5)),
)


def _certify(rng) -> list:
    from spectrapairs import spectral
    from spectrapairs.sets import FiniteRationalSet

    def line(n, p, q):
        return FiniteRationalSet([*range(n - 1), Fraction(p, q)])

    def pair_op(kind, n, p, q, A, B, expected):
        def check(out):
            # The closed form must agree that {0, ..., n-2, p/q} is spectral
            # with the witness it was built from.
            decision = spectral.decide_line_set(n, Fraction(p, q))
            witness = spectral.construct_line_spectrum(n, p, q)
            closed_form = decision.verdict == "spectral" and decision.certificate == witness
            return closed_form and out[0] == expected

        return Op(
            kind,
            lambda: spectral.certify_spectral_pair(A, B),
            check,
            lambda cert: (cert.is_pair, cert.exact),
            inputs=f"A={A!r} B={B!r}",
        )

    ops = []
    for n in CERTIFY_SIZES:
        p, q = _line_fraction(rng, n, True)
        A = line(n, p, q)
        B = spectral.construct_line_spectrum(n, p, q)
        ops.append(pair_op("certify.pair", n, p, q, A, B, True))
        # Perturb the largest element by q/(kn): certification exits at
        # the first column that involves it, which the float oracle proves
        # nonzero.  With p moved by multiples of 2n, k = 2 gives the same
        # phases for every seed.
        top = B.elements[-1]
        for k in range(2, 50):
            moved = top + Fraction(q, k * n)
            if _float_column(A, moved) > 1e-3:
                break
        Bbad = FiniteRationalSet([*B.elements[:-1], moved])
        ops.append(pair_op("certify.negative", n, p, q, A, Bbad, False))
    for kind, shifts in (("certify.shifted", CERTIFY_SHIFTS), ("certify.capped", CERTIFY_CAPPED)):
        for n, m in shifts:
            p, q = _line_fraction(rng, n, True, coprime_to=m)
            B = spectral.construct_line_spectrum(n, p, q)
            # Spectrality is invariant under translation.
            shifted = FiniteRationalSet(a + Fraction(1, m) for a in line(n, p, q))
            ops.append(pair_op(kind, n, p, q, shifted, B, True))
    for points, is_spectral, q_max, qs in SEARCHES:
        for q in qs:
            ops.append(_search_op(rng, points, is_spectral, q_max, q))
    return ops


def _search_op(rng, n, is_spectral, q_max, q) -> Op:
    from spectrapairs import spectral
    from spectrapairs.sets import FiniteRationalSet

    # Candidates and their differences have denominators dividing
    # lcm(1..q_max) * 2; moving p by multiples of q times that keeps the
    # search's phases, and its cost, the same for every seed.
    period = q * n * 2 * math.lcm(*range(1, q_max + 1))
    p, q = _line_fraction(rng, n, is_spectral, q=q, period=period)
    A = FiniteRationalSet([*range(n - 1), Fraction(p, q)])
    # A hit's span holds the witness {0, q/n, ..., (n-1) q/n}; a miss is
    # non-spectral by the closed form, so no span may hold a spectrum.
    span = Fraction(q) if is_spectral else Fraction(2)

    def check(out):
        if not is_spectral:
            return out is None
        if out is None or len(out) != n or out[0] != "0":
            return False
        B = FiniteRationalSet.from_strings(out)
        return spectral.is_spectral_pair(A, B) and _float_pair(A.elements, B.elements)

    kind = f"search.{n}.{'hit' if is_spectral else 'miss'}"
    return Op(
        kind,
        lambda: spectral.search_spectrum(A, q_max, span),
        check,
        lambda B: None if B is None else tuple(B.to_strings()),
        inputs=f"A={A!r} q_max={q_max} span={span}",
    )


# --- closure ---------------------------------------------------------------

# Base shapes: (label, elements, round budget), all pairwise differences
# as moves.  "a" is the symbolic irrational; "bad" shapes are non-spectral
# and must raise InconsistencyError.  Budgets are kept near n so that a run
# times a few hundred closures.  Costs (at the reference speed) are grouped
# so that the median and the 90th percentile of a pass fall inside a group
# of copies of like cost, not in a gap between two groups: 9 of the 24 ops
# lie below the median, and 3 copies of one shape span the 90th
# percentile.  Rational shapes run as seeded copies c * A + t (c > 0),
# which leave the deduction isomorphic; the symbolic one as A + t.  Their
# expected closures are digests recorded by record_expected.py.
CLOSURE_SHAPES = (
    # ~7-30 ms each
    ("line3-int", ("0", "1", "2"), 3),
    ("line3-half", ("0", "1", "1/2"), 3),
    ("line3-7/2", ("0", "1", "7/2"), 3),
    ("line3-5/4", ("0", "1", "5/4"), 3),
    ("bad3-3", ("0", "1", "3"), 5),
    ("bad3-1/3", ("0", "1", "1/3"), 5),
    ("bad3-5/2", ("0", "1", "5/2"), 4),
    ("bad4-3/2", ("0", "1", "2", "3/2"), 6),
    ("bad4-4/3", ("0", "1", "2", "4/3"), 6),
    # ~50-70 ms: the median falls inside this group
    ("line3-int", ("0", "1", "2"), 5),
    ("line3-int", ("0", "1", "2"), 5),
    ("line3-half", ("0", "1", "1/2"), 5),
    ("line3-half", ("0", "1", "1/2"), 5),
    ("line4-int", ("0", "1", "2", "3"), 4),
    ("line4-int", ("0", "1", "2", "3"), 4),
    ("line3-5/4", ("0", "1", "5/4"), 4),
    # ~100-120 ms
    ("line4-1/3", ("0", "1", "2", "1/3"), 4),
    ("bad5-11", ("0", "1", "2", "3", "11"), 5),
    ("alpha", ("0", "1", "a"), 4),
    ("line4-5/3", ("0", "1", "2", "5/3"), 4),
    # ~120-140 ms: the 90th percentile falls inside this group
    ("line4-int", ("0", "1", "2", "3"), 5),
    ("line4-int", ("0", "1", "2", "3"), 5),
    ("line4-int", ("0", "1", "2", "3"), 5),
    # ~250-280 ms
    ("line5-int", ("0", "1", "2", "3", "4"), 5),
)
INCONSISTENT = "inconsistent"


def shape_key(label, budget) -> str:
    return f"{label}@{budget}"


def closure_instance(elements, c, t):
    """Ground set c * A + t and all pairwise differences as moves."""
    from spectrapairs import arrows

    ground = [
        arrows.symbol() + arrows.Affine(t) if e == "a" else arrows.Affine(c * Fraction(e) + t)
        for e in elements
    ]
    moves = [b - a for a in ground for b in ground if a != b]
    return ground, moves


def closure_digest(payload: dict, elements, c) -> str:
    """Digest of ``Session.to_json()`` mapped back to the base shape."""
    base = {
        "elements": list(elements),
        "closed": payload["closed"],
        "rounds_used": payload["rounds_used"],
        "facts": [
            {
                "source": f["source"],
                "move": f["move"] if c == 1 else str(Fraction(f["move"]) / c),
                "target": f["target"],
            }
            for f in payload["facts"]
        ],
    }
    blob = json.dumps(base, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def closure_call(elements, budget, c, t):
    from spectrapairs import arrows
    from spectrapairs.errors import InconsistencyError

    ground, moves = closure_instance(elements, c, t)

    def call():
        try:
            return arrows.close(arrows.new_session(ground, moves, round_budget=budget))
        except InconsistencyError:
            return INCONSISTENT

    def summarize(out):
        return out if out == INCONSISTENT else closure_digest(out.to_json(), elements, c)

    return call, summarize


def _closure(rng) -> list:
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    ops = []
    for label, elements, budget in CLOSURE_SHAPES:
        want = expected[shape_key(label, budget)]
        if "a" in elements:
            c = Fraction(1)
        else:
            c = Fraction(rng.randrange(1, 10), rng.randrange(1, 10))
        t = Fraction(rng.randrange(-20, 21), rng.randrange(1, 10))
        call, summarize = closure_call(elements, budget, c, t)
        kind = "closure.inconsistent" if want == INCONSISTENT else f"closure.n{len(elements)}"
        ops.append(
            Op(
                kind, call, lambda out, want=want: out == want, summarize,
                inputs=f"{shape_key(label, budget)} c={c} t={t}",
            )
        )
    return ops


# --- fourier ---------------------------------------------------------------

GRAM_CASES = ((4, True), (4, False), (5, True), (5, False), (6, True))
GRAM_EPS = 1e-12
GRAM_SAMPLE = 12
Q_CASES = (8, 8, 9, 10)
Q_EPS = 1e-10
# Denominators of t for the 3-digit measure: the zero test at N = 4q.
IFS3_DENOMINATORS = (7, 12, 30, 60, 64, 100, 128, 210, 256, 300)
IFS_EPS = 1e-12
# |t| in [4^e, 4^(e+1)) for the Cantor measure, four per exponent.  The
# float phase of the transform loses about |t| * 1e-16 (ROADMAP item 3), so
# from |t| ~ 4^6 on it can miss eps = 1e-12; below 4^6 the error stayed
# under 3e-13 in 600 draws per exponent.  Larger |t| run in the defect
# probe.
CANTOR_EXPONENTS = (3, 4, 5)
CANTOR_PER_EXPONENT = 4
# The defect probe: Cantor transforms at |t| in [4^15, 4^21), drawn once
# from a fixed seed, so the recorded failures hold for every run.
DEFECT_EXPONENTS = (15, 16, 17, 18, 19, 20)
DEFECT_PER_EXPONENT = 4
DEFECT_SEED = "fourier-defect"
# Sizes of the witness measures of the representation ops, one seeded
# line set each.  One size for all: the median op of a pass is one of the
# frame_bounds ops, and like sizes give them like costs, so the median
# does not fall in a gap between two of them.
REP_SIZES = (5,) * 6
REP_TOL = 1e-12


def mp_transform(digits, scale, t):
    """Reference mu_hat(t) = prod_k mean_d e^{2 pi i d t / R^k} with every
    phase reduced mod 1 in exact arithmetic, evaluated in mpmath at 40
    digits until the remaining factors differ from 1 by < 1e-30."""
    import mpmath

    mpmath.mp.dps = 40
    t = Fraction(t)
    value = mpmath.mpc(1)
    k = 1
    top = max(abs(Fraction(d)) for d in digits)
    while True:
        phases = [(Fraction(d) * t / scale**k) % 1 for d in digits]
        value *= mpmath.fsum(
            mpmath.expjpi(2 * mpmath.mpf(x.numerator) / x.denominator) for x in phases
        ) / len(digits)
        if 2 * math.pi * float(top * abs(t)) / scale**k < 1e-31:
            return complex(value)
        k += 1


def cantor_power(t) -> float:
    """Reference |mu_hat(t)|^2 = prod_k cos^2(2 pi t / 4^k) for the Cantor
    measure, phases reduced mod 1 exactly.  Each factor carries a relative
    error of a few ulps, so the product is good to ~1e-14 relative: far
    below the completeness tolerance, at a fraction of mpmath's cost."""
    t = Fraction(t)
    value = 1.0
    k = 1
    while (2 * math.pi * float(abs(t)) / 4**k) ** 2 >= 1e-17:
        value *= math.cos(2 * math.pi * float((t / 4**k) % 1)) ** 2
        k += 1
    return value


def _fourier(rng) -> list:
    import numpy as np
    from spectrapairs import measures, representation, spectral
    from spectrapairs.measures import AtomicMeasure, IFSMeasure

    cantor = IFSMeasure(4, (0, 2))
    ops = []

    for L, symbolic in GRAM_CASES:
        lam = list(measures.jp_spectrum(L))
        rng.shuffle(lam)
        sample = [tuple(rng.sample(range(len(lam)), 2)) for _ in range(GRAM_SAMPLE)]

        def check(G, lam=lam, sample=sample):
            if not (np.array_equal(G, G.conj().T) and np.all(np.diag(G) == 1)):
                return False
            return all(
                abs(G[i, j] - mp_transform((0, 2), 4, lam[j] - lam[i])) <= GRAM_EPS
                for i, j in sample
            )

        ops.append(
            Op(
                f"fourier.gram{L}.{'sym' if symbolic else 'float'}",
                lambda lam=lam, symbolic=symbolic: measures.gram_matrix(
                    cantor, lam, eps=GRAM_EPS, symbolic=symbolic
                ),
                check,
                inputs=f"L={L} symbolic={symbolic} lambda={lam}",
            )
        )

    for L in Q_CASES:
        lam = measures.jp_spectrum(L)
        t = Fraction(rng.randrange(1, 97), 97)

        def check(q, lam=lam, t=t):
            # Each of the |lam| transforms is certified to eps / |lam|;
            # squaring and summing adds at most 2 eps + eps^2 / |lam|.
            # Rounding in both sums stays below 1e-13.
            ref = math.fsum(cantor_power(t - x) for x in lam)
            return abs(q - ref) <= 2 * Q_EPS + Q_EPS**2 / len(lam) + 1e-13

        ops.append(
            Op(
                f"fourier.completeness{L}",
                lambda lam=lam, t=t: measures.completeness_defect(cantor, lam, t, eps=Q_EPS),
                check,
                inputs=f"L={L} t={t}",
            )
        )

    three = IFSMeasure(4, (0, 1, 2))
    ts = []
    for q in IFS3_DENOMINATORS:
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        ts.append(("fourier.ifs3", Fraction(p, q)))
    for _ in range(2):  # the factor at level 1 vanishes: an exact zero
        ts.append(("fourier.ifs3.zero", Fraction(4 * (3 * rng.randrange(0, 5) + 1), 3)))
    for kind, t in ts:
        ops.append(_transform_op(kind, measures, three, t))
    ops += _cantor_ops(rng, CANTOR_EXPONENTS, CANTOR_PER_EXPONENT)

    for n in REP_SIZES:
        p, q = _line_fraction(rng, n, True)
        A = [Fraction(x) for x in range(n - 1)] + [Fraction(p, q)]
        mu = AtomicMeasure.uniform(A)
        S = spectral.construct_line_spectrum(n, p, q)
        xi = Fraction(rng.randrange(1, 50), rng.randrange(1, 12))
        ops.append(
            Op(
                "fourier.frame_bounds",
                lambda mu=mu, S=S: measures.frame_bounds(mu, S.elements),
                lambda r: abs(r.lower - 1) <= REP_TOL and abs(r.upper - 1) <= REP_TOL,
                inputs=f"A={A} S={S!r}",
            )
        )
        ops.append(
            Op(
                "fourier.wandering",
                lambda mu=mu, S=S: representation.is_wandering(
                    representation.multiplication_representation(mu), S
                ),
                lambda r: r.is_orthonormal_family and r.spans_space,
                inputs=f"A={A} S={S!r}",
            )
        )

        def corr_check(z, mu=mu, xi=xi):
            ref = sum(
                w * cmath.exp(2j * math.pi * float((b * xi) % 1))
                for b, w in zip(mu.points, mu.weights)
            )
            return abs(z - ref) <= REP_TOL

        ops.append(
            Op(
                "fourier.correlation",
                lambda mu=mu, xi=xi: representation.correlation(
                    representation.multiplication_representation(mu), xi
                ),
                corr_check,
                inputs=f"A={A} xi={xi}",
            )
        )
        spectrum = sorted(Fraction(j * q, n) for j in range(n))
        ops.append(
            Op(
                "fourier.permutation",
                lambda n=n, p=p, q=q: representation.permutation_representation(n, p, q),
                lambda eigs, spectrum=spectrum: eigs == spectrum,
                lambda rep: sorted(rep.eigenvalues),
                inputs=f"n={n} p={p} q={q}",
            )
        )
    return ops


def _cantor_ops(rng, exponents, per_exponent) -> list:
    from spectrapairs import measures
    from spectrapairs.measures import IFSMeasure

    cantor = IFSMeasure(4, (0, 2))
    ops = []
    for e in exponents:
        for _ in range(per_exponent):
            t = rng.randrange(4**e, 4 ** (e + 1)) * rng.choice((1, -1))
            ops.append(_transform_op(f"fourier.cantor4^{e}", measures, cantor, t))
    return ops


def defect_probe(name: str) -> list:
    """Untimed ops that show a known defect of the program, the same for
    every seed: the Cantor transform at |t| >= 4^15, where the float phase
    misses the certified eps (ROADMAP item 3).  Empty for a workload
    without one."""
    if name != "fourier":
        return []
    return _cantor_ops(random.Random(DEFECT_SEED), DEFECT_EXPONENTS, DEFECT_PER_EXPONENT)


def known_defects(name: str) -> dict:
    """The probe ops of ``name`` recorded as failing: index -> inputs."""
    with open(KNOWN_DEFECTS) as fh:
        return {int(i): inputs for i, inputs in json.load(fh).get(name, {}).items()}


def _transform_op(kind, measures, mu, t) -> Op:
    def check(out):
        value, _depth = out
        return abs(value - mp_transform(mu.digits, mu.scale, t)) <= IFS_EPS

    return Op(
        kind,
        lambda: measures.ifs_transform(mu, t, IFS_EPS),
        check,
        lambda r: (r.value, r.depth),
        inputs=f"{mu} t={t} eps={IFS_EPS}",
    )


# --- cli -------------------------------------------------------------------

# The golden cases of tests/test_cli.py; paths are relative to the checkout.
CLI_CASES = {
    "decide_spectral": ["decide-line-set", "--n", "3", "--a", "2/1"],
    "decide_congruence_fails": ["decide-line-set", "--n", "3", "--a", "3/1"],
    "decide_irrational": ["decide-line-set", "--n", "3", "--irrational", "sqrt2"],
    "decide_invalid": ["decide-line-set", "--n", "2", "--a", "5/1"],
    "check_pair_true": [
        "check-pair", "--set-a", "tests/data/set_012.json", "--set-b", "tests/data/set_thirds.json",
    ],
    "check_pair_false": [
        "check-pair", "--set-a", "tests/data/set_013.json", "--set-b", "tests/data/set_thirds.json",
    ],
    "find_spectrum_hit": [
        "find-spectrum", "--set", "tests/data/set_012.json", "--qmax", "3", "--span", "1",
    ],
    "find_spectrum_miss": [
        "find-spectrum", "--set", "tests/data/set_013.json", "--qmax", "6", "--span", "1",
    ],
    "arrow_close": [
        "arrow-close", "--set", "tests/data/set_012.json", "--moves", "1,-1,2,-2", "--budget", "3",
    ],
    "arrow_inconsistent": [
        "arrow-close", "--set", "tests/data/set_013.json", "--moves", "1,-1,2,-2,3,-3",
        "--budget", "5",
    ],
    "rep_roundtrip": [
        "rep-roundtrip", "--measure", "tests/data/measure_half.json",
        "--spectrum", "tests/data/lambda_01.json",
    ],
    "perm_rep": ["perm-rep", "--n", "3", "--p", "2", "--q", "1"],
    "cantor_orthogonality": ["cantor", "--level", "1", "--check", "orthogonality"],
    "cantor_completeness": [
        "cantor", "--level", "2", "--check", "completeness", "--grid", "5", "--eps", "1e-10",
    ],
    "frame_bounds_tight": [
        "frame-bounds", "--measure", "tests/data/measure_half.json",
        "--lambda", "tests/data/lambda_01.json",
    ],
    "frame_bounds_redundant": [
        "frame-bounds", "--measure", "tests/data/measure_half.json",
        "--lambda", "tests/data/lambda_012.json",
    ],
}
CLI_TIMEOUT_S = 60

# Traced CLI run: the same main(), with import and compute timed and the
# tracer's summary written to stderr.
CLI_TRACED = r"""
import json, sys, time
start = time.monotonic()
import spectrapairs.cli as cli
imported = time.monotonic()
sys.path.insert(0, sys.argv[1])
import tracer
phi = sys.modules["spectrapairs.exact"].cyclotomic_polynomial
t = tracer.Tracer()
t.install()
misses = tracer.phi_misses(phi)
t.active = True
t0 = time.monotonic()
try:
    code = cli.main(sys.argv[2:])
finally:
    compute = time.monotonic() - t0
    t.active = False
    s = t.summary()
    s["counters"]["exact.phi.builds"] = tracer.phi_misses(phi) - misses
    sys.stderr.write("PERFBENCH_TRACE " + json.dumps(
        {"start": start, "imported": imported, "compute": compute, "summary": s}) + "\n")
sys.exit(code)
"""


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _numpy_import_s(stderr: str) -> float:
    """Cumulative import time of numpy from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    return 0.0


def _cli(rng) -> list:
    env = _cli_env()
    ops = []
    for name, argv in sorted(CLI_CASES.items()):
        with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
            golden = json.load(fh)

        def call(argv=argv):
            proc = subprocess.run(
                [sys.executable, "-m", "spectrapairs.cli", *argv],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
            return proc.returncode, proc.stdout

        def traced_call(tr, argv=argv):
            spawn = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", CLI_TRACED, HERE, *argv],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
            wall = time.monotonic() - spawn
            report = next(
                json.loads(line.split(" ", 1)[1])
                for line in proc.stderr.splitlines()
                if line.startswith("PERFBENCH_TRACE ")
            )
            tr.merge(report["summary"])
            c = tr.counters
            c["cli.runs"] += 1
            c["cli.interpreter_s"] += report["start"] - spawn
            c["cli.import_s"] += report["imported"] - report["start"]
            c["cli.numpy_import_s"] += _numpy_import_s(proc.stderr)
            c["cli.compute_s"] += report["compute"]
            library = sum(report["summary"]["busy"].values())
            tr.extra_busy["cli.process"] += wall - library
            return proc.returncode, proc.stdout

        def summarize(out):
            code, stdout = out
            try:
                return code, json.loads(stdout)
            except ValueError:
                return code, None

        ops.append(
            Op(
                f"cli.{name}",
                call,
                lambda out, golden=golden: out == (golden["exit_code"], golden["result"]),
                summarize,
                traced_call,
                inputs=" ".join(argv),
            )
        )
    return ops

"""Command-line surface.

Every subcommand prints a single JSON object on stdout.  Successful runs
exit 0 (including an empty search result, which is a value, not an error);
domain failures exit 1 with a machine-readable reason; usage errors exit 2
(argparse's convention).  All rationals cross the wire as "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arrows import close, new_session
from .errors import InconsistencyError, InvalidInputError, TooLargeError
from .serialize import load_measure, load_set
from .sets import Irrational, fraction_str, parse_fraction
from .spectral import certify_spectral_pair, decide_line_set, search_spectrum

__all__ = ["run", "main"]

# Work budget of ``cantor``, in Gram entries or in transforms of the
# completeness sweep, both known from --level and --grid before anything is
# computed: a few seconds of work and a few tens of MB at the budget.
CANTOR_WORK_BUDGET = 2**20


def _cmd_decide_line_set(args) -> dict:
    a = Irrational(args.irrational) if args.irrational is not None else parse_fraction(args.a)
    return decide_line_set(args.n, a).to_json()


def _cmd_check_pair(args) -> dict:
    A = load_set(args.set_a)
    B = load_set(args.set_b)
    cert = certify_spectral_pair(A, B)
    return {"spectral_pair": cert.is_pair, "exact": cert.exact}


def _cmd_find_spectrum(args) -> dict:
    A = load_set(args.set)
    result = search_spectrum(A, args.qmax, parse_fraction(args.span))
    if result is None:
        return {
            "status": "not_found",
            "reason": "no_spectrum_within_bounds",
            "message": "bounded search exhausted without a certificate; "
            "this does not certify non-spectrality",
        }
    return {"spectrum": result.to_strings()}


def _cmd_arrow_close(args) -> dict:
    A = load_set(args.set)
    moves = [parse_fraction(m) for m in args.moves.split(",") if m.strip()]
    session = close(new_session(A, moves, round_budget=args.budget))
    return session.to_json()


def _cmd_rep_roundtrip(args) -> dict:
    from .measures import AtomicMeasure
    from .representation import (
        is_wandering,
        measure_from_representation,
        multiplication_representation,
    )

    mu = load_measure(args.measure)
    if not isinstance(mu, AtomicMeasure):
        raise InvalidInputError("rep-roundtrip needs an atomic measure")
    S = load_set(args.spectrum)
    rep = multiplication_representation(mu)
    back = measure_from_representation(rep)
    report = is_wandering(rep, S)
    return {
        "support_match": back.points == mu.points,
        "max_weight_error": max(
            abs(a - b) for a, b in zip(back.weights, mu.weights)
        )
        if back.points == mu.points
        else None,
        "wandering": report.to_json(),
    }


def _cmd_perm_rep(args) -> dict:
    from .representation import (
        generator_shift,
        measure_from_representation,
        permutation_representation,
        shift_for_time,
    )

    rep = permutation_representation(args.n, args.p, args.q)
    s = generator_shift(args.n, args.p, args.q)
    return {
        "generator_shift": s,
        "shift_at_1": shift_for_time(args.n, args.p, args.q, args.q),
        "shift_at_a": shift_for_time(args.n, args.p, args.q, args.p),
        "eigenvalues": [fraction_str(g) for g in rep.eigenvalues],
        "spectrum_points": sorted(
            fraction_str(p) for p in measure_from_representation(rep).points
        ),
    }


def _cmd_cantor(args) -> dict:
    import numpy as np

    from .measures import IFSMeasure, completeness_defect, gram_matrix, jp_spectrum

    if args.grid < 1:
        raise InvalidInputError("grid must be positive")
    if args.level >= 0:
        size = 2 ** (args.level + 1)  # the points of jp_spectrum(level)
        work = size * size if args.check == "orthogonality" else args.grid * size
        if work > CANTOR_WORK_BUDGET:
            raise TooLargeError(
                f"cantor --level {args.level} --check {args.check} needs {work} "
                f"units of work, over the budget of {CANTOR_WORK_BUDGET}"
            )
    mu = IFSMeasure(4, (0, 2))
    lam = jp_spectrum(args.level)
    if args.check == "orthogonality":
        G = gram_matrix(mu, lam, eps=args.eps)
        off = G - np.eye(len(lam))
        payload = {
            "lambda": list(lam),
            "max_offdiag": float(np.max(np.abs(off))) if len(lam) > 1 else 0.0,
        }
        if args.tsv:
            _print_tsv(
                ["i", "j", "re", "im"],
                (
                    [i, j, G[i, j].real, G[i, j].imag]
                    for i in range(len(lam))
                    for j in range(len(lam))
                ),
            )
        return payload
    # completeness sweep over t = k/grid
    grid = args.grid
    q_values = [
        completeness_defect(mu, lam, Fraction(k, grid), eps=args.eps)
        for k in range(grid)
    ]
    if args.tsv:
        _print_tsv(
            ["t", "q"],
            ([f"{k}/{grid}", q] for k, q in enumerate(q_values)),
        )
    return {
        "lambda_size": len(lam),
        "grid": grid,
        "q_min": min(q_values),
        "q_max": max(q_values),
    }


def _cmd_frame_bounds(args) -> dict:
    from .measures import AtomicMeasure, frame_bounds

    mu = load_measure(args.measure)
    if not isinstance(mu, AtomicMeasure):
        raise InvalidInputError("frame-bounds needs an atomic measure")
    lam = load_set(getattr(args, "lambda"))
    report = frame_bounds(mu, lam.elements)
    return {"lower": report.lower, "upper": report.upper}


def _print_tsv(header, rows) -> None:
    sys.stderr.write("\t".join(header) + "\n")
    for row in rows:
        sys.stderr.write("\t".join(str(x) for x in row) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrapairs",
        description="Decide, construct, and certify spectra of measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide-line-set", help="closed-form criterion for {0,..,n-2,a}")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--a", help='exact fraction "p/q"')
    group.add_argument("--irrational", help="label for an irrational a")
    p.set_defaults(handler=_cmd_decide_line_set)

    p = sub.add_parser("check-pair", help="exact spectral-pair certification")
    p.add_argument("--set-a", required=True)
    p.add_argument("--set-b", required=True)
    p.set_defaults(handler=_cmd_check_pair)

    p = sub.add_parser("find-spectrum", help="bounded brute-force spectrum search")
    p.add_argument("--set", required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--span", required=True)
    p.set_defaults(handler=_cmd_find_spectrum)

    p = sub.add_parser("arrow-close", help="saturate subspace-mapping deductions")
    p.add_argument("--set", required=True)
    p.add_argument("--moves", required=True, help="comma-separated fractions")
    p.add_argument("--budget", type=int, default=6)
    p.set_defaults(handler=_cmd_arrow_close)

    p = sub.add_parser("rep-roundtrip", help="measure -> representation -> measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--spectrum", required=True)
    p.set_defaults(handler=_cmd_rep_roundtrip)

    p = sub.add_parser("perm-rep", help="cyclic-shift representation identities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(handler=_cmd_perm_rep)

    p = sub.add_parser("cantor", help="scale-4 Cantor measure diagnostics")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--check", choices=["orthogonality", "completeness"], required=True)
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--grid", type=int, default=37)
    p.add_argument("--tsv", action="store_true", help="also emit TSV rows on stderr")
    p.set_defaults(handler=_cmd_cantor)

    p = sub.add_parser("frame-bounds", help="frame operator extreme eigenvalues")
    p.add_argument("--measure", required=True)
    p.add_argument("--lambda", required=True)
    p.set_defaults(handler=_cmd_frame_bounds)

    return parser


def run(argv) -> tuple[int, dict]:
    """Dispatch argv; returns (exit_code, result_json)."""
    args = _build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
    except TooLargeError as exc:
        return 1, {
            "status": "too_large",
            "reason": "too_large",
            "message": str(exc),
        }
    except InvalidInputError as exc:
        return 1, {
            "status": "invalid_input",
            "reason": "invalid_input",
            "message": str(exc),
        }
    except InconsistencyError as exc:
        return 1, {
            "status": "inconsistent",
            "reason": "inconsistent",
            "message": str(exc),
            "trace": exc.trace,
        }
    except FileNotFoundError as exc:
        return 1, {
            "status": "invalid_input",
            "reason": "file_not_found",
            "message": str(exc),
        }
    status = payload.pop("status", "ok")
    return 0, {"status": status, **payload}


def main(argv=None) -> int:
    code, result = run(sys.argv[1:] if argv is None else argv)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

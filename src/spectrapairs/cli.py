"""Command-line surface.

Every subcommand prints a single JSON object on stdout.  Successful runs
exit 0 (including an empty search result, which is a value, not an error);
domain failures exit 1 with a machine-readable reason; usage errors exit 2
(argparse's convention).  All rationals cross the wire as "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import errors
from .errors import InconsistencyError, InvalidInputError, check_work
from .serialize import load
from .sets import Irrational, parse_fraction

__all__ = ["run", "main"]

# The least ``cantor --eps``: a smaller error is below what the
# double-precision product can hold, and the transform depth grows with
# log(1 / eps) uncounted.
CANTOR_MIN_EPS = 1e-15


def _cmd_decide_line_set(args) -> dict:
    from .spectral import decide_line_set

    a = Irrational(args.irrational) if args.irrational is not None else parse_fraction(args.a)
    return decide_line_set(args.n, a).to_json()


def _cmd_check_pair(args) -> dict:
    from .spectral import certify_spectral_pair

    cert = certify_spectral_pair(*load("check-pair", args.set_a, args.set_b))
    return {"spectral_pair": cert.is_pair, "exact": cert.exact}


def _cmd_find_spectrum(args) -> dict:
    from .spectral import search_spectrum

    (A,) = load("find-spectrum", args.set)
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
    from .arrows import close, new_session

    (A,) = load("arrow-close", args.set)
    moves = [parse_fraction(m) for m in args.moves.split(",") if m.strip()]
    session = close(new_session(A, moves, round_budget=args.budget))
    return session.to_json()


def _cmd_rep_roundtrip(args) -> dict:
    mu, S = load("rep-roundtrip", args.spectrum, measure=args.measure)
    from .representation import (
        is_wandering,
        measure_from_representation,
        multiplication_representation,
    )

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
    )

    s = generator_shift(args.n, args.p, args.q)
    rep = permutation_representation(args.n, args.p, args.q)
    # U(j/q) shifts by j s mod n (``shift_for_time``).
    return {
        "generator_shift": s,
        "shift_at_1": args.q * s % args.n,
        "shift_at_a": args.p * s % args.n,
        "eigenvalues": [str(g) for g in rep.eigenvalues],
        "spectrum_points": sorted(str(p) for p in measure_from_representation(rep).points),
    }


def _cmd_cantor(args) -> dict:
    if args.grid < 1:
        raise InvalidInputError("grid must be positive")
    if not args.eps >= CANTOR_MIN_EPS:  # NaN too
        raise InvalidInputError(f"eps must be at least {CANTOR_MIN_EPS}")
    if args.level < 0:
        raise InvalidInputError("level must be between 0 and 20")
    # Gram entries, or transforms of the completeness sweep, over the
    # points of jp_spectrum(level), plus 64 for each Q(t): its fixed cost,
    # measured at about 37 transforms.  From level 21 on every count is
    # over the budget, so the level is capped at 21: the count stays a
    # lower bound, and a huge --level costs nothing to count.  Every
    # refusal comes before numpy is loaded.
    size = 2 ** (min(args.level, 21) + 1)
    work = size * size if args.check == "orthogonality" else args.grid * (size + 64)
    check_work(f"cantor --check {args.check}", work, errors.WORK_BUDGET)
    import numpy as np

    from .measures import cantor4_measure, completeness_defect, gram_matrix, jp_spectrum

    mu = cantor4_measure()
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
    mu, lam = load("frame-bounds", getattr(args, "lambda"), measure=args.measure)
    from .measures import frame_bounds

    report = frame_bounds(mu, lam)
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

    p = sub.add_parser("find-spectrum", help="bounded pruned spectrum search")
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
    except (InvalidInputError, InconsistencyError) as exc:
        failure = {"status": exc.reason, "reason": exc.reason, "message": str(exc)}
        if isinstance(exc, InconsistencyError):
            failure["trace"] = exc.trace
        return 1, failure
    except FileNotFoundError as exc:
        return 1, {
            "status": "invalid_input",
            "reason": "file_not_found",
            "message": str(exc),
        }
    status = payload.pop("status", "ok")
    return 0, {"status": status, **payload}


def main(argv=None) -> int:
    """The entry point of the console script and of ``python -m
    spectrapairs.cli``: run argv, print its result as one JSON line and
    return the exit code.

    Before any handler imports numpy, BLAS is held to one thread, unless
    the caller's environment names a count: each run's matrices are
    bounded by ``errors.WORK_BUDGET``, too small to repay the pool of
    worker threads that loading numpy otherwise starts, one per core.
    ``OMP_NUM_THREADS`` is OpenBLAS's fallback, after its own
    ``OPENBLAS_NUM_THREADS``, and MKL's variable, so either one set by the
    caller still wins.  Only here, in the process's own entry point: an
    import of this module and ``run`` leave the environment as it is, and
    a process that has already loaded numpy keeps its pool."""
    if "numpy" not in sys.modules:
        os.environ.setdefault("OMP_NUM_THREADS", "1")
    code, result = run(sys.argv[1:] if argv is None else argv)
    try:
        print(json.dumps(result), flush=True)
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so that the
        # flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

"""spectrapairs benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the package is imported from ``src``.

The load is a closed loop with one client: the next operation starts when
the previous one has returned.  The timed work runs in a sequence of
``WORKERS`` fresh worker processes, each for ``--seconds / WORKERS`` (more
if fewer than ``MIN_OPS`` operations were timed), so that no single
process's memory layout and hash seed sets a run's figures.  A worker
repeats the workload's pass (its fixed list of operations) until its share
has elapsed, always finishing the pass.  Each pass starts with an empty
``cyclotomic_polynomial`` cache, as a new batch or a new process would.

``--trace 0`` prints the end-to-end metrics: set-up time (median over the
workers and the set-up-only processes started before each of them, of
interpreter start, import and input generation), operations per second,
latency median and 90th percentile, CPU per operation and peak resident
memory.  Each operation's times are scaled to a reference CPU speed by
the calibration loops run around it (``timing.calibrate``, every
``CALIB_EVERY_S``); set-up time and memory are as measured.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
``tracer.py`` plus the tracing overhead.  Every output is checked by its
oracle after the timed section; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A workload with a known
defect of the program also runs its defect probe once, untimed
(``workloads.defect_probe``): ``correct`` then also requires that no probe
operation fails beyond the set recorded in ``known_defects.json``.  A full
record of the run, stamped with the machine and versions, is written
under ``perfbench/results/``.

Seeds: ``DEFAULT_SEED`` is the one to develop against; ``HOLDOUT_SEED`` is
kept back to confirm a claimed gain on inputs not used while writing it.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, SRC)

import timing  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HOLDOUT_SEED = 7919
WORKERS = 5
# Processes started before each worker that only set up and exit, so that
# set-up time is the median of 3 * WORKERS start-ups.
SETUP_ONLY = 2
LATENCY_PCT = 90
MIN_OPS = timing.min_samples_for(LATENCY_PCT)
# Seconds between two calibrations, taken between operations.
CALIB_EVERY_S = 0.2
# An operation longer than this counts as timed out and is not retried.
OP_TIMEOUT_S = 20.0
WORKER_TIMEOUT_S = 150.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--skip", default="", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _missing_sources() -> list:
    needed = [os.path.join(SRC, "spectrapairs", "__init__.py")]
    needed.append(os.path.join(ROOT, "tests", "golden"))
    return [p for p in needed if not os.path.exists(p)]


def _rusage(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Attempt(NamedTuple):
    op: int  # index into the pass
    status: str
    wall: float  # seconds
    cpu: float  # user + system seconds
    traced: bool
    factor: float = 1.0  # timing.speed_factor() at the op's start
    worker: int = 0


class Run(NamedTuple):
    attempts: list
    outputs: dict  # op index -> summarized output of its first execution
    digests: dict  # op index -> digest of that output
    errors: dict  # op index -> message
    passes: int
    calibrations: list  # (time, timing.calibrate()) pairs


def run_passes(
    ops, seconds, trace=None, cpu_of=resource.RUSAGE_SELF, min_ops=0,
    timeout=OP_TIMEOUT_S, skip=(),
):
    """Closed-loop timing of ``ops``, pass after pass.

    With a ``trace`` (a Tracer) odd passes are traced.  ``cpu_of`` selects
    whose CPU time counts (``RUSAGE_CHILDREN`` when the op spawns the
    program).  Ops in ``skip`` are not run.  Passes continue until at
    least ``min_ops`` untraced attempts were made.  A calibration runs
    before every op that starts ``CALIB_EVERY_S`` or more after the last
    one, and after every pass; each attempt gets the speed factor of the
    calibrations around it.
    """
    from spectrapairs import exact

    phi = exact.cyclotomic_polynomial
    clear = getattr(phi, "cache_clear", None)
    attempts, outputs, digests, errors = [], {}, {}, {}
    dropped = set(skip)
    start = time.monotonic()
    passes = 0
    untraced = 0
    calibrations = [(time.monotonic(), timing.calibrate())]
    starts = []
    last_pass = 0.0
    # Another pass runs while it would end nearer to ``seconds`` than not.
    while (
        passes < (2 if trace else 1)
        or time.monotonic() - start + last_pass / 2 < seconds
        or (not trace and untraced < min_ops)
    ):
        pass_start = time.monotonic()
        traced = trace is not None and passes % 2 == 1
        if clear:
            clear()
        if traced:
            trace.install()
            misses = tracing.phi_misses(phi)
            trace.active = True
        for i, op in enumerate(ops):
            if i in dropped:
                continue
            call = (lambda op=op: op.traced_call(trace)) if traced and op.traced_call else op.call
            if time.monotonic() - calibrations[-1][0] >= CALIB_EVERY_S:
                calibrations.append((time.monotonic(), timing.calibrate()))
            starts.append(time.monotonic())
            cpu0 = _rusage(cpu_of)
            t0 = time.perf_counter()
            try:
                out = timing.call_with_timeout(call, timeout)
                status = timing.OK
            except timing.OpTimeout as exc:
                status, errors[i] = timing.TIMEOUT, str(exc)
                dropped.add(i)
            except Exception as exc:  # a crash of the program under test
                status, errors[i] = timing.ERROR, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            cpu = _rusage(cpu_of) - cpu0
            if status == timing.OK:
                value = op.summarize(out)
                digest = _digest(value)
                if i not in outputs:
                    outputs[i], digests[i] = value, digest
                elif digest != digests[i]:
                    status, errors[i] = timing.WRONG, "output differs between executions"
            attempts.append(Attempt(i, status, wall, cpu, traced))
            untraced += not traced
        if traced:
            trace.active = False
            trace.counters["exact.phi.builds"] += tracing.phi_misses(phi) - misses
            trace.uninstall()
        calibrations.append((time.monotonic(), timing.calibrate()))
        passes += 1
        last_pass = time.monotonic() - pass_start
    attempts = [
        a._replace(factor=timing.speed_factor(calibrations, at)) for a, at in zip(attempts, starts)
    ]
    return Run(attempts, outputs, digests, errors, passes, calibrations)


def run_probe(probe) -> dict:
    """Each op of a defect probe once, untimed, checked by its oracle;
    returns the failing ops as index -> message."""
    failing = {}
    for i, op in enumerate(probe):
        try:
            out = timing.call_with_timeout(op.call, OP_TIMEOUT_S)
            if not op.check(op.summarize(out)):
                failing[i] = "mismatch with the oracle"
        except Exception as exc:  # a crash, a timeout or an unreadable output
            failing[i] = f"{type(exc).__name__}: {exc}"
    return failing


def check_outputs(ops, outputs, errors) -> set:
    """Run each op's oracle on its first output; returns the wrong ops."""
    wrong = set()
    for i, value in outputs.items():
        try:
            ok = bool(ops[i].check(value))
        except Exception as exc:  # an output the oracle cannot read is wrong
            ok, errors[i] = False, f"oracle: {type(exc).__name__}: {exc}"
        if not ok:
            wrong.add(i)
            errors.setdefault(i, "mismatch with the oracle")
    return wrong


def tally(ops, attempts, wrong) -> timing.Outcomes:
    """Outcomes of all attempts; ``wrong`` holds the (worker, op) pairs
    whose output failed its oracle."""
    outcomes = timing.Outcomes()
    for a in attempts:
        bad = a.status == timing.OK and (a.worker, a.op) in wrong
        outcomes.add(timing.WRONG if bad else a.status, ops[a.op].kind)
    return outcomes


def probe_verdict(probe, known, failing) -> tuple:
    """The failing probe ops that were not recorded as failing, and the
    recorded ones that no longer fail.  A failure is expected only on the
    recorded op with the recorded inputs; a recorded failure that went away
    is reported, not counted against the run."""
    unexpected = sorted(i for i in failing if known.get(i) != probe[i].inputs)
    fixed = sorted(i for i in known if i not in failing)
    return unexpected, fixed


def _digest(value) -> str:
    """Digest of a summarized output, to compare executions and processes."""
    import numpy as np

    if isinstance(value, np.ndarray):
        blob = repr((value.shape, value.dtype.str)).encode() + value.tobytes()
    else:
        blob = repr(value).encode()
    return hashlib.sha256(blob).hexdigest()


def end_to_end(attempts, peak_mb, scaled=False) -> tuple:
    """Metrics of the untraced attempts, and their sample counts; with
    ``scaled`` each attempt's times are multiplied by its speed factor.
    Failed attempts count in the latencies but not as operations
    completed."""
    plain = [a for a in attempts if not a.traced]
    walls = [a.wall * (a.factor if scaled else 1.0) for a in plain]
    cpus = [a.cpu * (a.factor if scaled else 1.0) for a in plain]
    ok = sum(1 for a in plain if a.status == timing.OK)
    metrics = {
        "ops_per_s": ok / sum(walls),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_p90_ms": timing.nearest_rank(walls, LATENCY_PCT) * 1e3,
        "cpu_ms_per_op": sum(cpus) / len(cpus) * 1e3,
        "peak_rss_mb": peak_mb,
    }
    samples = {
        "latency_samples": len(walls),
        "latency_p90_beyond": timing.beyond(len(walls), LATENCY_PCT),
    }
    return metrics, samples


def latency_by_kind(ops, attempts) -> dict:
    """Median latency (ms, as measured) and sample count per kind of op."""
    walls = {}
    for a in attempts:
        if not a.traced:
            walls.setdefault(ops[a.op].kind, []).append(a.wall)
    return {
        kind: {"median_ms": statistics.median(w) * 1e3, "samples": len(w)}
        for kind, w in sorted(walls.items())
    }


def traced_metrics(trace, attempts, traced_passes) -> dict:
    """Per-layer metrics of the traced passes and the tracing overhead
    against the untraced passes of the same run, all as measured."""
    traced = [a.wall for a in attempts if a.traced]
    plain = [a.wall for a in attempts if not a.traced]
    m = tracing.layer_metrics(trace, traced_passes, sum(traced))
    traced_rate = len(traced) / sum(traced)
    plain_rate = len(plain) / sum(plain)
    m["trace.ops_per_s"] = traced_rate
    m["trace.untraced_ops_per_s"] = plain_rate
    m["trace.overhead_frac"] = plain_rate / traced_rate - 1
    return m


def _units(trace: bool) -> dict:
    """Units of the metrics a run reports, from BENCHMARK.json at the root
    of the checkout: the per-layer ones when tracing, else end-to-end."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _stamp(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def _stem(args) -> str:
    return os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")


def worker(args, ops, who) -> dict:
    """One worker process: timed passes, then its outputs' digests and,
    with ``--check``, the oracles and the defect probe."""
    ready = time.monotonic()
    trace = tracing.Tracer() if args.trace else None
    skip = {int(i) for i in args.skip.split(",") if i}
    run = run_passes(ops, args.seconds, trace, who, skip=skip)
    peak_kb = resource.getrusage(who).ru_maxrss  # before the oracles' imports
    errors = dict(run.errors)
    wrong = sorted(check_outputs(ops, run.outputs, errors)) if args.check else []
    probe = run_probe(workloads.defect_probe(args.workload)) if args.check else {}
    report = {
        "ready": ready,
        "attempts": [list(a[:6]) for a in run.attempts],
        "passes": run.passes,
        "calibrations": [c[1] for c in run.calibrations],
        "probe": probe,
        "digests": run.digests,
        "wrong": wrong,
        "errors": errors,
        "peak_rss_kb": peak_kb,
    }
    if trace is not None:
        report["trace"] = trace.summary()
        os.makedirs(RESULTS, exist_ok=True)
        with gzip.open(f"{_stem(args)}.w{args.worker}.spans.jsonl.gz", "wt") as fh:
            for span in trace.spans:
                fh.write(json.dumps(span) + "\n")
    return report


def _spawn(cmd) -> tuple:
    """Run a worker process; its report and its set-up time, from its
    spawn to the ``ready`` it reports."""
    spawn = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed: {' '.join(cmd[2:])}\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - spawn


def run_workers(args) -> tuple:
    """Fresh worker processes, one after another, until ``WORKERS`` ran
    and (untraced) at least ``MIN_OPS`` operations were timed, each after
    ``SETUP_ONLY`` processes that only set up.  Returns the workers'
    reports and the set-up times of all the processes."""
    share = args.seconds / WORKERS
    reports, setups, skip, timed = [], [], set(), 0
    while len(reports) < WORKERS or (not args.trace and timed < MIN_OPS):
        k = len(reports)
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(share), "--trace", str(args.trace),
            "--worker", str(k), "--skip", ",".join(map(str, sorted(skip))),
        ]
        for _ in range(SETUP_ONLY):
            setups.append(_spawn(cmd + ["--setup-only"])[1])
        report, setup = _spawn(cmd + (["--check"] if k == 0 else []))
        setups.append(setup)
        reports.append(report)
        timed += sum(1 for a in report["attempts"] if not a[4])
        skip |= {a[0] for a in report["attempts"] if a[1] == timing.TIMEOUT}
    return reports, setups


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    missing = _missing_sources()
    if missing:
        print(f"run from the root of a spectrapairs checkout; missing: {missing}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", RuntimeWarning)  # the capped float path warns
    import spectrapairs  # noqa: F401

    ops = workloads.build(args.workload, args.seed)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    if args.worker is not None:
        print(json.dumps(worker(args, ops, who)))
        return 0

    reports, setups = run_workers(args)
    attempts, calibrations, errors, wrong = [], [], {}, set()
    first = reports[0]
    for k, report in enumerate(reports):
        attempts += [Attempt(*a, worker=k) for a in report["attempts"]]
        calibrations += report["calibrations"]
        errors.update({int(i): m for i, m in report["errors"].items()})
        for i, digest in report["digests"].items():
            if int(i) in first["wrong"] or first["digests"].get(i, digest) != digest:
                wrong.add((k, int(i)))
                errors.setdefault(int(i), "output differs between processes")
    for i in first["wrong"]:
        errors.setdefault(i, "mismatch with the oracle")
    outcomes = tally(ops, attempts, wrong)
    probe = workloads.defect_probe(args.workload)
    known = workloads.known_defects(args.workload)
    failing = {int(i): msg for i, msg in first["probe"].items()}
    unexpected, fixed = probe_verdict(probe, known, failing)
    if fixed:
        print(f"known defect no longer shows on probe ops {fixed}", file=sys.stderr)
    peak_mb = max(r["peak_rss_kb"] for r in reports) / 1024
    passes = sum(r["passes"] for r in reports)

    if args.trace:
        trace = tracing.Tracer()
        for report in reports:
            trace.merge(report["trace"])
        values = traced_metrics(trace, attempts, sum(r["passes"] // 2 for r in reports))
        samples, raw = {}, {}
    else:
        values, samples = end_to_end(attempts, peak_mb, scaled=True)
        raw, _ = end_to_end(attempts, peak_mb)
        values = {"setup_s": statistics.median(setups), **values}
        raw = {"setup_s": statistics.median(setups), **raw}
        samples["setup_samples"] = len(setups)
    units = _units(bool(args.trace))
    if set(values) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    os.makedirs(RESULTS, exist_ok=True)
    record = {
        "stamp": _stamp(args),
        "workers": len(reports),
        "passes": passes,
        "ops_per_pass": len(ops),
        "samples": samples,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failed_frac": outcomes.failed_frac,
        "failures_by_status": {k: v for k, v in outcomes.by_status.items() if k != timing.OK},
        "failures_by_kind": dict(outcomes.failed_kinds),
        "errors": {
            f"{ops[i].kind}#{i}": {"error": msg, "inputs": ops[i].inputs}
            for i, msg in sorted(errors.items())
        },
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "known_defect": {
            "attempted": len(probe),
            "failed": len(failing),
            "failed_frac": len(failing) / len(probe) if probe else 0.0,
            "unexpected": {
                f"{probe[i].kind}#{i}": {"error": failing[i], "inputs": probe[i].inputs}
                for i in unexpected
            },
            "no_longer_failing": [f"{probe[i].kind}#{i}" for i in fixed],
        },
        "metrics_unscaled": raw,
        "speed_factor_median": statistics.median(a.factor for a in attempts),
        "calibration_s": {
            "median": statistics.median(calibrations),
            "min": min(calibrations),
            "max": max(calibrations),
            "count": len(calibrations),
        },
        "setup_s_all": setups,
        "latency_by_kind": latency_by_kind(ops, attempts),
    }
    with open(_stem(args) + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": outcomes.failed == 0 and not unexpected,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

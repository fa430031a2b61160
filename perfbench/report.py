"""Run every workload once and print all end-to-end metrics with units.

    python3 perfbench/report.py [--seed 1] [--seconds S]

Each workload runs in its own ``run.py`` process, oracles included, for
``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` says otherwise.
The table adds each workload's failed fraction, its defect probe's failed
fraction and the latency sample count from the run's result file under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    with open(SPEC) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=float, default=float(run_seconds))
    args = parser.parse_args(argv)
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{name}: run failed\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(HERE, "results", f"{name}-seed{args.seed}-trace0.json")) as fh:
            record = json.load(fh)
        print(f"{name}  (seed {args.seed}, {record['passes']} passes, "
              f"correct={result['correct']})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<16} {m['value']:>12.4f} {m['unit']}")
        print(f"  {'failed_frac':<16} {record['failed_frac']:>12.4f} "
              f"({result['failed']} of {result['attempted']})")
        probe = record["known_defect"]
        if probe["attempted"]:
            print(f"  {'probe failed':<16} {probe['failed_frac']:>12.4f} "
                  f"({probe['failed']} of {probe['attempted']}, untimed; "
                  f"{len(probe['unexpected'])} not recorded in known_defects.json)")
        print(f"  {'latency samples':<16} {record['samples']['latency_samples']:>12d} "
              f"({record['samples']['latency_p90_beyond']} beyond p90)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the expected outputs that two of the oracles compare against.

    python3 perfbench/record_expected.py

Closes every base shape of ``workloads.CLOSURE_SHAPES`` once and writes
the digest of ``Session.to_json()`` (or "inconsistent") to
``closure_digests.json``.  Run it only at a commit whose arrow engine is
trusted: the closure workload then requires every seeded copy of a shape
to reach the same closure.  The closed form is checked on the way: a
spectral rational shape must close, a non-spectral "bad" one must raise.

Then runs each workload's defect probe (``workloads.defect_probe``) and
writes the ops that fail their oracle, with their inputs, to
``known_defects.json``.  A run fails when a probe op fails that is not
listed there, so re-record after a change that fixes some of them.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def closure_digests() -> dict:
    from spectrapairs import spectral

    digests = {}
    for label, elements, budget in workloads.CLOSURE_SHAPES:
        call, summarize = workloads.closure_call(elements, budget, Fraction(1), Fraction(0))
        outcome = summarize(call())
        if "a" not in elements:
            n = len(elements)
            spectral_set = spectral.decide_line_set(n, Fraction(elements[-1])).verdict == "spectral"
            if spectral_set and outcome == workloads.INCONSISTENT:
                raise SystemExit(f"{label}: a spectral set closed inconsistent")
            if label.startswith("bad") and (spectral_set or outcome != workloads.INCONSISTENT):
                raise SystemExit(f"{label}: expected a non-spectral, inconsistent shape")
        digests[workloads.shape_key(label, budget)] = outcome
    return digests


def known_defects() -> dict:
    out = {}
    for name in workloads.NAMES:
        probe = workloads.defect_probe(name)
        failing = run.run_probe(probe)
        if failing:
            out[name] = {str(i): probe[i].inputs for i in sorted(failing)}
    return out


def main() -> int:
    for path, value in ((workloads.DIGESTS, closure_digests()), (workloads.KNOWN_DEFECTS, known_defects())):
        with open(path, "w") as fh:
            json.dump(value, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

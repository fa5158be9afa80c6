"""One pass of one workload, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED PASS_INDEX TRACE SCRATCH_DIR

``run.py`` starts one of these per pass, so ``verify``'s caches and each
complex's face cache start empty and ``ru_maxrss`` is a per-pass peak.
The worker prints ``READY`` once ``cyclefree`` is imported and the
inputs are generated, then runs every operation of the workload, checks
each result exactly, and prints the pass as one JSON line.  A fixed
calibration job runs right before and right after the pass, so that
``run.py`` can scale the times to a reference machine speed.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def calibrate(n: int = 30000) -> float:
    """Seconds for a fixed pure-Python job: tuples, sorting and dict
    updates, the operations the library spends its time on.  It shares no
    code with the library, so a change under src/ cannot move it; what
    moves it is the speed the machine gives this process right now.
    """
    start = time.perf_counter()
    rng = random.Random(0)
    index: dict = {}
    occ: dict = {}
    for j in range(n):
        face = tuple(sorted(rng.sample(range(24), 4)))
        index.setdefault(face, j)
        for v in face:
            occ[v] = occ.get(v, 0) ^ j
    sorted(index)
    return time.perf_counter() - start


def run_ops(ops) -> list:
    """Run each operation, recording its time and any mismatch or exception."""
    results = []
    for op in ops:
        start = time.perf_counter()
        try:
            got = op.run()
            error = None if got == op.expected else f"got {got!r}, expected {op.expected!r}"
        except Exception:  # a failed operation is counted, the pass goes on
            error = traceback.format_exc(limit=-3)
        results.append({"op": op.name, "s": time.perf_counter() - start, "error": error})
    return results


def main(argv: list) -> int:
    name, seed, index, trace, scratch = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1", argv[4]
    ops = workloads.WORKLOADS[name](workloads.relabelling_rng(seed, index), scratch)
    print("READY", flush=True)
    calib_before = calibrate()
    tracer = Tracer()
    if trace:
        tracer.install()
    start = time.perf_counter()
    results = run_ops(ops)
    pass_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.uninstall()
    calib_s = (calib_before + calibrate()) / 2
    record = {
        "pass_s": pass_s,
        "calib_s": calib_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": results,
        "traced": trace,
        "layers": tracer.metrics(pass_s) if trace else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

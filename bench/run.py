"""Benchmark of the exact-homology pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

A closed loop with one client: passes run one after another, each in a
fresh worker process (``worker.py``) that issues one library call at a
time, until the next pass would end after ``--seconds``.  Every result
is checked exactly against a pinned value.  ``--seed`` relabels the
inputs, each pass of the run in its own way (see ``workloads.py``);
seed 0 is the identity labelling.

With ``--trace 0`` the last line reports, as medians over the passes:
``pass_ref_s`` (wall seconds of one pass), ``peak_rss_mb`` (peak
resident memory of the worker) and ``setup_s`` (worker start to inputs
generated: interpreter, import, relabelling).  Both times are scaled by
a fixed calibration job that the worker times right beside the pass, to
the machine speed the bounds were set at: on a shared host the speed
drifts by 15-30% over minutes, and the scaling takes that drift out.
The plain wall times are printed above the last line.  ``failed_frac``
is ``failed / attempted`` in the last line.  With ``--trace 1`` untraced
and traced passes alternate, and the last line reports the per-layer
metrics of ``spans.py`` (medians over the traced passes) and
``trace.overhead_frac``.  A full record, with the environment, every
pass and every operation, goes to ``bench/results/``.

Exit status: 0 when every operation matched, 1 when one failed, 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

from spans import MOVES

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORK_DIR = os.path.join(BENCH, "work")
RESULTS_DIR = os.path.join(BENCH, "results")
WORKLOAD_NAMES = ("omega-z", "fields-lowdeg", "dense-smith", "enumerate")
# Every run must end within 180 s; no pass may start past this point.
RUN_LIMIT_S = 150.0
# Time of worker.calibrate() on the 2-core 2.0 GHz Xeon sandbox the
# bounds were set on; reported times are scaled to that speed.
CALIB_REF_S = 0.2


class BenchError(Exception):
    pass


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload: str, seed: int, index: int, traced: bool, time_left: float) -> dict:
    """One worker process: its setup time, and the pass it reports."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), str(index), "1" if traced else "0", WORK_DIR],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(time_left, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: pass did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload}: worker failed with exit code {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = setup_s
    record["wall_s"] = time.perf_counter() - start
    return record


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Passes until the next one would end after ``seconds``.

    With tracing, untraced and traced passes alternate, at least one each,
    and each pair shares its relabelling.
    """
    start = time.perf_counter()
    passes: list = []
    while True:
        traced = trace and len(passes) % 2 == 1
        index = len(passes) // 2 if trace else len(passes)
        elapsed = time.perf_counter() - start
        passes.append(run_pass(workload, seed, index, traced, RUN_LIMIT_S - elapsed))
        elapsed = time.perf_counter() - start
        typical = median(p["wall_s"] for p in passes)
        enough = not trace or len(passes) >= 2
        if enough and elapsed + typical > min(seconds, RUN_LIMIT_S):
            return passes


def at_ref_speed(passes: list, key: str) -> float:
    """Median of a per-pass time, scaled by the calibration job of its worker."""
    return median(p[key] / p["calib_s"] for p in passes) * CALIB_REF_S


def summarize(passes: list, trace: bool) -> dict:
    if not trace:
        return {
            "pass_ref_s": {"value": at_ref_speed(passes, "pass_s"), "unit": "s"},
            "peak_rss_mb": {"value": median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
            "setup_s": {"value": at_ref_speed(passes, "setup_s"), "unit": "s"},
        }
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        unit = "s" if name.endswith("_s") else "fraction" if name.endswith(("share", "ratio")) else "count"
        metrics[name] = {"value": median(p["layers"][name] for p in traced), "unit": unit}
    overhead = at_ref_speed(traced, "pass_s") / at_ref_speed(plain, "pass_s") - 1
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    return metrics


def report(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    """Run one workload, print its summary and result line; True if all matched."""
    passes = run_passes(workload, seed, seconds, trace)
    metrics = summarize(passes, trace)
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [(i, op) for i, p in enumerate(passes) for op in p["ops"] if op["error"]]
    env = {
        "git_sha": git_sha(),
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
    }
    print(f"# {workload} seed={seed} trace={int(trace)}: {len(passes)} passes")
    for name, m in metrics.items():
        layer = name.rsplit(".", 1)[0]
        moves = f"  (moves {MOVES[layer]})" if name.endswith(".share") else ""
        print(f"#   {name:36s} {m['value']:.6g} {m['unit']}{moves}")
    wall, setup, calib = (median(p[k] for p in passes) for k in ("pass_s", "setup_s", "calib_s"))
    print(f"#   wall pass_s {wall:.6g} s, setup_s {setup:.6g} s, calibration job {calib:.4g} s")
    print(f"#   {'failed_frac':36s} {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    for i, op in failures:
        print(f"# FAILED pass {i} {op['op']}: {op['error']}")
    print("# env " + json.dumps(env))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "metrics": metrics, "passes": passes}, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "cyclefree", "__init__.py")):
        print("bench: no cyclefree sources under src/ of this checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        ok = [report(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())

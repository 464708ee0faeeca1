"""One workload in one process: set up, run tasks, report as JSON.

Started by ``run.py`` with BLAS threads pinned; not meant to be run by hand.
It prints ``ready <epoch seconds>`` once the first task is ready to start,
then, unless ``--mode setup``, a line ``result <json>`` after its last task.

Modes:
  setup  set up and exit; ``run.py`` times several of these for ``setup_s``.
  time   run untraced tasks for ``--seconds``.
  trace  run untraced tasks for half of ``--seconds``, then traced tasks for
         the rest, and report the per-layer metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_TASKS = 2  # a timed run has a median of at least two tasks
MIN_TRACED = 2  # the exact-count check compares traced tasks with each other


def _run_task(workload, tracer=None):
    """Run one task and its gate; return (seconds, ok, err_digits, detail)."""
    t0 = time.perf_counter()
    if tracer is None:
        out = workload.run()
    else:
        with tracer.span(f"task.{workload.name}"):
            out = workload.run()
    elapsed = time.perf_counter() - t0
    outcome = workload.check(out)
    digits = -math.log10(outcome.err) if outcome.err > 0 else math.inf
    return elapsed, outcome.ok, digits, outcome.detail


def _loop(workload, seconds, min_tasks, tracer=None):
    """Run tasks until the next one would end past ``seconds``.

    Starts a task only when the previous task's duration still fits, so a run
    ends close to ``seconds``, but always runs at least ``min_tasks``.  An
    exception fails its task and the loop goes on, so that failures are
    counted against attempts.
    """
    tasks = []
    start = time.perf_counter()
    last = 0.0
    while len(tasks) < min_tasks or time.perf_counter() - start + last <= seconds:
        first = tracer.start_task() if tracer is not None else 0
        t0 = time.perf_counter()
        try:
            last, ok, digits, detail = _run_task(workload, tracer)
        except Exception:  # a failed task is counted, not fatal
            traceback.print_exc()
            tasks.append({"s": None, "ok": False, "err_digits": None})
            last = time.perf_counter() - t0
            continue
        record = {"s": last, "ok": ok, "err_digits": digits}
        if tracer is not None:
            record["metrics"] = tracer.summarize(first)
        print(f"{workload.name}: {last:.3f} s, "
              f"{'pass' if ok else 'FAIL'}: {detail}", file=sys.stderr, flush=True)
        tasks.append(record)
    return tasks


def _trace_report(untraced, traced):
    """Per-layer metrics, exact values and failed checks of a traced run.

    Times are medians over the traced tasks.  Counts and ``err_digits`` must
    repeat exactly from task to task; a change is a failed check.
    """
    from tracing import EXACT, self_times_account

    checks = []
    good = [t for t in traced if t["ok"]]
    if not good:
        return {}, {}, ["no traced task passed"]
    first = good[0]
    for task in good:
        if not self_times_account(task["metrics"]):
            checks.append("per-layer self times do not add up to the traced task time")
        for key in EXACT:
            if task["metrics"][key] != first["metrics"][key]:
                checks.append(f"{key} changed between traced tasks: "
                              f"{first['metrics'][key]} then {task['metrics'][key]}")
    metrics = {
        key: statistics.median(t["metrics"][key] for t in good)
        for key in first["metrics"]
    }
    exact = {key: first["metrics"][key] for key in EXACT}
    exact["err_digits"] = first["err_digits"]
    metrics.update(exact)
    timed = [t["s"] for t in untraced if t["ok"]]
    if timed:
        metrics["trace.overhead_frac"] = (
            statistics.median(t["s"] for t in good) / statistics.median(timed) - 1.0
        )
    else:
        checks.append("no untraced task passed")
    return metrics, exact, checks


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '')} {blas.get('version', '')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import umot
    import workloads

    if Path(umot.__file__).resolve().parent != ROOT / "src" / "umot":
        print(f"imported umot from {umot.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.work_dir))
    print(f"ready {time.time()!r}", flush=True)
    if args.mode == "setup":
        return 0

    result = {"checks": []}
    if args.mode == "time":
        result["tasks"] = _loop(workload, args.seconds, MIN_TASKS)
    else:
        from tracing import Tracer

        untraced = _loop(workload, args.seconds / 2, 1)
        tracer = Tracer()
        with tracer.installed():
            traced = _loop(workload, args.seconds / 2, MIN_TRACED, tracer)
        tracer.dump(args.spans)
        result["tasks"] = untraced + traced
        result["metrics"], result["exact"], result["checks"] = _trace_report(
            untraced, traced
        )
    if len({t["err_digits"] for t in result["tasks"] if t["ok"]}) > 1:
        result["checks"].append("err_digits changed between tasks of the same seed")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = _environment()
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

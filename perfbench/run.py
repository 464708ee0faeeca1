"""Benchmark of umot's reconstruction routes; see perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload linearized-64 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (task time,
set-up time, accuracy, peak memory); ``--trace 1`` reports its per-layer
metrics from a traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every task passed its gate and every check held.

This file imports only the standard library: numpy and scipy are imported
by the worker processes it starts, after their BLAS thread count is pinned.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("linearized-64", "nonlinear-64", "constant-bg-128", "cgo-forward-192")
SETUP_PROBES = 6  # set-up-only processes per timed run, besides the timed one
BLAS_THREADS = 1
DEADLINE_S = 170.0  # one workload's run must end within 180 s


class BenchError(Exception):
    """A run that produced no result: a worker failed, hung or said nothing."""


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from start to ready, result or None)."""
    started = time.time()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    ready = result = None
    for line in proc.stdout.splitlines():
        key, _, rest = line.partition(" ")
        if key == "ready":
            ready = float(rest) - started
        elif key == "result":
            result = json.loads(rest)
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return ready, result


def _code_digest() -> str:
    """Digest of the umot sources and the benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "umot").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _compare_exact(name: str, seed: int, exact: dict, work_root: Path) -> list[str]:
    """Compare a traced run's exact values with the last traced run of the
    same code and seed in this checkout; the first such run records them."""
    path = work_root / f"exact-{name}-seed{seed}-{_code_digest()}.json"
    if not path.exists():
        path.write_text(json.dumps(exact, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return [f"{key} is {exact.get(key)}, a traced run of the same code and seed "
            f"gave {value}" for key, value in before.items() if exact.get(key) != value]


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One workload's run: the result object that run.py prints."""
    deadline = time.monotonic() + DEADLINE_S
    spec = _spec()
    base = ["--workload", name, "--seed", str(seed), "--work-dir", str(work)]
    if trace:
        spans = work.parent / f"spans-{name}-seed{seed}.jsonl"
        _, result = _worker(
            base + ["--mode", "trace", "--seconds", str(seconds), "--spans", str(spans)],
            deadline,
        )
        metrics = dict(result["metrics"])
        if result["exact"]:
            result["checks"] += _compare_exact(name, seed, result["exact"], work.parent)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        setups = [_worker(base + ["--mode", "setup"], deadline)[0]
                  for _ in range(SETUP_PROBES)]
        ready, result = _worker(base + ["--mode", "time", "--seconds", str(seconds)],
                                deadline)
        setups.append(ready)
        passed = [t for t in result["tasks"] if t["ok"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        if passed:
            metrics["task_s"] = statistics.median(t["s"] for t in passed)
            metrics["err_digits"] = passed[0]["err_digits"]
        print(f"{name} seed {seed}: {len(passed)} task samples "
              f"{[round(t['s'], 3) for t in passed]}, setup samples "
              f"{[round(s, 3) for s in setups]}", file=sys.stderr)
        wanted = [m["name"] for m in spec["end_to_end"]]
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **result["environment"],
        "blas_threads": int(_child_env()["OPENBLAS_NUM_THREADS"]),
        "workload": name,
        "seed": seed,
        "trace": int(trace),
    }
    print("environment " + json.dumps(env))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    checks = list(result["checks"])
    missing = [m for m in wanted if m not in metrics]
    if missing:
        checks.append(f"no value for {missing}")
    for check in checks:
        print(f"{name} seed {seed}: check failed: {check}", file=sys.stderr)
    tasks = result["tasks"]
    failed = sum(not t["ok"] for t in tasks)
    return {
        "correct": failed == 0 and not checks,
        "attempted": len(tasks),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]}
                    for m in wanted if m in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "umot" / "__init__.py").is_file():
        print(f"no umot sources under {ROOT / 'src'}: run from a checkout of the repo",
              file=sys.stderr)
        return 2
    # Byte-compile umot once so that no set-up sample pays for it.
    if not compileall.compile_dir(ROOT / "src" / "umot", quiet=1):
        print("umot sources do not compile", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), work)
            if len(names) > 1:
                print(f"{name}: " + json.dumps(results[name]))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

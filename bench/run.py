"""Benchmark entry point: run one workload (or all three, one at a time)
and print its metrics; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.

    python3 bench/run.py --workload ahom-d3 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Every workload runs in a fresh worker process (worker.py) whose BLAS and
OpenMP thread pools are capped at the number of cores this process may
use.  With ``--trace 0`` the metrics are the end-to-end ones: set-up is
timed in that worker and in SETUP_PROBES more that stop after set-up,
and their median is ``setup_s``.  With ``--trace 1`` they are the
per-layer ones, from spans the worker writes under ``.bench_out/``.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ahom-d3", "avg-kernel-d3", "small-lattice")
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> tuple[dict, int, dict]:
    """The worker's environment: thread pools capped at the core count
    (or lower, where the caller already asked for fewer)."""
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    caps = {}
    for var in THREAD_VARS:
        current = env.get(var, "")
        cap = int(current) if current.isdigit() and 0 < int(current) < cores else cores
        env[var] = caps[var] = str(cap)
    return env, cores, caps


def run_worker(args: list[str], env: dict, timeout: float) -> tuple[float, str]:
    """Start worker.py; return (seconds from start to READY, the rest of
    its standard output).  The worker is killed at ``timeout``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "READY":
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    return ready, rest


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env, cores, caps = worker_env()
    probes = 0 if trace else SETUP_PROBES

    def probe():
        return run_worker(["--workload", name, "--setup-only"], env, WORKER_TIMEOUT_S)[0]

    # half the probes before the measured worker and half after, so that
    # they do not all fall into one slow stretch of the machine
    setups = [probe() for _ in range(probes // 2)]
    ready, out = run_worker(["--workload", name, "--seed", str(seed), "--seconds",
                             str(seconds), "--trace", str(trace)], env, WORKER_TIMEOUT_S)
    setups.append(ready)
    setups += [probe() for _ in range(probes - probes // 2)]
    res = json.loads(out.strip().splitlines()[-1])
    if trace:
        metrics = res.pop("layers")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "cpu_s": {"value": res["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    info = {k: res[k] for k in ("rounds", "round_wall_s", "versions", "checks", "notes")}
    info.update(workload=name, seed=seed, seconds=seconds, trace=trace, cores=cores,
                thread_caps=caps, setup_samples_s=setups)
    if trace:
        info["spans_file"] = res["spans_file"]
    print(json.dumps({"info": info}))
    for metric, mv in metrics.items():
        print(f"  {name} {metric} = {mv['value']:.6g} {mv['unit']}")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "parahom" / "__init__.py").is_file():
        print(f"no parahom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except (WorkerError, json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    if len(results) == 1:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())

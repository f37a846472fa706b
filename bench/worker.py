"""One workload in one process: set up, run whole rounds for the given
time, and print the figures as one JSON line.

run.py starts this file; by hand:

    python3 bench/worker.py --workload small-lattice --seed 0 --seconds 30 --trace 0

Set-up is the imports plus one warm-up pass through the workload's calls
on tiny inputs; the line ``READY`` marks its end.  Each round then makes
its inputs from (seed, round index), runs the timed body and then checks
the outputs, untimed.  With ``--trace 1`` rounds come in pairs
on the same inputs, one traced and one not, in alternating order; the
difference of their medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _round(wl, inputs, tracer, tally, index):
    """The timed body; returns (outputs, wall s, cpu s)."""
    c0, t0 = _cpu_s(), time.perf_counter()
    with tracer.span("round", round=index):
        outputs = wl.body(inputs, tracer, tally)
    return outputs, time.perf_counter() - t0, _cpu_s() - c0


def _warm_up(cls):
    tiny, tally = cls.tiny(), Tally()
    inputs = tiny.inputs(np.random.default_rng(0))
    tiny.check(inputs, _round(tiny, inputs, Tracer(False), tally, 0)[0], tally)


def measure(cls, seed: int, seconds: float, trace: bool) -> dict:
    wl = cls()
    tally, tracer = Tally(), Tracer(False)
    walls = {False: [], True: []}
    cpus = []
    start = time.perf_counter()
    index = 0
    while True:
        inputs = wl.inputs(np.random.default_rng([seed, index]))
        order = [False] if not trace else [index % 2 == 1, index % 2 == 0]
        for traced in order:
            tracer.enabled = traced
            outputs, wall, cpu = _round(wl, inputs, tracer, tally, index)
            wl.check(inputs, outputs, tally)
            walls[traced].append(wall)
            if not traced:
                cpus.append(cpu)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:  # the next round would overrun
            break
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": index,
        "wall_s": statistics.median(walls[False]),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_wall_s": [round(w, 4) for w in walls[False]],
        "checks": tally.worst,
        "notes": tally.notes,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if trace:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        result["layers"] = layer_metrics(tracer.spans, len(walls[True]), overhead)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{cls.name}-seed{seed}.json"
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]
    _warm_up(cls)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(cls, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of a workload, in a fresh process.

Run by `run.py`, one process per repetition, never two at a time:

    python3 perfbench/worker.py --workload heart-p5 --p 5 --seed 1 --trace 0 \
        [--spans out.jsonl]

Set-up imports frobkern from `src/` of the checkout that holds this
directory and builds every algebra the command uses; numpy is imported
before the clock starts.  Solve runs the
command through `frobkern.cli.main`.  The worker then prints one JSON line:
timings and CPU time of set-up and solve (scaled to the reference machine
speed, see `speed.py`, and raw), peak memory of this process, the exit
code, the extracted answer and, when traced, the per-layer values.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy

import speed
import tracer as tracing
from workloads import WORKLOADS, extract_answer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cpu_s() -> float:
    # user plus system time of every thread of this process
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    cal0 = speed.calibration_s()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    import frobkern.cli

    if not os.path.abspath(frobkern.__file__).startswith(SRC + os.sep):
        print(f"worker: frobkern imported from {frobkern.__file__}, not {SRC}", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        tracer = tracing.install()

    workload = WORKLOADS[args.workload]
    out = {"workload": args.workload, "p": args.p, "seed": args.seed, "trace": args.trace}

    for module, constructor, cargs in workload.setup(args.p):
        getattr(importlib.import_module(f"frobkern.{module}"), constructor)(*cargs)
    t1 = time.perf_counter()
    cpu1 = _cpu_s()
    cal1 = speed.calibration_s()
    if tracer is not None:
        tracer.phase = "solve"

    buf = io.StringIO()
    argv = workload.argv(args.p) + ["--seed", str(args.seed)]
    cpu2 = _cpu_s()
    t2 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = frobkern.cli.main(argv)
        crash = None
    except Exception:  # a crash loses every case of this run
        rc, crash = -1, traceback.format_exc(limit=5)
    t3 = time.perf_counter()
    cpu3 = _cpu_s()
    cal2 = speed.calibration_s()

    answer = None
    if crash is None:
        try:
            answer = extract_answer(json.loads(buf.getvalue().strip().splitlines()[-1]))
        except (ValueError, KeyError, IndexError, TypeError):
            crash = "command output is not a frobkern JSON envelope"
    # seconds at the reference machine speed, from the kernel times at the
    # two edges of each phase (see speed.py)
    setup_scale = speed.REFERENCE_S / ((cal0 + cal1) / 2)
    solve_scale = speed.REFERENCE_S / ((cal1 + cal2) / 2)
    out.update(
        setup_s=(t1 - t0) * setup_scale,
        solve_s=(t3 - t2) * solve_scale,
        cpu_s=(cpu1 - cpu0) * setup_scale + (cpu3 - cpu2) * solve_scale,
        setup_wall_s=t1 - t0,
        solve_wall_s=t3 - t2,
        cpu_raw_s=(cpu1 - cpu0) + (cpu3 - cpu2),
        calibration_s=[cal0, cal1, cal2],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        rc=rc,
        crash=crash,
        answer=answer,
    )
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["span_count"] = len(tracer.names)
        out["solve_span_s"] = sum(
            t for t, phase in zip(tracer.self_times(), tracer.phases) if phase == "solve"
        )
        out["solve_observe_s"] = tracer.observe_s["solve"]
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""frobkern benchmark driver.

    python3 perfbench/run.py --workload heart-p5 --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop with one client: repetitions run one
after another, each in a fresh worker process (`worker.py`) that builds
the algebras cold, runs the command through `frobkern.cli.main` with
`--seed <seed>` and reports its timings and answer.  Repetitions start
while the next one is expected to end within a third of a repetition past
`--seconds`; at least one runs (two when traced).  Every answer is checked
against the stored reference (`reference/`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end medians, in seconds scaled to the reference
machine speed (`speed.py`); with `--trace 1` repetitions alternate
traced and untraced, and the metrics are the per-layer values of the
traced ones plus the tracing overhead.  A full record (environment, every
repetition, sample counts) goes to `perfbench/results/`, and a traced run
also writes the spans of its first traced repetition there.

Options for the benchmark's own tests and maintenance: `--p` runs the
workload's command at another prime, `--reference` gates against another
reference file, and `--write-reference` stores the answer of one run as
the reference.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import per_layer_units  # noqa: E402
from workloads import WORKLOADS, case_count, gate, reference_path  # noqa: E402

ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(HERE, "results")
# the whole run, set-up and every repetition, ends within this many seconds
HARD_LIMIT_S = 165.0

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# the same timings before scaling to the reference machine speed (record only)
RAW_TIMINGS = ("solve_wall_s", "setup_wall_s", "cpu_raw_s")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "OMP_PROC_BIND",
    "OMP_PLACES",
)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
        return lines[1]
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "frobkern", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or "unknown",
    )
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_start": _read("/proc/loadavg"),
    }


def run_worker(args, p: int, traced: bool, spans: str, timeout: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload",
        args.workload,
        "--p",
        str(p),
        "--seed",
        str(args.seed),
        "--trace",
        "1" if traced else "0",
    ]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": f"timeout after {timeout:.0f} s", "answer": None, "rc": -9,
                "wall_s": time.perf_counter() - t0, "trace": int(traced)}
    wall = time.perf_counter() - t0
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        rep = {"crash": proc.stderr[-2000:] or f"worker exit {proc.returncode}",
               "answer": None, "rc": proc.returncode, "trace": int(traced)}
    rep["wall_s"] = wall
    return rep


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def write_reference(args, p: int, ref_file: str) -> int:
    """Store the answer of one passing run as the reference."""
    rep = run_worker(args, p, False, None, HARD_LIMIT_S)
    answer = rep.get("answer")
    ok = rep.get("rc") == 0 and answer is not None and (
        answer.get("passed") is True or answer.get("agree") is True
    )
    if not ok:
        print(f"run.py: not storing a failing answer: {rep.get('crash')}", file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(ref_file), exist_ok=True)
    with open(ref_file, "w") as fh:
        json.dump(answer, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"run.py: wrote {ref_file}", file=sys.stderr)
    return 0


def run_reps(args, p: int, reference: dict, spans_file: str, start: float) -> list:
    """Repetitions, one at a time, gated against the reference."""
    min_reps = 2 if args.trace else 1
    reps = []
    while True:
        now = time.perf_counter() - start
        if len(reps) >= min_reps:
            # another repetition only if it is expected to end within a third
            # of a repetition past the run length
            expected = statistics.median(r["wall_s"] for r in reps)
            if now + expected > args.seconds + expected / 3:
                break
        timeout = HARD_LIMIT_S - now
        if timeout <= 1:
            break
        traced = bool(args.trace) and len(reps) % 2 == 0
        spans = spans_file if traced and not reps else None
        rep = run_worker(args, p, traced, spans, timeout)
        rep["failed"] = gate(reference, rep.get("answer"), rep.get("rc", -1))
        reps.append(rep)
        print(
            f"rep {len(reps)} trace={int(traced)} setup={rep.get('setup_s', float('nan')):.3f}s "
            f"solve={rep.get('solve_s', float('nan')):.3f}s failed={rep['failed']}",
            file=sys.stderr,
        )
    return reps


def end_to_end(plain: list) -> dict:
    """Median, quartiles and sample count of each end-to-end metric."""
    summary = {}
    for name in (*END_TO_END_UNITS, *RAW_TIMINGS):
        values = [r[name] for r in plain]
        if values:
            q1, med, q3 = quartiles(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    return summary


def per_layer(traced: list, plain: list):
    """Per-layer values of the traced repetitions, and whether counts repeat."""
    units = per_layer_units()
    values = {}
    counts_repeat = True
    for name in units:
        seen = [r["layers"][name] for r in traced if name in r["layers"]]
        if not seen:
            continue
        if units[name] == "s":
            values[name] = statistics.median(seen)
        else:
            # exact counts: the same in every traced repetition
            counts_repeat &= len(set(seen)) == 1
            values[name] = seen[0]
    if traced and plain:
        values["trace.overhead_s"] = statistics.median(
            r["solve_s"] for r in traced
        ) - statistics.median(r["solve_s"] for r in plain)
    return values, counts_repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="frobkern benchmark driver")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--p", type=int, help="run the command at this prime instead")
    ap.add_argument("--reference", help="gate against this reference file instead")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "frobkern", "cli.py")):
        print(f"run.py: no frobkern sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    p = args.p or workload.p
    ref_file = args.reference or reference_path(args.workload, p)
    if args.write_reference:
        return write_reference(args, p, ref_file)
    if not os.path.isfile(ref_file):
        print(f"run.py: no reference answer {ref_file}", file=sys.stderr)
        return 2
    with open(ref_file) as fh:
        reference = json.load(fh)
    env = environment()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = f"{args.workload}-p{p}-seed{args.seed}-trace{args.trace}"
    spans_file = os.path.join(RESULTS_DIR, f"{tag}.spans.jsonl")

    reps = run_reps(args, p, reference, spans_file, start)
    attempted = case_count(reference) * len(reps)
    failed = sum(r["failed"] for r in reps)
    ok_reps = [r for r in reps if r["failed"] == 0 and "solve_s" in r]
    plain = [r for r in ok_reps if not r.get("trace")]
    traced = [r for r in ok_reps if r.get("trace")]
    # the answer does not depend on the seed or on tracing
    one_answer = len({json.dumps(r.get("answer"), sort_keys=True) for r in reps}) == 1

    summary = end_to_end(plain)
    if args.trace:
        units = per_layer_units()
        values, counts_repeat = per_layer(traced, plain)
    else:
        units = END_TO_END_UNITS
        values = {name: summary[name]["median"] for name in units if name in summary}
        counts_repeat = None
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}
    correct = failed == 0 and one_answer and counts_repeat is not False and len(metrics) == len(units)

    env["loadavg_end"] = _read("/proc/loadavg")
    env["numpy"] = next((r["numpy"] for r in reps if "numpy" in r), None)
    record = {
        "workload": args.workload,
        "command": workload.argv(p) + ["--seed", str(args.seed)],
        "p": p,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference": os.path.relpath(ref_file, ROOT),
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "counts_repeat": counts_repeat,
        "summary": summary,
        "metrics": metrics,
        "spans_file": os.path.relpath(spans_file, ROOT) if args.trace else None,
        "reps": [{k: v for k, v in r.items() if k != "answer"} for r in reps],
        "answer": reps[0].get("answer") if reps else None,
    }
    with open(os.path.join(RESULTS_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

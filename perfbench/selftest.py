"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs every workload's command once at p = 3 through the driver, checks
that the answers agree across two seeds and that a freshly written
reference equals the stored one, that the correctness gate
rejects a deliberately wrong reference and a failing or crashed run,
that a traced run reports every per-layer metric with exact counts that
repeat, and that its span self times plus its observer time add up to its
solve time.  It also
checks `BENCHMARK.json` against the code and that the driver refuses to
run without the frobkern sources.  Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END_UNITS, RESULTS_DIR  # noqa: E402
from tracer import per_layer_units  # noqa: E402
from workloads import WORKLOADS, gate, load_reference  # noqa: E402

SCRATCH = os.path.join(RESULTS_DIR, "selftest")
# span self times must cover the traced solve time up to this share of it
# (plus 5 ms): what is left is the worker's own glue around `cli.main`
UNCOVERED_SHARE = 0.01


def drive(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result, proc.stderr


def record(workload, seed, trace, p=3):
    path = os.path.join(RESULTS_DIR, f"{workload}-p{p}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer_units()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))


def check_workloads_at_p3():
    for name in WORKLOADS:
        rc, result, err = drive("--workload", name, "--seed", "1", "--seconds", "1", "--p", "3")
        assert rc == 0, err
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        assert set(result["metrics"]) == set(END_TO_END_UNITS), result
        rec = record(name, 1, 0)
        env = rec["environment"]
        for key in ("commit", "python", "numpy", "cpu_model", "nproc", "thread_vars",
                    "loadavg_start", "loadavg_end"):
            assert key in env, key
        assert rec["failed_share"] == 0


def check_reference_reproducible():
    os.makedirs(SCRATCH, exist_ok=True)
    fresh = os.path.join(SCRATCH, "fresh-reference.json")
    rc, _, err = drive(
        "--workload", "heart-p5", "--seed", "3", "--seconds", "1", "--p", "3",
        "--reference", fresh, "--write-reference",
    )
    assert rc == 0, err
    with open(fresh) as fh:
        assert json.load(fh) == load_reference("heart-p5", 3)


def check_seed_independence():
    for name in WORKLOADS:
        rc, result, err = drive("--workload", name, "--seed", "2", "--seconds", "1", "--p", "3")
        assert rc == 0 and result["correct"], err
        assert record(name, 1, 0)["answer"] == record(name, 2, 0)["answer"], name


def check_gate():
    ref = load_reference("heart-p5", 3)
    good = copy.deepcopy(ref)
    assert gate(ref, good, 0) == 0
    # added keys (statistics, proof tags) are not failures
    grown = copy.deepcopy(ref)
    grown["stats"] = {"hom_calls": 1}
    grown["cases"][0]["got"]["proof"] = "witness"
    grown["cases"][0]["note"] = "extra"
    assert gate(ref, grown, 0) == 0
    wrong = copy.deepcopy(ref)
    wrong["cases"][0]["got"]["weights"] = [0]
    assert gate(ref, wrong, 0) == 1
    failing = copy.deepcopy(ref)
    failing["cases"][1]["status"] = "fail"
    failing["passed"] = False
    assert gate(ref, failing, 2) == 1
    missing = copy.deepcopy(ref)
    missing["cases"].pop()
    assert gate(ref, missing, 0) == 1
    assert gate(ref, good, 2) == 1  # non-zero exit
    assert gate(ref, None, -1) == len(ref["cases"])  # crash or timeout
    cohom = load_reference("cohom-p7", 3)
    assert gate(cohom, dict(cohom), 0) == 0
    assert gate(cohom, dict(cohom, agree=False), 2) == 1
    assert gate(cohom, dict(cohom, dim=cohom["dim"] + 1), 0) == 1

    # through the driver: a deliberately wrong stored reference is rejected
    os.makedirs(SCRATCH, exist_ok=True)
    bad_ref = os.path.join(SCRATCH, "wrong-reference.json")
    with open(bad_ref, "w") as fh:
        json.dump(wrong, fh)
    rc, result, err = drive(
        "--workload", "heart-p5", "--seed", "1", "--seconds", "1", "--p", "3",
        "--reference", bad_ref,
    )
    assert rc == 0, err
    reps = result["attempted"] // len(ref["cases"])
    # one wrong case in every repetition
    assert result["correct"] is False and result["failed"] == reps >= 1, result


def check_trace():
    units = per_layer_units()
    for name in WORKLOADS:
        counts = []
        for _ in range(2):
            rc, result, err = drive(
                "--workload", name, "--seed", "1", "--seconds", "1", "--p", "3", "--trace", "1"
            )
            assert rc == 0 and result["correct"], err
            assert set(result["metrics"]) == set(units), set(units) ^ set(result["metrics"])
            counts.append(
                {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}
            )
        assert counts[0] == counts[1], name
        rec = record(name, 1, 1)
        traced = [r for r in rec["reps"] if r["trace"]]
        for rep in traced:
            uncovered = rep["solve_wall_s"] - rep["solve_span_s"] - rep["solve_observe_s"]
            assert 0 <= uncovered <= UNCOVERED_SHARE * rep["solve_wall_s"] + 0.005, rep
        with open(os.path.join(ROOT, rec["spans_file"])) as fh:
            spans = [json.loads(line) for line in fh]
        assert len(spans) == traced[0]["span_count"]
        assert all(s[5] < s[0] for s in spans)  # parents open before children
        assert {s[6] for s in spans} <= {"setup", "solve"}
        print(
            f"  {name}: {len(spans)} spans, tracing overhead "
            f"{rec['metrics']['trace.overhead_s']['value']:+.3f} s"
        )


def check_refuses_without_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("results"))
    rc, result, err = drive("--workload", "heart-p5", "--seed", "1", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert rc != 0 and result is None, (rc, err)


def main() -> int:
    checks = [
        check_benchmark_json,
        check_gate,
        check_workloads_at_p3,
        check_reference_reproducible,
        check_seed_independence,
        check_trace,
        check_refuses_without_sources,
    ]
    failed = 0
    for check in checks:
        try:
            check()
            print(f"ok    {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {check.__name__}: {exc}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

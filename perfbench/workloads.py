"""The benchmark's workloads, their set-up, and the correctness gate.

A workload is one `frobkern` command line at a fixed prime.  Its set-up
imports frobkern and builds, cold, every algebra the command uses, through
the public constructors; the command then finds them in their caches.
The prime can be overridden (the benchmark's own tests run every workload
at p = 3); the reference answer is stored per workload and prime.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    argv: Callable[[int], List[str]]
    # (module, constructor, args) for every algebra the command uses
    setup: Callable[[int], List[Tuple[str, str, tuple]]]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "heart-p5",
            5,
            lambda p: ["verify", "heart", "--p", str(p)],
            lambda p: [("sl2dist", "distribution_sl2", (p, 2))],
            "height-two hearts: mid-size ungraded Hom solves, most of them empty, few repeated",
        ),
        Workload(
            "ub1-p5",
            5,
            lambda p: ["verify", "ub1", "--p", str(p)],
            lambda p: [("sl2dist", "restricted_sl2", (p,))],
            "13-step resolutions with a stable Hom per step: most Hom solves repeat an earlier pair",
        ),
        Workload(
            "cohom-p7",
            7,
            lambda p: ["cohom", "--p", str(p), "--r", "2", "--n", "8", "--method", "all"],
            lambda p: [("gacohom", "truncated_poly_algebra", (p, 2))],
            "few large Hom solves on big syzygies: matrix-kernel work, no small calls, set-up is the import alone",
        ),
        Workload(
            "graded-orbit-p7",
            7,
            lambda p: ["verify", "graded-orbit", "--p", str(p)],
            lambda p: [("sl2dist", "graded_restricted_sl2", (p,))],
            "graded Homs and tiny eliminations bound by per-call overhead; set-up splits the PIMs",
        ),
    )
}


# ---------------------------------------------------------------------------
# correctness gate


def extract_answer(payload: dict) -> dict:
    """The mathematical answer of one command's JSON output.

    Only each case's input, status and `got` values (verify), or the
    dimensions and their agreement (cohom), are kept: the rest of the JSON
    layout may grow without changing the answer.
    """
    result = payload["result"]
    if "cases" in result:
        return {
            "cases": [
                {
                    "suite": case.get("suite"),
                    "input": case["input"],
                    "status": case["status"],
                    "got": case["got"],
                }
                for case in result["cases"]
            ],
            "passed": result.get("passed"),
        }
    return {"dim": result.get("dim"), "dims": result.get("dims"), "agree": result.get("agree")}


def _matches(reference, got) -> bool:
    # every key of the reference must agree; keys added since do not matter
    if isinstance(reference, dict):
        return isinstance(got, dict) and all(
            k in got and _matches(v, got[k]) for k, v in reference.items()
        )
    return reference == got


def case_count(reference: dict) -> int:
    return len(reference["cases"]) if "cases" in reference else 1


def gate(reference: dict, answer, rc: int) -> int:
    """Number of failed cases of one command run against the reference.

    A case fails when it is missing, its status is not `pass`, or one of
    its reference `got` values differs.  A cohom run is one case that fails
    unless the dims agree and equal the reference.  A non-zero exit code
    or `passed: false` fails at least one case; a crash (no answer) fails
    them all.
    """
    total = case_count(reference)
    if answer is None:
        return total
    if "cases" in reference:
        by_key = {
            json.dumps([c.get("suite"), c["input"]], sort_keys=True): c
            for c in answer.get("cases", [])
        }
        failed = 0
        for ref in reference["cases"]:
            got = by_key.get(json.dumps([ref.get("suite"), ref["input"]], sort_keys=True))
            if (
                got is None
                or got["status"] != "pass"
                or got["status"] != ref["status"]
                or not _matches(ref["got"], got["got"])
            ):
                failed += 1
        if answer.get("passed") is not True:
            failed = max(failed, 1)
    else:
        ok = answer.get("agree") is True and _matches(reference, answer)
        failed = 0 if ok else 1
    if rc != 0:
        failed = max(failed, 1)
    return failed


def reference_path(workload: str, p: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload.rsplit('-p', 1)[0]}-p{p}.json")


def load_reference(workload: str, p: int) -> dict:
    with open(reference_path(workload, p)) as fh:
        return json.load(fh)

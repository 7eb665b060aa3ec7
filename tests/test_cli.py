"""Front-door behavior: envelopes, exit codes, determinism, verify suites."""

import json
import os
import subprocess
import sys
import time
import types

import pytest

import frobkern.cli as cli
from frobkern import gacohom
from frobkern.algrep import IsoResult, load_module
from frobkern.fplinalg import zeros
from frobkern.sl2dist import restricted_sl2


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_block_example(capsys):
    code, payload = run_json(capsys, ["block", "--p", "3", "--r", "2", "--lambda", "5"])
    assert code == 0
    assert payload["schema"] == 1
    assert payload["result"] == {"block": {"i": 0, "s": 1}}
    assert payload["query"]["command"] == "block"
    assert payload["verified_by_oracle"] is False


def test_period_example(capsys):
    code, payload = run_json(capsys, ["period", "--p", "3", "--r", "2", "--lambda", "0"])
    assert code == 0
    assert payload["result"] == {"period": 6}
    assert "good_prime" in payload["paper_hypotheses"]


def test_cohom_example(capsys):
    code, payload = run_json(capsys, ["cohom", "--p", "3", "--r", "2", "--n", "6"])
    assert code == 0
    assert payload["result"]["dim"] == 7


def test_cohom_all_methods_verified(capsys):
    code, payload = run_json(
        capsys, ["cohom", "--p", "3", "--r", "2", "--n", "6", "--method", "all"]
    )
    assert code == 0
    assert payload["result"]["agree"] is True
    assert payload["result"]["dims"] == {
        "closed-form": 7,
        "enumeration": 7,
        "resolution": 7,
    }
    assert payload["verified_by_oracle"] is True


def test_cohom_disagreement_exits_two(capsys, monkeypatch):
    # force the closed form wrong; the routes must disagree and exit 2
    monkeypatch.setattr(cli, "cohom_dim", lambda p, r, n: 999)
    code, payload = run_json(
        capsys, ["cohom", "--p", "3", "--r", "2", "--n", "6", "--method", "all"]
    )
    assert code == 2
    assert payload["result"]["agree"] is False


def test_singular_graded_orbit_witness_fails_the_case(capsys, monkeypatch):
    # an oracle fault, not bad input: the cases fail and the command exits 2
    def singular_witness(M, N):
        return IsoResult("iso", zeros(M.dim, N.dim, M.algebra.p))

    monkeypatch.setattr(cli, "is_isomorphic", singular_witness)
    code, payload = run_json(capsys, ["verify", "graded-orbit", "--p", "3"])
    assert code == 2
    cases = payload["result"]["cases"]
    assert cases and all(c["status"] == "fail" for c in cases)
    assert all(c["got"]["intertwiner_checked"] is False for c in cases)


def test_more_query_commands(capsys):
    code, payload = run_json(capsys, ["depth", "--p", "3", "--lambda", "-1"])
    assert code == 0 and payload["result"] == {"depth": "infinite"}
    code, payload = run_json(capsys, ["ph", "--p", "3", "--r", "1", "--lambda", "2"])
    assert code == 0 and payload["result"] == {"ph": "projective"}
    code, payload = run_json(
        capsys, ["heller-orbit", "--p", "3", "--r", "1", "--lambda", "0", "--n", "1"]
    )
    assert code == 0 and payload["result"] == {"weight": 6}
    code, payload = run_json(
        capsys, ["block-members", "--p", "3", "--r", "2", "--lambda", "0"]
    )
    assert code == 0 and payload["result"]["members"] == [0, 1, 3, 4, 6, 7]
    code, payload = run_json(
        capsys, ["heart-weights", "--p", "3", "--r", "2", "--lambda", "6"]
    )
    assert code == 0 and payload["result"] == {"weights": [1, 4]}
    code, payload = run_json(
        capsys, ["classify-block", "--p", "3", "--r", "2", "--lambda", "2"]
    )
    assert code == 0 and payload["result"]["type"] == "tame"
    code, payload = run_json(capsys, ["complexity", "--p", "3", "--r", "2", "--lambda", "4"])
    assert code == 0 and payload["result"] == {"complexity": 3}


def test_classify_component_command(capsys):
    code, payload = run_json(
        capsys, ["classify-component", "--context", "G_rT", "--evidence", "verma"]
    )
    assert code == 0
    assert payload["result"]["components"] == ["Z[A_inf]"]
    assert "quasi-simple" in payload["result"]["note"]
    code, payload = run_json(
        capsys,
        [
            "classify-component",
            "--context",
            "G_r",
            "--evidence",
            "complexity-1",
            "--p",
            "3",
            "--s",
            "1",
        ],
    )
    assert code == 0
    assert payload["result"]["components"] == ["Z[A_inf]/tau^3"]
    # a negative tube exponent is refused with or without r
    for extra in ([], ["--r", "2"]):
        argv = ["classify-component", "--context", "G_r", "--evidence", "complexity-1"]
        assert cli.main(argv + ["--p", "3", "--s", "-1"] + extra) == 1
        assert capsys.readouterr().out == ""


def test_user_errors_exit_one(capsys):
    # out-of-hypothesis query
    code = cli.main(["period", "--p", "3", "--r", "2", "--lambda", "8"])
    err = capsys.readouterr().err
    assert code == 1
    assert "depth(lambda) <= r" in err
    # out-of-range weight
    code = cli.main(["block", "--p", "3", "--r", "1", "--lambda", "7"])
    assert code == 1
    # a negative resolution length
    code = cli.main(["cohom", "--p", "3", "--r", "2", "--n", "-1", "--method", "resolution"])
    assert code == 1
    assert "cohomological degree must be >= 0" in capsys.readouterr().err
    # malformed arguments (argparse) must also exit 1, not 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["block", "--p", "3", "--r", "2"])
    assert exc.value.code == 1
    # a prime past the largest at which the verify suites can run is refused
    # with one line, before any suite starts
    capsys.readouterr()  # the usage printed above
    code = cli.main(["verify", "blocks", "--p", "65537"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "frobkern: verify runs at p <= 11, got 65537\n"
    assert cli.main(["verify", "blocks", "--p", "11"]) == 0


@pytest.mark.parametrize("method", ["resolution", "all"])
def test_cohom_past_the_largest_algebra_exits_one_before_building_it(capsys, monkeypatch, method):
    # p^r = 1030301: the regular module's action matrices alone would take 8 TB
    def refuse(alg):
        raise AssertionError("the regular module was built")

    monkeypatch.setattr(gacohom, "_regular", refuse)
    code = cli.main(["cohom", "--p", "101", "--r", "3", "--n", "1", "--method", method])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "frobkern: the algebra has dimension 101^3, above 2000, the largest the oracle builds\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["block", "--p", "9", "--r", "1", "--lambda", "0"],
        ["complexity", "--p", "1", "--r", "1", "--lambda", "0"],
        ["block", "--p", "3", "--r", "-1", "--lambda", "0"],
        ["block", "--p", "3", "--r", "0", "--lambda", "0"],
        ["block", "--p", "3", "--r", "x", "--lambda", "0"],
        ["verify", "blocks", "--p", "4"],
        ["verify", "heart", "--p", "3", "--budget-ms", "-5"],
    ],
)
def test_bad_prime_or_height_exits_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""


def test_query_determinism(capsys):
    argv = ["block", "--p", "5", "--r", "2", "--lambda", "13"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_verify_blocks_report(capsys):
    code, payload = run_json(capsys, ["verify", "blocks", "--p", "5"])
    assert code == 0
    report = payload["result"]
    assert report["passed"] is True
    assert all(c["status"] == "pass" for c in report["cases"])
    assert {c["input"]["r"] for c in report["cases"]} == {1, 2}
    assert "wall_ms" in report


def test_verify_determinism_modulo_wall_time(capsys):
    argv = ["verify", "verma-period", "--p", "3", "--seed", "11"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    first["result"].pop("wall_ms")
    second["result"].pop("wall_ms")
    assert first == second


REFERENCE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference")


# case name -> (reference file, command)
REFERENCE_COMMANDS = {
    "heart": ("heart-p3", ["verify", "heart", "--p", "3"]),
    "heart-p5": ("heart-p5", ["verify", "heart", "--p", "5"]),
    "ub1": ("ub1-p3", ["verify", "ub1", "--p", "3"]),
    # its Steinberg cases strip a projective module to zero in ext_dims
    "ub1-p5": ("ub1-p5", ["verify", "ub1", "--p", "5"]),
    "graded-orbit": ("graded-orbit-p3", ["verify", "graded-orbit", "--p", "3"]),
    "graded-orbit-p7": ("graded-orbit-p7", ["verify", "graded-orbit", "--p", "7"]),
    "cohom": ("cohom-p3", ["cohom", "--p", "3", "--r", "2", "--n", "8", "--method", "all"]),
    # nine covers of syzygies of k, each forming only the lifts it keeps
    "cohom-p7": ("cohom-p7", ["cohom", "--p", "7", "--r", "2", "--n", "8", "--method", "all"]),
}


@pytest.mark.parametrize("name", list(REFERENCE_COMMANDS))
def test_oracle_answers_match_stored_reference(capsys, name):
    # the benchmark's reference answers pin the oracle across solver changes
    reference_name, argv = REFERENCE_COMMANDS[name]
    with open(os.path.join(REFERENCE_DIR, f"{reference_name}.json")) as fh:
        reference = json.load(fh)
    code, payload = run_json(capsys, argv + ["--seed", "7"])
    assert code == 0
    result = payload["result"]
    if "cases" not in reference:
        assert {key: result[key] for key in reference} == reference
        return
    assert [c["input"] for c in result["cases"]] == [c["input"] for c in reference["cases"]]
    for case, ref in zip(result["cases"], reference["cases"]):
        assert case["status"] == ref["status"]
        assert {key: case["got"].get(key) for key in ref["got"]} == ref["got"]


def helper_thread_ticks():
    """CPU clock ticks used so far by the threads of this process but the main one."""
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == os.getpid():
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread has ended
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime and stime
    return ticks


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs per-thread CPU times")
def test_ub1_wakes_no_blas_helper_thread(capsys):
    # its mid-size products run in blocks on the calling thread; taken whole,
    # each woke an OpenBLAS helper thread that then spun (about 30-50 ticks)
    time.sleep(0.5)  # a helper woken by an earlier test stops spinning
    before = helper_thread_ticks()
    code, _ = run_json(capsys, ["verify", "ub1", "--p", "5", "--seed", "7"])
    assert code == 0
    assert helper_thread_ticks() - before <= 3


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("FROBKERN_SEED", "7")
    _, payload = run_json(capsys, ["verify", "blocks", "--p", "3"])
    assert payload["result"]["seed"] == 7
    _, payload = run_json(capsys, ["verify", "blocks", "--p", "3", "--seed", "9"])
    assert payload["result"]["seed"] == 9


def refuse_to_run(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_verify", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "heart", "--p", "3", "--seed", "-1"],
        ["verify", "meataxe-regular", "--p", "3", "--seed", "-1"],
        ["block", "--p", "3", "--r", "1", "--lambda", "0", "--seed", "-2"],
        ["verify", "heart", "--p", "3", "--seed", "x"],
    ],
)
def test_negative_seed_flag_exits_one_before_any_suite(capsys, monkeypatch, argv):
    refuse_to_run(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert f"argument --seed: {argv[-1]} is not a seed >= 0" in err


def test_negative_seed_from_the_environment_exits_one_before_any_suite(capsys, monkeypatch):
    refuse_to_run(monkeypatch)
    for seed in ("-3", "x"):
        monkeypatch.setenv("FROBKERN_SEED", seed)
        assert cli.main(["verify", "blocks", "--p", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"frobkern: FROBKERN_SEED: {seed} is not a seed >= 0\n"


def test_dump_dir_that_cannot_be_created_exits_one_before_any_suite(capsys, monkeypatch, tmp_path):
    refuse_to_run(monkeypatch)
    taken = tmp_path / "a-file"
    taken.write_text("")
    for path in (taken, taken / "below"):
        assert cli.main(["verify", "heart", "--p", "3", "--dump-dir", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"frobkern: --dump-dir {path}: ") and err.count("\n") == 1
    assert taken.read_text() == ""


def test_verify_budget_flag(capsys):
    code, payload = run_json(capsys, ["verify", "all", "--p", "3", "--budget-ms", "0"])
    report = payload["result"]
    assert code == 0  # inconclusive is not failure
    assert report["budget_exceeded"] is True
    assert all(c["status"] == "inconclusive" for c in report["cases"])
    # no case ran, so the oracle verified nothing
    assert payload["verified_by_oracle"] is False


def test_verma_period_reads_its_period_from_the_formula(capsys, monkeypatch):
    # a formula that claims period 4 expects Omega^2 Z not to be Z, which
    # the oracle refutes: every case fails and the command exits 2
    monkeypatch.setattr(cli, "verma_period", lambda rd, lam, r: 4)
    code, payload = run_json(capsys, ["verify", "verma-period", "--p", "3"])
    assert code == 2
    cases = payload["result"]["cases"]
    assert cases and all(c["status"] == "fail" for c in cases)
    for case in cases:
        assert sorted(case["expected"]) == ["omega1", "omega2", "omega3", "omega4", "source"]
        assert case["expected"]["omega2"] == "not_iso" and case["got"]["omega2"] == "iso"


def test_verify_budget_binds_per_case(capsys, monkeypatch):
    # a clock that moves one second with every Verma module built: the first
    # two cases of verma-period fit in 1.5 s, and the other two are reported
    # inconclusive without being run
    now = [0.0]
    real_verma = cli.verma_module

    def verma(*args):
        now[0] += 1
        return real_verma(*args)

    monkeypatch.setattr(cli, "verma_module", verma)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    argv = ["verify", "verma-period", "--p", "5", "--budget-ms", "1500"]
    code, payload = run_json(capsys, argv)
    report = payload["result"]
    assert code == 0  # inconclusive is not failure
    assert now[0] == 2
    assert report["budget_exceeded"] is True
    assert [c["input"] for c in report["cases"]] == [
        {"p": 5, "r": 1, "lambda": lam} for lam in range(4)
    ]
    statuses = [c["status"] for c in report["cases"]]
    assert statuses == ["pass", "pass", "inconclusive", "inconclusive"]
    assert all("budget" in c["note"] for c in report["cases"][2:])


def test_verify_budget_overrun_by_the_last_case_is_reported(capsys, monkeypatch):
    # the same clock with a 3.5 s budget: every case starts in time, but the
    # last one ends at 4 s, past the deadline
    now = [0.0]
    real_verma = cli.verma_module

    def verma(*args):
        now[0] += 1
        return real_verma(*args)

    monkeypatch.setattr(cli, "verma_module", verma)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    argv = ["verify", "verma-period", "--p", "5", "--budget-ms", "3500"]
    code, payload = run_json(capsys, argv)
    report = payload["result"]
    assert code == 0
    assert now[0] == 4
    assert report["budget_exceeded"] is True
    assert report["wall_ms"] == 4000
    assert [c["status"] for c in report["cases"]] == ["pass"] * 4


def test_verify_text_format(capsys):
    code = cli.main(["verify", "cohom", "--p", "3", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_verify_dump_dir(capsys, tmp_path):
    code, payload = run_json(
        capsys,
        ["verify", "meataxe-regular", "--p", "3", "--dump-dir", str(tmp_path)],
    )
    assert code == 0
    files = sorted(os.listdir(tmp_path))
    assert "regular-p3.json" in files
    reg = load_module(str(tmp_path / "regular-p3.json"), restricted_sl2(3))
    assert reg.dim == 27


def run_cli_child(argv, timeout=None, module="frobkern.cli"):
    return run_python_child(["-m", module, *argv], timeout)


def run_python_child(args, timeout=None):
    # the child imports the same frobkern as this test, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


# the benchmark's four commands, at p = 3
BENCHMARK_COMMANDS = [
    ["verify", "ub1", "--p", "3"],
    ["verify", "heart", "--p", "3"],
    ["verify", "graded-orbit", "--p", "3"],
    ["cohom", "--p", "3", "--r", "2", "--n", "8", "--method", "all"],
]

NUMPY_MODULES_LOADED_BY_COMMANDS = """
import contextlib, io, json, sys
import frobkern.cli as cli

def numpy_modules():
    return {m for m in sys.modules if m == "numpy" or m.startswith("numpy.")}

before = numpy_modules()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(numpy_modules() - before)))
"""


def test_commands_import_no_further_numpy_module():
    # a numpy module imported on first use is paid inside the command that
    # first uses it: the first np.unique imports numpy.ma, about 14 ms.
    # Once the CLI is imported, the benchmark's commands load no further
    # numpy module
    argv = ["-c", NUMPY_MODULES_LOADED_BY_COMMANDS, json.dumps(BENCHMARK_COMMANDS)]
    out = run_python_child(argv, 120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []


def test_console_module_invocation():
    out = run_cli_child(["block", "--p", "3", "--r", "2", "--lambda", "5"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["result"] == {"block": {"i": 0, "s": 1}}


def test_package_module_invocation_runs_the_cli():
    argv = ["period", "--p", "5", "--r", "2", "--lambda", "3"]
    package, cli_module = run_cli_child(argv, module="frobkern"), run_cli_child(argv)
    assert package.returncode == cli_module.returncode == 0
    assert json.loads(package.stdout) == json.loads(cli_module.stdout)
    assert package.stderr == cli_module.stderr == ""


@pytest.mark.parametrize("method", ["all", "enumeration"])
def test_cohom_past_a_route_bound_exits_one_before_running_any_route(method):
    # every requested route's bound is checked before any route runs, so the
    # refusal comes before the enumeration walks its 4^16 * 2^16 tuples
    out = run_cli_child(["cohom", "--p", "3", "--r", "16", "--n", "6", "--method", method], 20)
    err = "frobkern: the enumeration walks 4^16 * 2^16 tuples, above 1048576, the most it walks\n"
    assert (out.returncode, out.stdout, out.stderr) == (1, "", err)


def test_block_members_past_the_bound_exits_one_before_listing_any():
    # the block of weight 0 at p = 3, r = 25 has 2 * 3^24 members
    out = run_cli_child(["block-members", "--p", "3", "--r", "25", "--lambda", "0"], 20)
    err = "frobkern: the block has 2 * 3^24 members, above 1048576, the most it lists\n"
    assert (out.returncode, out.stdout, out.stderr) == (1, "", err)


def test_enumeration_past_its_bound_is_refused_without_forming_the_count():
    assert gacohom.MAX_TUPLES == 2**20
    gacohom.check_enumeration_size(20, 1)  # 1^20 * 2^20 tuples: at the bound
    for r, n in [(21, 0), (7, 6), (10**12, 2)]:
        with pytest.raises(ValueError, match="the most it walks"):
            gacohom.check_enumeration_size(r, n)

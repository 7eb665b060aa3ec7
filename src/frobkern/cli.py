"""Command-line front door.

Evaluates the combinatorial closed forms (blocks, depth, heights,
periods, orbits, hearts, cohomology dimensions, classifications) and
runs oracle verification suites that recompute selected answers over
the actual algebras and compare.

Exit codes: 0 success, 1 user error (bad arguments, out-of-hypothesis
queries), 2 mathematical disagreement between a closed form and the
oracle.  The last one is the code worth alarming on.

Output is a JSON envelope {schema, query, result, paper_hypotheses,
verified_by_oracle} on one line, or a plain-text rendering with
--format text.  For identical query and seed the JSON is byte-identical
except for the wall_ms field of verify reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import Callable, Iterator, List, Optional, Tuple

from . import DEFAULT_SEED, check_height, check_odd_prime
from .algrep import (
    composition_factors,
    dump_module,
    ext_dims,
    heller,
    heller_power,
    is_isomorphic,
    meataxe_split,
    socle,
)
from .fplinalg import rank
from .gacohom import (
    check_algebra_order,
    check_enumeration_size,
    cohom_dim,
    cohom_dim_by_enumeration,
    minimal_resolution_dims,
)
from .sl2dist import (
    graded_verma_module,
    heart_module,
    principal_indecomposable,
    regular_module,
    simple_module,
    verma_module,
)
from .weightcomb import (
    HypothesisError,
    all_blocks,
    block_members,
    block_of,
    classify_block_type,
    classify_component,
    depth,
    heart_weights,
    heller_orbit_verma,
    simple_complexity,
    sl2_root_datum,
    ub1_bound_check,
    verma_period,
    verma_projective_height,
)

_FLAG_HYPOTHESES = ["reductive", "defined_over_Fp", "good_prime"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is reserved for oracle
    # disagreement here, so route usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("FROBKERN_SEED")
    if env:
        try:
            return _seed(env)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"FROBKERN_SEED: {exc}") from None
    return DEFAULT_SEED


def _query_dict(args) -> dict:
    out = {"command": args.command}
    for key, name in (
        ("p", "p"),
        ("r", "r"),
        ("lam", "lambda"),
        ("n", "n"),
        ("s", "s"),
        ("method", "method"),
        ("context", "context"),
        ("evidence", "evidence"),
        ("suite", "suite"),
        ("seed", "seed"),
    ):
        val = getattr(args, key, None)
        if val is not None:
            out[name] = val
    return out


def _emit(args, result: dict, hypotheses: List[str], verified: bool, text=None) -> None:
    """Print the JSON envelope, or the plain-text lines `text`: by default
    one line per result field and one for the hypotheses."""
    payload = {
        "schema": 1,
        "query": _query_dict(args),
        "result": result,
        "paper_hypotheses": hypotheses,
        "verified_by_oracle": verified,
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    if text is None:
        text = [f"{key}: {result[key]}" for key in sorted(result)]
        if hypotheses:
            text.append("hypotheses: " + ", ".join(hypotheses))
    for line in text:
        print(line)


def _block_json(block) -> object:
    if block.kind == "steinberg":
        return "steinberg"
    return {"i": block.i, "s": block.s}


# ---------------------------------------------------------------------------
# query handlers


def _cmd_block(args) -> dict:
    return {"block": _block_json(block_of(args.p, args.r, args.lam))}


def _cmd_block_members(args) -> dict:
    block = block_of(args.p, args.r, args.lam)
    return {
        "block": _block_json(block),
        "members": block_members(args.p, args.r, block),
    }


def _cmd_complexity(args) -> dict:
    return {"complexity": simple_complexity(args.p, args.r, args.lam)}


def _cmd_depth(args) -> dict:
    d = depth(sl2_root_datum(args.p), args.lam)
    return {"depth": "infinite" if math.isinf(d) else d}


def _cmd_ph(args) -> dict:
    return {"ph": verma_projective_height(sl2_root_datum(args.p), args.lam, args.r)}


def _cmd_period(args) -> dict:
    return {"period": verma_period(sl2_root_datum(args.p), args.lam, args.r)}


def _cmd_heller_orbit(args) -> dict:
    w = heller_orbit_verma(sl2_root_datum(args.p), args.lam, args.r, args.n)
    return {"weight": w}


def _cmd_heart_weights(args) -> dict:
    return {"weights": list(heart_weights(args.p, args.r, args.lam))}


def _cmd_classify_block(args) -> dict:
    block = block_of(args.p, args.r, args.lam)
    return {
        "block": _block_json(block),
        "type": classify_block_type(args.p, args.r, block),
    }


def _cmd_classify_component(args) -> dict:
    comps = classify_component(
        args.context, args.evidence, p=args.p, r=args.r, s=args.s
    )
    out = {"components": list(comps)}
    if args.evidence == "verma":
        out["note"] = "the baby Verma module is quasi-simple in this component"
    return out


_COMPONENT_HYPOTHESES = {
    "complexity-1": ["module of complexity 1 in the component"],
    "simple-cx2": ["simple module of complexity 2 in the component"],
    "verma": ["graded baby Verma module in the component"],
    "generic": [],
}


def _cmd_cohom(args):
    # returns (result, verified_by_oracle, disagreement)
    p, r, n = args.p, args.r, args.n
    # every requested route's bound is checked before any route runs
    if args.method in ("enumeration", "all"):
        check_enumeration_size(r, n)
    if args.method in ("resolution", "all"):
        check_algebra_order(p, r)
    routes = {}
    if args.method in ("closed-form", "all"):
        routes["closed-form"] = cohom_dim(p, r, n)
    if args.method in ("enumeration", "all"):
        routes["enumeration"] = cohom_dim_by_enumeration(p, r, n)
    if args.method in ("resolution", "all"):
        routes["resolution"] = minimal_resolution_dims(p, r, n).ext_dims[n]
    dims = sorted(set(routes.values()))
    if len(dims) > 1:
        return {"method": args.method, "dims": routes, "agree": False}, True, True
    result = {"dim": dims[0], "method": args.method}
    if args.method == "all":
        result["dims"] = routes
        result["agree"] = True
    return result, args.method in ("resolution", "all"), False


# ---------------------------------------------------------------------------
# verify suites: recompute closed-form answers over the actual algebras

_STANDING = ["p >= 3"]

# a suite yields its cases lazily, each as its input and a function that
# computes it, returning (expected, got, ok); so run_verify can stop at any
# case and still name the cases it did not run
_SuiteCases = Iterator[Tuple[dict, Callable[[], Tuple[dict, dict, bool]]]]


def _case(inp: dict, expected: dict, got: dict, ok: bool) -> dict:
    return {
        "input": inp,
        "expected": expected,
        "got": got,
        "status": "pass" if ok else "fail",
    }


def suite_verma_period(p: int, seed: int, dump_dir=None) -> _SuiteCases:
    """Ungraded height-one baby Vermas have Heller period exactly 2."""

    def case(lam):
        Z = verma_module(p, 1, lam)
        om1 = heller(Z)
        om2 = heller(om1)
        r1 = is_isomorphic(om1, Z)
        r2 = is_isomorphic(om2, Z)
        ok = r1.status == "not_iso" and r2.status == "iso"
        return (
            {
                "omega1": "not_iso",
                "omega2": "iso",
                "source": "period formula 2*p^(r-depth)",
            },
            {"omega1": r1.status, "omega2": r2.status},
            ok,
        )

    for lam in range(p - 1):
        yield {"p": p, "r": 1, "lambda": lam}, functools.partial(case, lam)


def suite_graded_orbit(p: int, seed: int, dump_dir=None) -> _SuiteCases:
    """Graded second syzygy of a graded baby Verma is the Verma with
    highest weight raised by 2p, via an explicit degree-zero intertwiner."""

    def case(lam):
        Z = graded_verma_module(p, lam)
        om2 = heller_power(Z, 2)
        target = graded_verma_module(p, lam + 2 * p)
        res = is_isomorphic(om2, target)
        intertwiner_ok = False
        if res.status == "iso" and res.witness is not None:
            C = res.witness
            intertwiner_ok = rank(C) == om2.dim and all(
                (C @ om2.mat(g)) == (target.mat(g) @ C) for g in Z.algebra.gens
            )
        expected_weight = heller_orbit_verma(sl2_root_datum(p), lam, 1, 1)
        ok = res.status == "iso" and intertwiner_ok and expected_weight == lam + 2 * p
        if dump_dir:
            dump_module(om2, os.path.join(dump_dir, f"graded-orbit-p{p}-l{lam}.json"))
        return (
            {
                "iso_to_weight": lam + 2 * p,
                "intertwiner_degree": 0,
                "source": "orbit formula lambda + n*p^r*alpha",
            },
            {"status": res.status, "intertwiner_checked": intertwiner_ok},
            ok,
        )

    for lam in range(p - 1):
        yield {"p": p, "r": 1, "lambda": lam}, functools.partial(case, lam)


def suite_heart(p: int, seed: int, dump_dir=None) -> _SuiteCases:
    """Hearts of the height-two structured projectives: composition
    factor weights match the closed form; indecomposable, simple socle."""

    def case(lam):
        H = heart_module(p, 2, lam)
        factors = composition_factors(H)
        got_weights = tuple(sorted({idx for idx, _ in factors}))
        expected_weights = heart_weights(p, 2, lam)
        soc_structure, _ = socle(H)
        simple_socle = len(soc_structure) == 1 and soc_structure[0][1] == 1
        # a simple socle certifies indecomposability; split only without it
        indecomposable = simple_socle or len(meataxe_split(H, rng=seed)) == 1
        ok = got_weights == expected_weights and simple_socle and indecomposable
        if dump_dir:
            dump_module(H, os.path.join(dump_dir, f"heart-p{p}-l{lam}.json"))
        return (
            {
                "weights": list(expected_weights),
                "indecomposable": True,
                "simple_socle": True,
                "source": "heart weight closed form",
            },
            {
                "weights": list(got_weights),
                "indecomposable": indecomposable,
                "simple_socle": simple_socle,
                "factors": [[idx, mult] for idx, mult in factors],
            },
            ok,
        )

    for lam0 in range(p - 1):
        lam = lam0 + (p - 1) * p
        yield {"p": p, "r": 2, "lambda": lam}, functools.partial(case, lam)


def suite_cohom(p: int, seed: int, dump_dir=None) -> _SuiteCases:
    """Degree-2p cohomology of the height-two additive kernel three ways."""
    n = 2 * p

    def case():
        closed = cohom_dim(p, 2, n)
        enum = cohom_dim_by_enumeration(p, 2, n)
        resol = minimal_resolution_dims(p, 2, n).ext_dims[n]
        ok = closed == enum == resol == 2 * p + 1
        return (
            {"dim": 2 * p + 1, "source": "closed form binom(n+r-1, r-1)"},
            {"closed-form": closed, "enumeration": enum, "resolution": resol},
            ok,
        )

    yield {"p": p, "r": 2, "n": n}, case


def suite_blocks(p: int, seed: int, dump_dir=None) -> _SuiteCases:
    """Blocks partition the restricted weights; Steinberg is a singleton."""

    def case(r):
        seen = []
        for block in all_blocks(p, r):
            seen.extend(block_members(p, r, block))
        partition_ok = sorted(seen) == list(range(p**r))
        st = block_members(p, r, block_of(p, r, p**r - 1))
        ok = partition_ok and st == [p**r - 1]
        return (
            {
                "partition": True,
                "steinberg_members": [p**r - 1],
                "source": "digit pattern block definition",
            },
            {"partition": partition_ok, "steinberg_members": st},
            ok,
        )

    for r in (1, 2):
        yield {"p": p, "r": r}, functools.partial(case, r)


def suite_ub1(p: int, seed: int, dump_dir=None) -> _SuiteCases:
    """Complexity never exceeds the self-extension dimension in the
    checkpoint degrees, for all height-one simples and baby Vermas."""
    makers = {"simple": simple_module, "verma": verma_module}

    @functools.cache
    def trace(kind, lam):
        # one resolution serves the three checkpoint degrees of a module
        return ext_dims(makers[kind](p, 1, lam), 13)

    def case(kind, lam, n):
        report = ub1_bound_check(trace(kind, lam), 1, n)
        expected = {"inequality_holds": True, "source": "self-extension bound"}
        return expected, report, report["inequality_holds"]

    for kind in makers:
        for lam in range(p):
            for n in (1, 2, 3):
                inp = {"p": p, "r": 1, "module": kind, "lambda": lam, "n": n}
                yield inp, functools.partial(case, kind, lam, n)


def suite_meataxe_regular(p: int, seed: int, dump_dir=None) -> _SuiteCases:
    """The regular module of the restricted rank-one enveloping algebra
    splits into principal indecomposables with multiplicity lambda + 1."""

    def case():
        reg = regular_module(p)
        factors = meataxe_split(reg, rng=seed)
        mults = {lam: 0 for lam in range(p)}
        unmatched = 0
        for F in factors:
            matched = False
            for lam in range(p):
                if is_isomorphic(F, principal_indecomposable(p, 1, lam)).status == "iso":
                    mults[lam] += 1
                    matched = True
                    break
            if not matched:
                unmatched += 1
        expected_mults = {lam: lam + 1 for lam in range(p)}
        expected_dims = sorted(
            [2 * p] * sum(lam + 1 for lam in range(p - 1)) + [p] * p
        )
        got_dims = sorted(F.dim for F in factors)
        ok = mults == expected_mults and unmatched == 0 and got_dims == expected_dims
        if dump_dir:
            dump_module(reg, os.path.join(dump_dir, f"regular-p{p}.json"))
            for i, F in enumerate(factors):
                dump_module(F, os.path.join(dump_dir, f"regular-p{p}-factor{i}.json"))
        return (
            {
                "multiplicities": {str(k): v for k, v in expected_mults.items()},
                "dims": expected_dims,
                "source": "Wedderburn multiplicities dim of simple",
            },
            {
                "multiplicities": {str(k): v for k, v in mults.items()},
                "dims": got_dims,
                "unmatched": unmatched,
            },
            ok,
        )

    yield {"p": p, "r": 1, "module": "regular"}, case


_SUITES = {
    "verma-period": suite_verma_period,
    "graded-orbit": suite_graded_orbit,
    "heart": suite_heart,
    "cohom": suite_cohom,
    "blocks": suite_blocks,
    "ub1": suite_ub1,
    "meataxe-regular": suite_meataxe_regular,
}


def run_verify(
    suite: str,
    p: int,
    seed: int,
    budget_ms: Optional[int] = None,
    dump_dir: Optional[str] = None,
) -> dict:
    """Run one verify suite (or all) and assemble the report.

    The budget is checked before each case: once it is spent, every case
    not yet started is reported inconclusive and none of them runs.  A
    case that has started runs to its end, so the budget counts as
    exceeded whenever the run ends past its deadline.  `dump_dir`, when
    given, must be a directory (`_make_dump_dir`).
    """
    names = list(_SUITES) if suite == "all" else [suite]
    start = time.monotonic()
    deadline = None if budget_ms is None else start + budget_ms / 1000.0
    cases = []
    for name in names:
        for inp, run in _SUITES[name](p, seed, dump_dir=dump_dir):
            if deadline is not None and time.monotonic() > deadline:
                case = {
                    "input": inp,
                    "expected": {},
                    "got": {},
                    "status": "inconclusive",
                    "note": "budget exhausted before this case",
                }
            else:
                case = _case(inp, *run())
            case["suite"] = name
            cases.append(case)
    end = time.monotonic()
    return {
        "suite": suite,
        "p": p,
        "seed": seed,
        "cases": cases,
        "wall_ms": int((end - start) * 1000),
        "budget_exceeded": deadline is not None and end > deadline,
        "passed": all(c["status"] != "fail" for c in cases),
    }


def _make_dump_dir(path: Optional[str]) -> None:
    """Create the --dump-dir directory, or raise ValueError if it cannot be
    created, so that bad input stops before any suite runs."""
    if not path:
        return
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--dump-dir {path}: {exc.strerror}") from None


def _cmd_verify(args) -> int:
    _check_verify_prime(args.p)
    seed = _resolve_seed(args)
    _make_dump_dir(args.dump_dir)
    report = run_verify(
        args.suite, args.p, seed, budget_ms=args.budget_ms, dump_dir=args.dump_dir
    )
    _emit(args, report, _STANDING, True, _verify_text(args.suite, report))
    return 0 if report["passed"] else 2


def _verify_text(suite: str, report: dict):
    # a generator, so the JSON output never formats these lines
    for case in report["cases"]:
        tag = case.get("suite", suite)
        yield f"{case['status']:>6}  {tag}  {json.dumps(case['input'], sort_keys=True)}"
    verdict = "PASS" if report["passed"] else "FAIL"
    yield f"suite {suite}: {verdict} ({len(report['cases'])} cases, {report['wall_ms']} ms)"


# ---------------------------------------------------------------------------
# argument wiring


def _odd_prime(text: str) -> int:
    p = int(text)
    try:
        check_odd_prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p


# the largest prime at which every verify suite can run: meataxe-regular
# splits the p^3-dimensional regular module of u(sl2), and the MeatAxe takes
# at most 2000 dimensions (algrep._MEATAXE_DIM_BOUND)
_VERIFY_MAX_P = 11


def _check_verify_prime(p: int) -> None:
    if p > _VERIFY_MAX_P:
        raise ValueError(f"verify runs at p <= {_VERIFY_MAX_P}, got {p}")


def _height(text: str) -> int:
    r = int(text)
    try:
        check_height(r)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return r


def _nonnegative(text: str, what: str) -> int:
    error = argparse.ArgumentTypeError(f"{text} is not {what}")
    try:
        value = int(text)
    except ValueError:
        raise error from None
    if value < 0:
        raise error
    return value


def _budget(text: str) -> int:
    return _nonnegative(text, "a budget >= 0 ms")


def _seed(text: str) -> int:
    return _nonnegative(text, "a seed >= 0")


def _add_common(sp, *, p=True, r=True, lam=False, n=False, s=False):
    if p:
        sp.add_argument("--p", type=_odd_prime, required=True, help="odd prime >= 3")
    if r:
        sp.add_argument("--r", type=_height, required=True, help="kernel height")
    if lam:
        sp.add_argument("--lambda", dest="lam", type=int, required=True, help="weight")
    if n:
        sp.add_argument("--n", type=int, required=True)
    if s:
        sp.add_argument("--s", type=int)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--seed", type=_seed)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frobkern", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("block", "block-members", "complexity", "classify-block"):
        _add_common(sub.add_parser(name), lam=True)
    sp = sub.add_parser("depth")
    _add_common(sp, r=False, lam=True)
    for name in ("ph", "period", "heart-weights"):
        _add_common(sub.add_parser(name), lam=True)

    sp = sub.add_parser("heller-orbit")
    _add_common(sp, lam=True)
    sp.add_argument("--n", type=int, default=1, help="orbit step count")

    sp = sub.add_parser("classify-component")
    sp.add_argument("--context", choices=("G_r", "G_rT"), required=True)
    sp.add_argument(
        "--evidence",
        choices=("complexity-1", "simple-cx2", "verma", "generic"),
        required=True,
    )
    sp.add_argument("--p", type=_odd_prime)
    sp.add_argument("--r", type=_height)
    _add_common(sp, p=False, r=False, s=True)

    sp = sub.add_parser("cohom")
    _add_common(sp, n=True)
    sp.add_argument(
        "--method",
        choices=("closed-form", "enumeration", "resolution", "all"),
        default="closed-form",
    )

    sp = sub.add_parser("verify")
    sp.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    sp.add_argument("--p", type=_odd_prime, default=3)
    _add_common(sp, p=False, r=False)
    sp.add_argument("--budget-ms", dest="budget_ms", type=_budget)
    sp.add_argument("--dump-dir", dest="dump_dir", help="write constructed modules as JSON")
    return parser


_HANDLERS = {
    "block": (_cmd_block, _STANDING),
    "block-members": (_cmd_block_members, _STANDING),
    "complexity": (_cmd_complexity, _STANDING),
    "depth": (_cmd_depth, _STANDING),
    "ph": (_cmd_ph, _FLAG_HYPOTHESES + ["depth(lambda) <= r"]),
    "period": (_cmd_period, _FLAG_HYPOTHESES + ["depth(lambda) <= r"]),
    "heller-orbit": (
        _cmd_heller_orbit,
        _FLAG_HYPOTHESES
        + ["depth(lambda) == r", "unique simple root outside Psi^r"],
    ),
    "heart-weights": (_cmd_heart_weights, _STANDING),
    "classify-block": (_cmd_classify_block, _STANDING),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "classify-component":
            result = _cmd_classify_component(args)
            _emit(args, result, _COMPONENT_HYPOTHESES[args.evidence], False)
            return 0
        if args.command == "cohom":
            result, verified, disagree = _cmd_cohom(args)
            _emit(args, result, _STANDING, verified)
            return 2 if disagree else 0
        handler, hypotheses = _HANDLERS[args.command]
        _emit(args, handler(args), hypotheses, False)
        return 0
    except HypothesisError as exc:
        print(f"frobkern: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"frobkern: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

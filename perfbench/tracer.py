"""In-memory span tracing of frobkern's public functions, from outside.

`install()` replaces every public function of the traced modules (and
`FpMat.__matmul__`) with a wrapper that records one span per call: name,
start, end, parent span and phase.  Nothing under `src/` changes; the
wrappers are bound into the module namespaces of this process only.

Each wrapped function belongs to a *layer* (a metric prefix such as
`algrep.hom_space` or `sl2dist.modules`).  A call from one function of a
layer straight into another function of the same layer (for example
`meataxe_split` delegating to `meataxe_split_with_bases`) is delegation:
its time is recorded as a span, but it is not counted as a second call.

Self time of a span is its duration minus the durations of its direct
child spans.  The outcome observers (operation counts, the content hash
behind `hom_space.repeat_share`) run after the child span has closed; their
time is also taken out of the parent's self time and summed per phase in
`Tracer.observe_s`.  So the self times of all spans plus `observe_s` sum to
the duration of the root spans.  The wrapper's remaining bookkeeping lands
in the parent's self time; the benchmark reports the whole cost of tracing
separately as the tracing overhead.

Calls, self times and operation counts cover both phases, set-up and
solve; the phase column of the span file splits them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from typing import Callable, Dict, List

TRACED_MODULES = ("fplinalg", "algrep", "sl2dist", "gacohom", "weightcomb", "cli")

# algebra constructors: lru_cached, so their first call per argument is the
# cold build that set-up pays
COLD_CONSTRUCTORS = {
    "sl2dist.restricted_sl2",
    "sl2dist.graded_restricted_sl2",
    "sl2dist.distribution_sl2",
    "gacohom.truncated_poly_algebra",
}

SL2DIST_MODULE_CONSTRUCTORS = {
    "simple_module",
    "graded_simple_module",
    "verma_module",
    "graded_verma_module",
    "principal_indecomposable",
    "graded_principal_indecomposable",
    "heart_module",
    "frobenius_twist",
    "regular_module",
}

# hom_space inputs with m*n at most this are "small"; the bucket is a property
# of the input, chosen to match the size where the program switches route
HOM_SMALL_LIMIT = 256


def layer_of(module: str, name: str) -> str:
    """Metric prefix of the public function `module.name`."""
    if module == "weightcomb":
        return "weightcomb"
    if module == "cli":
        return "cli"
    if module == "sl2dist" and name in SL2DIST_MODULE_CONSTRUCTORS:
        return "sl2dist.modules"
    if module == "algrep" and name == "meataxe_split_with_bases":
        return "algrep.meataxe_split"
    return f"{module}.{name}"


def module_digest(M) -> bytes:
    """Content hash of a module: algebra, generator matrices and grading."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{M.algebra.algebra_id}|{M.algebra.p}|{M.dim}|{M.grading}".encode())
    for g in M.algebra.gens:
        h.update(M.mat(g).a.tobytes())
    return h.digest()


class Tracer:
    def __init__(self):
        self.phase = "setup"
        # one entry per span in each list, indexed by span id
        self.names: List[str] = []
        self.layers: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.phases: List[str] = []
        self.child_time: List[float] = []
        self.counted: List[bool] = []
        self.cold: List[bool] = []
        self.stack: List[int] = []
        self.seen_args: set = set()
        self.counts: Dict[str, float] = {}
        self.hom_pairs: set = set()
        self.hom_bucket: Dict[int, str] = {}  # span index -> size bucket
        self.observe_s: Dict[str, float] = {"setup": 0.0, "solve": 0.0}

    # -- recording ------------------------------------------------------
    def _open(self, name: str, layer: str) -> int:
        idx = len(self.names)
        parent = self.stack[-1] if self.stack else -1
        counted = not (
            parent >= 0 and self.layers[parent] == layer and self.names[parent] != name
        )
        self.names.append(name)
        self.layers.append(layer)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(parent)
        self.phases.append(self.phase)
        self.child_time.append(0.0)
        self.counted.append(counted)
        self.cold.append(False)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1
        parent = self.parents[idx]
        if parent >= 0:
            self.child_time[parent] += t1 - t0

    def _observed(self, idx: int, seconds: float) -> None:
        # observer time is nobody's self time
        self.observe_s[self.phases[idx]] += seconds
        parent = self.parents[idx]
        if parent >= 0:
            self.child_time[parent] += seconds

    def bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn: Callable, name: str, layer: str, observe=None) -> Callable:
        tracer = self
        cold_check = name in COLD_CONSTRUCTORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, layer)
            if cold_check:
                key = (name, args, tuple(sorted(kwargs.items())))
                if key not in tracer.seen_args:
                    tracer.seen_args.add(key)
                    tracer.cold[idx] = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._close(idx, t0, t1)
            if observe is not None and tracer.counted[idx]:
                t2 = time.perf_counter()
                observe(tracer, idx, args, result)
                tracer._observed(idx, time.perf_counter() - t2)
            return result

        return traced

    # -- derived --------------------------------------------------------
    def self_times(self) -> List[float]:
        return [e - s - c for s, e, c in zip(self.starts, self.ends, self.child_time)]

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, name, layer, start, end, parent, phase.

        Times are seconds from the first span's start; parent is -1 for a root.
        """
        base = min(self.starts) if self.starts else 0.0
        with open(path, "w") as fh:
            for i in range(len(self.names)):
                fh.write(
                    json.dumps(
                        [
                            i,
                            self.names[i],
                            self.layers[i],
                            round(self.starts[i] - base, 9),
                            round(self.ends[i] - base, 9),
                            self.parents[i],
                            self.phases[i],
                        ]
                    )
                )
                fh.write("\n")


# ---------------------------------------------------------------------------
# outcome observers (run after the timed call, outside its span and outside
# the parent's self time)


def _observe_rref(tracer: Tracer, idx: int, args, result) -> None:
    m = args[0]
    tracer.bump("fplinalg.rref.ops", m.rows * m.cols * result.rank)


def _observe_matmul(tracer: Tracer, idx: int, args, result) -> None:
    a, b = args[0], args[1]
    tracer.bump("fplinalg.matmul.ops", a.rows * a.cols * b.cols)


def _observe_hom(tracer: Tracer, idx: int, args, result) -> None:
    M, N = args[0], args[1]
    if M.graded and N.graded:
        tracer.hom_bucket[idx] = "graded"
    elif M.dim * N.dim <= HOM_SMALL_LIMIT:
        tracer.hom_bucket[idx] = "small"
    else:
        tracer.hom_bucket[idx] = "large"
    if not result:
        tracer.bump("algrep.hom_space.empty")
    key = (module_digest(M), module_digest(N))
    if key in tracer.hom_pairs:
        tracer.bump("algrep.hom_space.repeat")
    else:
        tracer.hom_pairs.add(key)


def _observe_meataxe(tracer: Tracer, idx: int, args, result) -> None:
    tracer.bump("algrep.meataxe_split.summands", len(result))


def _observe_iso(tracer: Tracer, idx: int, args, result) -> None:
    if result.status == "iso" and result.witness is None:
        tracer.bump("algrep.is_isomorphic.iso_without_witness")


OBSERVERS = {
    "fplinalg.rref": _observe_rref,
    "fplinalg.matmul": _observe_matmul,
    "algrep.hom_space": _observe_hom,
    "algrep.meataxe_split": _observe_meataxe,
    "algrep.meataxe_split_with_bases": _observe_meataxe,
    "algrep.is_isomorphic": _observe_iso,
}


def install() -> Tracer:
    """Wrap the public functions of the imported frobkern modules."""
    tracer = Tracer()
    modules = {m: sys.modules[f"frobkern.{m}"] for m in TRACED_MODULES}
    replacements = {}
    for short, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            full = f"{short}.{name}"
            replacements[id(obj)] = tracer.wrap(
                obj, full, layer_of(short, name), OBSERVERS.get(full)
            )
    # rebind every name that refers to an original, including names that
    # one module imported from another (each wrapper keeps its original
    # alive, so the ids stay unique)
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in replacements:
                setattr(mod, name, replacements[id(obj)])
    fpmat_cls = modules["fplinalg"].FpMat
    fpmat_cls.__matmul__ = tracer.wrap(
        fpmat_cls.__matmul__, "fplinalg.matmul", "fplinalg.matmul", _observe_matmul
    )
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics

CALL_LAYERS = (
    "fplinalg.rref",
    "fplinalg.kernel_basis",
    "fplinalg.solve",
    "fplinalg.inverse",
    "fplinalg.matmul",
    "algrep.hom_space",
    "algrep.top",
    "algrep.radical",
    "algrep.socle",
    "algrep.projective_cover",
    "algrep.heller",
    "algrep.stable_hom_dim",
    "algrep.meataxe_split",
    "algrep.is_isomorphic",
    "algrep.composition_factors",
    "algrep.submodule",
    "algrep.quotient",
    "sl2dist.modules",
)
SELF_ONLY_LAYERS = (
    "gacohom.minimal_resolution_dims",
    "gacohom.cohom_dim_by_enumeration",
    "weightcomb",
    "cli",
)
HOM_BUCKETS = ("graded", "small", "large")
OUTCOME_COUNTS = (
    "fplinalg.rref.ops",
    "fplinalg.matmul.ops",
    "algrep.meataxe_split.summands",
    "algrep.is_isomorphic.iso_without_witness",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer == "algrep.hom_space":
            units["algrep.hom_space.empty_share"] = "ratio"
            units["algrep.hom_space.repeat_share"] = "ratio"
            for bucket in HOM_BUCKETS:
                units[f"algrep.hom_space.{bucket}.calls"] = "count"
                units[f"algrep.hom_space.{bucket}.self_s"] = "s"
    for name in OUTCOME_COUNTS:
        units[name] = "count"
    for name in sorted(COLD_CONSTRUCTORS):
        units[f"{name}.cold_s"] = "s"
    for layer in SELF_ONLY_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer values of one traced process, from its spans and counts.

    `trace.overhead_s` needs untraced repetitions; the driver computes it.
    """
    selfs = tracer.self_times()
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    cold_s: Dict[str, float] = {}
    for i, layer in enumerate(tracer.layers):
        self_s[layer] = self_s.get(layer, 0.0) + selfs[i]
        if tracer.counted[i]:
            calls[layer] = calls.get(layer, 0) + 1
        if tracer.cold[i]:
            name = tracer.names[i]
            cold_s[name] = cold_s.get(name, 0.0) + tracer.ends[i] - tracer.starts[i]
    for i, bucket in tracer.hom_bucket.items():
        key = f"algrep.hom_space.{bucket}"
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + selfs[i]
    out: Dict[str, float] = {}
    for name in per_layer_units():
        if name == "trace.overhead_s":
            continue
        prefix, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(prefix, 0)
        elif kind == "self_s":
            out[name] = self_s.get(prefix, 0.0)
        elif kind == "cold_s":
            out[name] = cold_s.get(prefix, 0.0)
        else:
            out[name] = tracer.counts.get(name, 0)
    homs = max(calls.get("algrep.hom_space", 0), 1)
    out["algrep.hom_space.empty_share"] = tracer.counts.get("algrep.hom_space.empty", 0) / homs
    out["algrep.hom_space.repeat_share"] = tracer.counts.get("algrep.hom_space.repeat", 0) / homs
    return out

"""Per-layer spans recorded from outside the library.

install() replaces each traced function at every module attribute that binds
it (so `verify.refine_minimum`, imported from `mixed`, is caught as well as
`mixed.refine_minimum`, and calls a module makes to its own functions go
through the wrapper because they are global lookups).  Spans stay in memory
as (function, start, end, parent span, operation id) and are written out by
dump() after the run.

Every count and time is weighted by the weight begin_op() gives the
operation it belongs to (1 / the number of passes), so the metrics are per
pass.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> functions that get a span
SPANNED = {
    "states": ("symmetric_power", "apply_diag_symmetric", "apply_lu", "to_density"),
    "majorana": ("majorana_points", "find_roots", "cluster_points"),
    "rotmatch": ("all_matching_rotations", "symmetry_group", "closure"),
    "classify": ("classify_state", "lu_equivalent_pure"),
    "mixed": ("lu_equivalent_mixed", "refine_minimum"),
    "_kernels": ("polish_roots", "conj_distance_batch", "conj_distance_single", "diag_phase_residual"),
    "verify": (
        "stabilizer_anomalies",
        "sample_stabilizer",
        "class_membership_distance",
        "check_stabilizes",
        "lu_equivalent_pure_bruteforce",
    ),
}
# functions too small and too frequent for a span: counted only
COUNTED = {"states": ("is_unitary",)}


def _batch_counts(args, kwargs, result):
    """Computed, not measured: dense conjugation of 2^n matrices per lattice point.

    Per point the numpy path builds g^(x)n (about 4/3 4^n complex products),
    multiplies two D x D complex matrices (2 * 8 D^3 real flops, D = 2^n) and
    forms the difference and its norm (about 4 D^2 flops).  Bytes count the
    complex128 arrays read or written once each: the kron power, rho,
    the intermediate product, the conjugated matrix, the target and the
    difference, about ten D x D arrays of 16 bytes.
    """
    points = len(args[0])
    d2 = 4 ** args[3]
    flop = 16.0 * d2 ** 1.5 + 12.0 * d2
    return {
        "points": points,
        "gflop_computed": points * flop / 1e9,
        "gbytes_computed": points * 160.0 * d2 / 1e9,
    }


# (module, function) -> (counters with units, counter function of args, kwargs, result)
EXTRA_COUNTS = {
    ("_kernels", "conj_distance_batch"): (
        (("points", "count"), ("gflop_computed", "GFLOP"), ("gbytes_computed", "GB")),
        _batch_counts,
    ),
    ("_kernels", "diag_phase_residual"): ((("rows", "count"),), lambda a, k, r: {"rows": len(r)}),
    ("rotmatch", "all_matching_rotations"): ((("rotations", "count"),), lambda a, k, r: {"rotations": len(r)}),
    ("verify", "sample_stabilizer"): ((("witnesses", "count"),), lambda a, k, r: {"witnesses": len(r)}),
    ("classify", "lu_equivalent_pure"): ((("none", "count"),), lambda a, k, r: {"none": int(r is None)}),
    ("classify", "classify_state"): ((("errors", "count"),), None),
}
MIXED_STATUSES = ("equivalent", "inequivalent_spectrum", "undecided")


def layer(mod: str) -> str:
    """Metric prefix of a module: metric names must start with a letter."""
    return mod.lstrip("_")


def metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, fns in SPANNED.items():
        out.append((f"{layer(mod)}.self_s", "s"))
        for fn in fns:
            out += [(f"{layer(mod)}.{fn}.calls", "count"), (f"{layer(mod)}.{fn}.s", "s")]
            for name, unit in EXTRA_COUNTS.get((mod, fn), ((),))[0]:
                out.append((f"{layer(mod)}.{fn}.{name}", unit))
    for mod, fns in COUNTED.items():
        out += [(f"{layer(mod)}.{fn}.calls", "count") for fn in fns]
    out += [(f"mixed.status.{s}", "count") for s in MIXED_STATUSES]
    out += [("harness.self_s", "s"), ("trace.overhead_frac", "frac")]
    return out


# Layer times that are positive on every workload.  The other layer times
# are zero in every run of a workload that never reaches the layer, and a
# zero that repeats is no measurement, so the summary line of a traced run
# carries only these times (and every count); each layer time still gets its
# own output line.
ALWAYS_TIMED = ("states.self_s", "kernels.self_s", "harness.self_s")


def summary_names() -> list:
    """(name, unit) of the per-layer metrics in a traced run's summary line."""
    return [(name, unit) for name, unit in metric_names() if unit != "s" or name in ALWAYS_TIMED]


class Tracer:
    def __init__(self):
        self.names: list = []  # function id -> (module, function)
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(float)  # (module, function, counter) -> total
        self.statuses = defaultdict(float)
        self.op_id = -1
        self.weight = 1.0
        self.weights: list = []  # operation id -> weight
        self._patches: list = []

    def begin_op(self, op_id: int, weight: float):
        """Spans and counts from here on belong to operation op_id, with the given weight."""
        self.op_id = op_id
        self.weight = weight
        self.weights.append(weight)

    def _span_wrapper(self, fid, fn, extra):
        spans, stack, counts, key = self.spans, self.stack, self.counts, self.names[fid]
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[key + ("errors",)] += tracer.weight
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.op_id)
            if extra is not None:
                for name, value in extra(args, kwargs, result).items():
                    counts[key + (name,)] += value * tracer.weight
            if key == ("mixed", "lu_equivalent_mixed"):
                tracer.statuses[result.status] += tracer.weight
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        counts, tracer = self.counts, self

        def wrapper(*args, **kwargs):
            counts[key + ("calls",)] += tracer.weight
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "symmlu" or name.startswith("symmlu.")]
        targets = []
        for mod, fns in SPANNED.items():
            for fn in fns:
                fid = len(self.names)
                self.names.append((mod, fn))
                orig = getattr(sys.modules[f"symmlu.{mod}"], fn)
                extra = EXTRA_COUNTS.get((mod, fn), (None, None))[1]
                targets.append((orig, self._span_wrapper(fid, orig, extra)))
        for mod, fns in COUNTED.items():
            for fn in fns:
                orig = getattr(sys.modules[f"symmlu.{mod}"], fn)
                targets.append((orig, self._count_wrapper((mod, fn), orig)))
        for orig, wrapper in targets:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction ---------------------------------------------------------

    def metrics(self, latencies) -> dict:
        """Per-layer metrics per pass; latencies are the traced calls' wall times by operation id."""
        child = [0.0] * len(self.spans)
        for fid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(float)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        roots = 0.0
        for i, (fid, t0, t1, parent, op) in enumerate(self.spans):
            key, w = self.names[fid], self.weights[op]
            calls[key] += w
            incl[key] += w * (t1 - t0)
            self_s[key[0]] += w * (t1 - t0 - child[i])
            if parent < 0:
                roots += w * (t1 - t0)
        values = {f"{layer(mod)}.self_s": total for mod, total in self_s.items()}
        for (mod, fn), n in calls.items():
            values[f"{layer(mod)}.{fn}.calls"] = n
            values[f"{layer(mod)}.{fn}.s"] = incl[(mod, fn)]
        for (mod, fn, name), total in self.counts.items():
            values[f"{layer(mod)}.{fn}.{name}"] = total
        for status, n in self.statuses.items():
            values[f"mixed.status.{status}"] = n
        values["harness.self_s"] = sum(w * t for w, t in zip(self.weights, latencies)) - roots
        return {name: (values.get(name, 0.0), unit) for name, unit in metric_names() if name != "trace.overhead_frac"}

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write("op,module,function,start_s,end_s,parent\n")
            base = self.spans[0][1] if self.spans else 0.0
            for fid, t0, t1, parent, op in self.spans:
                mod, fn = self.names[fid]
                fh.write(f"{op},{mod},{fn},{t0 - base:.9f},{t1 - base:.9f},{parent}\n")

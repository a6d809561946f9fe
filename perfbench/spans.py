"""Spans around the calls into each torsion_orbits layer, and the per-layer
metrics derived from them.

The tracer lives in the benchmark, not in the program: ``Tracer.install``
rebinds every public function of the package's modules (and the numpy/scipy
linear-algebra primitives they call) to a timing wrapper, in every
namespace that holds it.  A span is ``[id, parent, name, start_ns, end_ns,
error, counts]``; spans stay in memory until the traced command ends.

``layer_metrics`` turns the spans of one pass of a workload into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("groups", "subspaces", "torsion", "curves", "surface", "sweeps",
          "reports", "cli")

#: Linear-algebra primitives: numpy.linalg attributes, and the scipy.linalg
#: names the package imports into its own modules.
NUMPY_LINALG = ("svd", "qr", "eig", "eigh", "det", "matrix_power")
SCIPY_LINALG = ("schur", "expm", "polar", "subspace_angles")

#: Methods traced besides module-level functions.
METHODS = {"reports": (("VerificationReport", "to_json"),
                       ("VerificationReport", "to_dict"),
                       ("TrialRecord", "__post_init__"))}


def _trials(result):
    """Trial counts of a report returned by a sweeps-layer function."""
    trials = getattr(result, "trials", None)
    if not isinstance(trials, list):
        return None
    return {"trials": len(trials),
            "rejected": sum(t.status == "rejected" for t in trials)}


#: Counters read off a traced call's result, by span name.
COUNTERS = {
    "torsion.catalog_components": lambda r: {"classes": len(r)},
    "torsion.invariant_set": lambda r: {"classes": len(r)},
    "torsion.count_components": lambda r: {"classes": int(r)},
    "torsion.cluster_census": lambda r: {"draws": len(r.trials)},
    "sweeps.random_torsion_element": lambda r: {"draws": 1},
    "reports.VerificationReport.to_json": lambda r: {"bytes": len(r.encode())},
    "reports.TrialRecord.__post_init__": lambda r: {"records": 1},
    "surface.sample_surface": lambda r: {"surface_points": len(r)},
}


class Tracer:
    """Records one span per traced call.  Calls made on worker threads
    with no open span of their own are parented to the innermost open span
    of the main thread, which is the call that started the workers."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns
        cache_info = getattr(fn, "cache_info", None)
        counter = COUNTERS.get(name)
        if counter is None and name.startswith("sweeps."):
            counter = _trials

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(ids)
            misses = cache_info().misses if cache_info else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append([sid, parent, name, start, end, 1, None])
                raise
            end = clock()
            stack.pop()
            counts = counter(result) if counter else None
            if name == "torsion.enumerate_torsion":
                # only a cache miss enumerates points
                fresh = not cache_info or cache_info().misses > misses
                counts = {"points": len(result) if fresh else 0}
            spans.append([sid, parent, name, start, end, 0, counts])
            return result

        return traced

    def install(self):
        """Rebind the traced names in every torsion_orbits namespace."""
        import numpy.linalg
        import scipy.linalg

        import torsion_orbits
        from torsion_orbits import (cli, curves, groups, reports, subspaces,
                                    surface, sweeps, torsion)

        modules = dict(zip(LAYERS, (groups, subspaces, torsion, curves,
                                    surface, sweeps, reports, cli)))
        originals = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    continue
                originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}",
                                             getattr(cls, meth)))
        for attr in SCIPY_LINALG:
            obj = getattr(scipy.linalg, attr)
            originals[id(obj)] = (obj, self.wrap(f"linalg.{attr}", obj))
        for attr in NUMPY_LINALG:
            setattr(numpy.linalg, attr,
                    self.wrap(f"linalg.{attr}", getattr(numpy.linalg, attr)))

        def wrapper_of(obj):
            entry = originals.get(id(obj))
            return entry[1] if entry and entry[0] is obj else None

        for module in (torsion_orbits, *modules.values()):
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if wrapper_of(obj):
                    namespace[attr] = wrapper_of(obj)
                elif isinstance(obj, dict):  # dispatch tables
                    for key, value in obj.items():
                        if wrapper_of(value):
                            obj[key] = wrapper_of(value)


# ---------------------------------------------------------------------------
# aggregation

#: Named groups of functions: <metric stem> -> names.  A group's calls and
#: time count only its outermost spans, so a call nested in another call of
#: the same group is not counted twice.
GROUPS = {
    "torsion.enumerate": ("torsion.enumerate_torsion",),
    "torsion.canonicalize": ("torsion.canonicalize",),
    "torsion.align": ("torsion.canonical_align", "torsion.matrix_invariant"),
    "torsion.dimension": ("torsion.component_dimension",),
    "groups.adjoint": ("groups.adjoint_matrix",),
    "groups.random_element": ("groups.random_element",),
    "groups.membership": ("groups.membership_residual",
                          "groups.require_member"),
    "subspaces.rank": ("subspaces.image_basis", "subspaces.kernel_basis"),
    "subspaces.angles": ("subspaces.principal_angles",),
    "curves.curve": ("curves.conjugation_curve",),
    "curves.kernel": ("curves.curve_kernel_check",),
    "curves.product": ("curves.product_identity_check",),
    "linalg.schur": ("linalg.schur",),
    "linalg.expm": ("linalg.expm",),
    "linalg.svd": ("linalg.svd",),
    "linalg.qr": ("linalg.qr",),
    "reports.to_json": ("reports.VerificationReport.to_json",),
    "reports.digest": ("reports.inputs_digest",),
    "surface.sample": ("surface.sample_surface",),
    "surface.gradient": ("surface.surface_gradient",),
    "surface.export": ("surface.export_points_csv",),
}

#: Per-layer metric names, in the order BENCHMARK.json lists them.
PER_LAYER = (
    [f"{layer}.{m}" for layer in (*LAYERS, "linalg")
     for m in ("calls", "self_s", "errors")]
    + ["torsion.enumerate_s", "torsion.points_enumerated",
       "torsion.canonicalize_calls", "torsion.canonicalize_s",
       "torsion.useful_ratio", "torsion.align_calls", "torsion.align_s",
       "torsion.dimension_s",
       "groups.adjoint_calls", "groups.adjoint_s",
       "groups.random_element_calls", "groups.random_element_s",
       "groups.membership_calls", "groups.membership_s",
       "subspaces.rank_calls", "subspaces.rank_s", "subspaces.angles_s",
       "curves.curve_s", "curves.kernel_s", "curves.product_s",
       "linalg.schur_calls", "linalg.schur_s", "linalg.expm_calls",
       "linalg.expm_s", "linalg.svd_calls", "linalg.svd_s",
       "linalg.qr_calls", "linalg.qr_s",
       "sweeps.trials", "sweeps.rejected", "sweeps.per_trial_ms",
       "reports.to_json_s", "reports.digest_s", "reports.records",
       "reports.bytes_out", "cli.bytes_out",
       "surface.sample_s", "surface.gradient_calls", "surface.export_s",
       "surface.points",
       "import.numpy_s", "import.scipy_s", "import.torsion_orbits_s",
       "tracing.overhead_ratio"])

def metric_unit(name: str) -> str:
    if name.endswith("bytes_out"):
        return "bytes"
    suffix = name.rsplit("_", 1)[-1]
    return suffix if suffix in ("s", "ms", "ratio") else "count"


def _union_ns(intervals):
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans):
    """span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end, _, _ in spans:
        covered = _union_ns((max(s, start), min(e, end))
                            for s, e in children.get(sid, ()) if e > start and s < end)
        out[sid] = end - start - covered
    return out


def _outermost(parent_of, by_name, names):
    """(calls, total ns) of the spans named in ``names`` that have no
    ancestor named in ``names``."""
    group = [s for name in names for s in by_name.get(name, ())]
    ids = {s[0] for s in group}
    calls = total = 0
    for sid, parent, _, start, end, _, _ in group:
        while parent and parent not in ids:
            parent = parent_of[parent]
        if not parent:
            calls += 1
            total += end - start
    return calls, total


def layer_metrics(commands):
    """Per-layer metrics of one traced pass.

    ``commands`` holds one dict per command of the pass, with ``spans``,
    ``imports`` (module -> self seconds, from -X importtime) and
    ``bytes_out`` (stdout size).
    """
    m = defaultdict(float)
    for layer in (*LAYERS, "linalg"):
        for stat in ("calls", "self_s", "errors"):
            m[f"{layer}.{stat}"] = 0.0
    counts = defaultdict(int)
    for cmd in commands:
        spans = cmd.get("spans", [])
        self_ns = self_times_ns(spans)
        for span in spans:
            sid, _, name, _, _, error, extra = span
            layer = name.split(".", 1)[0]
            m[f"{layer}.calls"] += 1
            m[f"{layer}.self_s"] += self_ns[sid] / 1e9
            m[f"{layer}.errors"] += error
            for key, value in (extra or {}).items():
                counts[key] += value
            if extra and "trials" in extra:
                counts["sweep_ns"] += span[4] - span[3]
        parent_of = {span[0]: span[1] for span in spans}
        by_name = defaultdict(list)
        for span in spans:
            by_name[span[2]].append(span)
        for stem, names in GROUPS.items():
            calls, ns = _outermost(parent_of, by_name, names)
            m[f"{stem}_calls"] += calls
            m[f"{stem}_s"] += ns / 1e9
        m["cli.bytes_out"] += cmd.get("bytes_out", 0)
    m["torsion.points_enumerated"] = counts["points"]
    useful = counts["classes"] + counts["draws"]
    m["torsion.useful_ratio"] = useful / max(counts["points"], 1)
    m["sweeps.trials"] = counts["trials"]
    m["sweeps.rejected"] = counts["rejected"]
    m["sweeps.per_trial_ms"] = (counts["sweep_ns"] / 1e6
                                / max(counts["trials"], 1))
    m["reports.records"] = counts["records"]
    m["reports.bytes_out"] = counts["bytes"]
    m["surface.points"] = counts["surface_points"]
    for name in ("numpy", "scipy", "torsion_orbits"):
        m[f"import.{name}_s"] = statistics.median(
            c.get("imports", {}).get(name, 0.0) for c in commands)
    return {name: m[name] for name in PER_LAYER if name in m}

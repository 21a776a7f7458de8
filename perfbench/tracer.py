"""Span tracer that wraps library functions from outside the library.

Each listed function is replaced, in every ``siegeljacobi`` module namespace
that binds it (and on its class, for methods), by a wrapper that records a
span (name, start, end, parent) in memory.  A function's self time is its
span's duration minus the time its child spans cover; the time the tracer
spends in its own counter hooks is charged to no span.  Nothing under
``src/`` is modified on disk, and ``uninstall`` restores every binding.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


class TracerError(RuntimeError):
    """A traced function is missing, or a layer a workload uses saw no calls."""


def _fired(rec, args, kwargs, result):
    _, step = result
    eye = np.eye(step.g, dtype=int)
    if not (np.array_equal(step.A, eye) and np.array_equal(step.D, eye)
            and not np.any(step.B) and not np.any(step.C)):
        rec("siegel.highest_point_step.fired", 1)


#: (module, attribute path, metric base name, counter hook or None).
#: Hooks receive (add, args, kwargs, result) and must not call traced code.
TARGETS = (
    ("intmat", "as_imat", "intmat.as_imat", None),
    ("intmat", "int_det", "intmat.int_det", None),
    ("intmat", "int_inv_unimodular", "intmat.int_inv_unimodular", None),
    ("group_core", "symplectic_check", "group_core.symplectic_check", None),
    ("group_core", "SymplecticInt.__mul__", "group_core.SymplecticInt.__mul__", None),
    ("group_core", "SymplecticInt.is_identity", "group_core.SymplecticInt.is_identity", None),
    ("group_core", "act_siegel", "group_core.act_siegel", None),
    ("group_core", "jacobi_mul", "group_core.jacobi_mul", None),
    ("minkowski", "is_minkowski_reduced", "minkowski.is_minkowski_reduced", None),
    ("minkowski", "minkowski_reduce", "minkowski.minkowski_reduce",
     lambda add, a, k, r: add("minkowski.minkowski_reduce.passes", r.iterations)),
    ("minkowski", "membership_mask", "minkowski.membership_mask",
     lambda add, a, k, r: add("minkowski.membership_mask.rows", len(r))),
    ("siegel", "det_sq", "siegel.det_sq",
     lambda add, a, k, r: add("siegel.det_sq.candidate_evals", len(r))),
    ("siegel", "siegel_membership", "siegel.siegel_membership", None),
    ("siegel", "highest_point_step", "siegel.highest_point_step", _fired),
    ("siegel", "siegel_reduce", "siegel.siegel_reduce",
     lambda add, a, k, r: add("siegel.siegel_reduce.iterations", r.iterations)),
    ("siegel", "membership_mask_points", "siegel.membership_mask_points",
     lambda add, a, k, r: (add("siegel.membership_mask_points.rows", len(r)),
                           add("siegel.membership_mask_points.accepted", int(r.sum())))),
    ("jacobi_domain", "jacobi_reduce", "jacobi_domain.jacobi_reduce", None),
    ("jacobi_domain", "decompose_in_omega_basis", "jacobi_domain.decompose_in_omega_basis", None),
    ("geometry", "_chunk_g2", "geometry._chunk_g2", None),
    ("geometry", "laplacian_apply", "geometry.laplacian_apply", None),
    ("geometry", "_operator_terms", "geometry._operator_terms", None),
    ("geometry", "metric_jacobi", "geometry.metric_jacobi", None),
    ("torus_spectral", "eval_E_omega", "torus_spectral.eval_E_omega", None),
    ("torus_spectral", "eigenvalue_E", "torus_spectral.eigenvalue_E", None),
    ("cli", "main", "cli.main", None),
)

#: jsonio functions are traced as two groups, by name prefix
JSONIO_GROUPS = (("decode_", "jsonio.decode"), ("encode_", "jsonio.encode"))

#: extra counters, reported as <name> with unit "count"
COUNTERS = (
    "minkowski.minkowski_reduce.passes",
    "minkowski.membership_mask.rows",
    "siegel.det_sq.candidate_evals",
    "siegel.highest_point_step.fired",
    "siegel.siegel_reduce.iterations",
    "siegel.membership_mask_points.rows",
    "siegel.membership_mask_points.accepted",
)


def span_names():
    """Every span name the tracer can record, in report order."""
    names = [t[2] for t in TARGETS]
    return names[:-1] + [g[1] for g in JSONIO_GROUPS] + names[-1:]


class Tracer:
    """Collects spans and per-name call counts, self times and counters."""

    MAX_SPANS = 250_000

    def __init__(self):
        self.names = span_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.calls = dict.fromkeys(self.names, 0)
        self.self_ns = dict.fromkeys(self.names, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.spans_total = 0
        self._stack = []
        self._patches = []

    def add(self, counter, n):
        self.counts[counter] += n

    def _wrap(self, name, fn, hook):
        nid = self._ids[name]
        stack = self._stack
        calls, self_ns, add = self.calls, self.self_ns, self.add
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = -1
            if len(starts) < self.MAX_SPANS:
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1][1] if stack else -1)
                starts.append(0)
                ends.append(0)
            frame = [0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_ns[name] += dur - frame[0]
                self.spans_total += 1
                if idx >= 0:
                    starts[idx] = t0
                    ends[idx] = t1
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                h0 = clock()
                hook(add, args, kwargs, result)
                if stack:
                    stack[-1][0] += clock() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch_everywhere(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "siegeljacobi" and not modname.startswith("siegeljacobi."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every target; raise TracerError naming any that is missing."""
        import importlib
        missing = []
        resolved = []
        for modname, path, name, hook in TARGETS:
            mod = importlib.import_module("siegeljacobi." + modname)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    missing.append("siegeljacobi.%s.%s" % (modname, path))
                    continue
            elif not callable(getattr(mod, path, None)):
                missing.append("siegeljacobi.%s.%s" % (modname, path))
                continue
            resolved.append((mod, path, name, hook))
        jsonio = importlib.import_module("siegeljacobi.jsonio")
        groups = []
        for prefix, name in JSONIO_GROUPS:
            fns = [a for a, v in vars(jsonio).items()
                   if a.startswith(prefix) and callable(v)]
            if not fns:
                missing.append("siegeljacobi.jsonio.%s*" % prefix)
            groups.append((fns, name))
        if missing:
            raise TracerError("traced functions no longer exist: " + ", ".join(missing))
        for mod, path, name, hook in resolved:
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, hook))
            else:
                orig = getattr(mod, path)
                self._patch_everywhere(orig, self._wrap(name, orig, hook))
        for fns, name in groups:
            for attr in fns:
                orig = getattr(jsonio, attr)
                self._patch_everywhere(orig, self._wrap(name, orig, None))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def layer_metrics(self):
        """{metric: (value, unit)} for every span name and counter."""
        out = {}
        for n in self.names:
            out[n + ".calls"] = (self.calls[n], "count")
            out[n + ".self_s"] = (self.self_ns[n] * 1e-9, "s")
        for c in COUNTERS:
            out[c] = (self.counts[c], "count")
        calls = self.calls["siegel.highest_point_step"]
        fired = self.counts["siegel.highest_point_step.fired"]
        out["siegel.highest_point_step.fired_frac"] = (fired / calls if calls else 0.0, "ratio")
        return out

    def save_spans(self, path):
        """Write the recorded spans (nanosecond clock) with their name table."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            parent=np.frombuffer(self.span_parent, np.int64),
            start=np.frombuffer(self.span_start, np.int64),
            end=np.frombuffer(self.span_end, np.int64))

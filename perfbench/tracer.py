"""Outside-in span tracer for the spechtbranch layers.

The tracer wraps public functions of the package from outside: a function is
rebound in every spechtbranch namespace that holds it (``verify`` and the
package ``__init__`` import with ``from .x import y``, so patching the
defining module alone misses their calls), and a method is rebound on its
class.  Each call records a span (name, start, end, parent span, case id).
Spans stay in memory until ``uninstall``; ``layer_metrics`` turns them into
per-layer self times, call counts and the counters the layers expose.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter

# layer module -> public names wrapped in it ("Class.method" for methods)
TARGETS = {
    "tabloids": ("polytabloid", "induced_polytabloid"),
    "modules": ("build_specht", "build_restriction", "build_induction",
                "AlgebraElement.apply", "GroupActionModule.element_matrix",
                "GroupActionModule.perm_matrix"),
    "exact": ("minimal_polynomial", "kernel", "rref", "Subspace.restrict",
              "RowBasis.coords_many"),
    "central": ("block_split", "central_symmetric_action"),
    "endo": ("hom_space", "certify_indecomposable", "decompose",
             "is_isomorphic"),
    "verify": ("verify_en_scalar", "verify_min_poly", "verify_poly_transfer",
               "verify_coefficient_restriction", "verify_coefficient_induction",
               "verify_branching", "run_char2_counterexamples", "sweep"),
}

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, names in TARGETS.items()
                   for name in names)

# every branch certify_indecomposable can report
CERTIFY_BRANCHES = ("zero-module", "scalar-commutant", "exhaustive-enumeration",
                    "witness-search", "eigenvalue-shift", "random-search",
                    "budget-exhausted")

BUILDS = ("modules.build_specht", "modules.build_restriction",
          "modules.build_induction")

PACKAGE = "spechtbranch"

# marks a wrapper so a check can tell it from a package function
WRAPPER_FLAG = "__perfbench_span__"


def package_modules():
    """Every loaded spechtbranch module, importing the ones that bind names."""
    for name in ("", ".cli") + tuple(f".{mod}" for mod in TARGETS):
        importlib.import_module(PACKAGE + name)
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def wrapped_names():
    """(namespace, attribute) pairs that currently hold a tracer wrapper."""
    found = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPER_FLAG, None) is not None:
                found.append((mod.__name__, attr))
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if getattr(fn, WRAPPER_FLAG, None) is not None:
                        found.append((mod.__name__, f"{attr}.{meth}"))
    return found


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, case id)
        self.case = -1
        self._stack: list[int] = []
        self._restore: list = []
        self._returned = weakref.WeakSet()
        self.counts: Counter = Counter()
        self.ambient_width_max = 0
        self.rows_kept = 0

    # -- installation -------------------------------------------------
    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for layer, names in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                span = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = vars(cls)[meth]
                    self._rebind(cls, meth, orig, self._wrap(span, orig))
                    continue
                orig = getattr(home, name)
                wrapper = self._wrap(span, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, attr, orig, wrapper)
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _rebind(self, owner, attr, orig, wrapper):
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn):
        spans, stack = self.spans, self._stack
        on_return = self._on_return
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span, start, end, parent, self.case)
            on_return(span, result)
            return result

        setattr(wrapper, WRAPPER_FLAG, span)
        return wrapper

    # -- counters read off return values ------------------------------
    def _on_return(self, span: str, result):
        if span in BUILDS:
            if result in self._returned:
                self.counts["modules.build.cache_hits"] += 1
            else:
                self._returned.add(result)
                if span == "modules.build_induction":
                    self.rows_kept += result.dim
            self.ambient_width_max = max(self.ambient_width_max,
                                         result.ambient_width)
        elif span == "central.block_split":
            self.counts["central.block_split.components"] += len(result)
        elif span == "endo.hom_space":
            self.counts["endo.hom_space.dim_sum"] += len(result)
        elif span == "endo.certify_indecomposable":
            self.counts[f"endo.certify.branch.{result.branch}"] += 1
            self.counts["endo.certify.trials"] += result.trials

    # -- reduction ----------------------------------------------------
    def layer_metrics(self) -> dict:
        """Self time and calls per span name, plus the layer counters.

        A span's self time is its duration minus the durations of its
        direct children, so each second is counted in exactly one layer.
        """
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        # nearest enclosing build_induction span, per span index
        in_build: list[int] = []
        scan_calls = 0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            self_s[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            owner = in_build[parent] if parent >= 0 else -1
            if name == "modules.build_induction":
                owner = idx
            elif name == "tabloids.induced_polytabloid" and owner >= 0:
                scan_calls += 1
            in_build.append(owner)

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        out["modules.build_induction.scan_yield"] = (
            self.rows_kept / scan_calls if scan_calls else 0.0)
        out["modules.build.cache_hits"] = self.counts["modules.build.cache_hits"]
        out["modules.ambient_width_max"] = self.ambient_width_max
        for key in ("central.block_split.components", "endo.hom_space.dim_sum",
                    "endo.certify.trials"):
            out[key] = self.counts[key]
        for branch in CERTIFY_BRANCHES:
            key = f"endo.certify.branch.{branch}"
            out[key] = self.counts[key]
        return out

    def write_spans(self, path):
        """Write the recorded spans as tab-separated lines."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\tcase\n")
            for idx, (name, start, end, parent, case) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{case}\n")

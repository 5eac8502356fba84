"""In-memory spans around the functions each trinoid layer exposes.

The tracer swaps the module attributes that the program looks up at call
time (``trinoid.cli.monodromy``, ``trinoid.fuchsian.integrate_path``, ...)
for timing wrappers and puts the originals back afterwards, so the
program itself carries no instrumentation.  A hook whose attribute no
longer exists is listed in ``Tracer.absent`` and its metrics are left out
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# (module whose global the program reads, attribute, span name).
# make_path_plan is called from trinoid.cli and from inside trinoid.fuchsian,
# so it is wrapped in both modules and both wrappers record under one name.
HOOKS = (
    ("trinoid.cli", "classify", "moduli.classify"),
    ("trinoid.cli", "build_trinoid_data", "trinoid_data.build_trinoid_data"),
    ("trinoid.cli", "make_path_plan", "fuchsian.make_path_plan"),
    ("trinoid.cli", "monodromy", "fuchsian.monodromy"),
    ("trinoid.cli", "projective_equivalence", "fuchsian.projective_equivalence"),
    ("trinoid.cli", "unitarizer_space", "unitarize.unitarizer_space"),
    ("trinoid.cli", "family_representation", "unitarize.family_representation"),
    ("trinoid.cli", "sample_grid", "surface.sample_grid"),
    ("trinoid.cli", "transport_frame", "surface.transport_frame"),
    ("trinoid.cli", "recover_weierstrass", "surface.recover_weierstrass"),
    ("trinoid.cli", "build_mesh", "surface.build_mesh"),
    ("trinoid.cli", "export_obj", "surface.export"),
    ("trinoid.cli", "export_ply", "surface.export"),
    ("trinoid.cli", "well_definedness_defect", "surface.well_definedness_defect"),
    ("trinoid.fuchsian", "make_path_plan", "fuchsian.make_path_plan"),
    ("trinoid.fuchsian", "integrate_path", "kernel.integrate_path"),
)

KERNEL = "kernel.integrate_path"
ROOT = "cli.main"
# Spans that own kernel calls; kernel counters are split by the nearest one.
KERNEL_OWNERS = ("fuchsian.monodromy", "surface.transport_frame", "surface.recover_weierstrass")


def _observe_kernel(args, out):
    # integrate_path(rows, mode, params, u0, rtol) -> (status, u, err, drift, nsteps)
    return {"steps": int(out[4]), "mode": int(args[1])}


def _observe_monodromy(args, out):
    return {"det_drift": float(out.det_drift), "err_estimate": float(out.err_estimate)}


def _observe_grid(args, out):
    return {"edges": len(out.edges)}


def _observe_transport(args, out):
    return {"max_det_defect": float(out.stats["max_det_defect"])}


def _observe_recovery(args, out):
    return {"max_null_defect": float(out.null_defect[out.numeric].max())}


def _observe_export(args, out):
    return {"bytes": os.path.getsize(args[1])}


OBSERVERS = {
    KERNEL: _observe_kernel,
    "fuchsian.monodromy": _observe_monodromy,
    "surface.sample_grid": _observe_grid,
    "surface.transport_frame": _observe_transport,
    "surface.recover_weierstrass": _observe_recovery,
    "surface.export": _observe_export,
}


class Tracer:
    """Span recorder; each span is a dict with name, start, end, parent, op."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        self.absent = []
        for modname, attr, name in self.hooks:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(f"{modname}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
            }
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                try:
                    rec.update(observe(args, out))
                except (AttributeError, KeyError, IndexError, TypeError, ValueError, OSError):
                    # the layer changed shape: its counter is reported absent
                    pass
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span run one after another (the program is single
    threaded), so the covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(spans, child)]


def kernel_owner(spans: list[dict], i: int) -> str | None:
    """Name of the nearest enclosing span that owns kernel calls."""
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] in KERNEL_OWNERS:
            return spans[p]["name"]
        p = spans[p]["parent"]
    return None


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, total and self seconds, summed attributes, maxima.

    Kernel spans are also summarized per owner under
    ``kernel.integrate_path.<owner>`` with calls, seconds and steps.
    """
    out: dict = defaultdict(lambda: defaultdict(float))
    selfs = self_times(spans)
    for i, rec in enumerate(spans):
        keys = [rec["name"]]
        if rec["name"] == KERNEL:
            owner = kernel_owner(spans, i)
            keys.append(f"{KERNEL}.{(owner or 'other').split('.')[-1]}")
        for key in keys:
            agg = out[key]
            agg["calls"] += 1
            agg["s"] += rec["end"] - rec["start"]
            agg["self_s"] += selfs[i]
            for attr in ("steps", "edges", "bytes"):
                if attr in rec:
                    agg[attr] += rec[attr]
            for attr in ("det_drift", "err_estimate", "max_det_defect", "max_null_defect"):
                if attr in rec:
                    agg[attr] = max(agg[attr], rec[attr])
    return {k: dict(v) for k, v in out.items()}

"""In-memory span tracing of ``plab`` from outside the package.

``Tracer.install()`` replaces the public functions of every ``plab`` module,
plus a few methods and the numpy eigen-solvers, with wrappers that record a
span (name, parent, start, end, counts).  A function imported by name into
another module (``tensor_power`` in both ``plab.quantum`` and
``plab.feasibility``) is replaced in every namespace that binds it.
``uninstall()`` puts every original back.  ``layer_metrics`` turns one pass
of spans into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import sys
import time

PLAB_MODULES = ("emx", "coarse", "compression", "quantum", "tasks", "simplex", "feasibility", "cli")

# Scalar helpers called once per number; a span would cost more than the
# call, so their time stays in the caller's self time.
NOT_WRAPPED = {"emx.as_fraction", "emx.parse_weight", "quantum.dim_cap"}

# Methods that carry layer work (constructors that parse or validate, the
# sampler, the coarse-graining maps).
METHODS = {
    "emx": {"FinSupportDist": ("__init__", "sample")},
    "coarse": {"UniformBinsMap": ("__call__",), "TableMap": ("__call__",)},
    "tasks": {"TaskSpec": ("__init__",)},
    "quantum": {"DensityMatrix": ("__init__",), "Povm": ("__init__",)},
    "feasibility": {"PolytopeSpec": ("from_json",)},
}

EIG_FUNCTIONS = ("eigh", "eigvalsh")


def _tableau_cells(args, kwargs, result):
    """Input size of the LP: rows x (variables + rhs)."""
    num_vars, rows = args[0], args[1]
    return {"tableau_cells": len(rows) * (num_vars + 1)}


def _sdp_counts(args, kwargs, result):
    return {"sweeps": result.sweeps, "decided": int(result.verdict != "undetermined")}


def _tensor_bytes(args, kwargs, result):
    d = args[1] if len(args) > 1 else kwargs.get("d", 1)
    return {"bytes": result.mat.nbytes if d > 1 else 0}


def _report_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _points_scanned(args, kwargs, result):
    return {"points": len(args[0].support)}


COUNTERS = {
    "emx.mass": _points_scanned,
    "simplex.feasible_point": _tableau_cells,
    "feasibility.sdp_feasible": _sdp_counts,
    "quantum.tensor_power": _tensor_bytes,
    "cli.write_report": _report_bytes,
}

# Factories whose returned scheme gets a traced ``reconstruct``.
SCHEME_FACTORIES = {"compression.segment_scheme", "compression.two_to_one_scheme", "compression.learner_to_compression"}


class Tracer:
    """Records spans while installed.  ``spans`` holds one list per span:
    [name, parent index or -1, start, end, counts or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, result)
            return post(result) if post is not None else result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, value)

    def _traced_scheme(self, scheme):
        return dataclasses.replace(scheme, reconstruct=self.wrap("compression.reconstruct", scheme.reconstruct))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        import numpy as np

        modules = {short: sys.modules[f"plab.{short}"] for short in PLAB_MODULES}
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or name in NOT_WRAPPED:
                    continue
                post = self._traced_scheme if name in SCHEME_FACTORIES else None
                wrapped = self.wrap(name, fn, COUNTERS.get(name), post)
                # every namespace that binds this function gets the wrapper
                for other in modules.values():
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, other_attr, wrapped)
            for cls_name, attrs in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    raw = cls.__dict__[attr]
                    name = f"{short}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        value = classmethod(self.wrap(name, raw.__func__))
                    else:
                        value = self.wrap(name, raw)
                    self._set(cls, attr, value)
        for attr in EIG_FUNCTIONS:
            self._set(np.linalg, attr, self.wrap(f"numpy.{attr}", getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def take(self) -> list[list]:
        """Return the recorded spans and start an empty record."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# Per-layer metric -> the span names it sums over.  "cli" is every cli span:
# argument parsing, config and JSON loading, report pinning and writing.
SELF_TIME = {
    "emx.mass": ("emx.mass",),
    "emx.substream": ("emx.substream",),
    "emx.sample": ("emx.FinSupportDist.sample",),
    "emx.learn": ("emx.quantile_learn",),
    "emx.verify_guarantee": ("emx.verify_guarantee",),
    "coarse.map": ("coarse.UniformBinsMap.__call__", "coarse.TableMap.__call__"),
    "coarse.learn": ("coarse.coarse_learn",),
    "compression.learner": ("compression.compression_learner",),
    "compression.reconstruct": ("compression.reconstruct",),
    "tasks.parse": ("tasks.TaskSpec.__init__",),
    "simplex.feasible_point": ("simplex.feasible_point",),
    "feasibility.polytope": ("feasibility.kernel_polytope", "feasibility.no_signaling_polytope",
                             "feasibility.PolytopeSpec.from_json"),
    "feasibility.lp_feasible": ("feasibility.lp_feasible",),
    "feasibility.sdp_feasible": ("feasibility.sdp_feasible",),
    "quantum.tensor_power": ("quantum.tensor_power",),
    "quantum.helstrom": ("quantum.helstrom_povm", "quantum.helstrom_bound"),
    "quantum.validate": ("quantum.DensityMatrix.__init__", "quantum.Povm.__init__"),
}
REPORTED_SELF = (
    "emx.mass", "emx.substream", "emx.sample", "emx.learn", "emx.verify_guarantee", "coarse.map", "coarse.learn",
    "compression.learner", "tasks.parse", "simplex.feasible_point", "feasibility.polytope", "feasibility.lp_feasible",
    "feasibility.sdp_feasible", "quantum.tensor_power", "quantum.helstrom", "quantum.validate",
)
REPORTED_CALLS = (
    "emx.mass", "emx.substream", "coarse.map", "compression.learner", "compression.reconstruct",
    "simplex.feasible_point", "feasibility.sdp_feasible", "quantum.tensor_power",
)
# eigen-solver calls are attributed to the layer of their nearest plab span
EIG_LAYERS = {"quantum": "quantum", "feasibility": "feasibility.sdp"}


def layer_metrics(spans: list[list], traced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose calls took ``traced_s``."""
    n = len(spans)
    child = [0.0] * n
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    eig = {layer: [0, 0.0] for layer in EIG_LAYERS.values()}
    counts: dict[str, int] = {}
    for i, (name, parent, t0, t1, extra) in enumerate(spans):
        self_s = t1 - t0 - child[i]
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
        if name.startswith("numpy.") and parent >= 0:
            layer = EIG_LAYERS.get(spans[parent][0].split(".", 1)[0])
            if layer is not None:
                eig[layer][0] += 1
                eig[layer][1] += self_s
        if extra:
            for key, value in extra.items():
                counts[f"{name}:{key}"] = counts.get(f"{name}:{key}", 0) + value

    def total(names, table):
        return sum(table.get(nm, 0) for nm in names)

    out: dict[str, float] = {}
    for metric in REPORTED_CALLS:
        out[f"{metric}.calls"] = total(SELF_TIME[metric], calls_by_name)
    for metric in REPORTED_SELF:
        out[f"{metric}.self_s"] = total(SELF_TIME[metric], self_by_name)
    cli_names = [nm for nm in self_by_name if nm.startswith("cli.")]
    out["cli.main.calls"] = calls_by_name.get("cli.main", 0)
    out["cli.main.self_s"] = total(cli_names, self_by_name)
    out["cli.report_bytes"] = counts.get("cli.write_report:bytes", 0)
    out["emx.mass.points_scanned"] = counts.get("emx.mass:points", 0)
    out["simplex.tableau_cells"] = counts.get("simplex.feasible_point:tableau_cells", 0)
    out["quantum.tensor_power.bytes_computed"] = counts.get("quantum.tensor_power:bytes", 0)
    sdp_calls = calls_by_name.get("feasibility.sdp_feasible", 0)
    out["feasibility.sdp.sweeps"] = counts.get("feasibility.sdp_feasible:sweeps", 0)
    out["feasibility.sdp.decided_share"] = (
        counts.get("feasibility.sdp_feasible:decided", 0) / sdp_calls if sdp_calls else 0.0
    )
    for layer, (calls, secs) in eig.items():
        out[f"{layer}.eig_calls"] = calls
        out[f"{layer}.eig_s"] = secs
    attributed = sum(total(names, self_by_name) for names in SELF_TIME.values()) + out["cli.main.self_s"]
    attributed += sum(secs for _, secs in eig.values())
    out["trace.unattributed_share"] = (traced_s - attributed) / traced_s if traced_s > 0 else 0.0
    return out


def write_spans(spans: list[list], path: str) -> None:
    """One JSON object per span: index, name, parent index, start, end, counts."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, parent, t0, t1, extra) in enumerate(spans):
            fh.write(json.dumps({"i": i, "name": name, "parent": parent, "t0": t0, "t1": t1, "counts": extra}) + "\n")
